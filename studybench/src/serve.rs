//! `serve-small-cells`: `Coordinator::serve` on loopback with two
//! `run_worker` threads and a fresh store each pass, over many tiny cells
//! (RF only, two faults each). Per-cell fixed costs dominate here and
//! nowhere else: lease and submit round trips, JSON framing, the
//! coordinator's hash re-verification, persist-before-ack saves,
//! per-worker compiles, golden runs and liveness maps.
//!
//! The faults are drawn by the importance sampler with liveness and
//! demand pruning on, so every cell also builds its golden run's liveness
//! map: this is the workload in `BENCHMARK.json` that measures the
//! liveness, sampler and prune layers.
//!
//! The two workers run a pass's cells concurrently, so the pass is the
//! smallest unit timed from outside: `ops_per_s` is cells per median
//! pass. The traced run adds a pass served to one benchmark-side worker
//! that speaks the public wire protocol itself, timing each round trip.

use crate::layers::{
    fill_pipeline, median_and_tail, replicate_cell, timed_pipeline, Counts, Layers,
};
use crate::{
    cells, digest, dir_bytes, fresh_dir, guarded, median, out_of_time, prepare, process_cpu_s,
    setup_seconds, timed, Metric, Opts, Repeats, Report, Sabotage, Size,
};
use softerr::serve::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use softerr::{
    run_worker, CellKey, CellResult, Coordinator, MachineConfig, OptLevel, Orchestrator, PruneMode,
    ResultStore, SamplerKind, SamplingPlan, Structure, StudyConfig, SweepReport, WorkerOptions,
    Workload,
};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Concurrent workers in a measured pass.
const WORKERS: usize = 2;

/// The serve workload's study configuration: RF x 4 workloads x O0-O3 x
/// both machines = 32 cells of two importance-sampled faults each.
pub fn config(seed: u64, size: Size) -> StudyConfig {
    let (workloads, levels) = match size {
        Size::Bench => (
            vec![
                Workload::Qsort,
                Workload::Dijkstra,
                Workload::Fft,
                Workload::Blowfish,
            ],
            OptLevel::ALL.to_vec(),
        ),
        Size::Tiny => (vec![Workload::Qsort], vec![OptLevel::O0, OptLevel::O2]),
    };
    StudyConfig {
        machines: MachineConfig::paper_machines(),
        workloads,
        levels,
        structures: vec![Structure::RegFile],
        plan: SamplingPlan::fixed(2)
            .sampler(SamplerKind::Importance)
            .prune(PruneMode::On)
            .prune_static(PruneMode::On),
        threads: 1,
        checkpoint: true,
        ..StudyConfig::quick(seed)
    }
}

/// Runs the serve workload.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let cfg = config(opts.seed, opts.size);
    let n = cells(&cfg).len() as u64;
    // The distributed study must equal an in-process one of the same config.
    let reference = Orchestrator::new(cfg.clone())
        .run()
        .map_err(|e| format!("in-process reference run: {e}"))?;
    let mut report = Report {
        digest: digest(&reference),
        ..Report::default()
    };

    let mut setup = Repeats::default();
    let mut pass_walls = Vec::new();
    let (mut cpu, mut worker_wall) = (0.0, 0.0);
    let mut traced = Repeats::default();
    let mut counts: Option<Counts> = None;
    let mut wire: Option<WireStats> = None;
    let (mut lease_rtt, mut submit_rtt) = (Vec::new(), Vec::new());
    let mut traced_walls = Vec::new();
    let mut passes = 0u64;
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        if !opts.trace {
            prepare(&cfg, &mut setup)?;
        }
        let dir = fresh_dir(opts, "pass")?;
        let cpu0 = process_cpu_s();
        let measured = guarded("serve pass", || serve_pass(&cfg, &dir));
        match measured {
            Ok(pass) => {
                pass_walls.push(pass.wall);
                cpu += process_cpu_s() - cpu0;
                worker_wall += pass.wall * WORKERS as f64;
                let sent: usize = pass.completed;
                let bad =
                    pass.rejected as u64 + sent.abs_diff(n as usize) as u64 + pass.worker_errors;
                report.ops(n, bad);
                report.check_digest(digest(&pass.report.results), n);
            }
            Err(e) => {
                eprintln!("{e}");
                report.ops(n, n);
            }
        }
        if opts.trace {
            let forge = opts.sabotage == Sabotage::ForgedSubmit && passes == 0;
            let dir = fresh_dir(opts, "traced")?;
            let mut pass_counts = Counts::default();
            let pass = guarded("traced serve pass", || {
                traced_pass(&cfg, &dir, forge, &mut traced, &mut pass_counts)
            });
            match pass {
                Ok((served, stats)) => {
                    traced_walls.push(stats.wall);
                    report.ops(n, stats.rejected + stats.releases);
                    report.check_digest(digest(&served.results), n);
                    // Replays the accepted cells' saves outside the
                    // coordinator, where they can be timed.
                    let replay =
                        ResultStore::open(fresh_dir(opts, "replay")?).map_err(|e| e.to_string())?;
                    for ((key, result), (machine, _)) in
                        served.results.cells.iter().zip(cells(&cfg))
                    {
                        let hash =
                            softerr::cell_config_hash(&cfg, machine, key.workload, key.level);
                        let (saved, dt) = timed(|| replay.save(&hash, key, result));
                        saved.map_err(|e| e.to_string())?;
                        traced.record(format!("save/{key}"), dt);
                    }
                    lease_rtt.extend_from_slice(&stats.lease_rtt);
                    submit_rtt.extend_from_slice(&stats.submit_rtt);
                    counts.get_or_insert(pass_counts);
                    wire.get_or_insert(stats);
                }
                Err(e) => {
                    eprintln!("{e}");
                    report.ops(n, n);
                }
            }
        }
        passes += 1;
        if out_of_time(start, pass_start, passes, opts.seconds) {
            break;
        }
    }

    if !opts.trace {
        report.metrics = vec![
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: n as f64 / median(&pass_walls),
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: setup_seconds(&setup),
            },
        ];
        return Ok(report);
    }
    let counts = counts.unwrap_or_default();
    let wire = wire.unwrap_or_default();
    let mut layers = Layers::default();
    fill_pipeline(&mut layers, &traced, &counts, &cfg);
    let save_s = traced.sum("save");
    layers.set("core.store.save_s", save_s);
    layers.set("core.store.saves", wire.store_writes as f64);
    layers.set("core.store.save_bytes", wire.store_bytes as f64);
    layers.set("core.store.misses", wire.store_misses as f64);
    let (lease_med, lease_tail, lease_pct) = median_and_tail(&mut lease_rtt);
    let (submit_med, submit_tail, submit_pct) = median_and_tail(&mut submit_rtt);
    layers.set("core.serve.lease_rtt_s", lease_med);
    layers.set("core.serve.lease_rtt_tail_s", lease_tail);
    layers.set("core.serve.lease_rtt_tail_pct", lease_pct);
    layers.set("core.serve.lease_rtt_samples", lease_rtt.len() as f64);
    layers.set("core.serve.submit_rtt_s", submit_med);
    layers.set("core.serve.submit_rtt_tail_s", submit_tail);
    layers.set("core.serve.submit_rtt_tail_pct", submit_pct);
    layers.set("core.serve.submit_rtt_samples", submit_rtt.len() as f64);
    layers.set("core.serve.frames", wire.frames as f64);
    layers.set("core.serve.frame_bytes", wire.frame_bytes as f64);
    layers.set("core.serve.waits", wire.waits as f64);
    layers.set("core.serve.rejected", wire.rejected as f64);
    layers.set("core.serve.releases", wire.releases as f64);
    if worker_wall > 0.0 {
        layers.set("core.serve.busy_share", cpu / worker_wall);
    }
    // Worker-seconds of the median measured pass that the timed calls of
    // the traced pass do not explain.
    let measured_worker_s = median(&pass_walls) * WORKERS as f64;
    let accounted = timed_pipeline(&traced)
        + save_s
        + lease_med * wire.lease_rtt.len() as f64
        + submit_med * wire.submit_rtt.len() as f64;
    layers.set("core.sched.unattributed_s", measured_worker_s - accounted);
    layers.set(
        "telemetry.trace_overhead",
        median(&traced_walls) / measured_worker_s - 1.0,
    );
    layers.set("telemetry.passes", passes as f64);
    report.metrics = layers.into_metrics();
    Ok(report)
}

/// What one measured pass produced.
struct ServePass {
    report: SweepReport,
    wall: f64,
    completed: usize,
    rejected: usize,
    worker_errors: u64,
}

/// Serves `cfg` to `WORKERS` `run_worker` threads with a fresh store.
fn serve_pass(cfg: &StudyConfig, dir: &Path) -> Result<ServePass, String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let coordinator = Coordinator::new(cfg.clone(), store);
    let t0 = Instant::now();
    let (served, workers) = std::thread::scope(|scope| {
        let coord = scope.spawn(|| coordinator.serve(&listener));
        let handles: Vec<_> = (0..WORKERS)
            .map(|i| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let opts = WorkerOptions {
                        name: format!("w{i}"),
                        ..WorkerOptions::default()
                    };
                    run_worker(addr, &opts)
                })
            })
            .collect();
        let mut workers: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        if !workers.iter().any(|w| matches!(w, Ok(Ok(_)))) && stalled(&coord) {
            workers.push(Ok(run_worker(&addr, &WorkerOptions::default())));
        }
        (coord.join(), workers)
    });
    let wall = t0.elapsed().as_secs_f64();
    let report = served
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let (mut completed, mut rejected, mut worker_errors) = (0, 0, 0);
    for worker in workers {
        match worker {
            Ok(Ok(w)) => {
                completed += w.completed;
                rejected += w.rejected;
            }
            Ok(Err(e)) => {
                eprintln!("worker failed: {e}");
                worker_errors += 1;
            }
            Err(_) => {
                eprintln!("worker panicked");
                worker_errors += 1;
            }
        }
    }
    Ok(ServePass {
        report,
        wall,
        completed,
        rejected,
        worker_errors,
    })
}

/// Whether the coordinator is still serving a second after its last
/// worker is gone: then no worker is left to finish the study, and a
/// stock worker must, or `serve` never returns. A coordinator that
/// already stopped accepting must not get one: its handshake would hang.
fn stalled<T>(coord: &std::thread::ScopedJoinHandle<'_, T>) -> bool {
    let deadline = Instant::now() + Duration::from_secs(1);
    while !coord.is_finished() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    !coord.is_finished()
}

/// Wire-level counts of one traced pass.
#[derive(Debug, Default)]
struct WireStats {
    lease_rtt: Vec<f64>,
    submit_rtt: Vec<f64>,
    frames: u64,
    frame_bytes: u64,
    waits: u64,
    rejected: u64,
    releases: u64,
    store_writes: u64,
    store_misses: u64,
    store_bytes: u64,
    wall: f64,
}

/// Serves `cfg` to one benchmark-side worker that speaks the wire
/// protocol itself and executes each leased cell through
/// [`replicate_cell`] with tracing on.
fn traced_pass(
    cfg: &StudyConfig,
    dir: &Path,
    forge: bool,
    timings: &mut Repeats,
    counts: &mut Counts,
) -> Result<(SweepReport, WireStats), String> {
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let coordinator = Coordinator::new(cfg.clone(), store);
    let t0 = Instant::now();
    let (served, worked) = std::thread::scope(|scope| {
        let coord = scope.spawn(|| coordinator.serve(&listener));
        let worked = wire_worker(&addr.to_string(), forge, timings, counts);
        if worked.is_err() && stalled(&coord) {
            let _ = run_worker(&addr.to_string(), &WorkerOptions::default());
        }
        (coord.join(), worked)
    });
    let report = served
        .map_err(|_| "coordinator panicked".to_string())?
        .map_err(|e| e.to_string())?;
    let mut stats = worked?;
    stats.wall = t0.elapsed().as_secs_f64();
    stats.store_writes = report.store_writes;
    stats.store_misses = report.store_misses;
    stats.store_bytes = dir_bytes(&dir.join("cells"));
    Ok((report, stats))
}

/// A connection that counts the frames and bytes it moves.
struct Conn {
    stream: TcpStream,
    frames: u64,
    bytes: u64,
}

impl Conn {
    fn send(&mut self, msg: &Request) -> Result<(), String> {
        let mut frame = Vec::new();
        write_frame(&mut frame, msg).map_err(|e| e.to_string())?;
        self.stream.write_all(&frame).map_err(|e| e.to_string())?;
        self.frames += 1;
        self.bytes += frame.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, String> {
        let mut counted = Counted {
            inner: &mut self.stream,
            bytes: 0,
        };
        let response = read_frame(&mut counted).map_err(|e| e.to_string())?;
        self.frames += 1;
        self.bytes += counted.bytes;
        Ok(response)
    }

    /// Sends `msg` and returns the reply with the round-trip seconds.
    fn call(&mut self, msg: &Request) -> Result<(Response, f64), String> {
        let t = Instant::now();
        self.send(msg)?;
        let reply = self.recv()?;
        Ok((reply, t.elapsed().as_secs_f64()))
    }
}

struct Counted<'a> {
    inner: &'a mut TcpStream,
    bytes: u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// The benchmark-side worker: `TCP_NODELAY` on its own side, as
/// `run_worker` sets it, one cell per lease. With `forge` set it first
/// submits a result under a hash no cell of the study has.
fn wire_worker(
    addr: &str,
    forge: bool,
    timings: &mut Repeats,
    counts: &mut Counts,
) -> Result<WireStats, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut conn = Conn {
        stream,
        frames: 0,
        bytes: 0,
    };
    let mut stats = WireStats::default();
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        worker: "studybench".to_string(),
    };
    let config = match conn.call(&hello)?.0 {
        Response::Welcome { config, .. } => config,
        other => return Err(format!("coordinator answered Hello with {other:?}")),
    };
    let mut granted: HashSet<CellKey> = HashSet::new();
    let mut forge = forge;
    loop {
        let (reply, rtt) = conn.call(&Request::Lease { want: 1 })?;
        stats.lease_rtt.push(rtt);
        let grants = match reply {
            Response::Leases { grants } => grants,
            Response::Wait { ms } => {
                stats.waits += 1;
                std::thread::sleep(Duration::from_millis(ms));
                continue;
            }
            Response::Done => break,
            other => return Err(format!("coordinator answered Lease with {other:?}")),
        };
        for grant in grants {
            if !granted.insert(grant.key.clone()) {
                stats.releases += 1;
            }
            let machine = config
                .machines
                .iter()
                .find(|m| m.name == grant.key.machine)
                .ok_or_else(|| format!("grant names unknown machine {}", grant.key.machine))?;
            let (result, _) = replicate_cell(&config, machine, &grant.key, timings, counts)?;
            if forge {
                forge = false;
                let forged = submit(grant.lease, "0000000000000000", &grant.key, &result);
                if let Response::Rejected { .. } = conn.call(&forged)?.0 {
                    stats.rejected += 1;
                }
            }
            let (reply, rtt) = conn.call(&submit(grant.lease, &grant.hash, &grant.key, &result))?;
            stats.submit_rtt.push(rtt);
            match reply {
                Response::Accepted { .. } => {}
                Response::Rejected { reason, .. } => {
                    eprintln!("coordinator rejected {}: {reason}", grant.key);
                    stats.rejected += 1;
                }
                other => return Err(format!("coordinator answered Submit with {other:?}")),
            }
        }
    }
    let _ = conn.call(&Request::Bye);
    stats.frames = conn.frames;
    stats.frame_bytes = conn.bytes;
    Ok(stats)
}

fn submit(lease: u64, hash: &str, key: &CellKey, result: &CellResult) -> Request {
    Request::Submit {
        lease,
        hash: hash.to_string(),
        key: key.clone(),
        result: result.clone(),
    }
}
