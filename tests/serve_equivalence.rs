//! End-to-end equivalence of the distributed campaign service.
//!
//! The acceptance bar is *exact* equality, not statistical agreement: a
//! coordinator with two workers must produce byte-identical store cells
//! and an equal `SweepReport` to a serial `Orchestrator` run of the same
//! `StudyConfig` on both paper machines — and a worker that dies holding
//! leases must cost wall-clock time only, never cells or correctness.

use serde::{obj_get, Value};
use softerr::serve::{read_frame, write_frame, LeaseGrant, Request, Response, PROTOCOL_VERSION};
use softerr::{
    cell_config_hash, CellKey, Coordinator, MachineConfig, OptLevel, Orchestrator, ResultStore,
    SamplingPlan, Structure, StudyConfig, StudyError, StudyResults, SweepReport, WorkerOptions,
    Workload,
};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Both paper machines, a 2×2 (workload × level) slice of the grid, two
/// structures: 8 cells, small enough to execute in seconds.
fn tiny_config(seed: u64) -> StudyConfig {
    StudyConfig {
        workloads: vec![Workload::Qsort, Workload::Sha],
        levels: vec![OptLevel::O0, OptLevel::O2],
        structures: vec![Structure::RegFile, Structure::RobPc],
        plan: SamplingPlan::fixed(6),
        seed,
        ..StudyConfig::default()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("softerr-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Serial reference run into its own store.
fn serial_run(cfg: &StudyConfig, dir: &Path) -> SweepReport {
    Orchestrator::new(cfg.clone())
        .store(ResultStore::open(dir).expect("serial store"))
        .execute(&|_| {})
        .expect("serial run")
}

/// Runs `coordinator` on an ephemeral loopback port while `client`
/// drives it from this thread with the port's address; returns the
/// coordinator's report and the client's result.
///
/// `serve` returns only once every cell is done. A client that panics (a
/// failed check) with cells left would leave the coordinator waiting for a
/// worker forever and the test hanging instead of failing. So the client
/// runs under `catch_unwind`; if it panicked while the coordinator is
/// still serving, a stock worker finishes the study, the coordinator is
/// joined, and the client's panic is raised again.
fn serve_with<T>(coordinator: Coordinator, client: impl FnOnce(&str) -> T) -> (SweepReport, T) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    std::thread::scope(|scope| {
        let serve = scope.spawn(move || coordinator.serve(&listener));
        match catch_unwind(AssertUnwindSafe(|| client(&addr))) {
            Ok(value) => {
                let report = serve.join().expect("coordinator thread").expect("serve");
                (report, value)
            }
            Err(panic) => {
                if !serve.is_finished() {
                    // Only to let `serve` return; its outcome is moot.
                    let _ = softerr::run_worker(&addr, &WorkerOptions::default());
                }
                let _ = serve.join();
                resume_unwind(panic)
            }
        }
    })
}

/// Serves `cfg` on an ephemeral port while `workers` run against it;
/// returns the coordinator's report and each worker's result.
fn distributed_run(
    cfg: &StudyConfig,
    dir: &Path,
    lease_ms: u64,
    workers: Vec<WorkerOptions>,
) -> (SweepReport, Vec<softerr::WorkerReport>) {
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(dir).expect("store"))
        .lease_ms(lease_ms)
        .progress_log(dir.join("progress.jsonl"));
    serve_with(coordinator, |addr| {
        std::thread::scope(|scope| {
            workers
                .into_iter()
                .map(|opts| scope.spawn(move || softerr::run_worker(addr, &opts).expect("worker")))
                .collect::<Vec<_>>() // spawn all before joining any
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect()
        })
    })
}

/// Byte-compares the file of every cell of the serial run between two
/// stores.
fn assert_stores_bit_identical(serial: &StudyResults, a: &Path, b: &Path) {
    for (key, _) in &serial.cells {
        let machine = serial.machine(&key.machine).expect("planned machine");
        let hash = cell_config_hash(&serial.config, machine, key.workload, key.level);
        let name = format!("cells/{hash}.json");
        let left = std::fs::read(a.join(&name))
            .unwrap_or_else(|e| panic!("{} missing {name}: {e}", a.display()));
        let right = std::fs::read(b.join(&name))
            .unwrap_or_else(|e| panic!("{} missing {name}: {e}", b.display()));
        assert_eq!(left, right, "store cell {name} differs between runs");
    }
}

#[test]
fn coordinator_with_two_workers_matches_serial_bit_for_bit() {
    let cfg = tiny_config(77);
    let serial_dir = temp_dir("eq-serial");
    let dist_dir = temp_dir("eq-dist");
    let serial = serial_run(&cfg, &serial_dir);

    let workers = vec![
        WorkerOptions {
            name: "w0".into(),
            capacity: 2,
        },
        WorkerOptions {
            name: "w1".into(),
            capacity: 2,
        },
    ];
    let (dist, reports) = distributed_run(&cfg, &dist_dir, 60_000, workers);

    assert_eq!(
        serial.results, dist.results,
        "distributed results must equal the serial run exactly"
    );
    assert_eq!(serial.executed, dist.executed);
    assert_eq!(serial.cells, dist.cells);
    assert_eq!(serial.store_hits, dist.store_hits);
    assert_eq!(serial.store_misses, dist.store_misses);
    assert_eq!(serial.store_writes, dist.store_writes);
    assert_eq!(
        reports.iter().map(|r| r.completed).sum::<usize>(),
        dist.cells,
        "the two workers between them executed every cell exactly once"
    );
    assert_eq!(reports.iter().map(|r| r.rejected).sum::<usize>(), 0);
    assert_stores_bit_identical(&serial.results, &serial_dir, &dist_dir);

    // A second distributed run over the same store is served entirely
    // from it: the coordinator answers from the store and finishes
    // without needing a single worker to connect.
    let (again, _) = distributed_run(&cfg, &dist_dir, 60_000, vec![]);
    assert_eq!(again.results, serial.results);
    assert_eq!(again.executed, 0, "warm store: nothing to execute");
    assert_eq!(again.store_hits, again.cells);

    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&dist_dir).ok();
}

/// The fields of the log records of one kind (`fields.event`).
fn records_of<'r>(records: &'r [Value], kind: &str) -> Vec<&'r Value> {
    let kind = Value::Str(kind.to_string());
    records
        .iter()
        .map(|r| obj_get(r, "fields").expect("every record has fields"))
        .filter(|f| obj_get(f, "event").ok() == Some(&kind))
        .collect()
}

/// `fields[name]` as a string.
fn text<'r>(fields: &'r Value, name: &str) -> &'r str {
    match obj_get(fields, name) {
        Ok(Value::Str(s)) => s,
        other => panic!("field {name} is not a string: {other:?}"),
    }
}

/// `fields[name]` as an unsigned integer.
fn number(fields: &Value, name: &str) -> u64 {
    match obj_get(fields, name) {
        Ok(Value::U64(n)) => *n,
        other => panic!("field {name} is not a count: {other:?}"),
    }
}

/// The coordinator's progress log is a JSONL sink of the scheduler's
/// events: every line parses even when a cell key needs escaping, and each
/// scheduler fact is recorded exactly once.
#[test]
fn progress_log_records_each_scheduler_fact_once() {
    let mut cfg = StudyConfig {
        machines: vec![MachineConfig::cortex_a15()],
        structures: vec![Structure::RegFile],
        plan: SamplingPlan::fixed(2),
        ..tiny_config(82)
    };
    cfg.machines[0].name = r#"A15 "lab" \ rack"#.to_string();
    let cells: Vec<String> = Orchestrator::new(cfg.clone())
        .plan()
        .iter()
        .map(CellKey::to_string)
        .collect();
    let dir = temp_dir("log");
    let log = dir.join("progress.jsonl");
    let read_log = || -> Vec<Value> {
        std::fs::read_to_string(&log)
            .expect("progress log")
            .lines()
            .map(|line| {
                serde_json::from_str(line).unwrap_or_else(|e| panic!("not JSON ({e}): {line}"))
            })
            .collect()
    };
    let workers = ["w0", "w1"].map(|name| WorkerOptions {
        name: name.into(),
        ..WorkerOptions::default()
    });
    let (cold, _) = distributed_run(&cfg, &dir, 60_000, workers.to_vec());
    assert_eq!(cold.executed, cells.len());
    let records = read_log();

    let completed = records_of(&records, "completed");
    let leased = records_of(&records, "leased");
    assert_eq!(completed.len(), cells.len(), "one completion per cell");
    assert_eq!(leased.len(), cells.len(), "one grant per cell");
    for cell in &cells {
        let done: Vec<_> = completed
            .iter()
            .filter(|f| text(f, "cell") == cell)
            .collect();
        let grant: Vec<_> = leased.iter().filter(|f| text(f, "cell") == cell).collect();
        assert_eq!((done.len(), grant.len()), (1, 1), "{cell}");
        let (done, grant) = (done[0], grant[0]);
        assert!(text(done, "worker").starts_with('w'));
        assert_eq!(number(done, "lease"), number(grant, "lease"), "{cell}");
        assert!(number(done, "done") >= 1);
        assert_eq!(number(done, "total"), cells.len() as u64);
        assert_eq!(text(grant, "worker"), text(done, "worker"));
        assert!(number(grant, "deadline_ms") >= 60_000);
    }
    let connected = records_of(&records, "connected");
    let disconnected = records_of(&records, "disconnected");
    assert_eq!(connected.len(), 2, "one connect per worker");
    assert_eq!(disconnected.len(), 2, "one disconnect per worker");
    for fields in &connected {
        let worker = text(fields, "worker");
        let gone: Vec<_> = disconnected
            .iter()
            .filter(|f| text(f, "worker") == worker)
            .collect();
        assert_eq!(gone.len(), 1, "{worker}");
        assert_eq!(
            number(gone[0], "released"),
            0,
            "{worker} said Bye empty-handed"
        );
    }

    // The warm pass appends one store record per cell and nothing leased.
    let (warm, _) = distributed_run(&cfg, &dir, 60_000, vec![]);
    assert_eq!(warm.store_hits, cells.len());
    let records = read_log()[records.len()..].to_vec();
    let stored = records_of(&records, "store");
    for cell in &cells {
        let hits = stored.iter().filter(|f| text(f, "cell") == cell).count();
        assert_eq!(hits, 1, "{cell}");
    }
    assert_eq!(stored.len(), cells.len());
    assert!(records_of(&records, "leased").is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_worker_cells_are_released_and_completed() {
    let cfg = tiny_config(78);
    let serial_dir = temp_dir("kill-serial");
    let dist_dir = temp_dir("kill-dist");
    let serial = serial_run(&cfg, &serial_dir);

    // `doomed` completes one cell, then vanishes while holding a fresh
    // lease (simulating a kill -9 mid-cell: the connection drops without
    // `Bye` and the unfinished lease is released). `survivor` finishes the
    // study.
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dist_dir).expect("store"))
        .lease_ms(60_000);
    let (dist, survivor) = serve_with(coordinator, |addr| {
        let mut doomed = greet(addr, "doomed");
        let grant = lease_one(&mut doomed);
        let reply = submit(&mut doomed, grant, &serial.results);
        assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
        lease_one(&mut doomed);
        drop(doomed);
        softerr::run_worker(
            addr,
            &WorkerOptions {
                name: "survivor".into(),
                capacity: 2,
            },
        )
        .expect("survivor worker")
    });

    // The doomed worker's one accepted cell, and the survivor's.
    assert_eq!(
        1 + survivor.completed,
        dist.cells,
        "every cell was executed exactly once despite the crash"
    );
    assert!(
        survivor.completed > 0,
        "the survivor picked up the released cells"
    );
    assert_eq!(dist.executed, dist.cells, "no cell was lost or doubled");
    assert_eq!(serial.results, dist.results);
    assert_stores_bit_identical(&serial.results, &serial_dir, &dist_dir);
    // Exactly one file per cell: the crash left neither litter nor dupes.
    assert_eq!(
        std::fs::read_dir(dist_dir.join("cells")).unwrap().count(),
        dist.cells
    );

    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&dist_dir).ok();
}

#[test]
fn forged_submissions_are_rejected_and_honest_workers_prevail() {
    let cfg = tiny_config(79);
    let dist_dir = temp_dir("forge-dist");
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dist_dir).expect("store"));
    let (dist, honest) = serve_with(coordinator, |addr| {
        // A hostile client: greets correctly, then submits a cell the
        // study never planned. The coordinator must refuse it without
        // touching the store.
        let mut stream = TcpStream::connect(addr).expect("hostile connect");
        write_frame(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
                worker: "hostile".into(),
            },
        )
        .unwrap();
        let welcome: Response = read_frame(&mut stream).unwrap();
        let key = match &welcome {
            Response::Welcome { config, .. } => CellKey {
                machine: config.machines[0].name.clone(),
                workload: config.workloads[0],
                level: config.levels[0],
            },
            other => panic!("expected Welcome, got {other:?}"),
        };
        let bogus = softerr::CellResult {
            golden_cycles: 1,
            golden_retired: 1,
            code_words: 1,
            campaigns: vec![],
        };
        write_frame(
            &mut stream,
            &Request::Submit {
                lease: 999,
                hash: "ffffffffffffffff".into(),
                key: key.clone(),
                result: bogus.clone(),
            },
        )
        .unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Rejected { reason, .. } => {
                assert!(reason.contains("not a cell"), "unexpected reason: {reason}")
            }
            other => panic!("a forged hash must be Rejected, got {other:?}"),
        }
        // Right hash, wrong key: also refused.
        let machine = &cfg.machines[1];
        let real_hash = cell_config_hash(&cfg, machine, cfg.workloads[0], cfg.levels[0]);
        write_frame(
            &mut stream,
            &Request::Submit {
                lease: 999,
                hash: real_hash,
                key, // names machine 0, but the hash plans machine 1
                result: bogus,
            },
        )
        .unwrap();
        match read_frame::<Response>(&mut stream).unwrap() {
            Response::Rejected { reason, .. } => {
                assert!(
                    reason.contains("key mismatch"),
                    "unexpected reason: {reason}"
                )
            }
            other => panic!("a mis-keyed submit must be Rejected, got {other:?}"),
        }
        write_frame(&mut stream, &Request::Bye).unwrap();
        let _: Response = read_frame(&mut stream).unwrap();
        drop(stream);

        // An honest worker completes the study as if nothing happened.
        softerr::run_worker(
            addr,
            &WorkerOptions {
                name: "honest".into(),
                capacity: 2,
            },
        )
        .expect("honest worker")
    });
    assert_eq!(honest.completed, dist.cells);
    assert_eq!(dist.executed, dist.cells);
    // The forgeries never reached the store: one write per real cell.
    assert_eq!(dist.store_writes as usize, dist.cells);
    std::fs::remove_dir_all(&dist_dir).ok();
}

#[test]
fn a_served_machine_the_simulator_cannot_run_is_a_config_error() {
    // A hand-rolled coordinator welcomes the worker into a study whose A15
    // has 128-byte L2 lines under 64-byte L1 lines: the memory system
    // would panic at the first fill, so the worker must refuse the study.
    let mut cfg = tiny_config(80);
    cfg.machines[0].l2.line_bytes = 128;
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            let (mut stream, _) = listener.accept().expect("worker connects");
            match read_frame::<Request>(&mut stream).expect("hello") {
                Request::Hello { .. } => {}
                other => panic!("expected Hello, got {other:?}"),
            }
            let welcome = Response::Welcome {
                version: PROTOCOL_VERSION,
                cells: 8,
                config: cfg.clone(),
            };
            write_frame(&mut stream, &welcome).expect("welcome");
            // Should the worker ask for work anyway, grant it the first cell.
            if let Ok(Request::Lease { .. }) = read_frame::<Request>(&mut stream) {
                let hash =
                    cell_config_hash(&cfg, &cfg.machines[0], cfg.workloads[0], cfg.levels[0]);
                let grants = vec![softerr::serve::LeaseGrant {
                    lease: 0,
                    key: CellKey {
                        machine: cfg.machines[0].name.clone(),
                        workload: cfg.workloads[0],
                        level: cfg.levels[0],
                    },
                    hash,
                    deadline_ms: 60_000,
                }];
                let _ = write_frame(&mut stream, &Response::Leases { grants });
                let _ = read_frame::<Request>(&mut stream);
            }
        });
        softerr::run_worker(&addr, &WorkerOptions::default())
    });
    match outcome {
        Err(StudyError::Config(msg)) => {
            assert!(msg.contains("64 B") && msg.contains("128 B"), "{msg}")
        }
        other => panic!("expected a Config error, got {other:?}"),
    }
}

/// Lease round trips against a real coordinator on loopback are not held
/// back by Nagle's algorithm waiting out the client's delayed ACK: the
/// median of the 4 that the per-worker cap grants stays under 20 ms. A
/// reply written as a length prefix and a payload in two writes, without
/// `TCP_NODELAY`, took ~40 ms each.
#[test]
fn lease_round_trips_do_not_wait_for_delayed_acks() {
    // One machine, RF only, two faults per cell: 5 workloads × 2 levels =
    // 10 cells that each execute in a moment.
    let cfg = StudyConfig {
        machines: vec![MachineConfig::cortex_a15()],
        workloads: vec![
            Workload::Qsort,
            Workload::Sha,
            Workload::Dijkstra,
            Workload::Fft,
            Workload::Blowfish,
        ],
        structures: vec![Structure::RegFile],
        plan: SamplingPlan::fixed(2),
        ..tiny_config(81)
    };
    let dir = temp_dir("rtt");
    let coordinator = Coordinator::new(cfg, ResultStore::open(&dir).expect("store"));
    let (_, rtts) = serve_with(coordinator, |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            worker: "probe".into(),
        };
        write_frame(&mut stream, &hello).unwrap();
        let _welcome: Response = read_frame(&mut stream).unwrap();
        // Each Lease takes one of the ten cells and the worker's cap is 4,
        // so none of the first 4 is answered `Wait`.
        let rtts: Vec<(Duration, Response)> = (0..4)
            .map(|_| {
                let t = Instant::now();
                write_frame(&mut stream, &Request::Lease { want: 1 }).unwrap();
                let reply = read_frame::<Response>(&mut stream).unwrap();
                (t.elapsed(), reply)
            })
            .collect();
        // Bye returns the leased cells; a real worker then completes the
        // study so the coordinator returns.
        write_frame(&mut stream, &Request::Bye).unwrap();
        read_frame::<Response>(&mut stream).unwrap();
        softerr::run_worker(addr, &WorkerOptions::default()).expect("worker");
        rtts
    });
    std::fs::remove_dir_all(&dir).ok();
    let mut rtts: Vec<Duration> = rtts
        .into_iter()
        .map(|(rtt, reply)| match reply {
            Response::Leases { grants } if grants.len() == 1 => rtt,
            other => panic!("expected one grant, got {other:?}"),
        })
        .collect();
    rtts.sort();
    assert!(
        rtts[2] < Duration::from_millis(20),
        "median Lease round trip {:?} (all: {rtts:?})",
        rtts[2]
    );
}

/// One cell per level of `levels`: the A15 running qsort, the register
/// file only, two faults.
fn small_config(seed: u64, levels: Vec<OptLevel>) -> StudyConfig {
    StudyConfig {
        machines: vec![MachineConfig::cortex_a15()],
        workloads: vec![Workload::Qsort],
        levels,
        structures: vec![Structure::RegFile],
        plan: SamplingPlan::fixed(2),
        ..tiny_config(seed)
    }
}

/// One request out, one reply back.
fn call(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, request).expect("request");
    read_frame(stream).expect("reply")
}

/// A raw client the coordinator has welcomed.
fn greet(addr: &str, name: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        worker: name.into(),
    };
    match call(&mut stream, &hello) {
        Response::Welcome { .. } => stream,
        other => panic!("expected Welcome, got {other:?}"),
    }
}

/// Leases exactly one cell.
fn lease_one(stream: &mut TcpStream) -> LeaseGrant {
    match call(stream, &Request::Lease { want: 1 }) {
        Response::Leases { mut grants } if grants.len() == 1 => grants.remove(0),
        other => panic!("expected one grant, got {other:?}"),
    }
}

/// Submits the serial run's result for `grant`.
fn submit(stream: &mut TcpStream, grant: LeaseGrant, serial: &StudyResults) -> Response {
    let key = &grant.key;
    let result = serial
        .cell(&key.machine, key.workload, key.level)
        .expect("a planned cell")
        .clone();
    let request = Request::Submit {
        lease: grant.lease,
        hash: grant.hash,
        key: grant.key,
        result,
    };
    call(stream, &request)
}

/// The coordinator's longest hold of a `Lease` with nothing grantable.
const WAIT: Duration = Duration::from_millis(100);

/// A worker that asks for work while the last cell runs elsewhere is
/// never told to sleep, and learns `Done` with the submitter's `Accepted`.
/// An attempt whose gap a stalled host widens is retried: only a hold the
/// completing submission never wakes misses the margin every time.
#[test]
fn a_held_lease_learns_done_when_the_last_cell_completes() {
    let cfg = small_config(83, vec![OptLevel::O0]);
    let serial = Orchestrator::new(cfg.clone()).run().expect("serial run");
    let prompt = (0..3).any(|attempt| {
        let dir = temp_dir(&format!("hold-done-{attempt}"));
        let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dir).expect("store"));
        let (report, gap) = serve_with(coordinator, |addr| {
            let mut a = greet(addr, "a");
            let grant = lease_one(&mut a);
            let mut b = greet(addr, "b");
            std::thread::scope(|scope| {
                let b = scope.spawn(move || loop {
                    match call(&mut b, &Request::Lease { want: 1 }) {
                        Response::Wait { ms } => {
                            assert_eq!(ms, 0, "a held Lease is told to ask again now")
                        }
                        Response::Done => {
                            let done = Instant::now();
                            call(&mut b, &Request::Bye);
                            return done;
                        }
                        other => panic!("expected Wait or Done, got {other:?}"),
                    }
                });
                // Likely time for the coordinator to start holding b's Lease.
                std::thread::sleep(Duration::from_millis(30));
                let reply = submit(&mut a, grant, &serial);
                let accepted = Instant::now();
                assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
                // a's Bye releases, which also wakes a hold: only after b's
                // Done.
                let done = b.join().expect("b");
                call(&mut a, &Request::Bye);
                done.max(accepted) - done.min(accepted)
            })
        });
        assert_eq!(report.results, serial);
        std::fs::remove_dir_all(&dir).ok();
        gap < WAIT / 2
    });
    assert!(prompt, "Done came {:?} or more from Accepted", WAIT / 2);
}

/// The holder of the only cell vanishes without `Bye` while another
/// worker's Lease is held: that Lease is told to ask again now, never
/// handed the cell, and the next Lease is. An attempt whose release
/// reaches the board before b's Lease does (b is then granted the cell at
/// once) is retried: only a hold that grants loses every time.
#[test]
fn a_held_lease_asks_again_when_the_holder_disconnects() {
    let cfg = small_config(84, vec![OptLevel::O0]);
    let serial = Orchestrator::new(cfg.clone()).run().expect("serial run");
    let held = (0..5).any(|attempt| {
        let dir = temp_dir(&format!("hold-release-{attempt}"));
        let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dir).expect("store"));
        let (report, held) = serve_with(coordinator, |addr| {
            let mut a = greet(addr, "a");
            let grant = lease_one(&mut a);
            let mut b = greet(addr, "b");
            write_frame(&mut b, &Request::Lease { want: 1 }).unwrap();
            // Likely time for the coordinator to start holding b's Lease.
            std::thread::sleep(Duration::from_millis(30));
            drop(a);
            // A hold that timed out before the release asks again, and
            // that Lease may be held until the release lands.
            let mut held = false;
            let regrant = loop {
                match read_frame::<Response>(&mut b).unwrap() {
                    Response::Wait { ms: 0 } => held = true,
                    Response::Leases { mut grants } if grants.len() == 1 => break grants.remove(0),
                    other => panic!("expected Wait {{ ms: 0 }} or one grant, got {other:?}"),
                }
                write_frame(&mut b, &Request::Lease { want: 1 }).unwrap();
            };
            assert_eq!(regrant.key, grant.key, "the released cell");
            let reply = submit(&mut b, regrant, &serial);
            assert!(matches!(reply, Response::Accepted { .. }), "{reply:?}");
            assert_eq!(call(&mut b, &Request::Lease { want: 1 }), Response::Done);
            call(&mut b, &Request::Bye);
            held
        });
        assert_eq!(report.results, serial);
        std::fs::remove_dir_all(&dir).ok();
        held
    });
    assert!(held, "b's Lease was never held");
}

/// With nothing changing on the board, a held Lease is answered
/// `Wait { ms: 0 }` after the hold, well inside the lease deadline.
#[test]
fn a_held_lease_asks_again_after_the_hold_when_nothing_changes() {
    let cfg = small_config(85, vec![OptLevel::O0]);
    let dir = temp_dir("hold-idle");
    let coordinator =
        Coordinator::new(cfg, ResultStore::open(&dir).expect("store")).lease_ms(10_000);
    let (report, ()) = serve_with(coordinator, |addr| {
        let mut a = greet(addr, "a");
        lease_one(&mut a);
        let mut b = greet(addr, "b");
        let t = Instant::now();
        let reply = call(&mut b, &Request::Lease { want: 1 });
        let held = t.elapsed();
        assert_eq!(reply, Response::Wait { ms: 0 });
        assert!(WAIT <= held && held < Duration::from_secs(1), "{held:?}");
        call(&mut a, &Request::Bye);
        call(&mut b, &Request::Bye);
        softerr::run_worker(addr, &WorkerOptions::default()).expect("worker");
    });
    assert_eq!(report.executed, 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// A worker at its cap of 4 in-flight cells keeps holding while other
/// cells are pending, so it cannot spin on `Wait { ms: 0 }`.
#[test]
fn a_worker_at_its_cap_keeps_holding_while_cells_are_pending() {
    // 5 cells: one more than the cap.
    let cfg = StudyConfig {
        workloads: vec![
            Workload::Qsort,
            Workload::Sha,
            Workload::Dijkstra,
            Workload::Fft,
            Workload::Blowfish,
        ],
        ..small_config(86, vec![OptLevel::O0])
    };
    let dir = temp_dir("hold-cap");
    let coordinator = Coordinator::new(cfg, ResultStore::open(&dir).expect("store"));
    let (report, ()) = serve_with(coordinator, |addr| {
        let mut a = greet(addr, "a");
        match call(&mut a, &Request::Lease { want: 5 }) {
            Response::Leases { grants } => assert_eq!(grants.len(), 4, "the cap grants 4"),
            other => panic!("expected grants, got {other:?}"),
        }
        let t = Instant::now();
        let reply = call(&mut a, &Request::Lease { want: 1 });
        let held = t.elapsed();
        assert_eq!(reply, Response::Wait { ms: 0 });
        assert!(held >= WAIT, "{held:?}");
        call(&mut a, &Request::Bye);
        softerr::run_worker(addr, &WorkerOptions::default()).expect("worker");
    });
    assert_eq!(report.executed, 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// A `Hello` is read under a 64 KiB cap: a well-formed one with a 100 KB
/// worker name is refused without a `Welcome`, and an honest worker still
/// completes the study.
#[test]
fn an_oversized_hello_is_refused_and_honest_workers_prevail() {
    let cfg = small_config(87, vec![OptLevel::O0]);
    let dir = temp_dir("big-hello");
    let coordinator = Coordinator::new(cfg, ResultStore::open(&dir).expect("store"));
    let (report, honest) = serve_with(coordinator, |addr| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            worker: "w".repeat(100_000),
        };
        // The coordinator may close before the whole frame is written.
        let _ = write_frame(&mut stream, &hello);
        let reply = read_frame::<Response>(&mut stream);
        assert!(reply.is_err(), "an oversized Hello was answered {reply:?}");
        softerr::run_worker(addr, &WorkerOptions::default()).expect("honest worker")
    });
    assert_eq!(honest.completed, 1);
    assert_eq!(report.executed, 1);
    std::fs::remove_dir_all(&dir).ok();
}
