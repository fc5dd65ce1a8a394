//! End-to-end equivalence of the distributed campaign service.
//!
//! The acceptance bar is *exact* equality, not statistical agreement: a
//! coordinator with two workers must produce byte-identical store cells
//! and an equal `SweepReport` to a serial `Orchestrator` run of the same
//! `StudyConfig` on both paper machines — and a worker that dies holding
//! leases must cost wall-clock time only, never cells or correctness.

use softerr::serve::{read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use softerr::{
    cell_config_hash, CellKey, Coordinator, MachineConfig, OptLevel, Orchestrator, ResultStore,
    SamplingPlan, Structure, StudyConfig, StudyError, StudyResults, SweepReport, WorkerOptions,
    Workload,
};
use std::net::{TcpListener, TcpStream};
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

/// Serves `cfg` on an ephemeral port while `workers` run against it;
/// returns the coordinator's report and each worker's result.
fn distributed_run(
    cfg: &StudyConfig,
    dir: &Path,
    lease_ms: u64,
    workers: Vec<WorkerOptions>,
) -> (SweepReport, Vec<softerr::WorkerReport>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(dir).expect("store"))
        .lease_ms(lease_ms)
        .progress_log(dir.join("progress.jsonl"));
    std::thread::scope(|scope| {
        let serve = scope.spawn(move || coordinator.serve(&listener).expect("serve"));
        let reports: Vec<_> = workers
            .into_iter()
            .map(|opts| {
                let addr = addr.clone();
                scope.spawn(move || softerr::run_worker(&addr, &opts).expect("worker"))
            })
            .collect::<Vec<_>>() // spawn all before joining any
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (serve.join().expect("coordinator thread"), reports)
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
            ..WorkerOptions::default()
        },
        WorkerOptions {
            name: "w1".into(),
            capacity: 2,
            ..WorkerOptions::default()
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

#[test]
fn killed_worker_cells_are_released_and_completed() {
    let cfg = tiny_config(78);
    let serial_dir = temp_dir("kill-serial");
    let dist_dir = temp_dir("kill-dist");
    let serial = serial_run(&cfg, &serial_dir);

    // `doomed` completes one cell, then vanishes while holding a fresh
    // lease (simulating a kill -9 mid-cell: the connection drops and the
    // unfinished lease is released). `survivor` finishes the study.
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dist_dir).expect("store"))
        .lease_ms(60_000);
    let (dist, doomed, survivor) = std::thread::scope(|scope| {
        let serve = scope.spawn(move || coordinator.serve(&listener).expect("serve"));
        let doomed = softerr::run_worker(
            &addr,
            &WorkerOptions {
                name: "doomed".into(),
                abandon_after: Some(1),
                ..WorkerOptions::default()
            },
        )
        .expect("doomed worker runs until its simulated crash");
        assert!(doomed.abandoned, "the test hook must have fired");
        let survivor = softerr::run_worker(
            &addr,
            &WorkerOptions {
                name: "survivor".into(),
                capacity: 2,
                ..WorkerOptions::default()
            },
        )
        .expect("survivor worker");
        (serve.join().expect("coordinator thread"), doomed, survivor)
    });

    assert_eq!(
        doomed.completed + survivor.completed,
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
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let coordinator = Coordinator::new(cfg.clone(), ResultStore::open(&dist_dir).expect("store"));
    let (dist, honest) = std::thread::scope(|scope| {
        let serve = scope.spawn(move || coordinator.serve(&listener).expect("serve"));

        // A hostile client: greets correctly, then submits a cell the
        // study never planned. The coordinator must refuse it without
        // touching the store.
        let mut stream = TcpStream::connect(&addr).expect("hostile connect");
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
        let honest = softerr::run_worker(
            &addr,
            &WorkerOptions {
                name: "honest".into(),
                capacity: 2,
                ..WorkerOptions::default()
            },
        )
        .expect("honest worker");
        (serve.join().expect("coordinator thread"), honest)
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
/// median of 10 stays under 20 ms. A reply written as a length prefix and
/// a payload in two writes, without `TCP_NODELAY`, took ~40 ms each.
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
    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral listener");
    let addr = listener.local_addr().expect("listener addr").to_string();
    let coordinator =
        Coordinator::new(cfg, ResultStore::open(&dir).expect("store")).max_inflight(10);
    let rtts = std::thread::scope(|scope| {
        let serve = scope.spawn(move || coordinator.serve(&listener).expect("serve"));
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            worker: "probe".into(),
        };
        write_frame(&mut stream, &hello).unwrap();
        let _welcome: Response = read_frame(&mut stream).unwrap();
        // Each Lease takes one of the ten cells, so none is answered `Wait`.
        let rtts: Vec<(Duration, Response)> = (0..10)
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
        softerr::run_worker(&addr, &WorkerOptions::default()).expect("worker");
        serve.join().expect("coordinator thread");
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
        rtts[5] < Duration::from_millis(20),
        "median Lease round trip {:?} (all: {rtts:?})",
        rtts[5]
    );
}
