# Development entry points. `just ci` is what the CI workflow runs.

# Tier-1: build and the full test suite (unit + integration + property).
test:
    cargo build --release
    cargo test -q --release

# Lints: clippy over every target and rustdoc over every crate, warnings
# are errors.
lint:
    cargo clippy --all-targets -- -D warnings
    cargo fmt --check
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# IR lint: compile all 8 workloads at O0-O3 for both profiles with the
# compiler's IR verifier re-run after every pass (the `verify-ir` feature).
lint-ir:
    cargo test -p softerr --features verify-ir --release -q --test verify_sweep

# Benchmarks. Each group writes a BENCH_<group>.json summary into the repo
# root (mean ns per iteration and derived throughput per benchmark).
bench:
    cargo bench -p softerr-bench

# The headline engine benchmark: fresh vs golden-prefix-checkpointed
# campaign throughput (BENCH_injection_throughput.json).
bench-injection:
    cargo bench -p softerr-bench --bench injection_throughput

# Sweep orchestration: run a quick study cold (populating the result
# store), then warm, and assert the warm pass was entirely store-served
# (the grep rejects a warm run that executed even one campaign).
sweep:
    rm -rf target/softerr-store-smoke
    cargo run --release -p softerr-bench --bin repro -- fig5 \
        --scale quick --jobs 0 --results target/softerr-store-smoke
    cargo run --release -p softerr-bench --bin repro -- fig5 \
        --scale quick --jobs 0 --results target/softerr-store-smoke 2>&1 \
        | grep "all 64 cells served from result store (0 campaigns executed)"

# Forensics smoke: a small recorded RegFile campaign (JSONL records +
# progress + forensic tables + golden-run counters) into target/.
forensics:
    cargo run --release -p softerr-bench --bin campaign -- \
        --structure rf -n 200 --threads 2 \
        --records target/forensics-records.jsonl --metrics

# Verify-mode self-check: every optimization layer against its oracle.
# * The copy-on-write forking equivalence net.
# * `--prune verify` / `--prune-static verify` campaigns prune as `on`, then
#   re-classify every sampled fault on the fresh engine with nothing pruned
#   and panic on the first class that differs, so one check covers the
#   pruners and the convoy's shortcuts. Liveness: one sparse structure (rf,
#   high prune rate) and one busy one (rob.pc), then the L1D arrays, whose
#   forks used to be the most expensive, on both paper machines, so a
#   chunk-sharing bug that leaked state between convoy children cannot
#   pass. Static demand: RF on sha and blowfish, which carry the highest
#   statically-masked bit fractions (shift/mask-heavy u32 code).
# * Under `--sampler importance` the verify mode also reruns a uniform
#   campaign at the achieved reweighted margin and panics unless the two
#   AVF estimates agree within their combined margins: l1i.data (the
#   live-and-demanded subpopulation is ~1-2% of the sites, so the weight
#   does the most work) and the register file.
verify-check:
    cargo test -p softerr --release -q --test cow_equivalence
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure rf \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rob.pc \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure l1d.data \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload qsort --level O2 --structure l1d.data \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload blowfish --level O2 --structure rf \
        -n 200 --prune-static verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rf \
        -n 200 --prune-static verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure l1i.data \
        --target-margin 0.1 -n 25 --sampler importance --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rf \
        --target-margin 0.1 -n 25 --sampler importance --prune verify

# The uniform-vs-importance efficiency table across the 64-cell paper grid:
# AVF +/- margin and forked child sims per cell at equal target margin.
sampling-table:
    cargo run --release -p softerr-bench --bin repro -- sampling --threads 2

# Bench regression gate: regenerate the injection-throughput summary and
# fail if any benchmark regressed >20% against the committed baseline —
# except the checkpointed RegFile campaign, which is held to the 3%
# telemetry budget: its committed baseline predates span instrumentation,
# so staying inside 3% proves disabled tracing is effectively free. The
# bench also refreshes BENCH_injection_throughput.profile.txt (a traced
# stage-attribution table explaining what the checkpoint row is made of).
# Then the same for the simulator's cycles per second (Sim::step_cycle on
# both machines, plain and recording the liveness map a cell whose plan
# reads liveness builds; the liveness rows are budgeted so that a missing
# row fails) against BENCH_sim_throughput.json, and for the compiler's time
# per optimization level against BENCH_compile_speed.json, all at the
# default 20%.
bench-gate:
    cp BENCH_injection_throughput.json target/bench-baseline.json
    cp BENCH_sim_throughput.json target/bench-sim-baseline.json
    cp BENCH_compile_speed.json target/bench-compile-baseline.json
    cargo bench -p softerr-bench --bench injection_throughput
    cargo run --release -p softerr-bench --bin bench_gate -- \
        target/bench-baseline.json BENCH_injection_throughput.json \
        --budget rf_campaign/checkpoint=0.03 \
        --budget l1i_campaign/importance=0.20
    cargo bench -p softerr-bench --bench sim_throughput
    cargo run --release -p softerr-bench --bin bench_gate -- \
        target/bench-sim-baseline.json BENCH_sim_throughput.json \
        --budget fft_o1_liveness/Cortex-A15-like=0.20 \
        --budget fft_o1_liveness/Cortex-A72-like=0.20
    cargo bench -p softerr-bench --bench compile_speed
    cargo run --release -p softerr-bench --bin bench_gate -- \
        target/bench-compile-baseline.json BENCH_compile_speed.json

# Distributed-study self-check: a coordinator plus two forked local
# workers run the quick grid into a fresh store, then `--check-serial`
# re-runs the same study serially and asserts results and every store
# cell byte-for-byte (the grep makes the gate explicit in the recipe).
# The coordinator's per-cell progress/forensics JSONL lands in
# target/serve-progress.jsonl.
serve-check:
    rm -rf target/softerr-serve-store
    cargo run --release -p softerr-bench --bin repro -- serve \
        --scale quick --spawn-workers 2 --check-serial \
        --results target/softerr-serve-store \
        --progress-log target/serve-progress.jsonl --quiet 2>&1 \
        | grep "bit-identical to a serial run"

# Stage-attribution profile of a quick study grid (8 workloads x O0-O3 x
# both machines): per-cell, per-stage, and per-worker wall-time tables on
# stdout, plus a Perfetto-loadable Chrome trace in target/.
profile:
    cargo run --release -p softerr-bench --bin repro -- profile \
        --scale quick --jobs 0 --quiet \
        --results target/softerr-profile-store \
        --trace target/repro-trace.json

# Study-benchmark self-check: runs every benchmark workload at a tiny size
# through the program entry points `studybench/` calls (the orchestrator,
# the coordinator and its workers, the result store, the traced replica),
# so a program change that breaks them fails here rather than in a
# benchmark run.
studybench-check:
    cargo test --manifest-path studybench/Cargo.toml

# Paired A/B of the study benchmark against BASE (a commit). Builds BASE
# from `git archive` and the working tree (tracked plus untracked,
# non-ignored files) into fresh target/ab/base and target/ab/change, and
# each side's studybench offline (every dependency is vendored). Then runs
# every BENCHMARK.json workload PAIRS times per side at seed 1 for the
# benchmark's `run_seconds`, switching which side runs first on each pair,
# appends each run's last line (tagged with pair, side and workload) to
# target/ab/runs.jsonl, and prints `bench_gate --paired` over it: per
# workload and end-to-end metric, both medians with quartiles, the median
# per-pair ratio, the pairs the change won, and `unresolved` where the
# base runs spread wider than the bound. Fresh directories on both sides
# also keep studybench's work directory, which sits next to its
# executable, equally new on both. It only reports: the absolute gates
# above stay as they are.
studybench-ab BASE PAIRS="10":
    #!/usr/bin/env bash
    set -euo pipefail
    rm -rf target/ab
    mkdir -p target/ab/base target/ab/change
    git archive {{BASE}} | tar -x -C target/ab/base
    git ls-files -z --cached --others --exclude-standard \
        | tar --null --files-from=- --ignore-failed-read -c \
        | tar -x -C target/ab/change
    for side in base change; do
        cargo build --release --offline --quiet \
            --manifest-path target/ab/$side/studybench/Cargo.toml
    done
    seconds=$(jq -r .run_seconds BENCHMARK.json)
    for pair in $(seq 1 {{PAIRS}}); do
        sides="base change"
        (( pair % 2 )) || sides="change base"
        for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
            for side in $sides; do
                line=$(cd target/ab/$side && cargo run --release --offline --quiet \
                    --manifest-path studybench/Cargo.toml -- --workload $workload \
                    --seed 1 --seconds $seconds --trace 0 | tail -1)
                echo "{\"pair\": $pair, \"side\": \"$side\", \"workload\": \"$workload\", \"run\": $line}" \
                    >> target/ab/runs.jsonl
            done
        done
    done
    cargo run --release --quiet -p softerr-bench --bin bench_gate -- \
        --paired target/ab/runs.jsonl

# Everything the CI gate requires.
ci: test lint lint-ir verify-check serve-check studybench-check bench-gate
