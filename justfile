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

# Prune self-check: quick campaigns in `--prune verify` mode, which
# re-simulates every fault the liveness pruner would skip and panics if
# any of them simulates as non-Masked. One sparse structure (high prune
# rate) and one busy one, on both paper machines.
prune-check:
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure rf \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rob.pc \
        -n 200 --prune verify

# COW self-check: the copy-on-write forking equivalence net plus verify-mode
# campaigns on both machines over the structure whose forks used to be the
# most expensive (the L1D arrays). `--prune verify` re-simulates every
# prunable fault through the COW convoy and panics on any mismatch, so a
# chunk-sharing bug that leaked state between children cannot pass.
cow-check:
    cargo test -p softerr --release -q --test cow_equivalence
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure l1d.data \
        -n 200 --prune verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload qsort --level O2 --structure l1d.data \
        -n 200 --prune verify

# Static-prune self-check: RF campaigns in `--prune-static verify` mode on
# both paper machines, which re-simulates every fault the compiler's static
# bit-demand analysis would skip and panics if any of them simulates as
# non-Masked. sha and blowfish carry the highest statically-masked bit
# fractions (shift/mask-heavy u32 code), so they exercise the most
# annotated writebacks per campaign.
static-check:
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload blowfish --level O2 --structure rf \
        -n 200 --prune-static verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rf \
        -n 200 --prune-static verify

# Sampling self-check: importance campaigns in `--sampler importance/verify`
# mode on both paper machines, which rerun a uniform campaign at the
# achieved reweighted margin and panic unless the two AVF estimates agree
# within their combined margins. One sparse structure (l1i.data, where the
# live-and-demanded subpopulation is ~1-2% of the sites, so the weight does
# the most work) and the register file.
sampling-check:
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a15 --workload qsort --level O2 --structure l1i.data \
        --target-margin 0.1 -n 25 --sampler importance/verify
    cargo run --release -p softerr-bench --bin campaign -- \
        --machine a72 --workload sha --level O2 --structure rf \
        --target-margin 0.1 -n 25 --sampler importance/verify

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
# both machines) against BENCH_sim_throughput.json, and for the compiler's
# time per optimization level against BENCH_compile_speed.json, both at the
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
        target/bench-sim-baseline.json BENCH_sim_throughput.json
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

# Everything the CI gate requires.
ci: test lint lint-ir prune-check static-check cow-check sampling-check serve-check studybench-check bench-gate
