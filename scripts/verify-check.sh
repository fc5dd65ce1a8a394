#!/usr/bin/env bash
# Verify-mode self-check: every optimization layer against its oracle. The
# `verify-check` recipe of the justfile and the CI `test` job both run this
# script, so the list of checks lives here only. Run it from the repository
# root.
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
set -euo pipefail

campaign() {
    cargo run --release -p softerr-bench --bin campaign -- "$@"
}

cargo test -p softerr --release -q --test cow_equivalence
campaign --machine a15 --workload qsort --level O2 --structure rf \
    -n 200 --prune verify
campaign --machine a72 --workload sha --level O2 --structure rob.pc \
    -n 200 --prune verify
campaign --machine a15 --workload qsort --level O2 --structure l1d.data \
    -n 200 --prune verify
campaign --machine a72 --workload qsort --level O2 --structure l1d.data \
    -n 200 --prune verify
campaign --machine a15 --workload blowfish --level O2 --structure rf \
    -n 200 --prune-static verify
campaign --machine a72 --workload sha --level O2 --structure rf \
    -n 200 --prune-static verify
campaign --machine a15 --workload qsort --level O2 --structure l1i.data \
    --target-margin 0.1 -n 25 --sampler importance --prune verify
campaign --machine a72 --workload sha --level O2 --structure rf \
    --target-margin 0.1 -n 25 --sampler importance --prune verify
