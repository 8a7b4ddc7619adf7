#!/usr/bin/env bash
# Local CI gate: formatting, full-workspace clippy (which also carries the
# determinism, panic-policy and hot-path rules), rustdoc warnings, the
# tier-1 verification command from ROADMAP.md (which includes the hot
# path's zero-allocation test and tests/goldens.rs, the byte-for-byte diff
# of every results/ artifact the bench crate registers), the benchmark's
# correctness checks, the examples, the CLI's golden smokes, and its exit
# code for rejected command lines and option values.
# Run from anywhere inside the repository; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check
# The benchmark package sits outside the workspace (its own `[workspace]`),
# so `--all`/`--workspace` never reach it; hold it to the same bar.
cargo fmt --manifest-path benchmark/Cargo.toml --check

echo "==> cargo clippy -D warnings (workspace + benchmark)"
# The workspace lint table (root Cargo.toml), crates/clippy.toml and each
# library crate's `lib.rs` attribute turn wall-clock, thread-identity and
# hash-iteration reads, library `unwrap`/`expect`/`panic!`, wildcard arms
# in the result crates and reasonless `#[allow]`s into errors here. So do
# the hot-path rules: indexing, integer division and `assert!` in the step
# kernel's and the lockstep oracle's modules, and unchecked arithmetic in
# the packed-state helpers (TESTING.md, "Hot-path rules"). Known debt and
# argued exceptions carry `#[expect(…, reason = "…")]`; fixing them fails
# as an unfulfilled expectation until the attribute goes.
cargo clippy --workspace --all-targets --all-features -- -D warnings
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc -D warnings (workspace)"
# Intra-doc links that do not resolve, redundant link targets and
# ambiguous paths are rustdoc warnings; no other stage sees them.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> tier-1: cargo build --release && cargo test -q --workspace"
cargo build --release
# `--workspace`: a bare `cargo test` builds only the root package, so the
# crates' own unit tests (arbiter, rng, SimState, detector) would gate
# nothing. It includes crates/oracle/tests/alloc_counts.rs, which fails if
# a warmed-up step() or lockstep cycle allocates.
cargo test -q --workspace
# The seeded-fault arbiter variants must keep compiling and passing.
cargo test -q -p vecmem-oracle --features bug_injection
# The SimState sanitizer must catch seeded corruption at the violating
# cycle (debug build: the sanitizer is debug_assertions-only).
cargo test -q -p vecmem-oracle --features bug_injection,sanitize

echo "==> benchmark: vecmem-benchmark correctness checks (smoke sizes)"
# The smoke test runs all five workloads, untraced and traced, and fails
# on any correctness check: answer digests across repetitions, 1 vs 2
# threads and traced vs untraced runs; a 32-scenario lockstep sample
# against the reference engine; a clean theorem sweep; and the
# reproduction's goldens in results/.  Timing is not gated here: the
# benchmark's paired before/after runs are the perf gate.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
echo "    benchmark smoke: every workload passes its correctness checks"

echo "==> reproduction through the binary: theorems, triad --sweep and reproduce"
# tests/goldens.rs (tier-1) diffs every registered results/ artifact byte
# for byte in-process. These run the same renderers through the `vecmem`
# binary: at a non-golden size, at the golden sizes byte for byte, and the
# whole registry through `reproduce`. `cargo build --release` builds the
# root package only, so the CLI is built here.
cargo build -q --release -p vecmem-cli
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
vecmem=./target/release/vecmem
$vecmem triad --sweep 3 > "$smoke_dir/fig10.txt"
grep -q "INC" "$smoke_dir/fig10.txt" || { echo "triad --sweep 3 output empty"; exit 1; }
$vecmem theorems --banks 8 --nc 2 --metrics-out "$smoke_dir/theorems.json" \
  > "$smoke_dir/theorems.txt"
grep -q " 0 mismatches" "$smoke_dir/theorems.txt" \
  || { echo "theorems --banks 8 --nc 2 reported mismatches"; cat "$smoke_dir/theorems.txt"; exit 1; }
grep -q '"exec_cache_hits"' "$smoke_dir/theorems.json" \
  || { echo "theorems --metrics-out wrote no cache counters"; exit 1; }
# 3 ⊕ 8 ≡ 3 ⊕ 4 (mod 12): isomorphic pairs share one canonical form, so
# eq. 29 predicts what the simulator finds for both.
$vecmem theorems --banks 12 --nc 2 > "$smoke_dir/theorems_m12.txt"
grep -q " 0 mismatches" "$smoke_dir/theorems_m12.txt" \
  || { echo "theorems --banks 12 --nc 2 reported mismatches"; cat "$smoke_dir/theorems_m12.txt"; exit 1; }
$vecmem theorems > "$smoke_dir/theorems_m16.txt"
diff -u results/table_theorems_m16_nc4.txt "$smoke_dir/theorems_m16.txt" \
  || { echo "vecmem theorems drifted from results/table_theorems_m16_nc4.txt"; exit 1; }
$vecmem theorems --banks 13 > "$smoke_dir/theorems_m13.txt"
diff -u results/table_theorems_m13_nc4.txt "$smoke_dir/theorems_m13.txt" \
  || { echo "vecmem theorems --banks 13 drifted from results/table_theorems_m13_nc4.txt"; exit 1; }
$vecmem theorems --csv > "$smoke_dir/theorems_m16.csv"
diff -u results/table_theorems_m16_nc4.csv "$smoke_dir/theorems_m16.csv" \
  || { echo "vecmem theorems --csv drifted from results/table_theorems_m16_nc4.csv"; exit 1; }
$vecmem triad --sweep 16 > "$smoke_dir/fig10_16.txt"
diff -u results/fig10.txt "$smoke_dir/fig10_16.txt" \
  || { echo "vecmem triad --sweep 16 drifted from results/fig10.txt"; exit 1; }
$vecmem reproduce --out "$smoke_dir/r" > /dev/null
written=0
for file in "$smoke_dir"/r/*; do
  name="$(basename "$file")"
  written=$((written + 1))
  # Stale Monte Carlo numbers; tests/goldens.rs skips it too (ROADMAP item 1).
  [ "$name" = table_random.txt ] && continue
  cmp "results/$name" "$file" \
    || { echo "vecmem reproduce: $name differs from results/$name"; exit 1; }
done
echo "    theorems, triad --sweep and reproduce ($written files) match results/"

echo "==> examples: every scenario in examples/ runs from the release build"
# `cargo test` only compiles the examples; run each one and fail on a
# non-zero exit.
cargo build -q --release --examples
examples_run=0
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  ./target/release/examples/"$name" > "$smoke_dir/example-$name.txt" 2>&1 \
    || { echo "example $name failed"; cat "$smoke_dir/example-$name.txt"; exit 1; }
  examples_run=$((examples_run + 1))
done
echo "    $examples_run examples ran to completion"

echo "==> pattern smoke: gather / burst / DRAM steady states (golden diffs)"
$vecmem steady --pattern gather --affine 16 \
  > "$smoke_dir/steady_gather.txt"
diff -u "results/steady_gather_m16.txt" "$smoke_dir/steady_gather.txt" \
  || { echo "gather steady state drifted from results/steady_gather_m16.txt"; exit 1; }
$vecmem steady --pattern burst --burst 4 --d1 1 --d2 1 \
  > "$smoke_dir/steady_burst.txt"
diff -u "results/steady_burst_m16.txt" "$smoke_dir/steady_burst.txt" \
  || { echo "burst steady state drifted from results/steady_burst_m16.txt"; exit 1; }
$vecmem steady --bank-model dram --dram-hit 2 --dram-rows 4 \
  --d1 0 --d2 0 --b2 8 > "$smoke_dir/steady_dram.txt"
diff -u "results/steady_dram_m16.txt" "$smoke_dir/steady_dram.txt" \
  || { echo "DRAM steady state drifted from results/steady_dram_m16.txt"; exit 1; }
echo "    gather + burst + DRAM match the golden steady states"

echo "==> report smoke: conflict attribution on the pinned m=16 pair"
$vecmem report steady --banks 16 --nc 4 --d1 4 --d2 4 \
  > "$smoke_dir/report_steady.txt"
diff -u "results/report_steady_m16.txt" "$smoke_dir/report_steady.txt" \
  || { echo "vecmem report steady drifted from results/report_steady_m16.txt"; exit 1; }
echo "    vecmem report steady matches the golden attribution report"

echo "==> event-log smoke: observer events of the pinned m=16 trace"
# Bank-free events come off the expiry wheel in grant order; the kernel
# must still report them in ascending bank order within a cycle.
$vecmem trace --banks 16 --nc 4 --d1 1 --d2 3 --b2 5 \
  --events-out "$smoke_dir/trace_events.jsonl" > /dev/null
diff -u "results/trace_events_m16.jsonl" "$smoke_dir/trace_events.jsonl" \
  || { echo "vecmem trace events drifted from results/trace_events_m16.jsonl"; exit 1; }
echo "    vecmem trace event log matches results/trace_events_m16.jsonl"

echo "==> exit codes: a rejected command line or option value is a usage error (exit 2)"
# The CLI unit tests run the parsed commands in-process; these go through
# the real binary's exit-code mapping, where 1 would be a run failure and
# 101 a panic. Rejected or unparseable values, then unknown, foreign,
# repeated and stray tokens, two modes at once, and values the model
# cannot take.
for args in \
  "steady --pattern gather --span 0" \
  "skew --pattern gather --span 0" \
  "gather --span 0" \
  "steady --pattern burst --burst 0" \
  "steady --bank-model dram --dram-hit 0" \
  "steady --bank-model dram --dram-rows 0" \
  "steady --pattern burst --burst abc" \
  "steady --banks many" \
  "steady --bankz 13" \
  "steady --obs-epsilon 0.1" \
  "steady --exhaustive" \
  "steady --banks 16 --banks 13" \
  "steady stray" \
  "verify --diff --random 5" \
  "loop --dims 0,64" \
  "random --cycles 0" \
  "predict --banks 0" \
  "theorems --banks 0" \
  "theorems --nc 0" \
  "theorems 8 2" \
  "reproduce stray" \
  "triad --sweep 0" \
  "triad --sweep 3 --alone" \
  "triad --sweep 3 --csv --nonsense" \
  "verify --max-banks 65"; do
  code=0
  # $args is split into words on purpose.
  $vecmem $args > /dev/null 2> "$smoke_dir/usage.err" || code=$?
  [ "$code" -eq 2 ] \
    || { echo "vecmem $args exited $code, not 2"; cat "$smoke_dir/usage.err"; exit 1; }
done
echo "    twenty-five rejected command lines exit 2"

echo "==> verify: differential oracle + theorem conformance (see TESTING.md)"
$vecmem verify --exhaustive > "$smoke_dir/verify.txt" \
  || { echo "vecmem verify --exhaustive failed"; cat "$smoke_dir/verify.txt"; exit 1; }
grep -q "divergences 0  violations 0  not converged 0" "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep not clean"; cat "$smoke_dir/verify.txt"; exit 1; }
# The point, orbit and theorem counts do not depend on the thread count:
# a conformance or orbit-index change that silently drops points, merges
# non-isomorphic points or drops checks fails here.
grep -qx "  points enumerated      597856" "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep enumerated a different point count"; cat "$smoke_dir/verify.txt"; exit 1; }
grep -qx "  simulated (orbits)     101304" "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep simulated a different number of orbits"; cat "$smoke_dir/verify.txt"; exit 1; }
grep -qx "  theorem checks: Thm1 136  Thm2 40968  Thm3 223168 (skipped 51792)  III-A 5984" \
  "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep ran a different set of theorem checks"; cat "$smoke_dir/verify.txt"; exit 1; }
grep -qx "  barrier checks: Thms 6/7 (eq. 29) 20608" "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep checked a different number of unique barriers"; cat "$smoke_dir/verify.txt"; exit 1; }
$vecmem verify --random 200 --seed 42 > "$smoke_dir/verify-random.txt" \
  || { echo "vecmem verify --random failed"; cat "$smoke_dir/verify-random.txt"; exit 1; }
grep -q "verdict: CLEAN" "$smoke_dir/verify-random.txt" \
  || { echo "random exploration not clean"; cat "$smoke_dir/verify-random.txt"; exit 1; }
echo "    exhaustive sweep (597856 points, 101304 orbits, pinned theorem and barrier counts) + 200 random cases: zero divergences"

echo "==> OK"
