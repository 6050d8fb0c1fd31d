#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the test suite in both the default
# (parallel) and forced-serial thread configurations. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, -D warnings, clippy.toml bans) =="
# clippy.toml bans hash collections, wall-clock reads and catch_unwind. A
# deliberate use carries #[expect(clippy::disallowed_*, reason = "...")]:
# the two allow_attributes lints reject #[allow] and a missing reason, and
# an expectation that stops firing fails as unfulfilled_lint_expectations.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::allow_attributes -D clippy::allow_attributes_without_reason

echo "== glint-lint (invariants + taint/lock-order dataflow + census & panic-surface ratchets) =="
# The --baseline stage fails on findings, on allocation-census growth, AND
# on panic-surface growth: the set of panic-capable fns reachable from the
# serving entry points may only shrink. On a regression, rerun with
# `--explain <rule>` for the witness call chains.
cargo run -q -p glint-lint -- --json --bench-out BENCH_lint.json.new --baseline BENCH_lint.json
# validate the fresh v3 snapshot with the workspace's own serde_json shim
# (schema: graph stats, named panic-surface certificate, ranked census) and
# check the committed certificate is not stale, then promote the snapshot so
# surface changes are reviewed as a diff of the committed file
cargo test -q --test invariant_lint bench_report_parses_under_serde_json_shim
cargo test -q --test invariant_lint committed_panic_surface_matches_fresh_run
mv BENCH_lint.json.new BENCH_lint.json

echo "== cargo test (default GLINT_THREADS) =="
cargo test --workspace -q

echo "== cargo test (GLINT_THREADS=1, forced serial) =="
GLINT_THREADS=1 cargo test --workspace -q

echo "== kernel bit pins at the benchmark's optimization level (release, default + serial) =="
# The kernel oracle (kernel_bits), the parallel-equivalence properties
# (par_props), the trained-parameter checksums (train_bits) and the
# tape-vs-tape-free forward bits (infer_equiv) must hold in the release
# profile the benchmark ships, not only in the test profile: the
# optimization level decides how LLVM vectorizes the kernels.
cargo test --release -q -p glint-tensor -p glint-gnn
GLINT_THREADS=1 cargo test --release -q -p glint-tensor -p glint-gnn

echo "== benchmark package (e2ebench/ builds against the workspace and passes its tests) =="
# e2ebench/ is a package of its own (empty [workspace] table), so neither the
# workspace build nor the test stages above compile it. A library change that
# breaks the benchmark (e.g. a GraphModel signature its Counting wrapper
# implements) fails here instead of when the benchmark is next run.
cargo test --offline --release -q --manifest-path e2ebench/Cargo.toml

echo "== cargo test (strict mode: shape/finiteness checks on every tape op) =="
cargo test -q --features strict

echo "== trace-enabled pass (GLINT_TRACE=1 must refresh a valid BENCH_trace.json) =="
rm -f BENCH_trace.json
GLINT_TRACE=1 cargo test -q --test observability
if ! test -s BENCH_trace.json; then
  echo "TRACE STAGE FAILED: BENCH_trace.json missing or empty" >&2
  exit 1
fi
# re-parse the freshly written snapshot with the workspace's own JSON layer
cargo test -q --test observability bench_trace_snapshot_file_is_valid_when_present

echo "== inference fast path (BENCH_inference.json: alloc gate + ratchet) =="
# The harness reads the *committed* snapshots first, reruns the serving
# workload, then enforces both gates: >=10x below the BENCH_trace.json
# training baseline, and no regression past the committed BENCH_inference.json.
GLINT_TRACE=1 GLINT_BENCH_FAST=1 cargo bench -q -p glint-bench --bench micro_inference
if ! test -s BENCH_inference.json; then
  echo "INFERENCE STAGE FAILED: BENCH_inference.json missing or empty" >&2
  exit 1
fi
# re-parse the freshly written snapshot with the workspace's own JSON layer
cargo test -q --test observability bench_inference_snapshot_file_is_valid_when_present

echo "== serving path (BENCH_serve.json: loopback latency + overload shed + p95 gate) =="
# micro_serve boots a real glint-serve instance over loopback, measures
# sequential /score latency, then saturates a tiny queue to exercise the
# 429 shed path and the deadline->DriftOnly ladder. It reads the committed
# p95 budget BEFORE overwriting the snapshot and exits non-zero when the
# fresh p95 exceeds it.
GLINT_TRACE=1 cargo bench -q -p glint-bench --bench micro_serve
if ! test -s BENCH_serve.json; then
  echo "SERVE STAGE FAILED: BENCH_serve.json missing or empty" >&2
  exit 1
fi
# re-parse the freshly written snapshot with the workspace's own JSON layer
cargo test -q --test observability bench_serve_snapshot_file_is_valid_when_present

echo "== scale churn smoke (sharded incremental pipeline at 10^3 homes) =="
# micro_scale drives the multi-tenant churn harness end to end (bootstrap,
# delta ingest->verdict, dirty-set refresh, shard persistence) and enforces
# the incremental-work ratchet with a non-zero exit: pairs re-mined and
# homes re-embedded must stay strictly below the full-rebuild counterparts.
# The smoke run writes to a scratch path (absolute: cargo runs a bench from
# its package directory); the committed BENCH_scale.json (the 10^5-home run)
# is validated by the observability suite right after.
GLINT_SCALE_HOMES=1000 GLINT_SCALE_OUT="$PWD/target/BENCH_scale_smoke.json" \
  cargo bench -q -p glint-bench --bench micro_scale
if ! test -s target/BENCH_scale_smoke.json; then
  echo "SCALE STAGE FAILED: target/BENCH_scale_smoke.json missing or empty" >&2
  exit 1
fi
# the committed 10^5-home snapshot: schema, counter set, ratchet fields
cargo test -q --test observability bench_scale_snapshot_file_is_valid_when_present

echo "== fault-injection matrix (forced fail points, default + serial threads) =="
FAULTS=(
  "persist.save=err" "persist.save=short:24"
  "checkpoint.save=err" "checkpoint.save=short:8"
  "graph.store.save=err" "graph.store.save=short:16"
  "trainer.epoch_end=err"
  "detector.assess=err" "detector.assess=panic"
  "detector.classify=err" "detector.classify=panic"
  "serve.accept=err" "serve.parse=err" "serve.enqueue=err"
  "serve.respond=err" "serve.respond=panic"
  "shard.save=err" "shard.save=short:16"
  "shard.load=err" "shard.compact=err"
)
for threads in "" "1"; do
  for spec in "${FAULTS[@]}"; do
    if ! env ${threads:+GLINT_THREADS=$threads} GLINT_FAILPOINTS="$spec" \
      cargo test -q --test fault_injection env_forced_matrix >/dev/null 2>&1; then
      echo "FAULT MATRIX FAILED: spec=$spec GLINT_THREADS=${threads:-default}" >&2
      exit 1
    fi
  done
done
echo "   ${#FAULTS[@]} fault specs x {default, GLINT_THREADS=1}: all contained"

echo "ci: all green"
