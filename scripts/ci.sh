#!/usr/bin/env bash
# Workspace CI gate: release build, full test suite, lint-clean clippy,
# warning-free rustdoc, then the smoke gates below.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release"
cargo build --release

echo "== cargo test -q"
cargo test -q

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (warnings denied)"
# Fails on broken or private intra-doc links, e.g. a doc comment still
# linking an item that was deleted or made private.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== bench_whatif smoke (what-if cache regression gate)"
# Exits non-zero if a repeated tuning pass over an unchanged database shows a
# 0% cache hit rate — i.e. epoch keying or statement fingerprinting broke.
./target/release/bench_whatif smoke

echo "== chaos smoke (fault-injection resilience gate)"
# Seeded fault schedule through the continuous tuning loop; exits non-zero on
# a consistency violation, a leaked partial pass, or disarmed-run divergence.
./target/release/chaos_smoke

echo "== explain smoke (explainability & introspection gate)"
# Validates the ExplainPlan JSON contract from a live `aim_cli explain` run,
# then exercises the introspection endpoint lifecycle (/metrics quantiles,
# /ledger chain, /profile, 404, shutdown port release).
./target/release/aim_cli explain --json demo \
    "SELECT id FROM orders WHERE customer_id = 7" \
    | ./target/release/explain_smoke

echo "== storage smoke (disk-engine durability & costing gate)"
# Runs the full bench_storage harness in smoke mode against a scratch
# directory: memory-vs-disk result equality, crash/reopen durability with
# index survival, buffer-pool + WAL traffic, and est-vs-actual page error.
./target/release/bench_storage smoke

echo "== batched costing smoke (batched what-if costing gate)"
# Runs bench_selection in smoke mode: asserts batched what-if costs are
# bit-identical to sequential costing (per-slot to_bits equality) and that
# batched ranking picks the same greedy configs as unbatched ranking, and
# exits non-zero when the batched path shows no speedup or a repeated batch
# never hits the what-if cache.
./target/release/bench_selection smoke

echo "== observe smoke (telemetry overhead gate)"
# Times the same point-select loop with telemetry absent vs disarmed (every
# hook invoked, all no-ops) vs armed+recording vs labeled (armed plus a
# rotating 64-tenant scope so every instrument records a dimensional twin),
# interleaved with rotating order. Exits non-zero when the disarmed overhead
# or the labeled-over-armed overhead exceeds its smoke bound, or when the
# artifact fails jsonv validation (labeled_overhead_pct must be numeric).
./target/release/bench_observe smoke

echo "== fleet smoke (fleet-scale budget-allocation gate)"
# Tunes a 12-tenant Zipf-skewed fleet through the FleetSession driver:
# every tenant must converge, the fleet-level knapsack split must not lose
# to the uniform per-shard split, budget must actually move beyond the
# uniform share, and the emitted artifact must be well-formed JSON
# (validated in-process via aim_telemetry::jsonv).
./target/release/bench_fleet smoke

echo "== ci: all checks passed"
