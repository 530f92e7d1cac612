#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, and every test.
# Run from anywhere; exits non-zero on the first failure.
#
# Formatting and lint gates cover the repo's own crates only — the vendored
# dependencies under vendor/ are third-party snapshots and keep their
# upstream style.
set -euo pipefail
cd "$(dirname "$0")/.."

GEOQP_PACKAGES=(
    geoqp geoqp-bench geoqp-cli geoqp-common geoqp-core geoqp-exec
    geoqp-expr geoqp-net geoqp-parser geoqp-plan geoqp-policy
    geoqp-runtime geoqp-server geoqp-storage geoqp-tpch
)
pkg_flags=()
for p in "${GEOQP_PACKAGES[@]}"; do pkg_flags+=(-p "$p"); done

echo "==> cargo fmt --check (geoqp crates)"
cargo fmt --check "${pkg_flags[@]}"

echo "==> cargo clippy --all-targets -- -D warnings (geoqp crates)"
cargo clippy "${pkg_flags[@]}" --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --benches (criterion + kernel microbenchmarks)"
cargo build --release "${pkg_flags[@]}" --benches

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> benchmark package tests (perfbench/ is its own workspace, so" \
     "the workspace run above never builds it; release)"
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> columnar differential suite: row vs vectorized engines," \
     "both runtimes, all fault schedules (release)"
cargo test -q -p geoqp-bench --release --test columnar_differential

echo "==> morsel differential suite: 1 vs 2 vs 4 workers per site," \
     "all fault schedules, bit-identical rows/transfers + merge-order" \
     "purity (release)"
cargo test -q -p geoqp-bench --release --test morsel_differential

echo "==> ad-hoc workload differential fuzz: generated queries," \
     "row vs columnar x sequential vs parallel, plus a fault slice" \
     "(GEOQP_ADHOC_N=${GEOQP_ADHOC_N:-200} queries, release)"
GEOQP_ADHOC_N="${GEOQP_ADHOC_N:-200}" \
    cargo test -q -p geoqp-bench --release --test adhoc_differential

echo "==> multi-tenant service smoke: closed-loop sessions through" \
     "admission, DRR scheduling, and the plan cache" \
     "(GEOQP_SERVICE_SESSIONS=${GEOQP_SERVICE_SESSIONS:-40} sessions, release)"
GEOQP_SERVICE_SESSIONS="${GEOQP_SERVICE_SESSIONS:-40}" \
    cargo test -q -p geoqp-bench --release --test service_smoke

echo "==> catalog replication + compaction property tests: 10k seeded" \
     "schedules, byte-identical replicas, snapshot-bootstrap ≡ replay-from-0" \
     "(release)"
cargo test -q -p geoqp-policy --release --test catalog_replication

echo "==> chaos soak: crash/partition + gray degrade/loss + catalog-churn" \
     "variants (fixed seeds, GEOQP_CHAOS_N=${GEOQP_CHAOS_N:-24} schedules each," \
     "odd rounds on the columnar engine with alternating 2/4-worker" \
     "morsel pools; churn round layers mid-query" \
     "revocations and catalog-plane partitions on the crash schedules;" \
     "bootstrap round adds replica-crash + snapshot-bootstrap + grant-retry" \
     "rescues with duplicate-execution determinism checks)"
GEOQP_CHAOS_N="${GEOQP_CHAOS_N:-24}" cargo test -q --test chaos_soak -- --nocapture

echo "CI OK"
