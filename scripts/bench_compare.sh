#!/usr/bin/env sh
# CI perf-trajectory gate: re-measure ingest throughput and fail on >20%
# regression against the committed BENCH_ingest.json baseline.
#
# Usage: scripts/bench_compare.sh [tolerance]
#   tolerance: allowed fractional regression (default 0.20)
#
# The bench overwrites BENCH_ingest.json in place, so the committed baseline
# is snapshotted first and both files are handed to the bench_compare bin
# (crates/bench/src/bin/bench_compare.rs). Measurements present in both
# files are gated — that includes the `ingest_sharded` section (sequential
# vs a one-epoch StreamService at 4 workers) and the `ingest_service`
# section (a 4-epoch StreamService), so a >20% epoch-cut regression fails
# here. Dropped measurements are never gated by the bin, so additionally
# assert the sharded, service, hash (including the per-kernel SIMD rows),
# merge, query (batched vs scalar point queries on a published snapshot), serve
# (TCP round-trips under concurrent readers), service_overload (burst
# ingestion through bounded queues, with the bounded-RSS assertion),
# persist (snapshot encode/decode per family plus the cold-start recovery
# path), and wal (persisted ingestion per fsync policy — with the bench's
# own <20% epoch-policy overhead gate — plus WAL-tail replay) sections
# cannot silently vanish from the bench.

set -eu
cd "$(dirname "$0")/.."
TOLERANCE="${1:-0.20}"

BASELINE="$(mktemp)"
trap 'rm -f "$BASELINE"' EXIT
cp BENCH_ingest.json "$BASELINE"

cargo bench -p bd-bench --bench ingest

for section in '"ingest_sharded/' '"ingest_service/' '"hash/' '"hash/simd_' '"merge/' \
    '"query/' '"serve/' '"service_overload/' '"persist/' '"wal/'; do
    if ! grep -q "$section" BENCH_ingest.json; then
        echo "bench_compare.sh: $section section missing from BENCH_ingest.json" >&2
        exit 1
    fi
done

cargo run --release -p bd-bench --bin bench_compare -- \
    "$BASELINE" BENCH_ingest.json "$TOLERANCE"
