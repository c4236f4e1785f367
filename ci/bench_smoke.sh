#!/usr/bin/env sh
# Smoke test for the host-performance benchmark (`perfbench/`):
#
#   1. its self-tests: tiny-size runs of every workload, each printing
#      every metric BENCHMARK.json declares;
#   2. one full-size run of every workload at the reference seed, whose
#      result lines must all report `"correct": true` — the simulated
#      statistics' digests equal perfbench/reference.json.
#
# Timings are printed but never judged: they depend on the machine.
set -eu

cd "$(dirname "$0")/.."

MANIFEST=perfbench/Cargo.toml
OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

cargo test --release --offline --manifest-path "$MANIFEST"
cargo run --release --offline --quiet --manifest-path "$MANIFEST" -- \
    --workload all --seed 1 --seconds 1 --trace 0 | tee "$OUT"

python3 - "$OUT" <<'PY'
import json, sys
results = [json.loads(line) for line in open(sys.argv[1]) if line.startswith("{")]
bad = [r for r in results if r.get("correct") is not True]
if len(results) != 4 or bad:
    sys.exit(f"bench_smoke: {len(results)} result lines, {len(bad)} not correct")
print("bench_smoke: all 4 workloads correct at --seed 1")
PY
