#!/usr/bin/env sh
# Artifact regeneration gate: every committed default-scale result in
# results/ must be exactly what `experiments all` writes from this
# checkout. Runs the full registry at the default scale (~95 s on two
# cores) into a temporary directory and `cmp`s each committed file
# against its regenerated twin.
#
# Excluded, because they are committed at another scale and gated
# elsewhere:
#   * smt_frontier.json — scale 20 000, its own `cmp` step in CI;
#   * sampled.json, shape.json — scale 10^9 (`all --sample`).
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cargo build --release --offline --quiet --bin experiments
./target/release/experiments all --out "$TMP" >"$TMP/log.txt"

status=0
for f in results/*.json; do
    name=$(basename "$f")
    case "$name" in
        smt_frontier.json | sampled.json | shape.json) continue ;;
    esac
    if [ ! -f "$TMP/$name" ]; then
        echo "FAIL: $name is committed but \`experiments all\` did not write it" >&2
        status=1
    elif ! cmp -s "$f" "$TMP/$name"; then
        echo "FAIL: $f differs from the regenerated artifact" >&2
        status=1
    else
        echo "ok: $name"
    fi
done
# And the other way round: everything `all` writes at this scale is
# committed.
for f in "$TMP"/*.json; do
    name=$(basename "$f")
    [ "$name" = smt_frontier.json ] && continue
    if [ ! -f "results/$name" ]; then
        echo "FAIL: \`experiments all\` writes $name but results/ lacks it" >&2
        status=1
    fi
done
exit $status
