#!/usr/bin/env bash
# Serve crash-safety gate: kill -9 a `vase serve` daemon in the middle
# of a storm of cover-cache snapshots, then prove that no snapshot
# failed and that the cache file left behind loads.
#
#   bash scripts/serve_crash_gate.sh [path/to/vase]
#
# An unbounded generator feeds the daemon distinct-gain synth requests
# (`vout == 1.<n> * vin`) under `--snapshot-every 1`, so every job
# inserts a cover, every snapshot point writes the file, and the two
# workers' snapshots keep meeting. Once the file holds at least 20
# covers the daemon is killed. The gate fails when no such snapshot
# appears within 60 s, when the daemon logged a failed snapshot, or
# when `vase synth --cache-file` reports the file unreadable (it still
# exits 0 then, starting cold, so its exit code alone proves nothing).
set -euo pipefail
cd "$(dirname "$0")/.."

vase="${1:-./target/release/vase}"
min_covers=20
dir=$(mktemp -d)
serve_pid=
cleanup() {
    if [ -n "$serve_pid" ]; then
        kill -9 "$serve_pid" 2>/dev/null || true
        wait 2>/dev/null || true
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

cache="$dir/covers.cache"
source='entity g is port (quantity vin : in real is voltage range -1.0 to 1.0; quantity vout : out real is voltage range -2.0 to 2.0); end entity; architecture a of g is begin vout == 1.%06d * vin; end architecture;'
requests() {
    local n=0
    # Stops at the first write to the killed daemon's closed pipe.
    while printf "{\"id\": %d, \"op\": \"synth\", \"source\": \"$source\"}\n" "$n" "$n"; do
        n=$((n + 1))
    done 2>/dev/null
}
requests | "$vase" serve --snapshot-every 1 --cache-file "$cache" \
    >/dev/null 2>"$dir/serve.err" &
serve_pid=$!

covers=0
for _ in $(seq 600); do
    sleep 0.1
    if [ -f "$cache" ]; then
        covers=$(grep -c '^e ' "$cache" || true)
    fi
    if [ "$covers" -ge "$min_covers" ]; then
        break
    fi
done
kill -9 "$serve_pid" 2>/dev/null || true
wait 2>/dev/null || true
serve_pid=

if [ "$covers" -lt "$min_covers" ]; then
    echo "serve crash gate: no snapshot of $min_covers covers within 60 s (last held $covers)" >&2
    exit 1
fi
if grep -E 'snapshot .* failed' "$dir/serve.err" >&2; then
    echo "serve crash gate: the daemon logged failed snapshots (above)" >&2
    exit 1
fi
if ! out=$("$vase" synth crates/core/specs/funcgen.vhd --cache-file "$cache" 2>&1); then
    echo "serve crash gate: vase synth failed over the cache left by kill -9:" >&2
    printf '%s\n' "$out" >&2
    exit 1
fi
if printf '%s\n' "$out" | grep -q unreadable; then
    echo "serve crash gate: kill -9 left an unreadable cover cache:" >&2
    printf '%s\n' "$out" >&2
    exit 1
fi
echo "serve crash gate: killed after $covers covers; no snapshot failed; the cache loads"
