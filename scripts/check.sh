#!/usr/bin/env bash
# Tier-1 gate for the VASE reproduction: build + tests must pass before
# any change lands. Formatting and lint gates run when their tools are
# usable offline (they need no network; skip gracefully if absent).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier 1: cargo build --release =="
cargo build --release

echo "== tier 1: vase-bench builds and passes its smoke test =="
# The benchmark is a workspace of its own that calls the flow's public
# API; building and smoke-testing it here turns an API change it cannot
# follow into a tier-1 failure. Its serve workload drives the release
# `vase` binary built above.
CARGO_TARGET_DIR=target cargo test --release --manifest-path vase-bench/Cargo.toml

echo "== tier 1: cargo test -q =="
cargo test -q

# The two --smoke runs write their reports under the system temp
# directory, so a check never overwrites the committed BENCH_*.json.
echo "== tier 1: sim_bench --smoke =="
./target/release/sim_bench --smoke

echo "== tier 1: archgen_bench --smoke =="
./target/release/archgen_bench --smoke

echo "== tier 1: cover-cache round trip (vase synth --cache-file) =="
# Synthesize twice against the same cache file: the first run populates
# it, the second must be served from it (nonzero hit count reported).
cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT
./target/release/vase synth crates/core/specs/funcgen.vhd \
    --cache-file "$cache_dir/covers.cache" >/dev/null
warm_out=$(./target/release/vase synth crates/core/specs/funcgen.vhd \
    --cache-file "$cache_dir/covers.cache")
if ! printf '%s\n' "$warm_out" | grep -Eq 'cover cache: [1-9][0-9]* hit\(s\)'; then
    echo "second --cache-file run reported no cover-cache hits:" >&2
    printf '%s\n' "$warm_out" >&2
    exit 1
fi

echo "== tier 1: opt equivalence suite =="
cargo test -q -p vase-sim --test opt_equivalence
cargo test -q -p vase --test opt_snapshots

echo "== tier 1: compile pin (shipped and generated designs) =="
cargo test -q -p vase --test compile_pins

echo "== tier 1: opt oracle (mapped cost and traces at -O0 and -O2) =="
# The op amps and area bits of every shipped, generated and mutant
# design at both levels, and bit-identical output traces of every
# generated design: the evidence a VHIF pass must keep.
cargo test -q -p vase-bench --test opt_oracle

echo "== tier 1: search pins (corpus counters, guided≡exact oracle, allocations) =="
# search_counters pins every driver's counters and netlists on the
# corpus; guided_oracle checks guided≡exact on 600 generated graphs
# with and without the sequencing rule; search_equivalence does so on
# random graphs; search_alloc guards the per-node allocations.
cargo test -q -p vase --test search_counters
cargo test -q -p vase-bench --test guided_oracle
cargo test -q -p vase-archgen --test search_equivalence
cargo test -q -p vase-bench --test search_alloc

echo "== tier 1: diagnostic pin (shipped sources and fuzz mutants) =="
cargo test -q -p vase-bench --test diagnostic_pins

echo "== tier 1: lexer allocation guard (one per distinct identifier) =="
cargo test -q -p vase-bench --test frontend_alloc

echo "== tier 1: sim fault-injection suite =="
cargo test -q -p vase-sim --test fault_injection

echo "== tier 1: wide-simulation equivalence + no-alloc suites =="
cargo test -q -p vase-sim --test lane_equivalence
cargo test -q -p vase-sim --test no_alloc
cargo test -q -p vase --test lane_corpus
cargo test -q -p vase --test netlist_traces
cargo test -q -p vase --test behavioral_traces

echo "== tier 1: Monte Carlo yield smoke (lane-batched) =="
# A small sample count exercises the whole batched MC path: netlist
# perturbation, lane batching, range scoring, and the yield report.
./target/release/vase sim crates/core/specs/funcgen.vhd \
    --input ramp=sine:0.5,1000 --monte-carlo 16 --tolerance 2 >/dev/null
# A poisoned lane must degrade (exit 3), not fail the batch.
set +e
./target/release/vase sim crates/core/specs/funcgen.vhd \
    --input ramp=sine:0.5,1000 --monte-carlo 16 --tolerance 2 \
    --inject-lane 0:50 >/dev/null
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
    echo "injected-lane Monte Carlo run exited $rc, expected 3 (degraded)" >&2
    exit 1
fi

echo "== tier 1: vase-fuzz --smoke =="
./target/release/vase-fuzz --smoke

echo "== tier 1: vase serve smoke over shipped specs =="
# One daemon, one synth request per shipped spec, then shutdown: every
# response must come back ok on a single long-lived process.
serve_req="$cache_dir/serve-requests.ndjson"
: > "$serve_req"
i=0
for f in crates/core/specs/*.vhd; do
    i=$((i + 1))
    printf '{"id": %d, "op": "synth", "path": "%s"}\n' "$i" "$f" >> "$serve_req"
done
printf '{"id": 0, "op": "shutdown"}\n' >> "$serve_req"
serve_out=$(./target/release/vase serve --workers 2 \
    --cache-file "$cache_dir/serve-covers.cache" < "$serve_req")
n_ok=$(printf '%s\n' "$serve_out" | grep -c '"status":"ok"')
if [ "$n_ok" -ne $((i + 1)) ]; then
    echo "serve smoke: expected $((i + 1)) ok responses, got $n_ok:" >&2
    printf '%s\n' "$serve_out" >&2
    exit 1
fi

echo "== tier 1: vase-fuzz --soak (fault-injected service) =="
# Two full passes (clean + injected panics/timeouts/malformed lines)
# asserting zero hangs, daemon deaths, or out-of-contract statuses.
./target/release/vase-fuzz --soak

echo "== tier 1: serve crash safety (kill -9 during snapshots) =="
# kill -9 a daemon that writes a snapshot after every job: no snapshot
# may fail, and the cache file left behind must load (see the script).
bash scripts/serve_crash_gate.sh ./target/release/vase

echo "== tier 1: serve socket outlives a client reset =="
# A client that closes with its reply unread resets the connection; the
# daemon must drop only that connection and answer the next client.
cargo test -q -p vase --test exit_contract serve_socket_outlives_a_client_reset

echo "== tier 1: vase opt smoke over shipped specs =="
for f in crates/core/specs/*.vhd; do
    # Every spec must survive the full -O2 pipeline with clean stats.
    ./target/release/vase opt --print-stats "$f" >/dev/null
done

echo "== tier 1: vase analyze over shipped specs =="
for f in crates/core/specs/*.vhd; do
    # The range analysis must converge and prove no violation on any
    # shipped design (exit 0; proven violations exit nonzero).
    ./target/release/vase analyze "$f" >/dev/null
done

echo "== tier 1: analyze snapshot suite =="
cargo test -q -p vase --test analyze_snapshots

echo "== tier 1: range-prune equivalence gate =="
# Attaching proven bounds with range_prune off must stay bit-identical
# to the mapper's pre-analysis output; pruning on must stay valid.
cargo test -q -p vase --test range_prune_equivalence

echo "== tier 1: vase lint over shipped specs and fixtures =="
for f in crates/core/specs/*.vhd examples/lint/clean_*.vhd; do
    # Every shipped design must lint clean, warnings included.
    ./target/release/vase lint --deny warnings "$f" >/dev/null
done
for f in examples/lint/bad_*.vhd; do
    # Every deliberately-invalid fixture must be rejected.
    if ./target/release/vase lint --deny warnings "$f" >/dev/null 2>&1; then
        echo "lint accepted invalid fixture $f" >&2
        exit 1
    fi
done

# Advisory only: the seed predates a formatting gate and is not
# fmt-clean, so drift is reported without failing the check.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== tier 2 (advisory): cargo fmt --check =="
    cargo fmt --all --check || echo "formatting drift (non-fatal)"
else
    echo "== tier 2: cargo fmt unavailable; skipped =="
fi

if cargo clippy --version >/dev/null 2>&1; then
    echo "== tier 2: cargo clippy -D warnings =="
    cargo clippy -p vase-diag --all-targets -- -D warnings
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== tier 2: cargo clippy unavailable; skipped =="
fi

echo "== all checks passed =="
