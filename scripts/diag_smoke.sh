#!/usr/bin/env bash
# Diagnostics smoke test: run the live pipeline with the observability
# server bound to an ephemeral port, pull a diagnostic bundle from
# /debug/bundle while it is running, let the run write its exit bundle
# via -diag-bundle, and validate both archives with scripts/diagcheck
# (well-formed tar.gz, required entries present and non-empty,
# events.jsonl parseable). This is the end-to-end "can an operator get
# evidence out of a running pipeline" path; the per-entry contents are
# covered by the internal/obs unit tests.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/intddos" ./cmd/intddos
go build -o "$workdir/diagcheck" ./scripts/diagcheck

log="$workdir/run.log"
exit_bundle="$workdir/exit-bundle.tar.gz"

# Loop until killed so the live /debug/bundle fetch races nothing;
# journey sampling on every record so the bundle has traces in it.
"$workdir/intddos" -live -scale tiny -packets 300 -live-for -1s \
    -shards 2 \
    -obs-addr 127.0.0.1:0 -diag-bundle "$exit_bundle" >"$log" 2>&1 &
pid=$!

fail() {
    echo "diag-smoke: $1" >&2
    sed 's/^/  run: /' "$log" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
}

# Wait for the observability server to announce its bound address.
addr=""
for _ in $(seq 1 120); do
    addr="$(sed -n 's|^observability endpoints on http://\([^ ]*\).*|\1|p' "$log" | head -1)"
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then fail "pipeline exited before binding the obs server"; fi
    sleep 0.5
done
[ -n "$addr" ] && [ "${addr##*:}" != "0" ] || fail "no bound obs address in the log"

# Give the replay a moment to put events and decisions on the books,
# then pull a bundle from the running pipeline.
sleep 2
"$workdir/diagcheck" "http://$addr/debug/bundle" \
    || fail "/debug/bundle did not validate"

# Graceful shutdown writes the exit bundle; a non-zero exit is an open
# ledger.
kill -INT "$pid"
wait "$pid" || fail "pipeline exited non-zero"
[ -s "$exit_bundle" ] || fail "-diag-bundle wrote nothing on exit"
"$workdir/diagcheck" "$exit_bundle" || fail "exit bundle did not validate"
grep -q "diagnostic bundle:" "$log" || fail "run log does not mention the exit bundle"

echo "diag-smoke: OK"
