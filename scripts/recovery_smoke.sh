#!/usr/bin/env bash
# Kill-restore smoke test: run the live pipeline with checkpointing
# enabled, SIGKILL it mid-replay (no shutdown hook gets to run), then
# restart against the same checkpoint directory. The second run must
# (a) report that it restored from the surviving checkpoint and
# (b) finish with closed accounting — every polled record decided,
# shed, or abandoned. This is the end-to-end recovery path; the
# bit-identity guarantees are covered by TestKillRestore* in
# internal/core.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/intddos" ./cmd/intddos

ckpt="$workdir/ckpt"
log1="$workdir/run1.log"
log2="$workdir/run2.log"

# First run: loop indefinitely (-live-for -1s), checkpointing often.
"$workdir/intddos" -live -scale tiny -packets 300 -live-for -1s \
    -checkpoint-dir "$ckpt" -checkpoint-every 500ms >"$log1" 2>&1 &
pid=$!

# Wait for at least one checkpoint to land, then let state accumulate
# a little past it so the kill loses genuinely un-checkpointed work.
ok=""
for _ in $(seq 1 120); do
    if ls "$ckpt"/ckpt-*.amck >/dev/null 2>&1; then ok=1; break; fi
    if ! kill -0 "$pid" 2>/dev/null; then break; fi
    sleep 0.5
done
if [ -z "$ok" ]; then
    echo "recovery-smoke: no checkpoint written before timeout" >&2
    kill -9 "$pid" 2>/dev/null || true
    sed 's/^/  run1: /' "$log1" >&2
    exit 1
fi
sleep 1
kill -9 "$pid"
wait "$pid" 2>/dev/null || true

fail() {
    echo "recovery-smoke: $1" >&2
    sed 's/^/  run2: /' "$log2" >&2
    exit 1
}

# Second run: one pass; must restore and close its accounting (the
# binary exits non-zero when its ledger is open after Stop).
"$workdir/intddos" -live -scale tiny -packets 300 \
    -checkpoint-dir "$ckpt" -checkpoint-every 0 >"$log2" 2>&1 \
    || fail "restored run exited non-zero"
grep -q "restored from" "$log2" || fail "restart did not restore from the checkpoint"
grep -q "accounting: CLOSED" "$log2" || fail "restored run did not close its accounting"
grep -q "final checkpoint:" "$log2" || fail "restored run did not write its final checkpoint"

echo "recovery-smoke: OK"
grep -E "restored from|accounting: CLOSED" "$log2" | sed 's/^/  /'
