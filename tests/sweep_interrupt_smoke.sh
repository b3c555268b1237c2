#!/bin/sh
# SIGINT kill-and-resume smoke test: a checkpointed sweep killed with
# a real SIGINT must exit 130 with nothing on stdout, and a rerun of
# the same command must resume from the journal and print stdout
# byte-identical to an uninterrupted run.
# Usage: sweep_interrupt_smoke.sh <build-tools-dir>
set -e
TOOLS="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

SWEEP="$TOOLS/mhprof_coord --serial --benchmark=li --intervals=2 \
    --seed=5 --entries=512 --sweep-lengths=500,600,700,800,900,1000 \
    --checkpoint=$TMP/sweep.mhpswp"

# Uninterrupted reference (separate checkpoint so it cannot help the
# interrupted run).
$TOOLS/mhprof_coord --serial --benchmark=li --intervals=2 \
    --seed=5 --entries=512 --sweep-lengths=500,600,700,800,900,1000 \
    --checkpoint="$TMP/ref.mhpswp" > "$TMP/ref.out"
[ "$(wc -l < "$TMP/ref.out")" -eq 6 ] || {
    echo "FAIL: expected 6 sweep lines:"; cat "$TMP/ref.out"; exit 1; }

# Slow every cell down, start the sweep, and SIGINT it once the
# journal holds at least one record (header is 24 bytes).
$SWEEP --failpoints='sweep.cell.slow=*:200ms' \
    > "$TMP/killed.out" 2> "$TMP/killed.err" &
pid=$!
tries=0
while :; do
    if [ -f "$TMP/sweep.mhpswp" ]; then
        size=$(wc -c < "$TMP/sweep.mhpswp")
    else
        size=0
    fi
    [ "$size" -gt 24 ] && break
    tries=$((tries + 1))
    [ "$tries" -gt 400 ] && {
        echo "FAIL: checkpoint never grew"; kill "$pid"; exit 1; }
    sleep 0.05
done
kill -INT "$pid"
set +e
wait "$pid"
rc=$?
set -e
[ "$rc" -eq 130 ] || {
    echo "FAIL: expected exit 130 after SIGINT, got $rc";
    cat "$TMP/killed.err"; exit 1; }
[ ! -s "$TMP/killed.out" ] || {
    echo "FAIL: interrupted run wrote to stdout:";
    cat "$TMP/killed.out"; exit 1; }
grep -q "interrupted by signal 2" "$TMP/killed.err" || {
    echo "FAIL: missing interruption diagnostic:";
    cat "$TMP/killed.err"; exit 1; }

# Rerun the same command (fault cleared): it resumes from the journal
# and the final table is byte-identical to the uninterrupted run.
$SWEEP > "$TMP/resumed.out"
cmp -s "$TMP/resumed.out" "$TMP/ref.out" || {
    echo "FAIL: resumed output differs from uninterrupted run:";
    diff "$TMP/ref.out" "$TMP/resumed.out"; exit 1; }

echo "sweep interrupt smoke test passed"
