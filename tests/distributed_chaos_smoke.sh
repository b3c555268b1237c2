#!/bin/sh
# Distributed chaos matrix: a 10,000-cell sweep sharded across 4
# worker processes must print a result table byte-identical to the
# in-process engine — including after a kill -9 of the coordinator
# mid-sweep (resumed from the lease journal), a kill -9 of individual
# workers (respawned, their lease tails reclaimed), and a quarantine
# run where injected failures poison every third cell. An external
# worker attached over --accept-external must exit 4 ("lost
# coordinator") when the coordinator dies under it.
#
# On failure the checkpoint journal, quarantine report, and both
# sides' logs are copied to $MHP_CHAOS_ARTIFACTS (when set) so CI can
# upload them.
# Usage: distributed_chaos_smoke.sh <build-tools-dir>
set -e
TOOLS="$1"
TMP="$(mktemp -d)"
cleanup() {
    # -x matches the exact process name; -f would match this very
    # shell (its command line contains "mhprof_worker") and kill us.
    pkill -9 -x mhprof_worker 2>/dev/null || true
    pkill -9 -x mhprof_coord 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $1"
    shift
    for f in "$@"; do
        [ -f "$f" ] && { echo "--- $f"; tail -40 "$f"; }
    done
    if [ -n "$MHP_CHAOS_ARTIFACTS" ]; then
        mkdir -p "$MHP_CHAOS_ARTIFACTS"
        cp -f "$TMP"/*.out "$TMP"/*.err "$TMP"/*.ckpt \
            "$TMP"/*.tsv "$MHP_CHAOS_ARTIFACTS"/ 2>/dev/null || true
        echo "artifacts copied to $MHP_CHAOS_ARTIFACTS"
    fi
    exit 1
}

# 10,000 cells: one benchmark x one config x 10,000 distinct interval
# lengths (10..10009, one interval each, keeps each cell small — the
# chaos matrix stresses the protocol and journal, not the profiler;
# a repeated length would be dropped with a warning).
LENGTHS=$(awk 'BEGIN{for(i=0;i<10000;i++)printf "%s%d",(i?",":""),10+i}')

SWEEP_ARGS="--benchmark=li --intervals=1 --seed=5 --entries=512 \
    --sweep-lengths=$LENGTHS"

# In-process reference: the stdout every distributed leg must equal.
$TOOLS/mhprof_coord --serial $SWEEP_ARGS > "$TMP/ref.out" \
    2> "$TMP/ref.err" || fail "serial reference" "$TMP/ref.err"
[ "$(wc -l < "$TMP/ref.out")" -eq 10000 ] || \
    fail "expected 10000 sweep lines in the reference" "$TMP/ref.out"

# --- Leg 1: clean distributed run, 4 workers -------------------------
$TOOLS/mhprof_coord --workers=4 --socket="$TMP/l1.sock" $SWEEP_ARGS \
    > "$TMP/clean.out" 2> "$TMP/clean.err" || \
    fail "clean distributed run" "$TMP/clean.err"
cmp -s "$TMP/clean.out" "$TMP/ref.out" || \
    fail "clean distributed output differs from serial reference" \
        "$TMP/clean.err"

# --- Leg 2: kill -9 the coordinator mid-sweep, then resume -----------
# An external worker rides along so its exit code can be observed when
# the coordinator dies under it.
$TOOLS/mhprof_coord --workers=4 --accept-external \
    --socket="$TMP/l2.sock" --checkpoint="$TMP/l2.ckpt" --verbose \
    $SWEEP_ARGS --failpoints='sweep.cell.slow=*:1ms' \
    > "$TMP/killed.out" 2> "$TMP/killed.err" &
coord=$!
$TOOLS/mhprof_worker --connect="$TMP/l2.sock" \
    --connect-retry-ms=10000 2> "$TMP/extworker.err" &
extworker=$!

tries=0
while :; do
    size=0
    [ -f "$TMP/l2.ckpt" ] && size=$(wc -c < "$TMP/l2.ckpt")
    [ "$size" -gt 20000 ] && break
    kill -0 "$coord" 2>/dev/null || \
        fail "coordinator exited before it could be killed" \
            "$TMP/killed.err"
    tries=$((tries + 1))
    [ "$tries" -gt 600 ] && fail "checkpoint never grew" \
        "$TMP/killed.err"
    sleep 0.05
done
kill -9 "$coord"
set +e
wait "$coord"
wait "$extworker"
extrc=$?
set -e
[ "$extrc" -eq 4 ] || \
    fail "external worker: expected exit 4 (lost coordinator), got $extrc" \
        "$TMP/extworker.err"
# Orphaned spawned workers notice the dead socket and exit on their
# own; sweep any stragglers so they cannot connect to later legs.
pkill -9 -x mhprof_worker 2>/dev/null || true

$TOOLS/mhprof_coord --workers=4 --socket="$TMP/l2r.sock" \
    --checkpoint="$TMP/l2.ckpt" --verbose $SWEEP_ARGS \
    > "$TMP/resumed.out" 2> "$TMP/resumed.err" || \
    fail "resume after coordinator kill" "$TMP/resumed.err"
grep -q "resumed checkpoint:" "$TMP/resumed.err" || \
    fail "resume did not load the journal" "$TMP/resumed.err"
cmp -s "$TMP/resumed.out" "$TMP/ref.out" || \
    fail "resumed output differs from serial reference" \
        "$TMP/resumed.err"

# --- Leg 3: kill -9 two workers mid-sweep ----------------------------
$TOOLS/mhprof_coord --workers=4 --socket="$TMP/l3.sock" --verbose \
    $SWEEP_ARGS --failpoints='sweep.cell.slow=*:1ms' \
    > "$TMP/wkill.out" 2> "$TMP/wkill.err" &
coord=$!

tries=0
while :; do
    pids=$(grep -o 'spawned worker pid [0-9]*' "$TMP/wkill.err" \
        2>/dev/null | awk '{print $4}')
    [ "$(echo "$pids" | wc -w)" -ge 4 ] && break
    kill -0 "$coord" 2>/dev/null || \
        fail "coordinator died before spawning workers" "$TMP/wkill.err"
    tries=$((tries + 1))
    [ "$tries" -gt 600 ] && fail "workers never spawned" "$TMP/wkill.err"
    sleep 0.05
done
# Kill two different workers at different moments: each death reclaims
# a lease tail and respawns a replacement; no cell dies often enough
# (maxCellDeaths = 3) to be quarantined as poisonous.
victim1=$(echo "$pids" | sed -n 1p)
victim2=$(echo "$pids" | sed -n 2p)
kill -9 "$victim1" 2>/dev/null || true
sleep 0.3
kill -9 "$victim2" 2>/dev/null || true
set +e
wait "$coord"
rc=$?
set -e
[ "$rc" -eq 0 ] || fail "coordinator failed after worker kills ($rc)" \
    "$TMP/wkill.err"
grep -q "lost:" "$TMP/wkill.err" || \
    fail "no worker-lost diagnostic after kill -9" "$TMP/wkill.err"
cmp -s "$TMP/wkill.out" "$TMP/ref.out" || \
    fail "output after worker kills differs from serial reference" \
        "$TMP/wkill.err"

# --- Leg 4: quarantine parity under injected failures ----------------
QARGS="--benchmark=li --intervals=1 --seed=5 --entries=512 \
    --sweep-lengths=$(awk 'BEGIN{for(i=0;i<30;i++)printf "%s%d",(i?",":""),100+i}') \
    --retries=1 --failpoints=sweep.cell.compute=1/3 --failpoint-seed=9"

set +e
$TOOLS/mhprof_coord --serial $QARGS \
    --quarantine-report="$TMP/qserial.tsv" \
    > "$TMP/qserial.out" 2> "$TMP/qserial.err"
rcs=$?
$TOOLS/mhprof_coord --workers=4 --socket="$TMP/l4.sock" $QARGS \
    --quarantine-report="$TMP/qdist.tsv" \
    > "$TMP/qdist.out" 2> "$TMP/qdist.err"
rcd=$?
set -e
[ "$rcs" -eq 3 ] || fail "serial quarantine run: expected exit 3, got $rcs" \
    "$TMP/qserial.err"
[ "$rcd" -eq 3 ] || fail "distributed quarantine run: expected exit 3, got $rcd" \
    "$TMP/qdist.err"
cmp -s "$TMP/qdist.out" "$TMP/qserial.out" || \
    fail "quarantine-run stdout differs" "$TMP/qdist.err"
cmp -s "$TMP/qdist.err" "$TMP/qserial.err" || {
    # stderr prefix differs only by tool name if renderers drift;
    # print both for diagnosis.
    diff "$TMP/qserial.err" "$TMP/qdist.err" || true
    fail "quarantine diagnostics differ" "$TMP/qdist.err"
}
cmp -s "$TMP/qdist.tsv" "$TMP/qserial.tsv" || \
    fail "quarantine reports differ" "$TMP/qdist.tsv"

echo "distributed chaos smoke test passed"
