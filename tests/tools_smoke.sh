#!/bin/sh
# Smoke test for the CLI tools: record -> profile -> dump round trip.
# Usage: tools_smoke.sh <build-tools-dir>
set -e
TOOLS="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$TOOLS/mhprof_trace" --benchmark=li --events=30000 \
    --out="$TMP/li.mht" | grep -q "recorded 30000 value events"

"$TOOLS/mhprof_run" --trace="$TMP/li.mht" --intervals=3 \
    --out="$TMP/li.mhp" | grep -q "3 intervals"

"$TOOLS/mhprof_dump" "$TMP/li.mhp" --top=1 --phases=2 \
    | grep -q "intervals: 3"

"$TOOLS/mhprof_trace" --sim --edges --events=5000 \
    --out="$TMP/sim.mht" | grep -q "edge events"

"$TOOLS/mhprof_run" --benchmark=gcc --tables=1 --reset \
    --intervals=2 --out="$TMP/gcc.mhp" | grep -q "sh-R1P1"

# Identical runs diff clean (exit 0); a BSH-vs-mh4 diff may differ
# (exit 0 or 2, both fine), but must not crash.
"$TOOLS/mhprof_run" --trace="$TMP/li.mht" --intervals=3 \
    --out="$TMP/li2.mhp" > /dev/null
"$TOOLS/mhprof_compare" "$TMP/li.mhp" "$TMP/li2.mhp" \
    | grep -q "onlyA 0, onlyB 0"
"$TOOLS/mhprof_run" --trace="$TMP/li.mht" --tables=1 --reset \
    --intervals=3 --out="$TMP/li_bsh.mhp" > /dev/null
"$TOOLS/mhprof_compare" "$TMP/li.mhp" "$TMP/li_bsh.mhp" \
    | grep -q "totals:" || exit 1

# A mapped trace always runs through the span runner: --threads sets
# its worker count only, so every value writes the same bytes and
# prints the same summary (the output path is normalized away).
run_threads() { # <label> [mhprof_run flags...]
    label="$1"; shift
    "$TOOLS/mhprof_run" --trace="$TMP/li.mht" --intervals=3 \
        --out="$TMP/li_$label.mhp" "$@" \
        | sed "s|$TMP/li_$label.mhp|OUT|" > "$TMP/li_$label.out"
}
run_threads t1 --threads=1
run_threads t4 --threads=4
run_threads default
for label in t4 default; do
    cmp "$TMP/li_t1.mhp" "$TMP/li_$label.mhp" &&
        cmp "$TMP/li_t1.out" "$TMP/li_$label.out" || {
        echo "FAIL: mhprof_run $label differs from --threads=1:";
        cat "$TMP/li_t1.out" "$TMP/li_$label.out"; exit 1; }
done
grep -q "3 intervals" "$TMP/li_t1.out"

# Fault sweep: one tiny rate sweep must emit the sh vs mh4-C1 table.
"$TOOLS/mhprof_faults" --benchmark=li --intervals=2 \
    --interval-length=5000 --rates=0,1e-3 > "$TMP/faults.out"
grep -q "mh4-C1 error" "$TMP/faults.out"
grep -q "^0 " "$TMP/faults.out"
grep -q "^0.001 " "$TMP/faults.out"

# --- corrupt-input behaviour -----------------------------------------
# Every tool must reject damaged input with exit 1 and a one-line
# diagnostic naming the file, never crash or succeed silently.

# expect_reject <file-that-should-be-named> <tool args...>
expect_reject() {
    want="$1"; shift
    if "$@" > /dev/null 2> "$TMP/err.out"; then
        echo "FAIL: $* accepted corrupt input"; exit 1
    fi
    [ "$(wc -l < "$TMP/err.out")" -eq 1 ] || {
        echo "FAIL: $* stderr diagnostic is not one line:";
        cat "$TMP/err.out"; exit 1; }
    grep -q "$want" "$TMP/err.out" || {
        echo "FAIL: $* diagnostic does not name $want:";
        cat "$TMP/err.out"; exit 1; }
}

# Truncated trace: header promises more events than the file holds.
head -c 200 "$TMP/li.mht" > "$TMP/cut.mht"
expect_reject "cut.mht" "$TOOLS/mhprof_run" --trace="$TMP/cut.mht" \
    --intervals=1 --out="$TMP/cut.mhp"

# Bad magic in a profile.
printf 'NOTPROF0garbagegarbagegarbagegarbage' > "$TMP/bad.mhp"
expect_reject "bad.mhp" "$TOOLS/mhprof_dump" "$TMP/bad.mhp"

# Bit flip inside a record: CRC catches it, offset is reported.
cp "$TMP/li.mhp" "$TMP/flip.mhp"
printf '\377' | dd of="$TMP/flip.mhp" bs=1 seek=60 conv=notrunc 2>/dev/null
expect_reject "offset" "$TOOLS/mhprof_dump" "$TMP/flip.mhp"
expect_reject "flip.mhp" "$TOOLS/mhprof_compare" "$TMP/flip.mhp" \
    "$TMP/li.mhp"

# Missing file.
expect_reject "nope.mhp" "$TOOLS/mhprof_dump" "$TMP/nope.mhp"

# Bad CLI input: unknown flag and malformed numeric value.
expect_reject "unknown flag" "$TOOLS/mhprof_run" --no-such-flag
expect_reject "integer" "$TOOLS/mhprof_trace" --events=ten \
    --out="$TMP/x.mht"
expect_reject "not a number" "$TOOLS/mhprof_faults" --benchmark=li \
    --rates=0,banana

# --- exit codes and injected faults ----------------------------------
# The contract (docs/ROBUSTNESS.md): 0 success, 1 usage/corrupt
# input/IO, 2 profiles-differ (mhprof_compare), 3 quarantined cells
# (mhprof_coord sweeps), 128+N killed by signal N. Diagnostics go to
# stderr; stdout carries results only.

# expect_exit <code> <tool args...>
expect_exit() {
    want="$1"; shift
    set +e
    "$@" > /dev/null 2> "$TMP/err.out"
    got=$?
    set -e
    [ "$got" -eq "$want" ] || {
        echo "FAIL: $* exited $got, expected $want:";
        cat "$TMP/err.out"; exit 1; }
}

# A profiler config that cannot run is a usage error with an
# "invalid argument" diagnostic: refused before the unsigned cast or
# the profiler build, never a fatal: abort or a wrapped-around length.
# An interval past 2^32 - 1 events could wrap the oracle's 32-bit
# counts, so it is refused up front as well.
for bad in --interval-length=-1 --interval-length=4294967296 \
    --entries=-1 --tables=3; do
    expect_exit 1 "$TOOLS/mhprof_run" --benchmark=li "$bad"
    grep -q "invalid argument" "$TMP/err.out" &&
        ! grep -q "fatal:" "$TMP/err.out" || {
        echo "FAIL: mhprof_run $bad diagnostic:";
        cat "$TMP/err.out"; exit 1; }
done

# The retired ISA tiers are unknown spellings: --isa refuses them as a
# bad flag, and MHP_FORCE_ISA ignores them with a note (scalar and
# avx512 are the only tiers).
for isa in sse42 avx2; do
    expect_exit 1 "$TOOLS/mhprof_run" --benchmark=li --isa=$isa
    grep -q "not recognized" "$TMP/err.out" || {
        echo "FAIL: mhprof_run --isa=$isa diagnostic:";
        cat "$TMP/err.out"; exit 1; }
done
MHP_FORCE_ISA=avx2 "$TOOLS/mhprof_run" --benchmark=li --intervals=1 \
    --interval-length=2000 --out="$TMP/forced.mhp" \
    > /dev/null 2> "$TMP/err.out"
grep -q "MHP_FORCE_ISA=avx2 not recognized" "$TMP/err.out" || {
    echo "FAIL: MHP_FORCE_ISA=avx2 not noted:"; cat "$TMP/err.out"; exit 1; }

# A threshold so small that its accumulator (ceil(1 / threshold)
# entries, here 10^9) cannot be allocated is refused the same way,
# before any profiler is built: no bad_alloc abort.
for tool in mhprof_run mhprof_faults; do
    expect_exit 1 "$TOOLS/$tool" --benchmark=li --intervals=1 \
        --threshold=0.0000001
    grep -q "invalid argument" "$TMP/err.out" &&
        ! grep -q "fatal:" "$TMP/err.out" &&
        ! grep -q "bad_alloc" "$TMP/err.out" || {
        echo "FAIL: $tool --threshold=0.0000001 diagnostic:";
        cat "$TMP/err.out"; exit 1; }
done

# Malformed failpoint specs are usage errors in every tool.
expect_exit 1 "$TOOLS/mhprof_run" --benchmark=li --failpoints='x='
expect_exit 1 "$TOOLS/mhprof_trace" --benchmark=li \
    --out="$TMP/x.mht" --failpoints='x='

# Injected profile-write ENOSPC: clean exit 1, a diagnostic naming
# the injection, and no output file under either name.
expect_exit 1 "$TOOLS/mhprof_run" --benchmark=li --intervals=2 \
    --out="$TMP/fp.mhp" --failpoints='profile.write.enospc=1'
grep -q "injected" "$TMP/err.out" || {
    echo "FAIL: ENOSPC diagnostic does not say injected"; exit 1; }
[ ! -e "$TMP/fp.mhp" ] && [ ! -e "$TMP/fp.mhp.tmp" ] || {
    echo "FAIL: partial profile left behind after injected ENOSPC";
    exit 1; }

# Same for the trace writer, driven through the environment instead
# of the flag (the env path is what fault drills use).
set +e
MHP_FAILPOINTS='trace.write.enospc=1' "$TOOLS/mhprof_trace" \
    --benchmark=li --events=30000 --out="$TMP/fp.mht" \
    > /dev/null 2> "$TMP/err.out"
got=$?
set -e
[ "$got" -eq 1 ] || { echo "FAIL: env failpoint exit $got != 1"; exit 1; }
[ ! -e "$TMP/fp.mht" ] && [ ! -e "$TMP/fp.mht.tmp" ] || {
    echo "FAIL: partial trace left behind after injected ENOSPC";
    exit 1; }

# Differing profiles: exactly exit 2 (not a failure, a verdict).
expect_exit 2 "$TOOLS/mhprof_compare" "$TMP/li.mhp" "$TMP/gcc.mhp"

# A sweep with a permanently failing cell: exactly exit 3, the
# surviving cells still on stdout.
expect_exit 3 "$TOOLS/mhprof_coord" --serial --benchmark=li \
    --intervals=2 --entries=512 --sweep-lengths=1000,2000 --retries=0 \
    --failpoints='sweep.cell.compute=1'
grep -q "quarantined" "$TMP/err.out" || {
    echo "FAIL: quarantine diagnostic missing"; exit 1; }

# Cell deadlines are enforced at interval boundaries only; a budget
# no cell comes near leaves the sweep's stdout unchanged.
"$TOOLS/mhprof_coord" --serial --benchmark=li --intervals=2 \
    --entries=512 --sweep-lengths=1000,2000 > "$TMP/sweep.out"
"$TOOLS/mhprof_coord" --serial --benchmark=li --intervals=2 \
    --entries=512 --sweep-lengths=1000,2000 --cell-deadline-ms=60000 \
    > "$TMP/sweep_deadline.out"
cmp "$TMP/sweep.out" "$TMP/sweep_deadline.out" || {
    echo "FAIL: --cell-deadline-ms changed the sweep's stdout"; exit 1; }

# --- distributed coordinator / worker exit codes ---------------------
# Same contract, extended (docs/DISTRIBUTED.md): mhprof_worker exits 1
# for usage/connect errors and 4 when it loses its coordinator;
# mhprof_coord exits 3 when the sweep completes with quarantined
# cells, even when every cell is quarantined.

# A worker pointed at nothing: exit 1, diagnostic names the socket.
expect_exit 1 "$TOOLS/mhprof_worker" --connect="$TMP/no-such.sock"
grep -q "no-such.sock" "$TMP/err.out" || {
    echo "FAIL: worker connect error does not name the socket";
    cat "$TMP/err.out"; exit 1; }
expect_exit 1 "$TOOLS/mhprof_worker"

# Coordinator usage errors: no plan source, malformed sweep lengths,
# malformed failpoint spec.
expect_exit 1 "$TOOLS/mhprof_coord" --sweep-lengths=1000
expect_exit 1 "$TOOLS/mhprof_coord" --benchmark=li \
    --sweep-lengths=10,banana
expect_exit 1 "$TOOLS/mhprof_coord" --benchmark=li \
    --sweep-lengths=1000 --failpoints='x='

# A corrupt checkpoint (not our magic) must be refused, not clobbered.
printf 'this is the user file, not a checkpoint' > "$TMP/user.txt"
expect_exit 1 "$TOOLS/mhprof_coord" --benchmark=li --intervals=2 \
    --entries=512 --sweep-lengths=1000 --workers=1 \
    --checkpoint="$TMP/user.txt"
grep -q "user.txt" "$TMP/err.out" || {
    echo "FAIL: corrupt-checkpoint diagnostic does not name the file";
    cat "$TMP/err.out"; exit 1; }
grep -q "user file" "$TMP/user.txt" || {
    echo "FAIL: coordinator clobbered a non-checkpoint file"; exit 1; }

# Quarantine-only completion: every cell fails every attempt on every
# worker, yet the sweep completes with exit 3 — and identically under
# the in-process engine.
expect_exit 3 "$TOOLS/mhprof_coord" --workers=2 \
    --socket="$TMP/q.sock" --benchmark=li --intervals=2 \
    --entries=512 --sweep-lengths=1000,2000 --retries=0 \
    --failpoints='sweep.cell.compute=*'
cp "$TMP/err.out" "$TMP/qdist.err"
expect_exit 3 "$TOOLS/mhprof_coord" --serial --benchmark=li \
    --intervals=2 --entries=512 --sweep-lengths=1000,2000 \
    --retries=0 --failpoints='sweep.cell.compute=*'
cmp -s "$TMP/err.out" "$TMP/qdist.err" || {
    echo "FAIL: quarantine-only diagnostics differ between serial "\
"and distributed:"; diff "$TMP/err.out" "$TMP/qdist.err"; exit 1; }

# --- profiling daemon / client exit codes ----------------------------
# Same contract, extended (docs/SERVICE.md): mhprofd exits 0 only on
# a clean drain; mhprof_client exits 1 for usage/connect errors, 2
# when admission refuses it, and 4 when it loses the daemon.

expect_exit 1 "$TOOLS/mhprofd"
expect_exit 1 "$TOOLS/mhprofd" --socket="$TMP/d.sock" --max-tenants=0
expect_exit 1 "$TOOLS/mhprofd" --socket="$TMP/d.sock" --failpoints='x='
expect_exit 1 "$TOOLS/mhprof_client" --tenant=x
# An unreachable daemon is indistinguishable from one mid-restart
# (the socket is briefly unlinked during a crash-recovery bounce), so
# the client retries through its budget and reports the daemon lost.
expect_exit 4 "$TOOLS/mhprof_client" --connect="$TMP/gone.sock" \
    --tenant=x --connect-timeout-ms=200 --max-reconnects=1 \
    --backoff-ms=10
grep -q "gone.sock" "$TMP/err.out" || {
    echo "FAIL: client connect error does not name the socket";
    cat "$TMP/err.out"; exit 1; }
expect_exit 1 "$TOOLS/mhprof_client" --connect="$TMP/gone.sock" \
    --tenant=x --query=sideways

# A live daemon: stream, query, and drain cleanly.
"$TOOLS/mhprofd" --socket="$TMP/d.sock" --max-queue-events=10000 \
    > "$TMP/daemon.out" 2>&1 &
DPID=$!
i=0
while [ ! -S "$TMP/d.sock" ] && [ "$i" -lt 100 ]; do
    sleep 0.05; i=$((i + 1))
done
[ -S "$TMP/d.sock" ] || { echo "FAIL: daemon socket never appeared";
    cat "$TMP/daemon.out"; exit 1; }

"$TOOLS/mhprof_client" --connect="$TMP/d.sock" --tenant=smoke \
    --benchmark=li --events=20000 --max-queue-events=10000 \
    > "$TMP/client.out"
grep -q "accepted 20000" "$TMP/client.out" || {
    echo "FAIL: client summary wrong:"; cat "$TMP/client.out"; exit 1; }
"$TOOLS/mhprof_client" --connect="$TMP/d.sock" --query=stats \
    | grep -q "smoke active" || {
    echo "FAIL: stats query does not list the tenant"; exit 1; }

# Admission refusal: a queue bound over the daemon's ceiling is a
# Reject, which the client maps to exit 2.
expect_exit 2 "$TOOLS/mhprof_client" --connect="$TMP/d.sock" \
    --tenant=greedy --max-queue-events=20000 --events=100
grep -q "ceiling" "$TMP/err.out" || {
    echo "FAIL: rejection does not name the ceiling";
    cat "$TMP/err.out"; exit 1; }

# Daemon lost mid-stream: the draining daemon says goodbye and the
# still-streaming client exits 4; the daemon itself drains to exit 0.
"$TOOLS/mhprof_client" --connect="$TMP/d.sock" --tenant=longhaul \
    --max-queue-events=10000 \
    --benchmark=li --events=50000000 --max-reconnects=0 \
    > /dev/null 2> "$TMP/lost.err" &
CPID=$!
sleep 0.4
kill -TERM "$DPID"
set +e
wait "$CPID"; crc=$?
wait "$DPID"; drc=$?
set -e
[ "$crc" -eq 4 ] || { echo "FAIL: client exited $crc after daemon" \
    "loss, expected 4"; cat "$TMP/lost.err"; exit 1; }
[ "$drc" -eq 0 ] || { echo "FAIL: daemon exited $drc, expected a" \
    "clean drain"; cat "$TMP/daemon.out"; exit 1; }
grep -q "drained cleanly" "$TMP/daemon.out" || {
    echo "FAIL: daemon did not report a clean drain"; exit 1; }

# --- crash-only restart: state dir, recovery, exactly-once ----------
# A daemon with --state-dir journals every decision; a kill -9 plus
# restart on the same directory must report recovery (vs cold start),
# dedup an identical rerun, and a damaged journal must refuse to
# start with a path@offset diagnostic (docs/SERVICE.md).
STATE="$TMP/state"

wait_epoch() { # <err-file>: daemon ready == recovery report printed
    j=0
    while ! grep -q "epoch=" "$1" 2>/dev/null && [ "$j" -lt 100 ]; do
        sleep 0.05; j=$((j + 1))
    done
    grep -q "epoch=" "$1" || { echo "FAIL: no recovery report in $1";
        cat "$1" 2>/dev/null; exit 1; }
}

"$TOOLS/mhprofd" --socket="$TMP/r.sock" --state-dir="$STATE" \
    > "$TMP/r1.out" 2> "$TMP/r1.err" &
DPID=$!
wait_epoch "$TMP/r1.err"
grep -q "cold start: epoch=" "$TMP/r1.err" || {
    echo "FAIL: first boot should be a cold start:";
    cat "$TMP/r1.err"; exit 1; }

"$TOOLS/mhprof_client" --connect="$TMP/r.sock" --tenant=rider \
    --benchmark=li --events=20000 > "$TMP/rider.out"
grep -q "accepted 20000" "$TMP/rider.out" || {
    echo "FAIL: rider summary wrong:"; cat "$TMP/rider.out"; exit 1; }

kill -9 "$DPID"
set +e
wait "$DPID"
set -e

# Daemon gone for good: a spent reconnect budget is exit 4.
expect_exit 4 "$TOOLS/mhprof_client" --connect="$TMP/r.sock" \
    --tenant=rider --benchmark=li --events=20000 \
    --max-reconnects=1 --backoff-ms=10 --connect-timeout-ms=200

# Restart on the same state dir: recovery, and the same exit-4
# command now dedups to exit 0 — nothing ingested twice.
"$TOOLS/mhprofd" --socket="$TMP/r.sock" --state-dir="$STATE" \
    > "$TMP/r2.out" 2> "$TMP/r2.err" &
DPID=$!
wait_epoch "$TMP/r2.err"
grep -q "recovery: epoch=" "$TMP/r2.err" || {
    echo "FAIL: restart should report recovery:";
    cat "$TMP/r2.err"; exit 1; }
grep -q "tenants=1" "$TMP/r2.err" || {
    echo "FAIL: recovery should restore the tenant:";
    cat "$TMP/r2.err"; exit 1; }
"$TOOLS/mhprof_client" --connect="$TMP/r.sock" --tenant=rider \
    --benchmark=li --events=20000 > "$TMP/rider2.out"
grep -q "accepted 0" "$TMP/rider2.out" || {
    echo "FAIL: rerun across the bounce was not deduplicated:";
    cat "$TMP/rider2.out"; exit 1; }
grep -q "ingested 20000 events" "$TMP/rider2.out" || {
    echo "FAIL: rerun lost the recovered accounting:";
    cat "$TMP/rider2.out"; exit 1; }
kill -9 "$DPID"
set +e
wait "$DPID"
set -e

# Damage the journal's segment header (byte 4 is the record type,
# always 0x01): the CRC no longer verifies, and the daemon must
# refuse to start with a one-line path@offset diagnostic instead of
# serving a partial rebuild.
WAL="$(ls "$STATE"/wal-*.log)"
printf 'XXX' | dd of="$WAL" bs=1 seek=4 conv=notrunc 2> /dev/null
expect_exit 1 "$TOOLS/mhprofd" --socket="$TMP/r.sock" \
    --state-dir="$STATE"
grep -q "unrecoverable state" "$TMP/err.out" || {
    echo "FAIL: corrupt journal not reported as unrecoverable:";
    cat "$TMP/err.out"; exit 1; }
grep -q "wal-.*@0" "$TMP/err.out" || {
    echo "FAIL: corruption diagnostic lacks path@offset:";
    cat "$TMP/err.out"; exit 1; }

echo "tools smoke test passed"
