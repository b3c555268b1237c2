#!/bin/sh
# Failpoint smoke test: a sweep with injected k-of-N cell failures
# must exit 3, quarantine exactly the injected cells (reproducibly),
# and leave every surviving stdout line byte-identical to a
# fault-free run.
# Usage: failpoint_smoke.sh <build-tools-dir> [quarantine-report-out]
set -e
TOOLS="$1"
REPORT_OUT="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

SWEEP="$TOOLS/mhprof_coord --serial --benchmark=li --intervals=2 \
    --seed=5 --entries=512 --sweep-lengths=500,1000,2000,4000"

# Fault-free reference: 4 cells, exit 0, 4 table lines.
$SWEEP > "$TMP/ref.out"
[ "$(wc -l < "$TMP/ref.out")" -eq 4 ] || {
    echo "FAIL: expected 4 sweep lines:"; cat "$TMP/ref.out"; exit 1; }

# Inject: cells 0 and 2 fail every attempt (cell % 2 < 1). Expect
# exactly exit 3, the two surviving lines, and two quarantine lines
# on stderr.
set +e
$SWEEP --failpoints='sweep.cell.compute=1/2' --retries=1 \
    --quarantine-report="$TMP/q1.tsv" \
    > "$TMP/faulted.out" 2> "$TMP/faulted.err"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "FAIL: expected exit 3, got $rc";
    cat "$TMP/faulted.err"; exit 1; }
[ "$(wc -l < "$TMP/faulted.out")" -eq 2 ] || {
    echo "FAIL: expected 2 surviving lines:";
    cat "$TMP/faulted.out"; exit 1; }
[ "$(grep -c quarantined "$TMP/faulted.err")" -eq 2 ] || {
    echo "FAIL: expected 2 quarantine diagnostics:";
    cat "$TMP/faulted.err"; exit 1; }
grep -q "injected" "$TMP/faulted.err" || {
    echo "FAIL: quarantine diagnostic does not name the injection";
    exit 1; }

# Every surviving line is byte-identical to the fault-free run.
while IFS= read -r line; do
    grep -Fxq "$line" "$TMP/ref.out" || {
        echo "FAIL: surviving line differs from fault-free run:";
        echo "  $line"; exit 1; }
done < "$TMP/faulted.out"

# The quarantine report is machine-readable and reproducible: the
# same spec + seed quarantines the same cells on a rerun.
[ "$(wc -l < "$TMP/q1.tsv")" -eq 2 ] || {
    echo "FAIL: quarantine report should have 2 rows:";
    cat "$TMP/q1.tsv"; exit 1; }
cut -f1 "$TMP/q1.tsv" | tr '\n' ' ' | grep -q "^0 2 " || {
    echo "FAIL: expected cells 0 and 2 quarantined:";
    cat "$TMP/q1.tsv"; exit 1; }
set +e
$SWEEP --failpoints='sweep.cell.compute=1/2' --retries=1 \
    --quarantine-report="$TMP/q2.tsv" > /dev/null 2>&1
set -e
cmp -s "$TMP/q1.tsv" "$TMP/q2.tsv" || {
    echo "FAIL: quarantine report is not reproducible"; exit 1; }

# Probabilistic injection is seed-deterministic end to end, too.
set +e
$SWEEP --failpoints='sweep.cell.compute=p0.5' --failpoint-seed=42 \
    --retries=0 --quarantine-report="$TMP/p1.tsv" > /dev/null 2>&1
$SWEEP --failpoints='sweep.cell.compute=p0.5' --failpoint-seed=42 \
    --retries=0 --quarantine-report="$TMP/p2.tsv" > /dev/null 2>&1
set -e
cmp -s "$TMP/p1.tsv" "$TMP/p2.tsv" || {
    echo "FAIL: p-trigger quarantine set is not seed-deterministic";
    exit 1; }

# --- service failpoints against a live mhprofd -----------------------
# The daemon's injection sites must degrade exactly as documented:
# an injected drain-flush failure turns the clean-drain exit 0 into
# exit 1 with a named diagnostic, and an injected per-tenant ingest
# failure quarantines that tenant alone while the daemon (and every
# other tenant) keeps serving.

# wait_for_socket <path>: the daemon binds asynchronously.
wait_for_socket() {
    i=0
    while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do
        sleep 0.05; i=$((i + 1))
    done
    [ -S "$1" ] || { echo "FAIL: $1 never appeared"; exit 1; }
}

# (1) service.snapshot.enospc: tenant id 0's durable flush fails on
# drain; the daemon exits 1 and leaves no snapshot file behind.
"$TOOLS/mhprofd" --socket="$TMP/fp1.sock" --snapshot-dir="$TMP" \
    --failpoints='service.snapshot.enospc=1' \
    > "$TMP/fp1d.out" 2> "$TMP/fp1d.err" &
DPID=$!
wait_for_socket "$TMP/fp1.sock"
"$TOOLS/mhprof_client" --connect="$TMP/fp1.sock" --tenant=enospc0 \
    --benchmark=li --events=20000 > /dev/null || {
    echo "FAIL: client stream before injected drain failed"; exit 1; }
kill -TERM "$DPID"
set +e
wait "$DPID"; rc=$?
set -e
[ "$rc" -eq 1 ] || { echo "FAIL: injected drain ENOSPC: daemon" \
    "exited $rc, expected 1"; cat "$TMP/fp1d.err"; exit 1; }
grep -q "service.snapshot.enospc" "$TMP/fp1d.err" || {
    echo "FAIL: drain diagnostic does not name the injection:";
    cat "$TMP/fp1d.err"; exit 1; }
[ ! -e "$TMP/enospc0.mhp" ] && [ ! -e "$TMP/enospc0.mhp.tmp" ] || {
    echo "FAIL: snapshot left behind after injected drain ENOSPC";
    exit 1; }

# (2) service.tenant.ingest: trigger 1 poisons tenant id 0 only.
# The poisoned tenant's client exits 3 with the quarantine reason;
# a second tenant on the same daemon streams and drains untouched.
"$TOOLS/mhprofd" --socket="$TMP/fp2.sock" --snapshot-dir="$TMP" \
    --poison-strikes=2 --failpoints='service.tenant.ingest=1' \
    > "$TMP/fp2d.out" 2> "$TMP/fp2d.err" &
DPID=$!
wait_for_socket "$TMP/fp2.sock"
set +e
"$TOOLS/mhprof_client" --connect="$TMP/fp2.sock" --tenant=poisoned \
    --benchmark=li --events=500000 \
    > "$TMP/qa.out" 2> "$TMP/qa.err"
rc=$?
set -e
[ "$rc" -eq 3 ] || { echo "FAIL: poisoned tenant's client exited" \
    "$rc, expected 3"; cat "$TMP/qa.err"; exit 1; }
grep -q "quarantined" "$TMP/qa.err" || {
    echo "FAIL: client diagnostic does not say quarantined:";
    cat "$TMP/qa.err"; exit 1; }
"$TOOLS/mhprof_client" --connect="$TMP/fp2.sock" --tenant=healthy \
    --benchmark=li --events=20000 > /dev/null || {
    echo "FAIL: healthy tenant failed on the quarantining daemon";
    exit 1; }
"$TOOLS/mhprof_client" --connect="$TMP/fp2.sock" --query=stats \
    > "$TMP/fp2stats.out"
grep -q "poisoned quarantined" "$TMP/fp2stats.out" || {
    echo "FAIL: stats table does not show the quarantine:";
    cat "$TMP/fp2stats.out"; exit 1; }
kill -TERM "$DPID"
set +e
wait "$DPID"; rc=$?
set -e
[ "$rc" -eq 0 ] || { echo "FAIL: daemon with a quarantined tenant" \
    "exited $rc, expected a clean drain"; cat "$TMP/fp2d.err"; exit 1; }
[ -e "$TMP/healthy.mhp" ] || {
    echo "FAIL: healthy tenant's snapshot missing after drain"; exit 1; }
[ ! -e "$TMP/poisoned.mhp" ] || {
    echo "FAIL: quarantined tenant must not be flushed"; exit 1; }

# Keep the report around as a CI artifact when asked to.
if [ -n "$REPORT_OUT" ]; then
    cp "$TMP/q1.tsv" "$REPORT_OUT"
fi

echo "failpoint smoke test passed"
