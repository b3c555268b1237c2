#!/bin/sh
# Smoke test for the closed profile->optimize->re-execute loop:
# mhprof_pgo must emit a machine-readable accuracy-vs-speedup report
# for at least two profiler configurations, byte-identical across
# same-seed reruns; cross-kind profile comparison must be refused; and
# duplicate --sweep-lengths must dedupe with a warning.
# Usage: pgo_smoke.sh <build-tools-dir>
set -e
TOOLS="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

# --- the closed loop -------------------------------------------------
"$TOOLS/mhprof_pgo" --seed=7 --functions=5 --intervals=3 \
    --interval-length=4000 --configs=sh1,mh4 --out="$TMP/a.json" \
    2> "$TMP/a.err" || fail "mhprof_pgo exited nonzero"
for key in '"sh1"' '"mh4"' '"path_events"' '"baseline_cost"' \
    '"avg_error_percent"' '"speedup"' '"oracle_speedup"' \
    '"trace_coverage"'; do
    grep -q "$key" "$TMP/a.json" ||
        fail "report lacks $key: $(cat "$TMP/a.json")"
done
grep -q "mhprof_pgo: sh1 " "$TMP/a.err" ||
    fail "no human summary on stderr: $(cat "$TMP/a.err")"

# Byte-stable: the report is a pure function of the options.
"$TOOLS/mhprof_pgo" --seed=7 --functions=5 --intervals=3 \
    --interval-length=4000 --configs=sh1,mh4 --out="$TMP/b.json" \
    2> /dev/null
cmp "$TMP/a.json" "$TMP/b.json" ||
    fail "same-seed reruns are not byte-identical"

# A different seed generates a different program and report.
"$TOOLS/mhprof_pgo" --seed=8 --functions=5 --intervals=3 \
    --interval-length=4000 --configs=sh1,mh4 --out="$TMP/c.json" \
    2> /dev/null
cmp -s "$TMP/a.json" "$TMP/c.json" &&
    fail "seed change left the report identical"

# Deeper k folds loop iterations into the ids: the report changes.
"$TOOLS/mhprof_pgo" --seed=7 --functions=5 --intervals=3 \
    --interval-length=4000 --k=2 --configs=sh1,mh4 \
    --out="$TMP/k2.json" 2> /dev/null
grep -q '"k_iterations": 2' "$TMP/k2.json" ||
    fail "k=2 not reported: $(cat "$TMP/k2.json")"
cmp -s "$TMP/a.json" "$TMP/k2.json" &&
    fail "k change left the report identical"

# A preset config that cannot run is refused with exit 1 and a Status
# diagnostic before the pipeline builds any profiler.
rc=0
"$TOOLS/mhprof_pgo" --entries=3000 --out="$TMP/bad.json" \
    2> "$TMP/bad.err" || rc=$?
[ "$rc" -eq 1 ] && grep -q "invalid argument" "$TMP/bad.err" ||
    fail "unrunnable preset not refused (exit $rc): $(cat "$TMP/bad.err")"

# --- event classes across tools --------------------------------------
# The path workload flows through the standard profiling pipeline and
# stamps its kind into the .mhp header.
"$TOOLS/mhprof_run" --benchmark=li --kind=path --intervals=2 \
    --out="$TMP/path.mhp" > /dev/null
"$TOOLS/mhprof_run" --benchmark=li --intervals=2 \
    --out="$TMP/value.mhp" > /dev/null
"$TOOLS/mhprof_dump" "$TMP/path.mhp" | grep -q "kind=path" ||
    fail "dump does not show the path kind"

# Same-kind comparison works; cross-kind comparison is refused.
"$TOOLS/mhprof_run" --benchmark=li --kind=path --intervals=2 \
    --out="$TMP/path2.mhp" > /dev/null
"$TOOLS/mhprof_compare" "$TMP/path.mhp" "$TMP/path2.mhp" \
    | grep -q "onlyA 0, onlyB 0" || fail "same-kind compare broke"
if "$TOOLS/mhprof_compare" "$TMP/value.mhp" "$TMP/path.mhp" \
    > /dev/null 2> "$TMP/cmp.err"; then
    fail "cross-kind compare was accepted"
fi
grep -q "event classes differ" "$TMP/cmp.err" ||
    fail "cross-kind rejection lacks a diagnostic: $(cat "$TMP/cmp.err")"

# --- duplicate sweep lengths dedupe ----------------------------------
"$TOOLS/mhprof_coord" --serial --benchmark=li \
    --sweep-lengths=2000,2000,4000 --intervals=2 \
    > "$TMP/sweep.out" 2> "$TMP/sweep.err" ||
    fail "sweep with duplicate lengths failed"
grep -q "duplicate sweep length" "$TMP/sweep.err" ||
    fail "no duplicate-length warning: $(cat "$TMP/sweep.err")"
[ "$(grep -c "len=2000:" "$TMP/sweep.out")" -eq 1 ] ||
    fail "duplicate length swept twice: $(cat "$TMP/sweep.out")"

echo "pgo smoke test passed"
