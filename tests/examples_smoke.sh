#!/bin/sh
# Smoke test for the example programs: each one runs with small
# arguments inside a temporary directory (every file it writes lands
# there) and must exit 0 and print its key result line.
# Usage: examples_smoke.sh <build-examples-dir>
set -e
EX="$(cd "$1" && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

# expect_line <pattern> <example> [args...]
expect_line() {
    want="$1"; shift
    name="$1"; shift
    if ! "$EX/$name" "$@" > "$name.out" 2>&1; then
        echo "FAIL: $name $* exited non-zero:"; cat "$name.out"; exit 1
    fi
    grep -q "$want" "$name.out" || {
        echo "FAIL: $name $* did not print '$want':";
        cat "$name.out"; exit 1; }
}

expect_line "^interval 0: [0-9]* candidates" quickstart --events=20000
expect_line "^interval 1: FVC hit rate" value_profile_fvc --intervals=2
expect_line "^  trace 1: " hot_edges_trace_formation --intervals=2
expect_line "^chosen interval length: " adaptive_interval \
    --events=400000
expect_line "^machine executed [0-9]* instructions" cpu_sim_profile \
    --intervals=2
expect_line "^  mh4-C1R0P1 error" trace_record_replay --intervals=2 \
    --trace="$TMP/replay.mht"
expect_line "delinquent <loadPC, line> candidates" delinquent_loads \
    --events=20000
expect_line "^selected for multipath" multipath_selection \
    --events=20000
expect_line "^discovered 2 phases" phase_detection --intervals=2 \
    --max-phases=2 --out="$TMP/phases.mhp"
[ -s "$TMP/replay.mht" ] && [ -s "$TMP/phases.mhp" ] || {
    echo "FAIL: an example did not write its file into $TMP"; exit 1; }

echo "examples smoke test passed"
