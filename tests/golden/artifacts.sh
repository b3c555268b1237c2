#!/bin/sh
# Write every artifact the golden corpus pins into one directory, one
# file per artifact name (the first column of digests.tsv). Run by
# update.sh and check.sh so both produce byte-for-byte the same files.
# Every command is deterministic: no artifact embeds a pid, a time or
# a path.
# Usage: artifacts.sh <build-tools-dir> <out-dir>
set -e
TOOLS="$1"
OUT="$2"

# A recorded value trace (model) and a mini-CPU trace (--sim).
"$TOOLS/mhprof_trace" --benchmark=gcc --events=40000 \
    --out="$OUT/trace_gcc.mht" > /dev/null
"$TOOLS/mhprof_trace" --sim --events=40000 \
    --out="$OUT/trace_sim.mht" > /dev/null

# mhprof_run profiles through the stream runner: every event class x
# BSH, mh4 and mh8. At 256 total entries the tables alias enough that
# every profile depends on the hash indexes (at the default 2048, mh4
# and mh8 write the same exact profile).
for kind in value edge path; do
    for tables in 1 4 8; do
        "$TOOLS/mhprof_run" --benchmark=gcc --kind=$kind \
            --tables=$tables --entries=256 --intervals=4 \
            --out="$OUT/run_${kind}_t${tables}.mhp" > /dev/null
    done
done

# The one-table profiler's other option paths: no retaining (P0),
# resetting without retaining (R1P0), and plain update (C0, which the
# one-table name sh-RxPy does not show).
for variant in "p0 --no-retain" "r1p0 --reset --no-retain" \
    "c0 --no-conservative"; do
    set -- $variant
    tag=$1
    shift
    "$TOOLS/mhprof_run" --benchmark=gcc --kind=value --tables=1 \
        --entries=256 --intervals=4 "$@" \
        --out="$OUT/run_value_t1_${tag}.mhp" > /dev/null
done

# The span runner: the recorded trace, mapped zero-copy, at the
# default mh4 config.
"$TOOLS/mhprof_run" --trace="$OUT/trace_gcc.mht" --intervals=4 \
    --out="$OUT/run_trace_t4.mhp" > /dev/null

# mhprof_coord --serial sweep tables (stdout).
"$TOOLS/mhprof_coord" --serial --benchmark=li --intervals=2 \
    --entries=512 --sweep-lengths=500,1000,2000 \
    > "$OUT/coord_li_mh4.txt"
"$TOOLS/mhprof_coord" --serial --benchmark=gcc --intervals=3 \
    --tables=1 --reset --sweep-lengths=2000,10000 \
    > "$OUT/coord_gcc_bsh.txt"

# Bench tables whose sweeps score many configurations of one
# benchmark against one stream (stdout at full scale; an empty
# MHP_CSV_DIR keeps the CSV side output off).
for name in fig10_multihash_10k ablation_seeds; do
    MHP_SCALE=1 MHP_CSV_DIR= "$TOOLS/../bench/$name" \
        > "$OUT/bench_$name.txt"
done
