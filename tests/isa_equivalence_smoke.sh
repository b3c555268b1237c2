#!/bin/sh
# Every ISA tier must produce byte-identical .mhp output — the
# bit-identity contract of the ingest kernels (docs/PERF.md),
# asserted end to end through the mhprof_run CLI. The avx512 runs are
# skipped when the CPU cannot run that tier (mhprof_run --isa exits
# 2); scalar is always present and serves as the reference. (Block-size invariance of the ingest
# path is covered by the reference-model suites in test_core.)
# Usage: isa_equivalence_smoke.sh <build-tools-dir>
set -e
TOOLS="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

run_profile() {
    # run_profile <outfile> <isa> [extra flags...]
    out="$1"; isa="$2"; shift 2
    "$TOOLS/mhprof_run" --benchmark=gcc --intervals=3 \
        --interval-length=8000 --entries=512 --isa="$isa" \
        --out="$out" "$@" > /dev/null
}

checked=0
for cfg in "mh4 " "sh --tables=1 --reset" "path --kind=path"; do
    name=$(echo "$cfg" | cut -d' ' -f1)
    flags=$(echo "$cfg" | cut -d' ' -f2-)

    run_profile "$TMP/$name-ref.mhp" scalar $flags

    for isa in avx512; do
        if run_profile "$TMP/$name-$isa.mhp" "$isa" $flags \
            2> "$TMP/err"; then
            cmp "$TMP/$name-ref.mhp" "$TMP/$name-$isa.mhp" || {
                echo "FAIL: $name $isa output differs from scalar"
                exit 1
            }
            checked=$((checked + 1))
        elif [ $? -eq 2 ]; then
            echo "skip: $isa unsupported on this CPU"
        else
            echo "FAIL: mhprof_run --isa=$isa errored:"
            cat "$TMP/err"; exit 1
        fi
    done
done

echo "isa equivalence ok ($checked tier runs byte-identical)"
