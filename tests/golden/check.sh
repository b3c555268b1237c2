#!/bin/sh
# Golden smoke: regenerate every artifact in digests.tsv under each ISA
# tier this CPU can run (MHP_FORCE_ISA) and compare SHA-256 and length
# with the recorded values. A mismatch names the artifact and the tier.
# Regenerate the digests only with update.sh.
# Usage: check.sh <build-tools-dir>
set -e
HERE="$(cd "$(dirname "$0")" && pwd)"
TOOLS="$1"
DIGESTS="$HERE/digests.tsv"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failed=0
tiers=0
for isa in scalar avx512; do
    # mhprof_run --isa exits 2 for a tier this CPU cannot run.
    if ! "$TOOLS/mhprof_run" --isa=$isa --benchmark=gcc --intervals=0 \
        --out="$TMP/probe.mhp" > /dev/null 2>&1; then
        echo "skip: $isa unsupported on this CPU"
        continue
    fi
    dir="$TMP/$isa"
    mkdir "$dir"
    MHP_FORCE_ISA=$isa sh "$HERE/artifacts.sh" "$TOOLS" "$dir"
    produced=$(ls "$dir" | wc -l | tr -d ' ')
    recorded=0
    while IFS="$(printf '\t')" read -r name sum len; do
        case "$name" in '#'*|'') continue ;; esac
        recorded=$((recorded + 1))
        if [ ! -f "$dir/$name" ]; then
            echo "FAIL: $name not produced under MHP_FORCE_ISA=$isa"
            failed=1
            continue
        fi
        got=$(sha256sum "$dir/$name" | cut -d' ' -f1)
        gotlen=$(wc -c < "$dir/$name" | tr -d ' ')
        if [ "$got" != "$sum" ] || [ "$gotlen" != "$len" ]; then
            echo "FAIL: $name differs under MHP_FORCE_ISA=$isa:" \
                "sha256 $got, $gotlen bytes; recorded $sum, $len bytes"
            failed=1
        fi
    done < "$DIGESTS"
    if [ "$produced" != "$recorded" ]; then
        echo "FAIL: artifacts.sh wrote $produced artifacts," \
            "digests.tsv records $recorded (run update.sh)"
        failed=1
    fi
    tiers=$((tiers + 1))
done

[ "$failed" -eq 0 ] || exit 1
echo "golden ok ($tiers tiers)"
