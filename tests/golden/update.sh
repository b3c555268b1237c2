#!/bin/sh
# Regenerate tests/golden/digests.tsv from the artifacts a build
# writes. This is the only way to change a recorded digest; a change
# that moves one must name the artifact and say why in CHANGES.md.
# Usage: update.sh [build-tools-dir]   (default: build/tools)
set -e
HERE="$(cd "$(dirname "$0")" && pwd)"
TOOLS="${1:-build/tools}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

sh "$HERE/artifacts.sh" "$TOOLS" "$TMP"

{
    cat <<'HEADER'
# Golden corpus: SHA-256 and length of each artifact that
# tests/golden/artifacts.sh writes. tests/golden/check.sh (ctest
# golden_smoke) regenerates them under every runnable MHP_FORCE_ISA
# tier and compares; tests/golden/update.sh is the only writer.
#
# Left out on purpose: mhprof_run and mhprof_trace stdout (it prints
# output paths), mhprof_coord checkpoint journals, mhprofd snapshots
# and WAL files, and any --metrics or timing output. Daemon state
# and journals are not part of this slice; timings and paths vary
# from run to run and machine to machine.
#
# artifact	sha256	bytes
HEADER
    for f in $(cd "$TMP" && ls | LC_ALL=C sort); do
        sum=$(sha256sum "$TMP/$f" | cut -d' ' -f1)
        len=$(wc -c < "$TMP/$f" | tr -d ' ')
        printf '%s\t%s\t%s\n' "$f" "$sum" "$len"
    done
} > "$HERE/digests.tsv"
echo "wrote $HERE/digests.tsv"
