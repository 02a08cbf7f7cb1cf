#!/usr/bin/env bash
# Crash-resume check for a journaled tgsweep campaign:
#
#   scripts/crash_resume.sh <tgsweep binary> <output dir> [tgsweep flags...]
#
# Runs the sweep once uninterrupted and times it, runs it again with a
# journal and SIGKILLs it at half that time (no handler runs, so the
# journal tail may be torn), resumes from the journal, and byte-compares
# the resumed JSON/CSV artifacts with the uninterrupted ones. The resume
# line ("resumed N completed points ..., ran M") shows where the kill
# landed. Exits non-zero if the resumed artifacts differ.
set -euo pipefail
bin=$1 dir=$2
shift 2
mkdir -p "$dir"
rm -f "$dir/sweep.journal"

t0=$(date +%s%N)
"$bin" "$@" -out "$dir/ref"
half_ms=$((($(date +%s%N) - t0) / 2000000))
((half_ms >= 1)) || half_ms=1
echo "uninterrupted run took $((2 * half_ms)) ms; killing the journaled run after $half_ms ms"

timeout -s KILL "$(printf '%d.%03d' $((half_ms / 1000)) $((half_ms % 1000)))" \
	"$bin" "$@" -journal "$dir/sweep.journal" -out "$dir/res" || echo "killed (expected)"
"$bin" "$@" -journal "$dir/sweep.journal" -resume -out "$dir/res" 2>&1 | grep 'resumed'
cmp "$dir/ref.json" "$dir/res.json"
cmp "$dir/ref.csv" "$dir/res.csv"
echo "resumed artifacts are byte-identical to the uninterrupted run"
