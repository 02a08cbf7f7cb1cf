#!/usr/bin/env bash
# Crash- and drain-resume check for a journaled tgsweep campaign:
#
#   scripts/crash_resume.sh <tgsweep binary> <output dir> [tgsweep flags...]
#
# Runs the sweep once uninterrupted and times it. Then, once with SIGKILL
# (no handler runs, so the journal tail may be torn) and once with SIGTERM
# (graceful drain: in-flight points finish, the journal is flushed, the exit
# status is nonzero), it runs the sweep with a journal, sends the signal at
# half the uninterrupted time, resumes from the journal, and byte-compares
# the resumed JSON/CSV artifacts with the uninterrupted ones. Each resume
# line ("resumed N completed points ..., ran M") shows where the signal
# landed. Exits non-zero if any resumed artifact differs.
set -euo pipefail
bin=$1 dir=$2
shift 2
mkdir -p "$dir"

t0=$(date +%s%N)
"$bin" "$@" -out "$dir/ref"
half_ms=$((($(date +%s%N) - t0) / 2000000))
((half_ms >= 1)) || half_ms=1
half=$(printf '%d.%03d' $((half_ms / 1000)) $((half_ms % 1000)))
echo "uninterrupted run took $((2 * half_ms)) ms; signalling the journaled runs after $half_ms ms"

for run in KILL:res TERM:drained; do
	sig=${run%%:*} out="$dir/${run#*:}"
	rm -f "$out.journal"
	timeout -s "$sig" "$half" "$bin" "$@" -journal "$out.journal" -out "$out" ||
		echo "SIG$sig (expected)"
	"$bin" "$@" -journal "$out.journal" -resume -out "$out" 2>&1 | grep 'resumed'
	cmp "$dir/ref.json" "$out.json"
	cmp "$dir/ref.csv" "$out.csv"
	echo "SIG$sig: resumed artifacts are byte-identical to the uninterrupted run"
done
