#!/bin/sh
# bench.sh — run the benchmark suite and write JSON baseline artifacts that
# start (and extend) the repository's performance trajectory.
#
# Usage:
#   scripts/bench.sh [benchtime]     full suite -> bench/BENCH_<date>.{txt,json}
#   scripts/bench.sh smoke [outbase] smoke set  -> <outbase>.{txt,json}
#                                    (default outbase: bench/SMOKE_BASELINE)
#
# The dated JSON artifact is the committed historical trajectory (refresh it
# on PRs that move performance). SMOKE_BASELINE.json is the CI regression
# gate: the bench-compare job re-runs the same smoke set with the same
# -benchtime and fails on >20% normalized regression (see scripts/benchdiff).
# Refresh it with `scripts/bench.sh smoke` whenever the smoke benchmarks
# change intentionally.
set -eu

cd "$(dirname "$0")/.."
mkdir -p bench

# The smoke set: kernel micro-benchmarks and the mixed-load suite — fast,
# deterministic simcycles, and the benchmarks whose ratios the README
# quotes. Time-based benchtime gives each entry enough iterations for a
# stable ns/op, and three repetitions let benchdiff compare min-of-runs
# (the noise-robust statistic); the CI compare gate depends on both.
# ShardScaling joins with its 1shard variant only: multi-shard ns/op scales
# with the host's core count, which benchdiff's single-threaded
# normalization probe cannot cancel, so those variants live only in the
# full dated runs. It needs its own invocation — a combined pattern's
# /1shard element would also filter the other benchmarks' sub-benchmarks.
# CrossInterconnectTGOnXPipes is the paper's TG replay on the ×pipes mesh;
# the $ keeps its Skip-kernel twin out.
smoke_pattern='EngineTick|EngineSkipIdle|EngineEvent|TransactionPath|PhasedMeasure|BurstyInjection|JournaledSweep|AnalyticEstimate|AdaptiveCurve|CrossInterconnectTGOnXPipes$'
smoke_shard_pattern='ShardScaling/1shard'
smoke_benchtime='300ms'
smoke_count=3

if [ "${1:-}" = "smoke" ]; then
  # The CI bench-compare job runs this same path with a scratch outbase, so
  # the pattern and benchtime above are the single source of truth for both
  # sides of the comparison.
  out="${2:-bench/SMOKE_BASELINE}"
  go test -run='^$' -bench="$smoke_pattern" -benchtime="$smoke_benchtime" \
    -count="$smoke_count" . | tee "$out.txt"
  go test -run='^$' -bench="$smoke_shard_pattern" -benchtime="$smoke_benchtime" \
    -count="$smoke_count" . | tee -a "$out.txt"
  go run ./scripts/bench2json "$out.txt" > "$out.json"
  echo "wrote $out.json" >&2
  exit 0
fi

benchtime="${1:-1x}"
stamp="$(date -u +%Y-%m-%d)"
raw="bench/BENCH_${stamp}.txt"
json="bench/BENCH_${stamp}.json"

go test -run='^$' -bench=. -benchtime="$benchtime" ./... | tee "$raw"
go run ./scripts/bench2json "$raw" > "$json"
echo "wrote $json" >&2
