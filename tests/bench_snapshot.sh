#!/usr/bin/env bash
# DP-kernel performance snapshot: runs the DP microbenchmarks and the
# paper-scale BM_SweepTable4C, then fuses both google-benchmark JSON
# reports plus the deterministic DP counters of a --metrics C sweep into
# one BENCH_dp.json. CI's perf-smoke job uploads the file as an artifact;
# the checked-in copy at the repo root records the numbers the README
# quotes.
#
# usage: bench_snapshot.sh <build-dir> [out.json] [dp|server]
#
# Mode `server` regenerates the rank_server load snapshot instead: it
# runs bench_server (which audits its own wire books and exits nonzero on
# any imbalance) and writes its BENCH_server.json to <out.json>.
set -euo pipefail

BUILD=${1:?usage: bench_snapshot.sh <build-dir> [out.json] [dp|server]}
OUT=${2:-BENCH_dp.json}
MODE=${3:-dp}
CONFIG=$(dirname "$0")/../configs/baseline_130nm.cfg
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if [ "$MODE" = "server" ]; then
  "$BUILD"/bench/bench_server --seconds 3 --out "$OUT"
  exit 0
elif [ "$MODE" != "dp" ]; then
  echo "bench_snapshot.sh: unknown mode '$MODE' (want dp or server)" >&2
  exit 2
fi

"$BUILD"/bench/bench_dp_kernel \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$WORK/dp_kernel.json"

"$BUILD"/bench/bench_runtime \
  --benchmark_filter='^BM_SweepTable4C$' \
  --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$WORK/sweep.json"

# Deterministic DP effort of one single-threaded Table 4 C sweep, from
# the process metrics registry (every iarank_dp_* series), plus the
# kernel pool accounting (arena bytes per solve, pool high water, chunks
# ever allocated — all exact for a fixed instance at --jobs 1).
"$BUILD"/tools/rank_tool "$CONFIG" sweep C 0.5e9 1.7e9 13 --jobs 1 \
  --metrics "$WORK/metrics.txt" > /dev/null
grep -E '^(iarank_dp_|iarank_pool_bytes |iarank_pool_chunks_total )' \
  "$WORK/metrics.txt" | sort > "$WORK/dp_counters.txt"

python3 - "$WORK" "$OUT" <<'EOF'
import json, sys
work, out = sys.argv[1], sys.argv[2]
snapshot = {}
for name in ("dp_kernel", "sweep"):
    with open(f"{work}/{name}.json") as f:
        report = json.load(f)
    snapshot[name] = {
        "context": {k: report["context"].get(k)
                    for k in ("num_cpus", "mhz_per_cpu", "library_version")},
        "benchmarks": [
            {k: b.get(k) for k in ("name", "real_time", "cpu_time",
                                   "time_unit", "iterations")
             if b.get(k) is not None} |
            {k: v for k, v in b.items()
             if k not in ("name", "real_time", "cpu_time", "time_unit",
                          "iterations", "run_name", "family_index",
                          "per_family_instance_index", "repetitions",
                          "repetition_index", "threads", "run_type",
                          "aggregate_name", "aggregate_unit")}
            for b in report["benchmarks"]
        ],
    }
counters = {}
with open(f"{work}/dp_counters.txt") as f:
    for line in f:
        parts = line.split()
        if len(parts) == 2:
            counters[parts[0]] = float(parts[1])
snapshot["sweep_c_jobs1_dp_counters"] = counters
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}")
EOF
