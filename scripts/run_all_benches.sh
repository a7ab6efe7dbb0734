#!/usr/bin/env bash
# Regenerate every paper table/figure plus the ablation and micro benches.
# The micro benches additionally emit machine-readable kernel numbers to
# BENCH_kernels.json (op, shape, threads, ns/iter, GFLOP/s) for tracking the
# blocked/parallel tensor kernels across commits, and the round-pipeline
# bench emits BENCH_update_pipeline.json (zero-copy arena vs legacy-ownership
# round costs, Bulyan elimination old vs new), and the wire bench emits
# BENCH_wire.json (ψ codec encode/decode µs and bytes/round for fp32/q8/fp16
# at the paper's m=50, d≈100k traffic shape).
# Usage: scripts/run_all_benches.sh [build-dir] (default: build)
set -u
BUILD_DIR="${1:-build}"
SCRIPT_DIR="$(cd "$(dirname "$0")" && pwd)"
KERNEL_JSON_DIR="$(mktemp -d)"
PIPELINE_JSON_DIR="$(mktemp -d)"
WIRE_JSON_DIR="$(mktemp -d)"
trap 'rm -rf "$KERNEL_JSON_DIR" "$PIPELINE_JSON_DIR" "$WIRE_JSON_DIR"' EXIT

for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo
  echo "===================================================================="
  echo "### $(basename "$b")"
  echo "===================================================================="
  case "$b" in
    *bench_obs*)
      # Raw google-benchmark report: scripts/check_obs_overhead.py compares
      # the traced/untraced medians against the 3% budget.
      "$b" --benchmark_out=BENCH_obs.json --benchmark_out_format=json
      ;;
    *update_pipeline*)
      "$b" --benchmark_out="$PIPELINE_JSON_DIR/$(basename "$b").json" \
           --benchmark_out_format=json
      ;;
    *bench_wire*)
      # ψ wire-codec encode/decode costs + bytes/round -> BENCH_wire.json.
      "$b" --benchmark_out="$WIRE_JSON_DIR/$(basename "$b").json" \
           --benchmark_out_format=json
      ;;
    *bench_robustness*)
      # Smoke attack×defense leaderboard -> BENCH_robustness.json. Serial
      # kernels pin the bit-identical reproducibility contract the committed
      # baseline (scripts/robustness_baseline.json) is checked against below.
      "$b" --quiet --matrix smoke --kernel_arch serial --out BENCH_robustness.json
      ;;
    *bench_reactor*)
      # Connection-scaling numbers (single-tier vs 4-shard two-tier fan-in
      # at >=2k simulated clients) -> BENCH_reactor.json.
      "$b" --quiet --out BENCH_reactor.json
      ;;
    *micro*)
      # Keep the human-readable console output AND capture the JSON report.
      "$b" --benchmark_out="$KERNEL_JSON_DIR/$(basename "$b").json" \
           --benchmark_out_format=json
      ;;
    *) "$b" --quiet ;;
  esac
done

# Merge the per-binary google-benchmark reports into one flat record list.
if command -v python3 >/dev/null 2>&1; then
  python3 "$SCRIPT_DIR/merge_kernel_bench.py" "$KERNEL_JSON_DIR" BENCH_kernels.json \
    && echo && echo "kernel micro-bench summary written to BENCH_kernels.json"
  python3 "$SCRIPT_DIR/merge_kernel_bench.py" --shape-only "$PIPELINE_JSON_DIR" BENCH_update_pipeline.json \
    && echo "round-pipeline summary written to BENCH_update_pipeline.json"
  python3 "$SCRIPT_DIR/merge_kernel_bench.py" --shape-only "$WIRE_JSON_DIR" BENCH_wire.json \
    && echo "wire-codec summary written to BENCH_wire.json"
  [ -f BENCH_obs.json ] \
    && python3 "$SCRIPT_DIR/check_obs_overhead.py" BENCH_obs.json \
    && echo "observability overhead report written to BENCH_obs.json"
  [ -f BENCH_robustness.json ] \
    && python3 "$SCRIPT_DIR/check_robustness.py" BENCH_robustness.json \
         --baseline "$SCRIPT_DIR/robustness_baseline.json" \
    && echo "robustness leaderboard written to BENCH_robustness.json"
else
  echo "python3 not found; skipping BENCH_kernels.json / BENCH_update_pipeline.json" >&2
fi
