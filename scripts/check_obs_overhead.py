#!/usr/bin/env python3
"""Observability overhead gate: traced and scraped rounds <= 3% over untraced.

Reads the raw google-benchmark report that scripts/run_all_benches.sh (or
scripts/run_tier1_tests.sh --obs) writes to BENCH_obs.json::

    build/bench/bench_obs --benchmark_out=BENCH_obs.json \\
                          --benchmark_out_format=json

BM_ObsOverhead (bench/bench_obs.cpp) runs an m=50, d=100k server round three
ways in one process: untraced, fully traced, and with a live /metrics
endpoint polled by one scraper. The legs are interleaved block by block, in
rotating order, and each block's traced and scraped times are divided by the
same block's untraced time, so host drift cancels; the report carries the
median ratio over the blocks for each leg. Exit 1 when either median ratio
exceeds 1 + the threshold.
"""
import json
import sys

THRESHOLD = 0.03  # documented budget in docs/OBSERVABILITY.md


def overhead_row(data):
    for entry in data.get("benchmarks", []):
        if entry["name"].startswith("BM_ObsOverhead"):
            return entry
    raise SystemExit("check_obs_overhead: no BM_ObsOverhead row "
                     "(run bench_obs with --benchmark_out_format=json)")


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_obs.json"
    with open(path) as f:
        row = overhead_row(json.load(f))
    blocks = int(row["blocks"])
    print(f"untraced round: {row['untraced_round_ms']:.3f} ms "
          f"(median over {blocks} blocks)")
    failed = False
    for key, label in (("traced_ratio", "traced"), ("scraped_ratio", "scraped")):
        overhead = row[key] - 1.0
        print(f"{label} round: median {label}/untraced over {blocks} blocks "
              f"{row[key]:.4f} | overhead {overhead:+.2%} "
              f"(budget {THRESHOLD:.0%})")
        if overhead > THRESHOLD:
            print(f"FAIL: {label} overhead exceeds the documented budget",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print("ok: observability overhead within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
