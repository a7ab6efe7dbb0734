#!/usr/bin/env python3
"""Merge google-benchmark JSON reports into one flat BENCH_kernels.json.

Input: a directory of ``--benchmark_out`` reports (one per micro-bench
binary). Output: a JSON list with one record per benchmark run::

    {"op": "BM_Matmul", "shape": "256", "threads": 4,
     "ns_per_iter": 17123.0, "gflops": 1957.5}

Threaded benches follow the repo convention that the LAST slash-separated
benchmark argument is the kernel thread count (see bench/bench_micro_tensor.cpp);
single-argument benches report threads = 1. The "/real_time" suffix that
google-benchmark appends to wall-clock-timed benches is not an argument. ``gflops`` is derived from
google-benchmark's ``items_per_second`` counter, which the GEMM/axpy benches
set to flops per iteration; benches without it omit the field.

With ``--shape-only`` every slash-separated argument is part of the shape and
threads is reported as 1 — for benches whose arguments are all problem sizes
(the round-pipeline benches use [clients, dim]).

Two further conventions ride on the record:

* An op name ending in ``_serial`` / ``_avx2`` / ``_avx512`` marks a bench
  pinned to that SIMD kernel tier (bench_micro_tensor's per-arch GEMM rows);
  the suffix is surfaced as a ``kernel_arch`` field (``auto`` otherwise).
* Custom google-benchmark counters whose names start with ``wire_`` (the
  bench_wire byte-accounting counters) are copied onto the record verbatim.
"""
import json
import pathlib
import sys


def parse_benchmark(entry, shape_only=False):
    if entry.get("run_type") == "aggregate":
        return None
    name = entry["name"]
    parts = name.split("/")
    op = parts[0]
    # Benches timed by wall clock (UseRealTime) carry a trailing "real_time".
    args = [a for a in parts[1:] if a != "real_time"]
    # Last argument is the thread count when the bench has >= 2 args.
    if len(args) >= 2 and not shape_only:
        threads = int(args[-1])
        shape = "x".join(args[:-1])
    else:
        threads = 1
        shape = "x".join(args) if args else ""
    time_unit_ns = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    scale = time_unit_ns.get(entry.get("time_unit", "ns"), 1.0)
    kernel_arch = "auto"
    for suffix in ("serial", "avx2", "avx512"):
        if op.endswith("_" + suffix):
            kernel_arch = suffix
            break
    record = {
        "op": op,
        "shape": shape,
        "threads": threads,
        "kernel_arch": kernel_arch,
        "ns_per_iter": entry["real_time"] * scale,
    }
    if "items_per_second" in entry:
        record["gflops"] = entry["items_per_second"] / 1e9
    for key, value in entry.items():
        if key.startswith("wire_"):
            record[key] = value
    return record


def main():
    argv = [a for a in sys.argv[1:] if a != "--shape-only"]
    shape_only = "--shape-only" in sys.argv[1:]
    if len(argv) != 2:
        print(f"usage: {sys.argv[0]} [--shape-only] <report-dir> <output.json>",
              file=sys.stderr)
        return 2
    report_dir = pathlib.Path(argv[0])
    records = []
    for report in sorted(report_dir.glob("*.json")):
        with report.open() as f:
            data = json.load(f)
        for entry in data.get("benchmarks", []):
            record = parse_benchmark(entry, shape_only)
            if record is not None:
                records.append(record)
    with open(argv[1], "w") as f:
        json.dump(records, f, indent=2)
        f.write("\n")
    print(f"{len(records)} benchmark records -> {argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
