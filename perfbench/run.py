#!/usr/bin/env python3
"""Benchmark of the tree similarity service: one command per workload.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload filter-scan --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, throughput,
read latency median and tail, add latency, peak RSS) after checking every
answer; ``--trace 1`` runs the same workload and seed with per-layer
spans recorded around the library's public functions and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Set-up is timed in fresh interpreter processes after ``gc.collect()``:
``SETUP_SAMPLES - 1`` set-up-only children plus the child that
then runs the workload; ``setup_s`` is their median.  Nothing is written
outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
sys.path.insert(0, str(SOURCES))

SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "add_ms": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "trees.parse_us": "us",
    "trees.key_us": "us",
    "features.build_s": "s",
    "features.matrix_build_s": "s",
    "features.sync_ms": "ms",
    "filters.signature_us": "us",
    "filters.cascade_ms": "ms",
    "filters.rows_per_s": "rows/s",
    "filters.candidates": "count",
    "filters.precision": "share",
    "filters.knn_bound_ms": "ms",
    "index.vptree.examined": "count",
    "index.vptree.probe_ms": "ms",
    "index.ifi.examined": "count",
    "index.ifi.probe_ms": "ms",
    "search.refine_share": "share",
    "search.residual_ms": "ms",
    "search.knn_inproc_ms": "ms",
    "editdist.pairs": "count",
    "editdist.cells": "count",
    "editdist.pair_ms": "ms",
    "editdist.ns_per_cell": "ns",
    "editdist.prepare_us": "us",
    "service.hit_rate": "share",
    "service.hit_us": "us",
    "service.rechecked_per_add": "count",
    "service.evicted_per_add": "count",
    "service.invalidate_ms": "ms",
    "service.invalidate_share": "share",
    "sharding.rpcs_per_query": "count",
    "sharding.refine_rpcs_per_query": "count",
    "sharding.worker_busy_ms": "ms",
    "sharding.coord_ms": "ms",
    "sharding.busy_skew": "ratio",
    "sharding.spawn_s": "s",
    "trace.wall_ratio": "ratio",
    "trace.residual_ms": "ms",
}


def per_layer_metrics(workloads, result, setups):
    """Every per-layer metric; 0 where the layer is not on this workload."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(result["layers"])
    values["trees.parse_us"] = (
        statistics.median(s["parse_s"] for s in setups) / workloads.TREES * 1e6
    )
    values["features.build_s"] = statistics.median(s["build_s"] for s in setups)
    values["features.matrix_build_s"] = statistics.median(s["matrix_s"] for s in setups)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "repro").is_dir():
        print(f"perfbench: no library sources at {SOURCES}", file=sys.stderr)
        return 2
    # workers and checks hash strings identically on every run of a seed
    os.environ["PYTHONHASHSEED"] = "0"
    import workloads
    from fresh import adopt_orphans, stop_all

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    adopt_orphans()
    try:
        return measure(workloads, args)
    finally:
        stop_all()


def measure(workloads, args) -> int:
    """Run the workload in fresh processes, check it, print the result."""
    from fresh import run_fresh

    inputs = workloads.make_inputs(args.workload, args.seed)
    setups = [
        run_fresh([(workloads.setup_sample, (args.workload, inputs["corpus"]))])[0]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = run_fresh([(workloads.run, (inputs, args.seconds, bool(args.trace)))])[0]
    setups.append(result["setup"])
    setup_s = statistics.median(s["setup_s"] for s in setups)

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload} seed={args.seed}: {result['reads']} reads, "
        f"{result['adds']} adds ({result['stream']}); tail_ms is "
        f"p{result['tail_pct']:.1f} (10 reads beyond it); "
        f"error_rate={failed / attempted:g} "
        f"({failed}/{attempted}); checks: {result['checks']}"
    )
    print("setup samples (s): " + ", ".join(f"{s['setup_s']:.3f}" for s in setups))
    if args.trace:
        metrics = per_layer_metrics(workloads, result, setups)
    else:
        values = dict(result, setup_s=setup_s)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
