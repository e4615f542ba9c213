"""Run one benchmark workload in this process and print its result line.

run.py starts this file in a fresh interpreter with BLAS pinned to one thread
and ``src`` on PYTHONPATH; run it directly only with the same environment:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/bench.py \
        --workload mc_defaults --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the requests run untraced and the end-to-end metrics are
reported. With ``--trace 1`` one set-up plus the requests of half the budget
run untraced, the same set-up and requests run again under the tracer, and
the per-layer metrics are reported. Checks run after the timed passes. The
last line of standard output is the JSON result; everything else goes to
standard error and to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tracer import TRACED, Tracer
from workloads import WORKLOADS, check_same_results, pair_counts

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Times each build_tables call in untraced runs; sweep() builds inside a request.
BUILD_ONLY = {"engine.build_tables": TRACED["engine.build_tables"]}


@dataclass
class Request:
    wall_s: float
    build_s: float
    trials: int
    result: object


def run_request(workload, i: int, timer: Tracer | None) -> Request:
    first = len(timer.starts) if timer else 0
    start = time.perf_counter()
    trials, result = workload.unit(i)
    wall = time.perf_counter() - start
    build = sum(e - s for s, e in zip(timer.starts[first:], timer.ends[first:])) if timer else 0.0
    return Request(wall_s=wall, build_s=build, trials=trials, result=result)


def closed_loop(workload, seconds: float, timer: Tracer | None = None) -> list[Request]:
    """Requests back to back, each after the previous returned, until `seconds` pass."""
    requests = []
    start = time.perf_counter()
    while not requests or time.perf_counter() - start < seconds:
        requests.append(run_request(workload, len(requests), timer))
    return requests


def end_to_end(workload, seconds: float) -> tuple[dict, list]:
    timer = Tracer(BUILD_ONLY)
    timer.install()
    try:
        setups = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        requests = closed_loop(workload, seconds, timer)
    finally:
        timer.uninstall()
    setups = setups or [r.build_s for r in requests]
    # Throughput and latency are means over the whole loop: the machine's speed
    # drifts over seconds, and a median of short requests snaps to one regime.
    metrics = {
        "trials_per_s": sum(r.trials for r in requests) / sum(r.wall_s - r.build_s for r in requests),
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(r.wall_s for r in requests),
    }
    return metrics, requests


def per_layer(workload, seconds: float) -> tuple[dict, list, list]:
    start = time.perf_counter()
    workload.setup()
    requests = closed_loop(workload, seconds / 2.0)
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("bench"):
            workload.setup()
            again = [workload.unit(i)[1] for i in range(len(requests))]
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload.name}.npz")

    spans = tracer.summary()

    def get(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    trial_configs = [(pair_counts(config), trials) for config, trials in workload.trial_configs()]
    per_request = sum(trials for _, trials in trial_configs)
    pairs = sum(p * t for (p, _), t in trial_configs) / per_request
    terms = sum(g * t for (_, g), t in trial_configs) / per_request
    trials = get("engine.trial_loop", "calls")
    metrics = {
        "engine.pairs": pairs,
        "engine.ground_terms_per_trial": terms,
        "engine.ground_terms_per_s": terms * trials / get("engine.trial_loop", "inclusive_s"),
        "engine.substream.calls_per_trial": get("engine.substream", "calls") / trials,
        "beamforming.design.us_per_call": 1e6
        * get("beamforming.design", "inclusive_s")
        / get("beamforming.design", "calls"),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.self_sum_ratio": sum(v["self_s"] for k, v in spans.items() if k != "bench") / traced_wall,
        "trace.wall_s": traced_wall,
        "trace.spans": len(tracer.starts),
    }
    for name in TRACED:
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    results = [r.result for r in requests]
    return metrics, requests, [("traced pass reproduces the untraced outputs", check_same_results(workload, results, again))]


def environment(args, requests: list) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "requests": len(requests),
        "trials": sum(r.trials for r in requests),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, requests, checks = per_layer(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        metrics, requests = end_to_end(workload, args.seconds)
        checks = []
        wanted = [m for m in spec["end_to_end"] if m["name"] != "peak_rss_mb"]  # added by run.py
    checks = workload.checks([r.result for r in requests]) + checks
    failed = [name for name, ok in checks if not ok]
    metrics["ops_ok_ratio"] = 1.0 - len(failed) / len(checks)

    env = environment(args, requests)
    env["failed_checks"] = failed
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"env-{args.workload}.json").write_text(json.dumps(env, indent=2) + "\n")
    print(json.dumps(env), file=sys.stderr)
    for name in failed:
        print(f"check failed: {name}", file=sys.stderr)

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
