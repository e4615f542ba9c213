"""Benchmark entry point: run one uavsense workload in a fresh child process.

    python3 perfbench/run.py --workload mc_defaults --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The child (bench.py) imports the library
from the checkout's ``src/`` with BLAS pinned to one thread through its
environment: on a small machine, default OpenBLAS threading makes a 64x64 LS
design about 15x slower and the figures would measure the scheduler. The
child's peak resident set size is added to the end-to-end metrics, and its
last output line is printed as the result. Without the library sources, or
when the child fails, the exit code is not 0 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uavsense" / "__init__.py").is_file():
        print(f"perfbench: no uavsense sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"perfbench: {args.workload} exited with code {child.returncode}", file=sys.stderr)
        return 1
    lines = child.stdout.strip().splitlines()
    if not lines:
        print("perfbench: the child printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not args.trace:
        peak_bytes = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024  # Linux reports KiB
        result["metrics"]["peak_rss_mb"] = {"value": peak_bytes / 1e6, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
