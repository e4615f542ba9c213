"""The benchmark entry point runs on this checkout, untraced and traced.

The traced pass divides per-trial figures by the number of run_trial calls,
so a batch must keep entering through run_trial; each pass runs in its own
interpreter, as the benchmark does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_mc_defaults_runs_with_all_checks_passing(trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "mc_defaults"]
    command += ["--seed", "1", "--seconds", "1", "--trace", str(trace)]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, child.stderr[-2000:]
