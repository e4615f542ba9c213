"""What a run loads: Capon runs never import scipy.linalg or scipy.constants.

Other tests import scipy.linalg into this process, so the runs happen in a
fresh interpreter.
"""

import hashlib
import json
import os
import subprocess
import sys

import scipy.constants

import uavsense
from uavsense import RunOptions, ScenarioConfig, build_tables
from uavsense.config import SPEED_OF_LIGHT

SCRIPT = """
import hashlib, json, sys
import uavsense as us

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.constants")))

config = us.ScenarioConfig()
after = {"import": loaded()}
us.run_trial(config, 0)
after["capon fast path"] = loaded()
us.run_trial(config, 0, us.RunOptions(fast_path=False, noise=False))
after["capon reference path"] = loaded()
tables = us.build_tables(us.ScenarioConfig(array_side=4), us.RunOptions(beamformer="ls"))
after["ls build"] = loaded()
after["ls weights"] = hashlib.sha256(tables.pair_weights(slice(None)).tobytes()).hexdigest()
print(json.dumps(after))
"""


def test_capon_runs_load_no_scipy_linalg_or_constants():
    src = os.path.dirname(os.path.dirname(os.path.abspath(uavsense.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True)
    after = json.loads(child.stdout.strip().splitlines()[-1])
    assert after["import"] == after["capon fast path"] == after["capon reference path"] == []
    # The first LS design loads LAPACK; its weights are the bytes of a build in
    # this process, where scipy.linalg was loaded before the build.
    assert "scipy.linalg.lapack" in after["ls build"]
    assert not any(m.startswith("scipy.constants") for m in after["ls build"])
    tables = build_tables(ScenarioConfig(array_side=4), RunOptions(beamformer="ls"))
    assert after["ls weights"] == hashlib.sha256(tables.pair_weights(slice(None)).tobytes()).hexdigest()


def test_speed_of_light_is_scipy_c():
    assert SPEED_OF_LIGHT == scipy.constants.c
