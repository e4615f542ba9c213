"""What a run loads and holds: Capon runs never import scipy.linalg or
scipy.constants, and a batch of trials holds less than a table build.

Other tests import scipy.linalg into this process, so the import checks run
in a fresh interpreter.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import scipy.constants

import uavsense
from uavsense import RunOptions, ScenarioConfig, build_tables, run_monte_carlo_all_fusions
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


def test_default_batch_peaks_below_one_table_build():
    # A default 50-trial Capon batch with noise, on prebuilt tables, peaks
    # below the traced peak of one build of those tables: the trial blocks
    # keep their temporaries small. Gathering the weights of every lit pair of
    # a 16-trial block at once would add about 20 MB.
    config = ScenarioConfig(trials=50)
    options = RunOptions(beamformer="capon", noise=True)
    tracemalloc.start()
    try:
        tables = build_tables(config, options)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        run_monte_carlo_all_fusions(config, tables=tables)
        batch_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch_peak < build_peak
