"""Property tests over drawn scenarios: every configuration the validators
accept either runs or fails with a ConfigError naming a field, every estimated
cell is finite, extending `trials` keeps the earlier trials, noiseless
fast-path maps equal the frame-level reference maps, two worker processes
count the same hits as one, and a config text on or next to the range edges
of its keys runs through the command line or names a key it set.

Derandomized with a fixed example count, so every run draws the same cases.
"""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from uavsense import (
    ConfigError,
    RunOptions,
    ScenarioConfig,
    build_tables,
    dbsm_to_m2,
    run_monte_carlo_all_fusions,
    run_trial,
)
from uavsense import config as config_module
from uavsense.cli import main

SMALL = dict(uav_count=4, grid_side=8, area_side_m=40.0, symbols_per_frame=8, subcarriers=16, trials=2)
FIELDS = {f.name for f in fields(ScenarioConfig)} | {f.name for f in fields(RunOptions)}


def assert_names_a_field(error: ConfigError):
    named = str(error).partition(":")[0]
    assert named and all(name in FIELDS for name in named.split("/")), str(error)


@st.composite
def scenarios(draw):
    """Small scenarios (at most 9 UAVs, 12x12 cells, 6x6 arrays, 8x16 frames) with target RCS above ground RCS."""
    # rarely() picks a value that breaks a rule of the validators or of the
    # build (a UAV count that is not a square >= 4, an untiled grid, an
    # explicit altitude); the other draws are made to pass them.

    def rarely() -> bool:
        return draw(st.integers(0, 4)) == 0

    uavs_per_side = draw(st.sampled_from([2, 3]))
    uav_count = draw(st.sampled_from([1, 2])) if rarely() else uavs_per_side**2
    grid_side = uavs_per_side * draw(st.integers(1, 4)) + rarely()
    ground_dbsm = draw(st.floats(-40.0, 10.0))
    altitude = draw(st.floats(1.0, 300.0)) if rarely() else None
    kwargs = dict(
        uav_count=uav_count,
        grid_side=grid_side,
        area_side_m=draw(st.floats(5.0, 300.0)),
        array_side=draw(st.integers(2, 6)),
        symbols_per_frame=draw(st.integers(1, 8)),
        subcarriers=draw(st.integers(1, 16)),
        carrier_frequency_hz=draw(st.floats(1e9, 1e11)),
        bandwidth_hz=draw(st.floats(1e6, 4e8)),
        cp_duration_s=draw(st.floats(1e-8, 1e-5)),
        doppler_hz=draw(st.floats(-5e3, 5e3)),
        ground_rcs_m2=dbsm_to_m2(ground_dbsm),
        target_rcs_m2=dbsm_to_m2(ground_dbsm + draw(st.floats(0.5, 40.0))),
        altitude_m=altitude,
        trials=draw(st.integers(1, 3)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )
    options = RunOptions(
        beamformer=draw(st.sampled_from(["ls", "capon"])),
        fast_path=draw(st.booleans()),
        noise=draw(st.booleans()),
    )
    return kwargs, options


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
# LS at each array side 2-6, so the LS kernel runs whatever the draws reach.
@example(({**SMALL, "array_side": 2}, RunOptions(beamformer="ls")))
@example(({**SMALL, "array_side": 3}, RunOptions(beamformer="ls", noise=False)))
@example(({**SMALL, "array_side": 4}, RunOptions(beamformer="ls", fast_path=False)))
@example(({**SMALL, "array_side": 5}, RunOptions(beamformer="ls")))
@example(({**SMALL, "array_side": 6}, RunOptions(beamformer="ls", fast_path=False, noise=False)))
def test_accepted_configs_run_with_finite_estimates(drawn):
    kwargs, options = drawn
    try:
        config = ScenarioConfig(**kwargs)
        tables = build_tables(config, options)
    except ConfigError as error:
        assert_names_a_field(error)
        event(f"ConfigError naming {str(error).partition(':')[0]}")
        return
    event(f"ran ({options.beamformer}, n = {config.array_side})")
    longer = replace(config, trials=config.trials + 2)
    for trial in range(config.trials):
        outcome = run_trial(config, trial, tables=tables, collect_maps=True)
        maps = np.array([m.values for m in outcome.local_maps])
        assert np.isfinite(maps.ravel()[tables.map_index]).all()
        extended = run_trial(longer, trial, tables=tables, collect_maps=True)
        assert (extended.target_xy, extended.detections) == (outcome.target_xy, outcome.detections)
        assert np.array_equal(np.array([m.values for m in extended.local_maps]), maps, equal_nan=True)


@st.composite
def small_frames(draw):
    """Scenarios that pass the validators (4 or 9 UAVs, tiled grids, derived
    altitude) on frames of at most 8 x 16, with a nonzero scenario Doppler."""
    uavs_per_side = draw(st.sampled_from([2, 3]))
    ground_dbsm = draw(st.floats(-40.0, 10.0))
    kwargs = dict(
        uav_count=uavs_per_side**2,
        grid_side=uavs_per_side * draw(st.integers(1, 4)),
        area_side_m=draw(st.floats(5.0, 300.0)),
        array_side=draw(st.integers(2, 4)),
        symbols_per_frame=draw(st.integers(1, 8)),
        subcarriers=draw(st.integers(1, 16)),
        carrier_frequency_hz=draw(st.floats(1e9, 1e11)),
        bandwidth_hz=draw(st.floats(1e6, 4e8)),
        cp_duration_s=draw(st.floats(1e-8, 1e-5)),
        doppler_hz=draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 5e3)),
        ground_rcs_m2=dbsm_to_m2(ground_dbsm),
        target_rcs_m2=dbsm_to_m2(ground_dbsm + draw(st.floats(0.5, 40.0))),
        trials=draw(st.integers(1, 2)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )
    return kwargs, draw(st.sampled_from(["ls", "capon"]))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(small_frames())
def test_noiseless_fast_maps_equal_reference_maps(drawn):
    # The closed form against frame synthesis, data removal and the matched
    # point, to rounding: within 1e-10 of each local map's largest value.
    kwargs, beamformer = drawn
    config = ScenarioConfig(**kwargs)
    try:
        fast = build_tables(config, RunOptions(beamformer=beamformer, noise=False))
    except ConfigError as error:
        assert_names_a_field(error)
        event(f"ConfigError naming {str(error).partition(':')[0]}")
        return
    event("ran")
    reference = build_tables(config, RunOptions(beamformer=beamformer, fast_path=False, noise=False))
    for trial in range(config.trials):
        fast_maps, reference_maps = (
            np.array([m.values for m in run_trial(config, trial, tables=tables, collect_maps=True).local_maps])
            for tables in (fast, reference)
        )
        assert np.array_equal(np.isnan(fast_maps), np.isnan(reference_maps))
        largest = np.nan_to_num(np.abs(reference_maps)).max(axis=(1, 2), keepdims=True)
        assert np.all(np.nan_to_num(np.abs(fast_maps - reference_maps)) <= 1e-10 * largest)


# run_monte_carlo_all_fusions starts at most os.cpu_count() workers, so on one
# CPU workers=2 runs serially and this would compare serial with serial.
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to start two worker processes")
@settings(max_examples=5, derandomize=True, deadline=None, database=None)
@given(small_frames(), st.booleans())
@example(({**SMALL, "array_side": 3}, "ls"), True)
@example(({**SMALL, "array_side": 2}, "capon"), False)
def test_two_workers_equal_serial(drawn, fast_path):
    # Each worker runs its own share of the trials on the same tables; the
    # summed hit counts equal a serial run's.
    kwargs, beamformer = drawn
    config = ScenarioConfig(**{**kwargs, "trials": 5})
    try:
        tables = build_tables(config, RunOptions(beamformer=beamformer, fast_path=fast_path))
    except ConfigError as error:
        assert_names_a_field(error)
        event(f"ConfigError naming {str(error).partition(':')[0]}")
        return
    event(f"ran ({beamformer}, {'fast' if fast_path else 'reference'} path)")
    serial = run_monte_carlo_all_fusions(config, workers=1, tables=tables)
    assert run_monte_carlo_all_fusions(config, workers=2, tables=tables) == serial


# The keys whose ranges bound the floats of a run, each with its closed range: every float scenario key, the
# array side and the dB keys. The counts' other ranges bound the cost, and their edges would not run in a test.
EDGE_KEYS = {
    key: config_module._RANGES[name][:2]
    for key, (_, name, kind) in config_module._KEYS.items()
    if key.startswith("scenario.") and ("float" in kind or name == "array_side")
}
EDGE_KEYS |= {key: (lo, hi) for key, (_, _, lo, hi, _) in config_module._DB_KEYS.items()}
# The small scenario of the range check: 4 UAVs over a 4 x 4 grid, short frames.
EDGE_BASE = (
    "scenario.uav_count = 4\nscenario.grid_side = 4\n"
    "scenario.symbols_per_frame = 8\nscenario.subcarriers = 16\n"
)
# Each axis of the one-point sweep, with the fields its values set and a value's edges: the array side's,
# and the cell sizes that put the area side on its edges.
EDGE_AXES = {
    "antennas": (("array_side", "altitude_m"), (2, 32)),
    "cell_size_constant_coverage": (("area_side_m", "altitude_m"), (1e-2 / 4, 1e5 / 4)),
}


def edge_values(lo, hi) -> list:
    """Each edge of [lo, hi], and the value next to it just inside and just outside."""
    if isinstance(lo, int):
        return [lo - 1, lo, lo + 1, hi - 1, hi, hi + 1]
    return [math.nextafter(lo, -math.inf), lo, math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf), hi,
            math.nextafter(hi, math.inf)]


@st.composite
def edge_texts(draw):
    """A config text that sets one or two keys on or next to their range edges, and a one-point sweep section."""
    keys = draw(st.lists(st.sampled_from(sorted(EDGE_KEYS)), min_size=1, max_size=2, unique=True))
    text = "".join(f"{key} = {draw(st.sampled_from(edge_values(*EDGE_KEYS[key])))!r}\n" for key in keys)
    axis = draw(st.sampled_from(sorted(EDGE_AXES)))
    value = draw(st.sampled_from(edge_values(*EDGE_AXES[axis][1])))
    return keys, text, f"sweep.parameter = {axis}\nsweep.values = {float(value)!r}\n"


def run_cli(args: list) -> tuple[int, str]:
    """main(args)'s exit code and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(edge_texts())
def test_range_edges_run_or_name_a_key_the_text_set(drawn):
    # Every text either runs, or exits 2 naming a key it set (either RCS where the ground RCS is not below the
    # target's); a one-point sweep may also report its point as invalid, naming a field that its axis sets.
    # Any RuntimeWarning is an error (pyproject.toml), so a value that leaves the floats fails the test.
    keys, text, sweep_section = drawn
    named = set(keys) | {key.removeprefix("scenario.") for key in keys} | {"sweep.values"}
    if any("rcs" in key for key in keys):
        named |= {"ground_rcs_m2", "target_rcs_m2", "sweep.sigma_g_dbsm"}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "edges.cfg")
        for command, body in (("run", EDGE_BASE + text), ("sweep", EDGE_BASE + text + sweep_section)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
            code, err = run_cli([command, "--config", path, "--trials", "2"])
            event(f"{command} exit {code}")
            if code == 2:
                message = err.removeprefix("configuration error: ")
                assert message != err and message.partition(": ")[0] in named, err
            elif code == 1:
                axis = sweep_section.split()[2]
                point = err.removeprefix("invalid sweep point: ").partition(": ")[2].partition(": ")[0]
                assert point in named | set(EDGE_AXES[axis][0]) and err.endswith("no valid sweep points\n"), err
            else:
                assert code == 0, err
