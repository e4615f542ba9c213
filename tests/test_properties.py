"""Property tests over drawn scenarios: every configuration the validators
accept either runs or fails with a ConfigError naming a field, every estimated
cell is finite, extending `trials` keeps the earlier trials, noiseless
fast-path maps equal the frame-level reference maps, and two worker processes
count the same hits as one.

Derandomized with a fixed example count, so every run draws the same cases.
"""

import os
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
