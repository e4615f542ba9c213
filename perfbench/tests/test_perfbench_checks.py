"""The workload checks pass on real outputs and fail on corrupted ones."""

from dataclasses import replace

import numpy as np
import pytest

import uavsense as us
from workloads import (
    SweepLs,
    check_batch,
    check_criterion_5,
    check_maps_match,
    check_same_hits,
    check_sweep,
    derived_seed,
    pair_counts,
)

SMALL = us.ScenarioConfig(
    uav_count=4, grid_side=8, area_side_m=40.0, array_side=4, symbols_per_frame=8, subcarriers=16, trials=5
)


def _stats(avg, prenorm, trials=10):
    return {
        "avg": us.DetectionStats(trials=trials, hits=avg),
        "prenorm": us.DetectionStats(trials=trials, hits=prenorm),
    }


def test_batch_check():
    assert check_batch(_stats((8, 10, 10), (7, 9, 10)), 10)
    assert not check_batch(_stats((8, 7, 10), (7, 9, 10)), 10)  # hits fall with delta
    assert not check_batch(_stats((8, 10, 11), (7, 9, 10)), 10)  # more hits than trials
    assert not check_batch(_stats((8, 10, 10), (7, 9, 10), trials=9), 10)
    assert not check_batch({"avg": _stats((1, 1, 1), (1, 1, 1))["avg"]}, 10)


def test_repeat_and_criterion_5_checks():
    a = _stats((8, 10, 10), (7, 9, 10))
    assert check_same_hits(a, _stats((8, 10, 10), (7, 9, 10)))
    assert not check_same_hits(a, _stats((8, 10, 10), (7, 10, 10)))
    assert check_criterion_5([_stats((9, 19, 20), (1, 1, 1), 20), _stats((9, 20, 20), (1, 1, 1), 20)])
    assert not check_criterion_5([_stats((9, 18, 20), (1, 1, 1), 20), _stats((9, 19, 20), (1, 1, 1), 20)])
    assert not check_criterion_5([_stats((9, 20, 19), (1, 1, 1), 20)])


def test_sweep_check():
    spec = replace(SweepLs.spec, values=(4.0,))
    rows, errors = us.sweep(spec, replace(SMALL, trials=2), us.RunOptions(beamformer="ls"))
    assert check_sweep(rows, errors, spec)
    assert not check_sweep(rows[:-1], errors, spec)
    assert not check_sweep(rows, ["antennas=4.0: broken"], spec)


@pytest.fixture(scope="module")
def ref_and_fast():
    options = us.RunOptions(fast_path=False, noise=False)
    ref_tables = us.build_tables(SMALL, options)
    fast_tables = us.build_tables(SMALL, replace(options, fast_path=True))
    ref = us.run_trial(SMALL, 0, tables=ref_tables, collect_maps=True)
    fast = us.run_trial(SMALL, 0, tables=fast_tables, collect_maps=True)
    return ref, fast


def _corrupt(outcome, edit):
    maps = [us.LocalRcsMap(owner=m.owner, values=m.values.copy()) for m in outcome.local_maps]
    edit(maps[1].values)
    return replace(outcome, local_maps=maps)


def test_maps_check(ref_and_fast):
    ref, fast = ref_and_fast
    assert check_maps_match(ref, fast)

    def scale(values):
        i = np.flatnonzero(np.isfinite(values))[0]
        values.flat[i] *= 1.0 + 1e-7

    def blank(values):
        values.flat[np.flatnonzero(np.isfinite(values))[0]] = np.nan

    assert not check_maps_match(_corrupt(ref, scale), fast)
    assert not check_maps_match(_corrupt(ref, blank), fast)
    assert not check_maps_match(replace(ref, local_maps=ref.local_maps[:-1]), fast)


def test_inputs_follow_the_seed_only():
    assert derived_seed(7, 3) == derived_seed(7, 3)
    assert len({derived_seed(7, i) for i in range(4)} | {derived_seed(8, 0)}) == 5
    assert pair_counts(us.ScenarioConfig()) == (240, 204000)
