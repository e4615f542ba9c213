"""Golden regression values for a small noisy scenario.

The hit tuples depend on every random stream (target position, ground phases,
noise) and on the whole estimator chain; the noiseless local-map values pin
the estimator itself. Any change to either shows up here. The values were
recorded before the estimation kernels were merged into one implementation
per step, and must not be re-recorded to make a change pass.
"""

import pytest

from uavsense import RunOptions, ScenarioConfig, build_tables, run_monte_carlo_all_fusions, run_trial

# small_config geometry with a loud ground, so that clutter and noise both
# move the hit counts away from saturation.
GOLDEN_CONFIG = ScenarioConfig(
    uav_count=4,
    grid_side=8,
    area_side_m=40.0,
    array_side=4,
    symbols_per_frame=8,
    subcarriers=16,
    ground_rcs_m2=1.0,
    trials=60,
    master_seed=1234,
)

GOLDEN_HITS = {
    "capon": {"avg": (21, 32, 43), "prenorm": (18, 28, 38)},
    "ls": {"avg": (22, 33, 44), "prenorm": (19, 30, 40)},
}

# (listener, a, b) -> noiseless local-map value on trial 0.
GOLDEN_MAP_VALUES = {
    "capon": {
        (0, 4, 4): 2.2561506236111204,
        (1, 0, 0): 0.9186897631747816,
        (2, 7, 7): 0.11161449912355943,
        (3, 2, 5): 25.07055435305544,
    },
    "ls": {
        (0, 4, 4): 32.340966025965976,
        (1, 0, 0): 11.603991431104795,
        (2, 7, 7): 0.8277669379864653,
        (3, 2, 5): 289.13887145497387,
    },
}


# Noisy (noise on) Capon reference-path local-map values on trial 0, recorded
# while the reference path still synthesized one frame per intended cell. The
# frame-level rounding moves them, so they are held to the 1e-9 of acceptance
# criterion 4.
GOLDEN_REFERENCE_TARGET_XY = (17.778954355311697, 21.36676493711088)
GOLDEN_REFERENCE_NOISY_VALUES = {
    (0, 4, 4): 2.388119673095806,
    (1, 0, 0): 1.000543330213541,
    (2, 7, 7): 0.02104950709069136,
    (3, 2, 5): 25.12061444538152,
}


@pytest.mark.parametrize("beamformer", ["capon", "ls"])
def test_noisy_hits_are_pinned(beamformer):
    stats = run_monte_carlo_all_fusions(GOLDEN_CONFIG, RunOptions(beamformer=beamformer))
    assert {method: st.hits for method, st in stats.items()} == GOLDEN_HITS[beamformer]


@pytest.mark.parametrize("beamformer", ["capon", "ls"])
def test_noiseless_map_values_are_pinned(beamformer):
    tables = build_tables(GOLDEN_CONFIG, RunOptions(beamformer=beamformer, noise=False))
    outcome = run_trial(GOLDEN_CONFIG, 0, tables=tables, collect_maps=True)
    assert outcome.target_xy == (17.778954355311697, 21.36676493711088)
    for (rx, a, b), value in GOLDEN_MAP_VALUES[beamformer].items():
        assert outcome.local_maps[rx].values[a, b] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_noisy_reference_map_values_are_pinned():
    tables = build_tables(GOLDEN_CONFIG, RunOptions(beamformer="capon", noise=True, fast_path=False))
    outcome = run_trial(GOLDEN_CONFIG, 0, tables=tables, collect_maps=True)
    assert outcome.target_xy == GOLDEN_REFERENCE_TARGET_XY
    for (rx, a, b), value in GOLDEN_REFERENCE_NOISY_VALUES.items():
        assert outcome.local_maps[rx].values[a, b] == pytest.approx(value, rel=1e-9, abs=0.0)
