import math
from dataclasses import replace

import numpy as np
import pytest

from uavsense import (
    ConfigError,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
    build_tables,
    derive_altitude,
    run_monte_carlo,
    run_monte_carlo_all_fusions,
    run_trial,
    sweep,
)
from uavsense import engine
from uavsense.beamforming import aoa_mesh, capon_beamformer, ls_beamformer
from uavsense.geometry import aoa
from uavsense.ofdm import (
    OfdmParams,
    build_reflections,
    matched_point_value,
    remove_data,
    synth_rx_frame,
    synth_tx_frame,
)
from uavsense.engine import (
    _config_for_sweep_point,
    _keyed_draws,
    _stream_keys,
    substream,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _path_words(seed: int, *path: int) -> tuple[int, int]:
    """The two key words of a substream path as Python ints, hashed in pure Python."""
    acc = seed & _MASK64
    for part in path:
        acc = _splitmix64(acc ^ _splitmix64(part))
    return acc, _splitmix64(acc ^ 0xA5A5A5A5A5A5A5A5)


# Seeds whose key words for the path (0, 2, 1, 3) are (>= 2**63, >= 2**63):
# both low, each mixed order, and both high.
KEY_CASES = {2: (False, False), 0: (False, True), 14: (True, False), 1: (True, True)}
KEY_PATH = (0, 2, 1, 3)


class TestSubstream:
    def test_reproducible(self):
        a = substream(42, 1, 2, 3).uniform(size=5)
        b = substream(42, 1, 2, 3).uniform(size=5)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(42, 1, 2, 3).uniform(size=5)
        b = substream(42, 1, 2, 4).uniform(size=5)
        c = substream(43, 1, 2, 3).uniform(size=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed, high", KEY_CASES.items())
    def test_stream_keys_follow_numpy_tuple_parsing(self, seed, high):
        # numpy parses Philox(key=(k0, k1)) with np.asarray: a tuple with
        # exactly one word >= 2**63 becomes float64, rounding both words.
        words = _path_words(seed, *KEY_PATH)
        assert tuple(w >= 2**63 for w in words) == high
        parsed = np.random.Philox(key=words).state["state"]["key"]
        assert np.array_equal(_stream_keys(seed, *KEY_PATH), parsed)
        assert np.array_equal(substream(seed, *KEY_PATH).bit_generator.state["state"]["key"], parsed)
        exact = np.array(words, dtype=np.uint64)
        assert np.array_equal(parsed, exact) == (high[0] == high[1])

    def test_stream_keys_broadcast_over_ids(self):
        tx = np.array([[0], [3]])
        rx = np.array([1, 2, 5])
        keys = _stream_keys(77, 4, 2, tx, rx)
        assert keys.shape == (2, 3, 2)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(keys[i, j], _stream_keys(77, 4, 2, int(tx[i, 0]), int(rx[j])))

    def test_negative_and_large_ids_wrap_modulo_2_64(self):
        # Ids are hashed modulo 2**64, like the pure-Python reference.
        for path in [(-1, 2), (2**64 + 5, 2), (3, -7, 2**70)]:
            parsed = np.random.Philox(key=_path_words(9, *path)).state["state"]["key"]
            assert np.array_equal(substream(9, *path).bit_generator.state["state"]["key"], parsed)
        assert np.array_equal(_stream_keys(9, -1, 2), _stream_keys(9, 2**64 - 1, 2))
        wrapped = np.array([2**64 - 1, 1], dtype=np.uint64)
        assert np.array_equal(_stream_keys(9, 0, 2, np.array([-1, 1])), _stream_keys(9, 0, 2, wrapped))

    @pytest.mark.parametrize("count", [1, 4, 5, 38])
    def test_reused_generator_phases_equal_numpy_uniform(self, count):
        # The fast path scales random() by 2 pi in place of uniform(0, 2 pi).
        keys = np.stack([_stream_keys(seed, *KEY_PATH) for seed in KEY_CASES])
        generator = np.random.Generator(np.random.Philox(key=0))
        got = 2.0 * math.pi * _keyed_draws(generator, keys, "random", (count,))
        for seed, row in zip(KEY_CASES, got):
            fresh = np.random.Generator(np.random.Philox(key=_path_words(seed, *KEY_PATH)))
            assert np.array_equal(row, fresh.uniform(0.0, 2.0 * math.pi, size=count))

    def test_reused_generator_noise_equals_fresh_substreams(self):
        paths = [(3, 3, 0, 1), (3, 3, 2, 1), (3, 3, 0, 1), (0, 3, 7, 9)]
        keys = np.stack([_stream_keys(5, *path) for path in paths])
        generator = np.random.Generator(np.random.Philox(key=0))
        generator.uniform(size=3)  # a used generator starts each key afresh
        draws = _keyed_draws(generator, keys, "standard_normal", (2, 7))
        assert draws.shape == (4, 2, 7)
        for path, row in zip(paths, draws):
            assert np.array_equal(row, substream(5, *path).standard_normal((2, 7)))


class TestBuildTables:
    @pytest.mark.parametrize("beamformer", ["capon", "ls"])
    def test_each_distinct_direction_designed_once(self, small_config, monkeypatch, beamformer):
        name = f"{beamformer}_beamformer"
        calls = []

        def counting(*args, original=getattr(engine, name), **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, counting)
        options = RunOptions(beamformer=beamformer)
        tables = build_tables(small_config, options)
        n = small_config.array_side
        pairs, directions = 0, set()
        for record in tables.transmitters:
            for k, rx in enumerate(record.rx):
                for i, (a, b) in enumerate(record.cells):
                    d = aoa(tables.deployment.positions[rx], tables.grid.centers[a, b])
                    pairs += 1
                    directions.add(np.array([d.theta, d.phi]).tobytes())
                    if beamformer == "capon":
                        fresh = capon_beamformer(d, n)
                    else:
                        fresh = ls_beamformer(aoa_mesh(d, n), n, iterations=options.ls_iterations)
                    assert record.weights[k, i].tobytes() == fresh.tobytes()
        assert len(calls) == len(directions) < pairs

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("carrier_hz", [1e-150, 1e160, 1e300])
    def test_carrier_out_of_float_range_rejected(self, small_config, carrier_hz):
        # The squared wavelength or the two-hop amplitudes overflow or underflow
        # at these accepted frequencies, which made every estimate NaN or inf.
        config = replace(small_config, carrier_frequency_hz=carrier_hz)
        with pytest.raises(ConfigError, match="^carrier_frequency_hz: .*transmit_power_w"):
            build_tables(config, RunOptions())


class TestRunTrial:
    def test_single_cell_blocks_detect_trivially(self):
        # One intended cell per UAV; a target centered on a cell dominates
        # that cell's estimate, so delta* = 0.
        cfg = ScenarioConfig(
            uav_count=4, grid_side=2, area_side_m=10.0, array_side=4,
            symbols_per_frame=8, subcarriers=16, trials=1, master_seed=3,
        )
        opts = RunOptions(noise=False)
        out = run_trial(cfg, 0, opts, target_override=(2.5, 2.5))
        det = out.detections["avg"]
        assert det.detected_cell == (0, 0)
        assert det.delta_star == 0

    def test_noiseless_default_scenario_detects_center_target(self, default_tables_capon):
        cfg = ScenarioConfig(master_seed=11)
        tables = build_tables(cfg, RunOptions(noise=False))
        out = run_trial(cfg, 0, tables=tables, target_override=(42.5, 77.5))
        for method in ("avg", "prenorm"):
            assert out.detections[method].delta_star == 0
            assert out.detections[method].detected_cell == (8, 15)

    def test_deterministic(self, small_config):
        opts = RunOptions()
        tables = build_tables(small_config, opts)
        a = run_trial(small_config, 4, tables=tables)
        b = run_trial(small_config, 4, tables=tables)
        assert a.target_xy == b.target_xy
        assert a.detections == b.detections

    def test_hits_monotone_in_delta(self, small_config):
        tables = build_tables(small_config, RunOptions())
        for trial in range(5):
            out = run_trial(small_config, trial, tables=tables)
            h0, h1, h2 = out.detections["avg"].hits
            assert h0 <= h1 <= h2

    def test_seed_isolation(self, small_config):
        # Extending the trial count never changes earlier outcomes.
        longer = replace(small_config, trials=1000)
        tables = build_tables(small_config, RunOptions())
        for trial in range(3):
            a = run_trial(small_config, trial, tables=tables)
            b = run_trial(longer, trial, tables=tables)
            assert a.target_xy == b.target_xy
            assert a.detections == b.detections

    def test_own_cells_never_estimated(self, small_config):
        # Half-duplex: a UAV's local map holds no estimate for its own block.
        tables = build_tables(small_config, RunOptions())
        out = run_trial(small_config, 0, tables=tables, collect_maps=True)
        for u, local in enumerate(out.local_maps):
            for a, b in tables.cell_sets[u].intended:
                assert math.isnan(local.values[a, b])
        assert all(record.tx not in record.rx for record in tables.transmitters)

    def test_fast_matches_reference_noiseless(self, small_config):
        fast_tables = build_tables(small_config, RunOptions(noise=False, fast_path=True))
        ref_tables = build_tables(small_config, RunOptions(noise=False, fast_path=False))
        a = run_trial(small_config, 2, tables=fast_tables, collect_maps=True)
        b = run_trial(small_config, 2, tables=ref_tables, collect_maps=True)
        va = a.fused_maps["avg"]
        vb = b.fused_maps["avg"]
        finite = np.isfinite(va)
        assert np.array_equal(finite, np.isfinite(vb))
        assert np.allclose(va[finite], vb[finite], rtol=1e-9)

    def test_reference_cell_equals_its_own_noise_substream(self, small_config):
        # One (pair, cell) rebuilt alone, with a fresh generator on each of its
        # substreams, gives the estimate of the pair's stacked frames.
        trial = 3
        tables = build_tables(small_config, RunOptions(noise=True, fast_path=False))
        outcome = run_trial(small_config, trial, tables=tables, collect_maps=True)
        target, illuminated_by = engine._trial_target(small_config, tables, trial, None)
        params = OfdmParams.from_config(small_config)
        seed = small_config.master_seed
        record = tables.transmitters[1]
        k, i = 2, len(record.cells) - 1
        tx, rx, (a, b) = record.tx, int(record.rx[k]), record.cells[i]
        positions = tables.deployment.positions
        tx_frame = synth_tx_frame(params, substream(seed, trial, engine._STREAM_TXDATA, tx))
        reflections = build_reflections(
            small_config, tx, rx, positions[tx], positions[rx], tables.cell_sets[tx], tables.grid,
            record.weights[k, i], target if illuminated_by[tx] else None,
            substream(seed, trial, engine._STREAM_PHASE, tx, rx),
        )
        draws = substream(seed, trial, engine._STREAM_NOISE, tx, rx, a, b).standard_normal((2, 8, 16))
        frame = remove_data(synth_rx_frame(tx_frame, reflections, params, record.noise_var[k, i], draws), tx_frame)
        peak = matched_point_value(frame, record.matched_delay[k, i], small_config.doppler_hz, params)
        expected = peak * record.est_scale[k, i]
        assert outcome.local_maps[rx].values[a, b] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_incompatible_tables_rejected(self, small_config):
        tables = build_tables(small_config, RunOptions())
        other = replace(small_config, area_side_m=80.0)
        with pytest.raises(ConfigError):
            run_trial(other, 0, tables=tables)

    def test_rcs_override_without_rebuild(self, small_config):
        # Ground/target RCS and seeds may change on shared tables.
        tables = build_tables(small_config, RunOptions())
        louder = replace(small_config, ground_rcs_m2=0.1, master_seed=77)
        out = run_trial(louder, 0, tables=tables)
        assert out.detections["avg"] is not None


class TestMonteCarlo:
    def test_single_trial_probabilities(self, small_config):
        cfg = replace(small_config, trials=1)
        stats = run_monte_carlo(cfg, RunOptions(noise=False))
        assert stats.trials == 1
        for delta in (0, 1, 2):
            p = stats.p_detect(delta)
            assert p in (0.0, 1.0)
            assert stats.ci95_halfwidth(delta) == pytest.approx(1.96 * math.sqrt(p * (1 - p)))

    def test_monotone_in_delta(self, small_config):
        stats = run_monte_carlo(small_config, RunOptions())
        assert stats.p_detect(0) <= stats.p_detect(1) <= stats.p_detect(2)

    def test_same_seed_same_statistics(self, small_config):
        opts = RunOptions()
        assert run_monte_carlo(small_config, opts) == run_monte_carlo(small_config, opts)

    def test_parallel_matches_serial(self, small_config):
        opts = RunOptions()
        serial = run_monte_carlo_all_fusions(small_config, opts, workers=1)
        parallel = run_monte_carlo_all_fusions(small_config, opts, workers=3)
        assert serial == parallel

    def test_parallel_reuses_given_tables(self, small_config):
        tables = build_tables(small_config, RunOptions(noise=False))
        serial = run_monte_carlo_all_fusions(small_config, tables=tables)
        parallel = run_monte_carlo_all_fusions(small_config, workers=2, tables=tables)
        assert serial == parallel == run_monte_carlo_all_fusions(small_config, RunOptions(noise=False))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise", False),
            ("fast_path", False),
            ("beamformer", "ls"),
            ("ls_iterations", 3),
        ],
    )
    def test_options_disagreeing_with_tables_rejected(self, small_config, field, value):
        tables = build_tables(small_config, RunOptions())
        options = replace(RunOptions(), **{field: value})
        with pytest.raises(ConfigError, match=field):
            run_monte_carlo_all_fusions(small_config, options, tables=tables)
        with pytest.raises(ConfigError, match=field):
            run_monte_carlo(small_config, options, tables=tables)
        with pytest.raises(ConfigError, match=field):
            run_trial(small_config, 0, options, tables=tables)

    def test_fusion_may_differ_from_tables(self, small_config):
        tables = build_tables(small_config, RunOptions(fusion="avg"))
        stats = run_monte_carlo(small_config, RunOptions(fusion="prenorm"), tables=tables)
        assert stats == run_monte_carlo_all_fusions(small_config, tables=tables)["prenorm"]


class TestSweepPointConfigs:
    def test_constant_coverage_scales_area_and_altitude(self):
        base = ScenarioConfig()
        cfg2 = _config_for_sweep_point("cell_size_constant_coverage", 2.0, base)
        cfg4 = _config_for_sweep_point("cell_size_constant_coverage", 4.0, base)
        assert cfg2.cell_size_m == pytest.approx(2.0)
        assert cfg2.grid_side == base.grid_side
        h2 = derive_altitude(cfg2, cfg2.cells_per_uav_side)
        h4 = derive_altitude(cfg4, cfg4.cells_per_uav_side)
        assert h4 == pytest.approx(2 * h2)

    def test_constant_area_adjusts_grid(self):
        base = ScenarioConfig()
        cfg = _config_for_sweep_point("cell_size_constant_area", 2.5, base)
        assert cfg.grid_side == 40
        assert cfg.area_side_m == base.area_side_m
        assert cfg.altitude_mode == "explicit"
        assert cfg.altitude_m == pytest.approx(derive_altitude(base, 5))

    def test_constant_area_rejects_indivisible_grid(self):
        # d = 4 m would need a 25-cell side, which the 4x4 deployment cannot tile.
        with pytest.raises(ConfigError, match="grid_side"):
            _config_for_sweep_point("cell_size_constant_area", 4.0, ScenarioConfig())

    def test_altitude_point(self):
        cfg = _config_for_sweep_point("altitude", 120.0, ScenarioConfig())
        assert cfg.altitude_mode == "explicit"
        assert cfg.altitude_m == 120.0

    def test_ground_rcs_point(self):
        cfg = _config_for_sweep_point("ground_rcs", -10.0, ScenarioConfig())
        assert cfg.ground_rcs_m2 == pytest.approx(0.1)

    def test_antennas_point(self):
        cfg = _config_for_sweep_point("antennas", 16.0, ScenarioConfig())
        assert cfg.array_side == 16


class TestSweep:
    def test_invalid_points_reported_not_skipped(self, small_config):
        spec = SweepSpec(
            parameter="cell_size_constant_area",
            values=(10.0, 7.0),  # 7 m does not divide the 40 m area side
            sigma_g_dbsm=(-30.0,),
            deltas=(0,),
        )
        rows, errors = sweep(spec, small_config)
        assert len(errors) == 1
        assert "7.0" in errors[0]
        assert {r.sweep_value for r in rows} == {10.0}

    def test_single_element_array_point_reported(self, small_config):
        spec = SweepSpec(parameter="antennas", values=(1.0, 4.0), sigma_g_dbsm=(-30.0,), deltas=(0,))
        rows, errors = sweep(spec, replace(small_config, trials=2))
        assert len(errors) == 1
        assert errors[0].startswith("antennas=1.0: array_side")
        assert {r.sweep_value for r in rows} == {4.0}
        assert len(rows) == 1

    def test_row_axes(self, small_config):
        cfg = replace(small_config, trials=2)
        spec = SweepSpec(
            parameter="ground_rcs",
            values=(-30.0, -20.0),
            beamformers=("capon",),
            fusions=("avg", "prenorm"),
            deltas=(0, 1),
        )
        rows, errors = sweep(spec, cfg)
        assert not errors
        assert len(rows) == 2 * 2 * 2
        assert {r.fusion for r in rows} == {"avg", "prenorm"}
        assert all(r.trials == 2 for r in rows)
        assert all(r.seed == cfg.master_seed for r in rows)

    def test_low_altitude_classification_regime(self):
        # Below the 3x3 threshold each intended set collapses to one cell.
        base = ScenarioConfig()
        h_small = 0.9 * derive_altitude(base, 3)
        cfg = _config_for_sweep_point("altitude", h_small, base)
        tables = build_tables(cfg, RunOptions())
        sizes = {len(s.intended) for s in tables.cell_sets}
        assert sizes == {1}

    def test_footprint_overlap_rejected(self):
        base = ScenarioConfig()
        too_high = 1.05 * derive_altitude(base, 7)
        cfg = _config_for_sweep_point("altitude", too_high, base)
        with pytest.raises(ConfigError, match="overlap"):
            build_tables(cfg, RunOptions())

    def test_no_intended_cells_rejected(self):
        base = ScenarioConfig()
        cfg = _config_for_sweep_point("altitude", 0.5 * derive_altitude(base, 1), base)
        with pytest.raises(ConfigError, match="altitude"):
            build_tables(cfg, RunOptions())
