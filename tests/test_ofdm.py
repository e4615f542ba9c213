import cmath
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from uavsense import (
    ScenarioConfig,
    build_grid,
    aoa,
    build_tables,
    classify_cells,
    closed_form_peaks,
    deploy_uavs,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    path_distances,
    periodogram_grid,
    reflection_amplitude,
    remove_data,
    synth_rx_frame,
    steering_vector,
    synth_tx_frame,
)
from uavsense.config import RunOptions
from uavsense.ofdm import OfdmParams, Reflections, build_reflections, dirichlet_kernel
from uavsense.engine import substream

C0 = 299792458.0


def small_params(N=8, M=16):
    cfg = ScenarioConfig()
    return OfdmParams(
        symbols=N,
        subcarriers=M,
        subcarrier_spacing_hz=cfg.subcarrier_spacing_hz,
        cp_duration_s=cfg.cp_duration_s,
    )


def direct_periodogram(frame, n_pad, m_pad):
    """Independent O(N'M'NM) double-sum oracle for the grid periodogram."""
    N, M = frame.shape
    out = np.zeros((n_pad, m_pad))
    for n in range(n_pad):
        for m in range(m_pad):
            acc = 0.0 + 0.0j
            for k in range(N):
                for l in range(M):
                    acc += frame[k, l] * cmath.exp(2j * math.pi * l * m / m_pad) * cmath.exp(
                        -2j * math.pi * k * n / n_pad
                    )
            out[n, m] = abs(acc) ** 2 / (N * M)
    return out


def reflections_of(*rows):
    """Reflections from (amplitude, gain, delay_s, doppler_hz, phase) rows."""
    columns = [np.array(column) for column in zip(*rows)] if rows else [np.empty(0)] * 5
    return Reflections(*columns)


def closed_form_rcs(cfg, reflections, matched_delay, matched_doppler, d1, d2, noise_variance=0.0, rng=None):
    """RCS estimate of one cell through matched_coupling and closed_form_peaks;
    noise, if any, is drawn from `rng` as standard_normal((2, 1))."""
    params = OfdmParams.from_config(cfg)
    coupling = matched_coupling(
        reflections.amplitude,
        np.reshape(reflections.gain, (-1, 1)),
        reflections.delay_s,
        reflections.doppler_hz,
        [matched_delay],
        matched_doppler,
        params,
    )
    zeta = reflections.phase
    draws = None if rng is None else rng.standard_normal((2, 1))
    peak = closed_form_peaks(coupling, zeta, params, noise_variance, draws)[0]
    return estimate_rcs(peak, cfg, d1, d2)


def geometric_ramp_sum(x, length):
    """Brute-force sum of e^{-j 2 pi x l} over l."""
    return sum(cmath.exp(-2j * math.pi * x * l) for l in range(length))


class TestTxFrame:
    def test_unit_modulus(self, rng):
        frame = synth_tx_frame(small_params(), rng)
        assert np.allclose(np.abs(frame), 1.0)

    def test_deterministic_per_seed(self):
        params = small_params()
        f1 = synth_tx_frame(params, np.random.default_rng(5))
        f2 = synth_tx_frame(params, np.random.default_rng(5))
        assert np.array_equal(f1, f2)

    def test_default_frame_size(self, rng):
        params = OfdmParams.from_config(ScenarioConfig())
        frame = synth_tx_frame(params, rng)
        assert frame.shape == (16, 64)
        assert frame.size == 1024


class TestReflectionAmplitude:
    def test_reference_value(self):
        # sqrt(1 * 1 * 10 * 0.0125^2 / ((4 pi)^3 * 100^2 * 100^2))
        cfg = ScenarioConfig(carrier_frequency_hz=C0 / 0.0125)
        assert reflection_amplitude(cfg, 10.0, 100.0, 100.0) == pytest.approx(8.8735e-8, rel=1e-4)

    def test_inverse_distance_scaling(self):
        cfg = ScenarioConfig()
        b1 = reflection_amplitude(cfg, 1.0, 100.0, 50.0)
        b2 = reflection_amplitude(cfg, 1.0, 400.0, 50.0)
        assert b2 == pytest.approx(b1 / 4)

    def test_zero_rcs(self):
        assert reflection_amplitude(ScenarioConfig(), 0.0, 10.0, 10.0) == 0.0

    def test_rejects_degenerate_distances(self):
        with pytest.raises(ValueError):
            reflection_amplitude(ScenarioConfig(), 1.0, 0.0, 10.0)


class TestBuildReflections:
    def _scene(self):
        cfg = ScenarioConfig()
        grid = build_grid(cfg)
        dep = deploy_uavs(cfg, grid)
        sets = classify_cells(cfg, 0, grid, dep)
        tables = build_tables(cfg, RunOptions())
        record = next(r for r in tables.transmitters if r.tx == 0)
        weights = record.weights[list(record.rx).index(1)]  # (n_p, n^2) of listener 1
        return cfg, grid, dep, sets, weights

    def test_component_count_without_target(self, rng):
        cfg, grid, dep, sets, weights = self._scene()
        refl = build_reflections(
            cfg, 0, 1, dep.positions[0], dep.positions[1], sets, grid,
            weights[0], None, rng,
        )
        assert len(refl.phase) == len(sets.illuminated)

    def test_component_count_with_target(self, rng):
        cfg, grid, dep, sets, weights = self._scene()
        refl = build_reflections(
            cfg, 0, 1, dep.positions[0], dep.positions[1], sets, grid,
            weights[0], np.array([13.0, 11.0, 0.0]), rng,
        )
        assert len(refl.phase) == len(sets.illuminated) + 1

    def test_phases_reproducible_and_in_range(self):
        cfg, grid, dep, sets, weights = self._scene()
        make = lambda: build_reflections(
            cfg, 0, 1, dep.positions[0], dep.positions[1], sets, grid,
            weights[0], None,
            substream(7, 0, 2, 0, 1),
        )
        first, second = make(), make()
        assert np.all((0 <= first.phase) & (first.phase < 2 * math.pi))
        assert np.array_equal(first.phase, second.phase)

    def test_components_follow_scalar_geometry(self, rng):
        cfg, grid, dep, sets, weights = self._scene()
        target = np.array([13.0, 11.0, 0.0])
        refl = build_reflections(
            cfg, 0, 1, dep.positions[0], dep.positions[1], sets, grid, weights[0], target, rng,
        )
        points = [grid.centers[a, b] for a, b in sets.illuminated] + [target]
        for r, point in enumerate(points):
            rcs = cfg.target_rcs_m2 if point is target else cfg.ground_rcs_m2
            d1, d2 = path_distances(dep.positions[0], point, dep.positions[1])
            gain = weights[0].conj() @ steering_vector(aoa(dep.positions[1], point), cfg.array_side)
            assert refl.amplitude[r] == pytest.approx(reflection_amplitude(cfg, rcs, d1, d2), rel=1e-12)
            assert refl.gain[r] == pytest.approx(gain, rel=1e-12)
            assert refl.delay_s[r] == pytest.approx((d1 + d2) / C0, rel=1e-12)
            assert refl.doppler_hz[r] == cfg.doppler_hz

    def test_half_duplex_guard(self, rng):
        cfg, grid, dep, sets, weights = self._scene()
        with pytest.raises(ValueError, match="half-duplex"):
            build_reflections(
                cfg, 1, 1, dep.positions[1], dep.positions[1], sets, grid,
                weights[0], None, rng,
            )

    def test_weight_stack_gives_one_gain_row_per_vector(self):
        cfg, grid, dep, sets, weights = self._scene()
        target = np.array([13.0, 11.0, 0.0])
        build = lambda w: build_reflections(
            cfg, 0, 1, dep.positions[0], dep.positions[1], sets, grid, w, target, substream(7, 0, 2, 0, 1)
        )
        stacked = build(weights)
        assert stacked.gain.shape == (len(weights), len(sets.illuminated) + 1)
        for row, w in zip(stacked.gain, weights):
            alone = build(w)
            assert np.allclose(row, alone.gain, rtol=1e-12, atol=0.0)
            for name in ("amplitude", "delay_s", "doppler_hz", "phase"):
                assert np.array_equal(getattr(stacked, name), getattr(alone, name))


class TestRxFrame:
    def test_no_reflections_no_noise(self, rng):
        params = small_params()
        tx = synth_tx_frame(params, rng)
        assert np.all(synth_rx_frame(tx, reflections_of(), params) == 0)

    def test_single_matched_reflection_scales_tx(self, rng):
        params = small_params()
        tx = synth_tx_frame(params, rng)
        refl = reflections_of((0.3, 1.0, 0.0, 0.0, 0.0))
        assert np.allclose(synth_rx_frame(tx, refl, params), 0.3 * tx)

    def test_quarter_cycle_subcarrier_ramp(self, rng):
        # tau*df = 0.25 puts the phase ramp e^{-j pi l / 2} across subcarriers.
        params = small_params()
        tau = 0.25 / params.subcarrier_spacing_hz
        tx = synth_tx_frame(params, rng)
        refl = reflections_of((1.0, 1.0, tau, 0.0, 0.0))
        processed = remove_data(synth_rx_frame(tx, refl, params), tx)
        l = np.arange(params.subcarriers)
        expected = np.exp(-1j * math.pi * l / 2)
        for k in range(params.symbols):
            assert np.allclose(processed[k], expected)

    def test_noise_variance(self):
        params = small_params(16, 64)
        tx = np.ones((16, 64), dtype=complex)
        rx = synth_rx_frame(
            tx, reflections_of(), params, noise_variance=2.5,
            noise_draws=np.random.default_rng(3).standard_normal((2, 16, 64)),
        )
        assert np.mean(np.abs(rx) ** 2) == pytest.approx(2.5, rel=0.1)


    def test_gain_stack_equals_one_frame_per_row(self, rng):
        # Frames of a gain stack, each with its own noise variance and draws,
        # equal one call per row; data removal and the matched point follow.
        params = small_params()
        tx = synth_tx_frame(params, rng)
        stacked = Reflections(
            amplitude=rng.uniform(0.5, 1.5, 5),
            gain=rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5)),
            delay_s=rng.uniform(0.0, 2e-6, 5),
            doppler_hz=rng.uniform(-3000.0, 3000.0, 5),
            phase=rng.uniform(0.0, 2 * math.pi, 5),
        )
        noise_var = rng.uniform(0.1, 1.0, 3)
        draws = rng.standard_normal((3, 2, 8, 16))
        delays = rng.uniform(0.0, 2e-6, 3)
        frames = remove_data(synth_rx_frame(tx, stacked, params, noise_var, draws), tx)
        values = matched_point_value(frames, delays, 1000.0, params)
        assert frames.shape == (3, 8, 16) and values.shape == (3,)
        for p in range(3):
            row = Reflections(stacked.amplitude, stacked.gain[p], stacked.delay_s, stacked.doppler_hz, stacked.phase)
            alone = remove_data(synth_rx_frame(tx, row, params, noise_var[p], draws[p]), tx)
            assert np.allclose(frames[p], alone, rtol=1e-12, atol=0.0)
            assert values[p] == pytest.approx(matched_point_value(alone, delays[p], 1000.0, params), rel=1e-12)

    def test_noise_requires_draws(self, rng):
        params = small_params()
        with pytest.raises(ValueError, match="draws"):
            synth_rx_frame(synth_tx_frame(params, rng), reflections_of(), params, noise_variance=1.0)


class TestRemoveData:
    def test_identity(self, rng):
        tx = synth_tx_frame(small_params(), rng)
        assert np.allclose(remove_data(tx, tx), 1.0)

    def test_data_independence(self, rng):
        params = small_params()
        refl = reflections_of((1.0, 0.8 - 0.1j, 1e-7, 0.0, 0.4))
        frames = []
        for seed in (1, 2):
            tx = synth_tx_frame(params, np.random.default_rng(seed))
            frames.append(remove_data(synth_rx_frame(tx, refl, params), tx))
        assert np.allclose(frames[0], frames[1], rtol=1e-12)

    def test_linearity(self, rng):
        params = small_params()
        tx = synth_tx_frame(params, rng)
        rx1 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        rx2 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        assert np.allclose(remove_data(rx1 + rx2, tx), remove_data(rx1, tx) + remove_data(rx2, tx))

    def test_zero_symbol_guard(self):
        tx = np.ones((2, 2), dtype=complex)
        tx[0, 0] = 0.0
        with pytest.raises(ValueError):
            remove_data(np.ones((2, 2), dtype=complex), tx)


class TestPeriodogramGrid:
    def test_all_ones_frame(self):
        P = periodogram_grid(np.ones((4, 4), dtype=complex), 4, 4)
        assert P[0, 0] == pytest.approx(16.0)
        assert np.max(np.abs(np.delete(P.ravel(), 0))) < 1e-12

    def test_impulse_is_flat(self):
        frame = np.zeros((4, 4), dtype=complex)
        frame[0, 0] = 1.0
        P = periodogram_grid(frame, 8, 8)
        assert np.allclose(P, 1.0 / 16.0)

    def test_matches_direct_double_sum(self, rng):
        for _ in range(3):
            frame = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            fast = periodogram_grid(frame, 8, 8)
            direct = direct_periodogram(frame, 8, 8)
            assert np.allclose(fast, direct, rtol=1e-9, atol=1e-12)

    def test_parseval(self, rng):
        frame = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        P = periodogram_grid(frame, 16, 32)
        expected = (16 * 32) / (8 * 16) * np.sum(np.abs(frame) ** 2)
        assert np.sum(P) == pytest.approx(expected)

    def test_argmax_at_exact_bins(self, rng):
        params = small_params()
        for n_hat, m_hat in [(0, 0), (3, 5), (15, 1), (9, 31)]:
            doppler = n_hat / (16 * params.symbol_duration_s)
            delay = m_hat / (32 * params.subcarrier_spacing_hz)
            tx = synth_tx_frame(params, rng)
            refl = reflections_of((1.0, 1.0, delay, doppler, 0.9))
            P = periodogram_grid(remove_data(synth_rx_frame(tx, refl, params), tx), 16, 32)
            assert np.unravel_index(np.argmax(P), P.shape) == (n_hat, m_hat)

    def test_rejects_short_padding(self):
        with pytest.raises(ValueError):
            periodogram_grid(np.ones((8, 8)), 4, 8)


class TestMatchedPoint:
    def test_coherent_gain(self, rng):
        params = small_params()
        tx = synth_tx_frame(params, rng)
        amp = 2.5e-7
        tau = 1.3e-6
        refl = reflections_of((amp, 1.0, tau, 0.0, 1.1))
        value = matched_point_value(remove_data(synth_rx_frame(tx, refl, params), tx), tau, 0.0, params)
        assert value == pytest.approx(params.symbols * params.subcarriers * amp**2, rel=1e-9)

    def test_delay_offset_follows_ramp_sum(self, rng):
        params = small_params()
        tx = synth_tx_frame(params, rng)
        amp, tau = 1.0, 8e-7
        offset = 0.37 / params.subcarrier_spacing_hz
        refl = reflections_of((amp, 1.0, tau, 0.0, 0.0))
        value = matched_point_value(
            remove_data(synth_rx_frame(tx, refl, params), tx), tau + offset, 0.0, params
        )
        M, N = params.subcarriers, params.symbols
        ramp = geometric_ramp_sum(-offset * params.subcarrier_spacing_hz, M)
        expected = N * amp**2 * abs(ramp) ** 2 / M
        assert value == pytest.approx(expected, rel=1e-9)

    def test_zero_frame(self):
        params = small_params()
        assert matched_point_value(np.zeros((8, 16)), 1e-6, 0.0, params) == 0.0

    def test_equals_grid_at_integer_bins(self, rng):
        params = small_params()
        frame = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        P = periodogram_grid(frame, 8, 16)
        for n_hat, m_hat in [(0, 0), (2, 7), (5, 15)]:
            value = matched_point_value(
                frame,
                m_hat / (16 * params.subcarrier_spacing_hz),
                n_hat / (8 * params.symbol_duration_s),
                params,
            )
            assert value == pytest.approx(P[n_hat, m_hat], rel=1e-9)


class TestEstimateRcs:
    def test_roundtrip(self, rng):
        cfg = ScenarioConfig()
        params = OfdmParams.from_config(cfg)
        tx = synth_tx_frame(params, rng)
        d1, d2 = 180.0, 230.0
        b = reflection_amplitude(cfg, 10.0, d1, d2)
        tau = (d1 + d2) / C0
        refl = reflections_of((b, 1.0, tau, 0.0, 0.0))
        peak = matched_point_value(remove_data(synth_rx_frame(tx, refl, params), tx), tau, 0.0, params)
        assert estimate_rcs(peak, cfg, d1, d2) == pytest.approx(10.0, rel=1e-6)

    def test_zero_peak(self):
        assert estimate_rcs(0.0, ScenarioConfig(), 10.0, 10.0) == 0.0

    def test_linear_in_peak(self):
        cfg = ScenarioConfig()
        assert estimate_rcs(2e-9, cfg, 50.0, 60.0) == pytest.approx(2 * estimate_rcs(1e-9, cfg, 50.0, 60.0))

    def test_rejects_negative_peak(self):
        with pytest.raises(ValueError):
            estimate_rcs(-1.0, ScenarioConfig(), 10.0, 10.0)


class TestDirichletKernel:
    def test_matches_brute_force(self, rng):
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0)
            M = int(rng.integers(2, 40))
            assert dirichlet_kernel(x, M) == pytest.approx(geometric_ramp_sum(x, M), abs=1e-9)

    def test_integer_arguments(self):
        for x in (-1.0, 0.0, 1.0, 3.0):
            assert dirichlet_kernel(x, 16) == pytest.approx(16.0)


class TestFastCellEstimate:
    def _reference(self, cfg, params, reflections, tau, rng_tx):
        tx = synth_tx_frame(params, rng_tx)
        frame = remove_data(synth_rx_frame(tx, reflections, params), tx)
        return matched_point_value(frame, tau, cfg.doppler_hz, params)

    def test_noiseless_equivalence(self, rng):
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        params = OfdmParams.from_config(cfg)
        d1, d2 = 120.0, 140.0
        tau = (d1 + d2) / C0
        reflections = reflections_of(
            *[
                (
                    float(rng.uniform(1e-8, 1e-6)),
                    complex(rng.standard_normal(), rng.standard_normal()),
                    tau + float(rng.uniform(-2e-8, 2e-8)),
                    0.0,
                    float(rng.uniform(0, 2 * math.pi)),
                )
                for _ in range(17)
            ]
        )
        peak = self._reference(cfg, params, reflections, tau, np.random.default_rng(0))
        expected = estimate_rcs(peak, cfg, d1, d2)
        got = closed_form_rcs(cfg, reflections, tau, 0.0, d1, d2)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_matched_kernel_is_frame_size(self):
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        tau = 2e-6
        refl = reflections_of((1.0, 1.0, tau, 0.0, 0.0))
        got = closed_form_rcs(cfg, refl, tau, 0.0, 100.0, 100.0)
        # K = N M at zero mismatch, so the peak is N M and sigma follows Eq.-style inversion
        assert got == pytest.approx(estimate_rcs(8 * 16, cfg, 100.0, 100.0), rel=1e-12)

    def test_mixed_doppler_equivalence(self, rng):
        # The product-kernel closed form stays exact for per-reflection Doppler.
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        params = OfdmParams.from_config(cfg)
        tau = 1e-6
        reflections = reflections_of(
            (1e-7, 1.0, tau, 4000.0, 0.2),
            (3e-7, 0.5 + 0.5j, tau * 1.02, -2500.0, 1.5),
        )
        peak = self._reference(cfg, params, reflections, tau, np.random.default_rng(1))
        got = closed_form_rcs(cfg, reflections, tau, cfg.doppler_hz, 100.0, 100.0)
        assert got == pytest.approx(estimate_rcs(peak, cfg, 100.0, 100.0), rel=1e-9)

    def test_noise_only_mean_matches_variance(self):
        # Expected matched-point value under pure noise is the per-sample
        # variance; check the closed-form draw against it.
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        noise_var = 3.7e-13
        rng = np.random.default_rng(12)
        n = cfg.symbols_per_frame * cfg.subcarriers
        scale = estimate_rcs(1.0, cfg, 100.0, 100.0)
        empty = reflections_of()
        values = [
            closed_form_rcs(cfg, empty, 0.0, 0.0, 100.0, 100.0, noise_variance=noise_var, rng=rng) / scale
            for _ in range(10_000)
        ]
        assert np.mean(values) == pytest.approx(noise_var, rel=0.05)

    def test_noise_requires_rng(self):
        cfg = ScenarioConfig()
        with pytest.raises(ValueError):
            closed_form_peaks(np.zeros((0, 1)), [], OfdmParams.from_config(cfg), noise_variance=1.0)

    def test_cells_share_phases_and_draw_noise_per_cell(self):
        # Several cells at once equal one call per cell, noise included: the
        # (2, cells) draw gives cell p the pair (draws[0, p], draws[1, p]).
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        params = OfdmParams.from_config(cfg)
        coupling = np.array([[1.0 + 0.5j, 0.2j, -0.3], [0.4, 1.1 - 0.2j, 0.9j]])
        zeta = [0.3, 2.2]
        draws = np.random.default_rng(4).standard_normal((2, 3))
        together = closed_form_peaks(coupling, zeta, params, 0.5, draws)
        for p in range(3):
            total = np.exp(-1j * np.array(zeta)) @ coupling[:, p] + math.sqrt(16 * 8 * 0.5 / 2) * (
                draws[0, p] + 1j * draws[1, p]
            )
            assert together[p] == pytest.approx(abs(total) ** 2 / (8 * 16), rel=1e-12)

    def test_listener_axis_equals_one_call_per_listener(self):
        # A leading axis over listeners, noise included, gives each row the
        # value of a call on that row alone, bit for bit.
        params = small_params()
        rng = np.random.default_rng(9)
        coupling = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        zeta = rng.uniform(0.0, 2.0 * math.pi, (3, 5))
        noise_var = rng.uniform(0.1, 1.0, (3, 4))
        draws = rng.standard_normal((3, 2, 4))
        together = closed_form_peaks(coupling, zeta, params, noise_var, draws)
        assert together.shape == (3, 4)
        for k in range(3):
            alone = closed_form_peaks(coupling[k], zeta[k], params, noise_var[k], draws[k])
            assert np.array_equal(together[k], alone)


def test_noise_only_reference_mean(rng):
    # Reference-path version of the noise immunity check on a small frame.
    params = small_params(4, 4)
    tx = synth_tx_frame(params, rng)
    noise_var = 0.8
    gen = np.random.default_rng(5)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        rx = synth_rx_frame(tx, reflections_of(), params, noise_var, gen.standard_normal((2, 4, 4)))
        frame = remove_data(rx, tx)
        total += matched_point_value(frame, 3e-7, 0.0, params)
    assert total / draws == pytest.approx(noise_var, rel=0.05)


def test_rcs_estimator_median_near_truth_at_high_snr():
    # Post-processing SNR of ~13 dB; the median estimate over 1000 noisy
    # frames stays within 10% of the true RCS.
    cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
    params = OfdmParams.from_config(cfg)
    d1 = d2 = 150.0
    sigma = 10.0
    b = reflection_amplitude(cfg, sigma, d1, d2)
    tau = (d1 + d2) / C0
    nm = params.symbols * params.subcarriers
    snr = 20.0
    noise_var = nm * b * b / snr
    gen = np.random.default_rng(44)
    estimates = []
    for _ in range(1000):
        tx = synth_tx_frame(params, gen)
        refl = reflections_of((b, 1.0, tau, 0.0, float(gen.uniform(0, 2 * math.pi))))
        frame = remove_data(synth_rx_frame(tx, refl, params, noise_var, gen.standard_normal((2, 8, 16))), tx)
        estimates.append(estimate_rcs(matched_point_value(frame, tau, 0.0, params), cfg, d1, d2))
    assert np.median(estimates) == pytest.approx(sigma, rel=0.10)


@pytest.mark.parametrize("with_signal", [False, True])
def test_fast_noise_matches_frame_noise_in_distribution(with_signal):
    # The closed form's one complex Gaussian per cell against full noisy
    # frames: 5000 matched-point values a side, two-sample Kolmogorov-Smirnov.
    cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
    params = OfdmParams.from_config(cfg)
    tau = 1.2e-6
    refl = reflections_of((1.0, 1.0, tau, 0.0, 0.3), (0.7, 0.4 - 0.2j, tau * 1.001, 0.0, 2.1))
    if not with_signal:
        refl = reflections_of()
    noise_var = 128.0  # the same order as the signal's matched value N M |sum b chi e^{-j zeta}|^2, about 89
    draws = 5000
    gen_ref = np.random.default_rng(61)
    tx = synth_tx_frame(params, gen_ref)
    frames = remove_data(synth_rx_frame(tx, refl, params, noise_var, gen_ref.standard_normal((draws, 2, 8, 16))), tx)
    ref_values = matched_point_value(frames, tau, 0.0, params)
    coupling = matched_coupling(
        refl.amplitude, np.reshape(refl.gain, (-1, 1)), refl.delay_s, refl.doppler_hz, [tau], 0.0, params
    )
    fast_draws = np.random.default_rng(62).standard_normal((draws, 2, 1))
    fast_values = closed_form_peaks(coupling, refl.phase, params, noise_var, fast_draws)[:, 0]
    assert ref_values.shape == fast_values.shape == (draws,)
    assert ks_2samp(ref_values, fast_values).pvalue > 0.01
