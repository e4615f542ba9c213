import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import diric
from scipy.stats import ks_2samp

from uavsense import (
    ScenarioConfig,
    build_grid,
    aoa,
    build_tables,
    classify_cells,
    coherent_peaks,
    deploy_uavs,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    periodogram_grid,
    reflection_amplitude,
    remove_data,
    synth_rx_frame,
    steering_vector,
    synth_tx_frame,
)
from uavsense.config import RunOptions
from uavsense.engine import _phase_words
from uavsense.ofdm import Reflections, build_reflections, dirichlet_kernel, subcarrier_ramps

C0 = 299792458.0


def frame_config(N=8, M=16):
    """An N x M frame at the default subcarrier spacing, 3.125 MHz exactly for M a power of two."""
    return ScenarioConfig(symbols_per_frame=N, subcarriers=M, bandwidth_hz=M * 3.125e6)


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
    """Reflections under one weight vector, gain (1, R), from (amplitude, gain, delay_s, phase) rows."""
    amplitude, gain, delay_s, phase = [np.array(column) for column in zip(*rows)] if rows else [np.empty(0)] * 4
    return Reflections(amplitude, gain[None], delay_s, phase)


def rx_frames(tx, reflections, cfg, noise_variance=0.0, noise_draws=None):
    """synth_rx_frame under the reflections' own delay ramps."""
    ramps = subcarrier_ramps(reflections.delay_s, cfg)
    return synth_rx_frame(tx, reflections, ramps, cfg, noise_variance, noise_draws)


def matched_values(frames, delays, cfg):
    """matched_point_value of frames (n_p, N, M) at delays (n_p,) and cfg's Doppler, under their correlator ramps."""
    return matched_point_value(frames, subcarrier_ramps(np.asarray(delays), cfg, +1), cfg)


def phase_sum(coupling, zeta):
    """The coherent sums sum_r coupling[..., r, p] e^{-j zeta[..., r]} over the reflections, (..., cells)."""
    return (np.exp(-1j * np.asarray(zeta, dtype=float))[..., None, :] @ coupling)[..., 0, :]


def noise_scale(cfg, noise_variance):
    """coherent_peaks' noise deviation per part of a matched sum, sqrt(N M noise_variance / 2)."""
    return np.sqrt(cfg.symbols_per_frame * cfg.subcarriers * np.asarray(noise_variance) / 2.0)


def closed_form_rcs(cfg, reflections, matched_delay, d1, d2, noise_variance=0.0, rng=None):
    """RCS estimate of one cell through matched_coupling and coherent_peaks of its phase sum;
    noise, if any, is drawn from `rng` as standard_normal((2, 1))."""
    coupling = matched_coupling(
        reflections.amplitude,
        np.reshape(reflections.gain, (-1, 1)),
        reflections.delay_s,
        [matched_delay],
        cfg,
    )
    draws = None if rng is None else rng.standard_normal((2, 1))
    peak = coherent_peaks(phase_sum(coupling, reflections.phase), cfg, noise_scale(cfg, noise_variance), draws)[0]
    return estimate_rcs(peak, cfg, d1, d2)


def geometric_ramp_sum(x, length):
    """Brute-force sum of e^{-j 2 pi x l} over l."""
    return sum(cmath.exp(-2j * math.pi * x * l) for l in range(length))


class TestTxFrame:
    def test_unit_modulus(self, rng):
        frame = synth_tx_frame(frame_config(), rng)
        assert np.allclose(np.abs(frame), 1.0)

    def test_deterministic_per_seed(self):
        cfg = frame_config()
        f1 = synth_tx_frame(cfg, np.random.default_rng(5))
        f2 = synth_tx_frame(cfg, np.random.default_rng(5))
        assert np.array_equal(f1, f2)

    def test_default_frame_size(self, rng):
        cfg = ScenarioConfig()
        frame = synth_tx_frame(cfg, rng)
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
        positions = deploy_uavs(cfg, grid)
        sets = classify_cells(cfg, 0, grid, positions)
        tables = build_tables(cfg, RunOptions())
        rows = tables.pair_rows(0)
        weights = tables.pair_weights(rows)[list(tables.pair_rx[rows]).index(1)]  # (n_p, n^2) of listener 1
        return cfg, grid, positions, sets, weights

    @staticmethod
    def _phases(rng, count):
        return rng.uniform(0.0, 2.0 * math.pi, count)

    @staticmethod
    def _build(cfg, positions, sets, grid, weights, target, phases, tx=0, rx=1):
        """build_reflections for the stack of one listener rx, with weights (n_p, n^2) and phases (R,)."""
        listeners = np.array([rx])
        return build_reflections(
            cfg, tx, listeners, positions[tx], positions[listeners], sets, grid, weights[None], target, phases[None]
        )

    def test_component_count_without_target(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        refl = self._build(cfg, positions, sets, grid, weights[:1], None, self._phases(rng, len(sets.illuminated)))
        assert refl.phase.shape == refl.amplitude.shape == (1, len(sets.illuminated))

    def test_component_count_with_target(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        refl = self._build(
            cfg, positions, sets, grid, weights[:1], np.array([13.0, 11.0, 0.0]),
            self._phases(rng, len(sets.illuminated) + 1),
        )
        assert refl.phase.shape == refl.amplitude.shape == (1, len(sets.illuminated) + 1)
        assert refl.gain.shape == (1, 1, len(sets.illuminated) + 1)

    def test_phases_follow_reflection_order(self, rng):
        # Phases are taken as given, one per reflection: the ground cells in
        # illuminated order, then the target; any other count is an error.
        cfg, grid, positions, sets, weights = self._scene()
        target = np.array([13.0, 11.0, 0.0])
        phases = self._phases(rng, len(sets.illuminated) + 1)
        refl = self._build(cfg, positions, sets, grid, weights[:1], target, phases)
        assert np.array_equal(refl.phase, phases[None])
        for wrong in (phases[:-1], np.append(phases, 0.5)):
            with pytest.raises(ValueError, match="one phase each"):
                self._build(cfg, positions, sets, grid, weights[:1], target, wrong)

    def test_phases_reproducible_and_in_range(self):
        # The reference path gives each pair its row of the trial's phase
        # block; drawn twice, the reflections carry the same phases in [0, 2 pi).
        cfg, grid, positions, sets, weights = self._scene()
        tables = build_tables(cfg, RunOptions())
        p = np.flatnonzero((tables.pair_tx == 0) & (tables.pair_rx == 1))[0]
        block = lambda: _phase_words(cfg, tables, [7], np.random.Generator(np.random.Philox(0)))[0] * (2 * math.pi / 2**32)
        make = lambda: self._build(cfg, positions, sets, grid, weights[:1], None, block()[p, : len(sets.illuminated)])
        first, second = make(), make()
        assert np.all((0 <= first.phase) & (first.phase < 2 * math.pi))
        assert np.array_equal(first.phase, second.phase)

    def test_components_follow_scalar_geometry(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        target = np.array([13.0, 11.0, 0.0])
        refl = self._build(
            cfg, positions, sets, grid, weights[:1], target, self._phases(rng, len(sets.illuminated) + 1)
        )
        points = [grid.centers[a, b] for a, b in sets.illuminated] + [target]
        for r, point in enumerate(points):
            rcs = cfg.target_rcs_m2 if point is target else cfg.ground_rcs_m2
            d1, d2 = np.linalg.norm(point - positions[0]), np.linalg.norm(positions[1] - point)
            gain = weights[0].conj() @ steering_vector(aoa(positions[1], point), cfg.array_side)[0]
            assert refl.amplitude[0, r] == pytest.approx(reflection_amplitude(cfg, rcs, d1, d2), rel=1e-12)
            assert refl.gain[0, 0, r] == pytest.approx(gain, rel=1e-12)
            assert refl.delay_s[0, r] == pytest.approx((d1 + d2) / C0, rel=1e-12)

    def test_half_duplex_guard(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        with pytest.raises(ValueError, match="half-duplex"):
            self._build(cfg, positions, sets, grid, weights[:1], None, self._phases(rng, len(sets.illuminated)), tx=1)

    def test_weight_stack_gives_one_gain_row_per_vector(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        target = np.array([13.0, 11.0, 0.0])
        phases = self._phases(rng, len(sets.illuminated) + 1)
        build = lambda w: self._build(cfg, positions, sets, grid, w, target, phases)
        stacked = build(weights)
        assert stacked.gain.shape == (1, len(weights), len(sets.illuminated) + 1)
        for i, row in enumerate(stacked.gain[0]):
            alone = build(weights[i : i + 1])
            assert np.allclose(row, alone.gain[0, 0], rtol=1e-12, atol=0.0)
            for name in ("amplitude", "delay_s", "phase"):
                assert np.array_equal(getattr(stacked, name), getattr(alone, name))

    @pytest.mark.parametrize("with_target", [False, True])
    def test_listener_stack_rows_equal_single_builds(self, rng, with_target):
        # One build for every listener of transmitter 0 has a leading listener
        # axis; row i equals the build of the stack of listener i alone, bit for bit.
        cfg, grid, positions, sets, _ = self._scene()
        tables = build_tables(cfg, RunOptions())
        rows = tables.pair_rows(0)
        listeners = tables.pair_rx[rows]
        target = np.array([13.0, 11.0, 0.0]) if with_target else None
        count = len(sets.illuminated) + with_target
        phases = self._phases(rng, (len(listeners), count))
        weights = tables.pair_weights(rows)
        stacked = build_reflections(
            cfg, 0, listeners, positions[0], positions[listeners], sets, grid, weights, target, phases
        )
        assert stacked.amplitude.shape == stacked.delay_s.shape == stacked.phase.shape == (len(listeners), count)
        assert stacked.gain.shape == (len(listeners), len(tables.cell_sets[0].intended), count)
        for i in range(len(listeners)):
            one = listeners[i : i + 1]
            alone = build_reflections(
                cfg, 0, one, positions[0], positions[one], sets, grid, weights[i : i + 1], target, phases[i : i + 1]
            )
            for name in ("amplitude", "gain", "delay_s", "phase"):
                assert getattr(stacked, name)[i].tobytes() == getattr(alone, name)[0].tobytes()

    def test_listener_stack_guards(self, rng):
        cfg, grid, positions, sets, weights = self._scene()
        listeners = np.array([1, 2])
        stack = np.stack([weights, weights])
        with pytest.raises(ValueError, match="half-duplex"):
            build_reflections(
                cfg, 2, listeners, positions[2], positions[listeners], sets, grid, stack, None,
                self._phases(rng, (2, len(sets.illuminated))),
            )
        with pytest.raises(ValueError, match="one phase each"):
            build_reflections(
                cfg, 0, listeners, positions[0], positions[listeners], sets, grid, stack, None,
                self._phases(rng, len(sets.illuminated)),
            )


class TestRxFrame:
    def test_no_reflections_no_noise(self, rng):
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        assert np.all(rx_frames(tx, reflections_of(), cfg) == 0)

    def test_single_matched_reflection_scales_tx(self, rng):
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        refl = reflections_of((0.3, 1.0, 0.0, 0.0))
        frames = rx_frames(tx, refl, cfg)
        assert frames.shape == (1,) + tx.shape
        assert np.allclose(frames[0], 0.3 * tx)

    def test_quarter_cycle_subcarrier_ramp(self, rng):
        # tau*df = 0.25 puts the phase ramp e^{-j pi l / 2} across subcarriers.
        cfg = frame_config()
        tau = 0.25 / cfg.subcarrier_spacing_hz
        tx = synth_tx_frame(cfg, rng)
        refl = reflections_of((1.0, 1.0, tau, 0.0))
        processed = remove_data(rx_frames(tx, refl, cfg), tx)[0]
        l = np.arange(cfg.subcarriers)
        expected = np.exp(-1j * math.pi * l / 2)
        for k in range(cfg.symbols_per_frame):
            assert np.allclose(processed[k], expected)

    def test_noise_variance(self):
        cfg = frame_config(16, 64)
        tx = np.ones((16, 64), dtype=complex)
        rx = rx_frames(
            tx, reflections_of(), cfg, noise_variance=2.5,
            noise_draws=np.random.default_rng(3).standard_normal((1, 2, 16, 64)),
        )
        assert np.mean(np.abs(rx) ** 2) == pytest.approx(2.5, rel=0.1)


    def test_gain_stack_equals_one_frame_per_row(self, rng):
        # Frames of a gain stack, each with its own noise variance and draws,
        # equal one call per row as a stack of one; data removal and the
        # matched point follow.
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        amplitude = rng.uniform(0.5, 1.5, 5)
        gain = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        delay_s = rng.uniform(0.0, 2e-6, 5)
        cfg = replace(cfg, doppler_hz=rng.uniform(-3000.0, 3000.0))  # the frames' Doppler
        stacked = Reflections(amplitude, gain, delay_s, phase=rng.uniform(0.0, 2 * math.pi, 5))
        matched_cfg = replace(cfg, doppler_hz=1000.0)  # the matched point's Doppler
        noise_var = rng.uniform(0.1, 1.0, 3)
        draws = rng.standard_normal((3, 2, 8, 16))
        delays = rng.uniform(0.0, 2e-6, 3)
        frames = remove_data(rx_frames(tx, stacked, cfg, noise_var, draws), tx)
        values = matched_values(frames, delays, matched_cfg)
        assert frames.shape == (3, 8, 16) and values.shape == (3,)
        for p in range(3):
            row = Reflections(stacked.amplitude, stacked.gain[p : p + 1], stacked.delay_s, stacked.phase)
            alone = remove_data(rx_frames(tx, row, cfg, noise_var[p : p + 1], draws[p : p + 1]), tx)
            assert np.allclose(frames[p], alone[0], rtol=1e-12, atol=0.0)
            assert values[p] == pytest.approx(matched_values(alone, delays[p : p + 1], matched_cfg)[0], rel=1e-12)

    def test_shared_doppler_equals_explicit_rank_r_sum(self, rng):
        # Frames of a random gain stack under a shared nonzero Doppler against
        # the sum over reflections of each one's Doppler and delay ramps.
        cfg = frame_config()
        N, M = cfg.symbols_per_frame, cfg.subcarriers
        tx = synth_tx_frame(cfg, rng)
        for doppler in (1234.5, -2750.0):
            refl = Reflections(
                amplitude=rng.uniform(0.5, 1.5, 7),
                gain=rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7)),
                delay_s=rng.uniform(0.0, 2e-6, 7),
                phase=rng.uniform(0.0, 2 * math.pi, 7),
            )
            k, l = np.arange(N)[:, None], np.arange(M)[None, :]
            expected = np.zeros((3, N, M), dtype=complex)
            for r in range(7):
                ramp = np.exp(2j * math.pi * doppler * cfg.symbol_duration_s * k) * np.exp(
                    -2j * math.pi * refl.delay_s[r] * cfg.subcarrier_spacing_hz * l
                )
                for p in range(3):
                    expected[p] += refl.amplitude[r] * refl.gain[p, r] * np.exp(-1j * refl.phase[r]) * ramp * tx
            assert np.allclose(rx_frames(tx, refl, replace(cfg, doppler_hz=doppler)), expected, rtol=1e-12, atol=0.0)

    def test_noise_requires_draws(self, rng):
        cfg = frame_config()
        with pytest.raises(ValueError, match="draws"):
            rx_frames(synth_tx_frame(cfg, rng), reflections_of(), cfg, noise_variance=1.0)


class TestRemoveData:
    def test_identity(self, rng):
        tx = synth_tx_frame(frame_config(), rng)
        assert np.allclose(remove_data(tx, tx), 1.0)

    def test_data_independence(self, rng):
        cfg = frame_config()
        refl = reflections_of((1.0, 0.8 - 0.1j, 1e-7, 0.4))
        frames = []
        for seed in (1, 2):
            tx = synth_tx_frame(cfg, np.random.default_rng(seed))
            frames.append(remove_data(rx_frames(tx, refl, cfg), tx))
        assert np.allclose(frames[0], frames[1], rtol=1e-12)

    def test_linearity(self, rng):
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        rx1 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        rx2 = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        assert np.allclose(remove_data(rx1 + rx2, tx), remove_data(rx1, tx) + remove_data(rx2, tx))

    def test_equals_division_on_any_nonzero_data(self, rng):
        # Multiplying by the reciprocal of the data is the quotient to rounding, for data of any modulus.
        tx = (rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))) * 10.0 ** rng.uniform(-3, 3, (8, 16))
        rx = rng.standard_normal((5, 8, 16)) + 1j * rng.standard_normal((5, 8, 16))
        np.testing.assert_allclose(remove_data(rx, tx), rx / tx, rtol=1e-15, atol=0.0)

    def test_leaves_its_inputs_unchanged(self, rng):
        tx = synth_tx_frame(frame_config(), rng)
        rx = rng.standard_normal((3, 8, 16)) + 1j * rng.standard_normal((3, 8, 16))
        rx_before, tx_before = rx.copy(), tx.copy()
        processed = remove_data(rx, tx)
        assert np.array_equal(rx, rx_before) and np.array_equal(tx, tx_before)
        assert not np.shares_memory(processed, rx)

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
        cfg = frame_config()
        for n_hat, m_hat in [(0, 0), (3, 5), (15, 1), (9, 31)]:
            doppler = n_hat / (16 * cfg.symbol_duration_s)
            delay = m_hat / (32 * cfg.subcarrier_spacing_hz)
            tx = synth_tx_frame(cfg, rng)
            refl = reflections_of((1.0, 1.0, delay, 0.9))
            P = periodogram_grid(remove_data(rx_frames(tx, refl, replace(cfg, doppler_hz=doppler)), tx)[0], 16, 32)
            assert np.unravel_index(np.argmax(P), P.shape) == (n_hat, m_hat)

    def test_rejects_short_padding(self):
        with pytest.raises(ValueError):
            periodogram_grid(np.ones((8, 8)), 4, 8)


class TestMatchedPoint:
    def test_coherent_gain(self, rng):
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        amp = 2.5e-7
        tau = 1.3e-6
        refl = reflections_of((amp, 1.0, tau, 1.1))
        (value,) = matched_values(remove_data(rx_frames(tx, refl, cfg), tx), [tau], cfg)
        assert value == pytest.approx(cfg.symbols_per_frame * cfg.subcarriers * amp**2, rel=1e-9)

    def test_delay_offset_follows_ramp_sum(self, rng):
        cfg = frame_config()
        tx = synth_tx_frame(cfg, rng)
        amp, tau = 1.0, 8e-7
        offset = 0.37 / cfg.subcarrier_spacing_hz
        refl = reflections_of((amp, 1.0, tau, 0.0))
        (value,) = matched_values(remove_data(rx_frames(tx, refl, cfg), tx), [tau + offset], cfg)
        M, N = cfg.subcarriers, cfg.symbols_per_frame
        ramp = geometric_ramp_sum(-offset * cfg.subcarrier_spacing_hz, M)
        expected = N * amp**2 * abs(ramp) ** 2 / M
        assert value == pytest.approx(expected, rel=1e-9)

    def test_zero_frame(self):
        cfg = frame_config()
        assert matched_values(np.zeros((1, 8, 16)), [1e-6], cfg).tolist() == [0.0]

    def test_frame_shape_must_match_the_config(self):
        # The subcarrier ramps come from the config, so a frame of another
        # shape is refused, as synth_rx_frame refuses one.
        with pytest.raises(ValueError, match="frame shape"):
            matched_values(np.zeros((1, 8, 8)), [1e-6], frame_config())

    def test_equals_grid_at_integer_bins(self, rng):
        cfg = frame_config()
        frame = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        P = periodogram_grid(frame, 8, 16)
        for n_hat, m_hat in [(0, 0), (2, 7), (5, 15)]:
            (value,) = matched_values(
                frame[None],
                [m_hat / (16 * cfg.subcarrier_spacing_hz)],
                replace(cfg, doppler_hz=n_hat / (8 * cfg.symbol_duration_s)),
            )
            assert value == pytest.approx(P[n_hat, m_hat], rel=1e-9)


class TestEstimateRcs:
    def test_roundtrip(self, rng):
        cfg = ScenarioConfig()
        tx = synth_tx_frame(cfg, rng)
        d1, d2 = 180.0, 230.0
        b = reflection_amplitude(cfg, 10.0, d1, d2)
        tau = (d1 + d2) / C0
        refl = reflections_of((b, 1.0, tau, 0.0))
        (peak,) = matched_values(remove_data(rx_frames(tx, refl, cfg), tx), [tau], cfg)
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

    @pytest.mark.parametrize("length", [4, 8, 16, 64])
    def test_equals_scipy_diric(self, rng, length):
        # scipy.special.diric is the oracle, bit for bit: random arguments,
        # integers (the limit branch), points within 1e-9 of them, and -0.0.
        x = np.concatenate(
            [
                rng.uniform(-3.0, 3.0, 1978),
                np.arange(-4.0, 5.0),
                np.arange(-4.0, 5.0) + rng.uniform(-1e-9, 1e-9, 9),
                [-0.0, 1e-300, 0.5, -2.5],
            ]
        ).reshape(-1, 25)
        expected = length * diric(2.0 * math.pi * x, length) * np.exp(-1j * math.pi * x * (length - 1))
        assert dirichlet_kernel(x, length).tobytes() == expected.tobytes()
        assert dirichlet_kernel(float(x[0, 0]), length) == expected[0, 0]


    @pytest.mark.parametrize("symbols", [1, 8, 16])
    def test_folded_symbol_kernel_keeps_power_bytes(self, rng, symbols):
        # Every reflection shares the matched Doppler, so the symbol-axis
        # kernel is D_N(0) = N; the folded product has the same |.|^2 bytes.
        x = np.concatenate([rng.uniform(-3.0, 3.0, 1000), np.arange(-3.0, 4.0), [-0.0, 1e-9, 0.5]])
        for subcarriers in (16, 25, 64):
            folded = symbols * dirichlet_kernel(x, subcarriers)
            product = dirichlet_kernel(0.0, symbols) * dirichlet_kernel(x, subcarriers)
            assert (np.abs(folded) ** 2).tobytes() == (np.abs(product) ** 2).tobytes()


class TestFastCellEstimate:
    def _reference(self, cfg, reflections, tau, rng_tx):
        tx = synth_tx_frame(cfg, rng_tx)
        frame = remove_data(rx_frames(tx, reflections, cfg), tx)
        return matched_values(frame, [tau], cfg)[0]

    def test_noiseless_equivalence(self, rng):
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        d1, d2 = 120.0, 140.0
        tau = (d1 + d2) / C0
        reflections = reflections_of(
            *[
                (
                    float(rng.uniform(1e-8, 1e-6)),
                    complex(rng.standard_normal(), rng.standard_normal()),
                    tau + float(rng.uniform(-2e-8, 2e-8)),
                    float(rng.uniform(0, 2 * math.pi)),
                )
                for _ in range(17)
            ]
        )
        peak = self._reference(cfg, reflections, tau, np.random.default_rng(0))
        expected = estimate_rcs(peak, cfg, d1, d2)
        got = closed_form_rcs(cfg, reflections, tau, d1, d2)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_matched_kernel_is_frame_size(self):
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        tau = 2e-6
        refl = reflections_of((1.0, 1.0, tau, 0.0))
        got = closed_form_rcs(cfg, refl, tau, 100.0, 100.0)
        # K = N M at zero mismatch, so the peak is N M and sigma follows Eq.-style inversion
        assert got == pytest.approx(estimate_rcs(8 * 16, cfg, 100.0, 100.0), rel=1e-12)

    def test_shared_doppler_equivalence(self):
        # The closed form folds the symbol-axis sum to N; frames with the
        # scenario's nonzero Doppler ramps, matched at that Doppler, agree.
        for doppler in (4000.0, -2500.0):
            cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16, doppler_hz=doppler)
            tau = 1e-6
            reflections = reflections_of((1e-7, 1.0, tau, 0.2), (3e-7, 0.5 + 0.5j, tau * 1.02, 1.5))
            peak = self._reference(cfg, reflections, tau, np.random.default_rng(1))
            got = closed_form_rcs(cfg, reflections, tau, 100.0, 100.0)
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
            closed_form_rcs(cfg, empty, 0.0, 100.0, 100.0, noise_variance=noise_var, rng=rng) / scale
            for _ in range(10_000)
        ]
        assert np.mean(values) == pytest.approx(noise_var, rel=0.05)

    def test_cells_share_phases_and_draw_noise_per_cell(self):
        # Several cells at once equal one call per cell, noise included: the
        # (2, cells) draw gives cell p the pair (draws[0, p], draws[1, p]).
        cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
        coupling = np.array([[1.0 + 0.5j, 0.2j, -0.3], [0.4, 1.1 - 0.2j, 0.9j]])
        zeta = [0.3, 2.2]
        draws = np.random.default_rng(4).standard_normal((2, 3))
        together = coherent_peaks(phase_sum(coupling, zeta), cfg, noise_scale(cfg, 0.5), draws)
        for p in range(3):
            total = np.exp(-1j * np.array(zeta)) @ coupling[:, p] + math.sqrt(16 * 8 * 0.5 / 2) * (
                draws[0, p] + 1j * draws[1, p]
            )
            assert together[p] == pytest.approx(abs(total) ** 2 / (8 * 16), rel=1e-12)

    def test_listener_axis_equals_one_call_per_listener(self):
        # A leading axis over listeners, noise included, gives each row the
        # value of a call on that row alone, bit for bit.
        cfg = frame_config()
        rng = np.random.default_rng(9)
        coupling = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        zeta = rng.uniform(0.0, 2.0 * math.pi, (3, 5))
        noise_var = rng.uniform(0.1, 1.0, (3, 4))
        draws = rng.standard_normal((3, 2, 4))
        together = coherent_peaks(phase_sum(coupling, zeta), cfg, noise_scale(cfg, noise_var), draws)
        assert together.shape == (3, 4)
        for k in range(3):
            alone = coherent_peaks(phase_sum(coupling[k], zeta[k]), cfg, noise_scale(cfg, noise_var[k]), draws[k])
            assert np.array_equal(together[k], alone)

    def test_precomputed_noise_scale_equals_complex_noise(self):
        # The deviation sqrt(N M noise_variance / 2) adds the same noise,
        # byte for byte, as one complex sum.
        cfg = frame_config()
        rng = np.random.default_rng(31)
        total = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        noise_var = rng.uniform(0.1, 1.0, (3, 4))
        draws = rng.standard_normal((3, 2, 4))
        nm = cfg.symbols_per_frame * cfg.subcarriers
        scale = np.sqrt(nm * noise_var / 2.0)
        complex_form = np.abs(total + scale * (draws[:, 0] + 1j * draws[:, 1])) ** 2 / nm
        assert coherent_peaks(total, cfg, scale, draws).tobytes() == complex_form.tobytes()

    def test_batched_coupling_equals_one_call_per_batch(self):
        # Leading batch axes on every per-reflection and per-cell argument
        # give each batch row the value of a call on that row alone, bit for bit.
        cfg = frame_config()
        rng = np.random.default_rng(17)
        amplitude = rng.uniform(1e-8, 1e-6, (3, 5))
        gain = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
        delay = rng.uniform(1e-6, 2e-6, (3, 5))
        matched_delay = rng.uniform(1e-6, 2e-6, (3, 4))
        together = matched_coupling(amplitude, gain, delay, matched_delay[:, None], cfg)
        alone = [matched_coupling(amplitude[k], gain[k], delay[k], matched_delay[k], cfg) for k in range(3)]
        assert together.shape == (3, 5, 4)
        assert together.tobytes() == np.stack(alone).tobytes()


def test_noise_only_reference_mean(rng):
    # Reference-path version of the noise immunity check on a small frame.
    cfg = frame_config(4, 4)
    tx = synth_tx_frame(cfg, rng)
    noise_var = 0.8
    gen = np.random.default_rng(5)
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        rx = rx_frames(tx, reflections_of(), cfg, noise_var, gen.standard_normal((1, 2, 4, 4)))
        frame = remove_data(rx, tx)
        total += matched_values(frame, [3e-7], cfg)[0]
    assert total / draws == pytest.approx(noise_var, rel=0.05)


def test_rcs_estimator_median_near_truth_at_high_snr():
    # Post-processing SNR of ~13 dB; the median estimate over 1000 noisy
    # frames stays within 10% of the true RCS.
    cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
    d1 = d2 = 150.0
    sigma = 10.0
    b = reflection_amplitude(cfg, sigma, d1, d2)
    tau = (d1 + d2) / C0
    nm = cfg.symbols_per_frame * cfg.subcarriers
    snr = 20.0
    noise_var = nm * b * b / snr
    gen = np.random.default_rng(44)
    estimates = []
    for _ in range(1000):
        tx = synth_tx_frame(cfg, gen)
        refl = reflections_of((b, 1.0, tau, float(gen.uniform(0, 2 * math.pi))))
        frame = remove_data(rx_frames(tx, refl, cfg, noise_var, gen.standard_normal((1, 2, 8, 16))), tx)
        estimates.append(estimate_rcs(matched_values(frame, [tau], cfg)[0], cfg, d1, d2))
    assert np.median(estimates) == pytest.approx(sigma, rel=0.10)


@pytest.mark.parametrize("with_signal", [False, True])
def test_fast_noise_matches_frame_noise_in_distribution(with_signal):
    # The closed form's one complex Gaussian per cell against full noisy
    # frames: 5000 matched-point values a side, two-sample Kolmogorov-Smirnov.
    cfg = ScenarioConfig(symbols_per_frame=8, subcarriers=16)
    tau = 1.2e-6
    refl = reflections_of((1.0, 1.0, tau, 0.3), (0.7, 0.4 - 0.2j, tau * 1.001, 2.1))
    if not with_signal:
        refl = reflections_of()
    noise_var = 128.0  # the same order as the signal's matched value N M |sum b chi e^{-j zeta}|^2, about 89
    draws = 5000
    gen_ref = np.random.default_rng(61)
    tx = synth_tx_frame(cfg, gen_ref)
    # One gain row per draw: the same frame under 5000 noise draws.
    copies = Reflections(refl.amplitude, np.repeat(refl.gain, draws, axis=0), refl.delay_s, refl.phase)
    frames = remove_data(rx_frames(tx, copies, cfg, noise_var, gen_ref.standard_normal((draws, 2, 8, 16))), tx)
    ref_values = matched_values(frames, np.full(draws, tau), cfg)
    coupling = matched_coupling(refl.amplitude, np.reshape(refl.gain, (-1, 1)), refl.delay_s, [tau], cfg)
    fast_draws = np.random.default_rng(62).standard_normal((draws, 2, 1))
    fast_values = coherent_peaks(phase_sum(coupling, refl.phase), cfg, noise_scale(cfg, noise_var), fast_draws)[:, 0]
    assert ref_values.shape == fast_values.shape == (draws,)
    assert ks_2samp(ref_values, fast_values).pvalue > 0.01
