"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria use
fixed master seeds, so every assertion here is reproducible bit for bit.
"""

import math
import time
from dataclasses import replace

import numpy as np

from uavsense import (
    AoA,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
    aoa_mesh,
    build_tables,
    capon_beamformer,
    coherent_peaks,
    derive_altitude,
    estimate_rcs,
    ls_beamformer,
    matched_coupling,
    matched_point_value,
    periodogram_grid,
    reflection_amplitude,
    remove_data,
    run_monte_carlo,
    run_monte_carlo_all_fusions,
    run_trial,
    steering_matrix,
    steering_vector,
    subcarrier_ramps,
    sweep,
    synth_rx_frame,
    synth_tx_frame,
)
from uavsense.cli import main
from uavsense.config import SPEED_OF_LIGHT
from uavsense.ofdm import Reflections


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_rcs_roundtrip():
    """Noiseless single reflection with unit beam gain recovers sigma = 10 m^2."""
    start = time.perf_counter()
    cfg = ScenarioConfig()
    tx = synth_tx_frame(cfg, np.random.default_rng(1))
    d1, d2 = 170.0, 210.0
    b = reflection_amplitude(cfg, cfg.target_rcs_m2, d1, d2)
    tau = (d1 + d2) / SPEED_OF_LIGHT
    refl = Reflections(
        amplitude=np.array([b]),
        gain=np.array([[1.0 + 0j]]),
        delay_s=np.array([tau]),
        phase=np.array([0.0]),
    )
    frame = remove_data(synth_rx_frame(tx, refl, subcarrier_ramps(refl.delay_s, cfg), cfg), tx)
    peak = matched_point_value(frame, subcarrier_ramps(np.array([tau]), cfg, +1), cfg)
    sigma = float(estimate_rcs(peak, cfg, d1, d2)[0])
    elapsed = time.perf_counter() - start
    rel = abs(sigma - 10.0) / 10.0
    _report(
        "criterion 1 (RCS roundtrip)",
        rel < 1e-6 and elapsed < 1.0,
        f"sigma={sigma:.9f} m^2, rel err={rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_periodogram_oracle():
    """Fast periodogram matches the direct double sum; peaks land on exact bins."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    N, M, NP, MP = 8, 8, 16, 16
    # Direct kernel-sum oracle, built from explicit DFT matrices, no FFT.
    k = np.arange(N)
    sym_kernel = np.exp(-2j * np.pi * np.outer(np.arange(NP), k) / NP)  # (NP, N)
    sub_kernel = np.exp(2j * np.pi * np.outer(k, np.arange(MP)) / MP)  # (M, MP)
    worst = 0.0
    for _ in range(100):
        frame = rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M))
        direct = np.abs(sym_kernel @ frame @ sub_kernel) ** 2 / (N * M)
        fast = periodogram_grid(frame, NP, MP)
        worst = max(worst, float(np.max(np.abs(fast - direct) / np.maximum(direct, 1e-300))))
    ok_equiv = worst < 1e-9

    cfg = ScenarioConfig(symbols_per_frame=N, subcarriers=M, bandwidth_hz=M * 3.125e6)
    ok_argmax = True
    for n_hat, m_hat in [(0, 0), (1, 3), (5, 9), (12, 15), (15, 1)]:
        doppler = n_hat / (NP * cfg.symbol_duration_s)
        delay = m_hat / (MP * cfg.subcarrier_spacing_hz)
        tx = synth_tx_frame(cfg, rng)
        refl = Reflections(np.array([1.0]), np.array([[1.0]]), np.array([delay]), np.array([0.7]))
        at_doppler = replace(cfg, doppler_hz=doppler)
        frame = remove_data(synth_rx_frame(tx, refl, subcarrier_ramps(refl.delay_s, cfg), at_doppler), tx)[0]
        grid = periodogram_grid(frame, NP, MP)
        ok_argmax &= np.unravel_index(np.argmax(grid), grid.shape) == (n_hat, m_hat)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (periodogram oracle)",
        ok_equiv and ok_argmax and elapsed < 10.0,
        f"max rel dev={worst:.2e}, argmax exact={ok_argmax}, {elapsed:.1f}s",
    )


def test_criterion_3_beamformer_contracts():
    """Capon distortionless to 1e-12; LS unit-norm and no worse than the baseline."""
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 8
    worst_gain = 0.0
    worst_norm = 0.0
    ls_beats_baseline = True
    for _ in range(1000):
        d = AoA(theta=rng.uniform(0.0, math.pi / 2 * 0.999, 1), phi=rng.uniform(0.0, 2 * math.pi, 1))
        g = steering_vector(d, n)[0]
        w_capon = capon_beamformer(d, n)[0]
        worst_gain = max(worst_gain, abs(w_capon.conj() @ g - 1.0))
        mesh = aoa_mesh(d, n)
        w_ls = ls_beamformer(mesh, n)[0]
        worst_norm = max(worst_norm, abs(np.linalg.norm(w_ls) - 1.0))
        A = steering_matrix(mesh, n).conj().T
        desired = np.zeros(A.shape[0])
        desired[0] = 1.0
        res_ls = np.sum(np.abs(A @ w_ls - desired) ** 2)
        res_base = np.sum(np.abs(A @ (g / np.linalg.norm(g)) - desired) ** 2)
        ls_beats_baseline &= bool(res_ls <= res_base)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (beamformer contracts)",
        worst_gain < 1e-12 and worst_norm < 1e-9 and ls_beats_baseline and elapsed < 30.0,
        f"|wHg-1|max={worst_gain:.2e}, |norm-1|max={worst_norm:.2e}, "
        f"ls<=baseline={ls_beats_baseline}, {elapsed:.1f}s",
    )


def test_criterion_4_fast_reference_equivalence():
    """Identical noiseless fused maps; noisy matched-point means within 3%."""
    cfg = ScenarioConfig(master_seed=404)
    fast_tables = build_tables(cfg, RunOptions(noise=False, fast_path=True))
    ref_tables = build_tables(cfg, RunOptions(noise=False, fast_path=False))
    a = run_trial(cfg, 0, tables=fast_tables, collect_maps=True)
    b = run_trial(cfg, 0, tables=ref_tables, collect_maps=True)
    worst = 0.0
    for method in ("avg", "prenorm"):
        va = a.fused_maps[method]
        vb = b.fused_maps[method]
        finite = np.isfinite(va)
        assert np.array_equal(finite, np.isfinite(vb))
        worst = max(worst, float(np.max(np.abs(va[finite] - vb[finite]) / np.abs(vb[finite]))))
    ok_maps = worst < 1e-9

    # Noisy matched-point distributions, 10 000 draws per path.
    d1, d2 = 170.0, 210.0
    tau = (d1 + d2) / SPEED_OF_LIGHT
    b_amp = reflection_amplitude(cfg, 1e-3, d1, d2)
    reflections = Reflections(
        amplitude=np.array([b_amp, 0.7 * b_amp]),
        gain=np.array([[1.0, 0.4 - 0.2j]]),
        delay_s=np.array([tau, tau * 1.001]),
        phase=np.array([0.3, 2.1]),
    )
    nm = cfg.symbols_per_frame * cfg.subcarriers
    coherent = np.sum(reflections.amplitude * reflections.gain * np.exp(-1j * reflections.phase))  # rough scale only
    noise_var = nm * abs(coherent) ** 2  # noise comparable to the signal term
    draws = 10_000
    gen_ref = np.random.default_rng(17)
    tx = synth_tx_frame(cfg, gen_ref)
    ramps = subcarrier_ramps(reflections.delay_s, cfg)
    matched_ramps = subcarrier_ramps(np.array([tau]), cfg, +1)
    ref_values = np.empty(draws)
    for i in range(draws):
        draws_ref = gen_ref.standard_normal((1, 2, cfg.symbols_per_frame, cfg.subcarriers))
        frame = remove_data(synth_rx_frame(tx, reflections, ramps, cfg, noise_var, draws_ref), tx)
        ref_values[i] = matched_point_value(frame, matched_ramps, cfg)[0]
    gen_fast = np.random.default_rng(18)
    coupling = matched_coupling(
        reflections.amplitude,
        reflections.gain.reshape(-1, 1),
        reflections.delay_s,
        [tau],
        cfg,
    )
    # The pipeline's kernel: the phase sum over the reflections, then coherent_peaks.
    total = (np.exp(-1j * reflections.phase)[None, :] @ coupling)[0, :]
    noise_scale = np.sqrt(nm * np.asarray(noise_var) / 2.0)
    fast_values = np.array(
        [coherent_peaks(total, cfg, noise_scale, gen_fast.standard_normal((2, 1)))[0] for _ in range(draws)]
    )
    rel_mean = abs(ref_values.mean() - fast_values.mean()) / ref_values.mean()
    ok_noise = rel_mean < 0.03
    _report(
        "criterion 4 (fast/reference equivalence)",
        ok_maps and ok_noise,
        f"noiseless max rel={worst:.2e}, noisy mean rel diff={rel_mean:.3%}",
    )


def test_criterion_5_detection_at_defaults():
    """At common defaults, 1000 trials: P_d(1) >= 0.95 and P_d(2) >= P_d(1)."""
    start = time.perf_counter()
    cfg = ScenarioConfig(trials=1000, master_seed=5)
    stats = run_monte_carlo(cfg, RunOptions(beamformer="capon", fusion="avg"))
    p1 = stats.p_detect(1)
    p2 = stats.p_detect(2)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (detection at defaults)",
        p1 >= 0.95 and p2 >= p1 and elapsed < 600.0,
        f"P_d(0)={stats.p_detect(0):.3f}, P_d(1)={p1:.3f}, P_d(2)={p2:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_cell_size_interior_maximum():
    """Constant-coverage d-sweep has an interior maximum.

    The curve's argmax lies strictly inside the swept range, and d = 2 m beats
    both endpoints by more than the 95% half-widths. The maximum itself sits
    at d = 4 m with this seed. Checked at -10 dBsm ground RCS, where clutter
    makes the low-d ambiguity visible; at the -30 dBsm default the low-d side
    of the curve saturates flat and the maximum is not resolvable from the
    endpoints.
    """
    start = time.perf_counter()
    cfg = ScenarioConfig(trials=500, master_seed=6)
    spec = SweepSpec(
        parameter="cell_size_constant_coverage",
        values=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
        beamformers=("capon",),
        fusions=("avg",),
        sigma_g_dbsm=(-10.0,),
        deltas=(0,),
    )
    rows, errors = sweep(spec, cfg)
    assert not errors
    by_d = {r.sweep_value: r for r in rows}
    peak = by_d[2.0]
    low, high = by_d[0.5], by_d[16.0]
    strict = peak.p_detect > low.p_detect and peak.p_detect > high.p_detect
    separated = (
        peak.p_detect - peak.ci95_halfwidth > low.p_detect + low.ci95_halfwidth
        and peak.p_detect - peak.ci95_halfwidth > high.p_detect + high.ci95_halfwidth
    )
    argmax = int(np.argmax([by_d[v].p_detect for v in spec.values]))
    interior = 0 < argmax < len(spec.values) - 1
    elapsed = time.perf_counter() - start
    curve = ", ".join(f"d={v:g}: {by_d[v].p_detect:.3f}" for v in spec.values)
    _report(
        "criterion 6 (interior maximum over cell size)",
        strict and separated and interior,
        f"{curve}, argmax d={spec.values[argmax]:g}  ({elapsed:.0f}s)",
    )


def test_criterion_7_ground_rcs_monotonicity():
    """P_d falls as the ground RCS rises: -30 >= -10 >= 0 dBsm (0.02 slack)."""
    start = time.perf_counter()
    base = ScenarioConfig(trials=500, master_seed=7)
    options = RunOptions(beamformer="capon", fusion="avg")
    tables = build_tables(base, options)
    p = {}
    for dbsm in (-30.0, -10.0, 0.0):
        cfg = replace(base, ground_rcs_m2=10.0 ** (dbsm / 10.0))
        p[dbsm] = run_monte_carlo(cfg, options, tables=tables).p_detect(0)
    elapsed = time.perf_counter() - start
    ok = p[-30.0] >= p[-10.0] >= p[0.0] - 0.02
    _report(
        "criterion 7 (ground RCS monotonicity)",
        ok,
        f"P_d(-30)={p[-30.0]:.3f} >= P_d(-10)={p[-10.0]:.3f} >= P_d(0)-0.02={p[0.0] - 0.02:.3f}  ({elapsed:.0f}s)",
    )


def test_criterion_8_altitude_regimes():
    """Delta=0 detection steps up across the 1x1 -> 3x3 -> 5x5 coverage regimes."""
    start = time.perf_counter()
    base = ScenarioConfig(trials=300, master_seed=8)
    spec = SweepSpec(
        parameter="altitude",
        values=(40.0, 70.0, 100.0, 130.0, 165.0, 200.0),
        beamformers=("capon",),
        fusions=("avg",),
        sigma_g_dbsm=(-30.0,),
        deltas=(0,),
    )
    rows, errors = sweep(spec, base)
    assert not errors
    h3 = derive_altitude(base, 3)
    h5 = derive_altitude(base, 5)
    regimes = {1: [], 3: [], 5: []}
    for r in rows:
        coverage = 1 if r.sweep_value < h3 else (3 if r.sweep_value < h5 else 5)
        regimes[coverage].append(r.p_detect)
    means = {c: float(np.mean(v)) for c, v in regimes.items()}
    ok = means[1] < means[3] < means[5]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 8 (altitude coverage regimes)",
        ok,
        f"mean P_d(0): 1x1={means[1]:.3f} < 3x3={means[3]:.3f} < 5x5={means[5]:.3f}  ({elapsed:.0f}s)",
    )


def test_criterion_9_determinism(tmp_path):
    """Same seed, byte-identical CSV; parallel and serial agree bit for bit."""
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(
        "scenario.uav_count = 4\nscenario.grid_side = 8\nscenario.area_side_m = 40.0\n"
        "scenario.array_side = 4\nscenario.symbols_per_frame = 8\nscenario.subcarriers = 16\n"
        "run.trials = 20\nrun.master_seed = 909\n"
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out2)]) == 0
    ok_bytes = out1.read_bytes() == out2.read_bytes()

    cfg = ScenarioConfig(
        uav_count=4, grid_side=8, area_side_m=40.0, array_side=4,
        symbols_per_frame=8, subcarriers=16, trials=20, master_seed=909,
    )
    serial = run_monte_carlo_all_fusions(cfg, RunOptions(), workers=1)
    parallel = run_monte_carlo_all_fusions(cfg, RunOptions(), workers=4)
    ok_parallel = serial == parallel
    _report(
        "criterion 9 (determinism)",
        ok_bytes and ok_parallel,
        f"csv byte-identical={ok_bytes}, parallel==serial={ok_parallel}",
    )
