import math
from dataclasses import replace
from types import SimpleNamespace

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
from uavsense.beamforming import aoa_mesh, capon_beamformer, ls_beamformer, steering_matrix, steering_vector
from uavsense.config import SPEED_OF_LIGHT
from uavsense.geometry import AoA, aoa
from uavsense.ofdm import (
    build_reflections,
    closed_form_peaks,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    reflection_amplitude,
    remove_data,
    synth_rx_frame,
    synth_tx_frame,
)
from uavsense.engine import (
    _config_for_sweep_point,
    _phase_block,
    substream,
)

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def ls_orbit(rx_position, point) -> tuple[AoA, bool, bool, bool]:
    """The canonical direction of a (listener, cell) row's LS symmetry orbit, designed at
    (max(|dx|, |dy|), min(|dx|, |dy|), dz), and the image the row takes of its design:
    (direction, swap, flip, mirror). The mirror (-dx, -dy) is taken out first, for offsets
    with dy < 0, or dy = 0 and dx < 0; flip is dx < 0 after it and swap is |dy| > |dx|."""
    dx, dy, dz = point - rx_position
    mirror = bool(dy < 0 or (dy == 0 and dx < 0))
    flip = bool(dx > 0 if mirror else dx < 0)
    swap = bool(abs(dy) > abs(dx))
    canonical = np.array([max(abs(dx), abs(dy)), min(abs(dx), abs(dy)), dz])
    return aoa(np.zeros(3), canonical), swap, flip, mirror


def ls_image(design, direction: AoA, n, swap, flip, mirror) -> np.ndarray:
    """The orbit image of `direction`'s design: transposed (dx and dy swapped), then reversed
    along j and multiplied by y0^-(n-1) (dx negated; y0 the dx step of mesh point 0 before the
    flip, x0 of the canonical direction when swapped), then conjugated (dx and dy negated)."""
    w = design.reshape(n, n)
    ramp = steering_vector(direction, n).reshape(n, n)  # entry (i, j) = x0^i y0^j
    if swap:
        w = w.T
    if flip:
        w = w[:, ::-1] * (ramp[n - 1, 0] if swap else ramp[0, n - 1]).conjugate()
    return (w.conj() if mirror else w).ravel()


def ls_row(rx_position, point, n, designs: dict) -> np.ndarray:
    """The LS weights of a row, from `designs` (canonical direction bits -> design), filled as needed."""
    d, swap, flip, mirror = ls_orbit(rx_position, point)
    key = np.array([d.theta, d.phi]).tobytes()
    if key not in designs:
        designs[key] = ls_beamformer(aoa_mesh(d, n), n)
    return ls_image(designs[key], d, n, swap, flip, mirror)


def build_counting_ls_designs(config, monkeypatch):
    """LS tables of `config` and the number of directions the build designed, summed over its
    ls_beamformer calls (each call designs a block of meshes)."""
    designed = []

    def counting(mesh, n, original=engine.ls_beamformer):
        designed.append(len(np.atleast_2d(mesh.theta)))
        return original(mesh, n)

    monkeypatch.setattr(engine, "ls_beamformer", counting)
    return build_tables(config, RunOptions(beamformer="ls")), sum(designed)


def assert_ls_rows_are_orbit_images(tables) -> dict:
    """Check every LS row against ls_row, bit for bit, and against its own direction's direct
    design to 1e-12; returns the designs made (canonical direction bits -> design)."""
    n, designs, rows, own = tables.config.array_side, {}, [], []
    for record in tables.transmitters:
        for k, rx in enumerate(record.rx):
            for i, (a, b) in enumerate(record.cells):
                rx_position, point = tables.deployment.positions[rx], tables.grid.centers[a, b]
                rows.append(tables.weights[record.pairs][k, i])
                assert rows[-1].tobytes() == ls_row(rx_position, point, n, designs).tobytes()
                own.append(aoa(rx_position, point))
    direct = ls_beamformer(aoa_mesh(AoA(np.array([d.theta for d in own]), np.array([d.phi for d in own])), n), n)
    assert np.max(np.abs(np.array(rows) - direct)) < 1e-12
    return designs


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
    def test_stream_keys_are_exact_substream_keys(self, seed, high):
        # Keys reach Philox as uint64 arrays, so both words are exact in
        # every case, the mixed ones that a (k0, k1) tuple would round included.
        words = _path_words(seed, *KEY_PATH)
        assert tuple(w >= 2**63 for w in words) == high
        exact = np.array(words, dtype=np.uint64)
        stored = substream(seed, *KEY_PATH).bit_generator.state["state"]["key"]
        assert stored.dtype == np.uint64 and stored.tobytes() == exact.tobytes()

    def test_negative_and_large_ids_wrap_modulo_2_64(self):
        # Ids are hashed modulo 2**64, like the pure-Python reference.
        for path in [(-1, 2), (2**64 + 5, 2), (3, -7, 2**70)]:
            exact = np.array(_path_words(9, *path), dtype=np.uint64)
            assert np.array_equal(substream(9, *path).bit_generator.state["state"]["key"], exact)
        for path, wrapped in [
            ((-1, 2), (2**64 - 1, 2)),
            ((0, 2, np.int64(-1)), (0, 2, np.uint64(2**64 - 1))),
            ((0, 2, 1), (0, 2, 2**64 + 1)),
        ]:
            key = substream(9, *path).bit_generator.state["state"]["key"]
            assert np.array_equal(key, substream(9, *wrapped).bit_generator.state["state"]["key"])

    @pytest.mark.parametrize(
        "seed, path, words",
        [
            (1, (0, 1), (9934605676627802470, 11155857184462603671)),
            (1, (0, 2), (5594908997744746688, 10012574568995377123)),
            (1, (41, 3), (1644134355170041319, 12587422789371942336)),
            (20261018, (7, 3, 1, 2), (13780701382514623075, 15914456863338507332)),
            (1, (-1, 2), (11507570806017172186, 9793778634458827859)),
            (9, (3, -7, 2**70), (738225182488536869, 3707132990437215168)),
            (0, (2**63, 1, 2, 3, 4), (378921517669853985, 7460490745308192514)),
            (2**64 - 1, (2**64 - 1, 4, 15, 0), (10947269173204607921, 17289214871913209112)),
        ],
    )
    def test_pinned_key_words(self, seed, path, words):
        # Literal words of rng_scheme v2: any change to the path hash moves a
        # stream, and must come with a new RNG_SCHEME.
        assert substream(seed, *path).bit_generator.state["state"]["key"].tolist() == list(words)

    @pytest.mark.parametrize("count", [1, 4, 5, 38])
    def test_reused_generator_phases_equal_numpy_uniform(self, count):
        # One generator per trial is reused across all pairs: the phase block
        # is its uniform(0, 2 pi) stream laid out pair-major, count per pair.
        pairs, trial = 3, 2
        stub = SimpleNamespace(ground_coupling=np.empty((pairs, count - 1, 0)))
        for seed in KEY_CASES:
            block = _phase_block(SimpleNamespace(master_seed=seed), stub, trial)
            key = np.array(_path_words(seed, trial, engine._STREAM_PHASE), dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert block.shape == (pairs, count)
            assert np.array_equal(block.ravel(), fresh.uniform(0.0, 2.0 * math.pi, size=pairs * count))

class TestBuildTables:
    @pytest.mark.parametrize("beamformer", ["capon", "ls"])
    def test_each_distinct_direction_designed_once(self, small_config, monkeypatch, beamformer):
        # Designs are counted by directions, not calls: a call designs a stack
        # of directions. Capon designs each distinct direction once; LS designs
        # one direction per orbit of the square array's symmetries, and each
        # row is that design's image, bit for bit.
        if beamformer == "ls":
            tables, designed = build_counting_ls_designs(small_config, monkeypatch)
            designs = assert_ls_rows_are_orbit_images(tables)
            assert designed == len(designs) < tables.weights.shape[0] * tables.weights.shape[1]
            return
        calls = []

        def counting(intended, n, original=engine.capon_beamformer):
            calls.append(np.size(intended.theta))
            return original(intended, n)

        monkeypatch.setattr(engine, "capon_beamformer", counting)
        tables = build_tables(small_config, RunOptions(beamformer="capon"))
        n = small_config.array_side
        pairs, directions = 0, set()
        for record in tables.transmitters:
            for k, rx in enumerate(record.rx):
                for i, (a, b) in enumerate(record.cells):
                    d = aoa(tables.deployment.positions[rx], tables.grid.centers[a, b])
                    pairs += 1
                    directions.add(np.array([d.theta, d.phi]).tobytes())
                    assert tables.weights[record.pairs][k, i].tobytes() == capon_beamformer(d, n).tobytes()
        assert sum(calls) == len(directions) < pairs

    def test_ls_rows_on_a_non_dyadic_area(self, small_config, monkeypatch):
        # On an area whose cell centres are not dyadic, offsets related by a
        # symmetry need not map onto each other bit for bit; every row is still
        # its canonical direction's orbit image, within 1e-12 of its own
        # direction's design, and the rows share fewer designs.
        tables, designed = build_counting_ls_designs(replace(small_config, area_side_m=100.0 / 3.0), monkeypatch)
        designs = assert_ls_rows_are_orbit_images(tables)
        assert designed == len(designs) < tables.weights.shape[0] * tables.weights.shape[1]

    def test_ls_designs_across_mesh_blocks_equal_single_designs(self, monkeypatch):
        # build_tables designs the LS directions in blocks of meshes; every
        # weight is the orbit image of its canonical direction's single design,
        # bit for bit, in every block. The default geometry's 6000 rows hold
        # 1200 distinct directions, 600 up to the mirror and 165 up to the 8
        # symmetries of the square array.
        tables, designed = build_counting_ls_designs(ScenarioConfig(array_side=3), monkeypatch)
        designs = assert_ls_rows_are_orbit_images(tables)
        assert designed == len(designs) == 165 > 2 * engine._LS_BLOCK

    def test_mirrored_offsets_take_conjugate_weights(self):
        # The default deployment mirrors every (listener, cell) offset exactly,
        # dy = 0 among them, so each row with dy < 0, or dy = 0 and dx < 0, is
        # the conjugate of the row of its mirror (-dx, -dy, dz), bit for bit.
        tables = build_tables(ScenarioConfig(array_side=2), RunOptions(beamformer="ls"))
        rows = []
        for record in tables.transmitters:
            for k, rx in enumerate(record.rx):
                for i, (a, b) in enumerate(record.cells):
                    offset = tables.grid.centers[a, b] - tables.deployment.positions[rx]
                    rows.append((tuple(offset), tables.weights[record.pairs][k, i]))
        by_offset = dict(rows)  # -0.0 and 0.0 are one key
        mirrored = [(dx, dy, dz) for (dx, dy, dz), _ in rows if dy < 0 or (dy == 0 and dx < 0)]
        assert len(mirrored) == len(rows) // 2
        for dx, dy, dz in mirrored:
            assert by_offset[(dx, dy, dz)].tobytes() == by_offset[(-dx, -dy, dz)].conj().tobytes()

    @pytest.mark.parametrize("beamformer", ["capon", "ls"])
    def test_listener_rows_equal_per_listener_oracle(self, small_config, beamformer):
        # Each listener's row of each record, rebuilt from the public kernels
        # one listener at a time, equals the broadcast build bit for bit.
        config = small_config
        tables = build_tables(config, RunOptions(beamformer=beamformer))
        positions = tables.deployment.positions
        noise_w = config.noise_density_w_hz * config.bandwidth_hz
        for record in tables.transmitters:
            illuminated = tables.cell_sets[record.tx].illuminated
            q_points = tables.grid.centers[illuminated[:, 0], illuminated[:, 1]]
            p_points = tables.grid.centers[record.cells[:, 0], record.cells[:, 1]]
            d1_q = np.linalg.norm(q_points - positions[record.tx], axis=1)
            d1_p = np.linalg.norm(p_points - positions[record.tx], axis=1)
            for k, rx in enumerate(record.rx):
                d2_q = np.linalg.norm(positions[rx] - q_points, axis=1)
                d2_p = np.linalg.norm(positions[rx] - p_points, axis=1)
                tau_p = (d1_p + d2_p) / SPEED_OF_LIGHT
                p = record.pairs.start + k
                weights = tables.weights[p]
                chi = weights.conj() @ steering_matrix(aoa(positions[rx], q_points), config.array_side)
                coupling = matched_coupling(
                    reflection_amplitude(config, 1.0, d1_q, d2_q),
                    chi.T,
                    (d1_q + d2_q) / SPEED_OF_LIGHT,
                    tau_p,
                    config,
                )
                assert tables.matched_delay[p].tobytes() == tau_p.tobytes()
                assert tables.est_scale[p].tobytes() == estimate_rcs(1.0, config, d1_p, d2_p).tobytes()
                noise_var = noise_w * np.sum(np.abs(weights) ** 2, axis=1)
                assert tables.noise_var[p].tobytes() == noise_var.tobytes()
                ground = tables.ground_coupling[p]
                assert ground[: len(q_points)].tobytes() == coupling.tobytes()
                assert not np.any(ground[len(q_points) :])

    def test_pair_major_rows_follow_the_records(self, small_config):
        tables = build_tables(small_config, RunOptions())
        L = small_config.grid_side
        pairs = sum(len(record.rx) for record in tables.transmitters)
        assert tables.ground_coupling.shape[0] == pairs == len(tables.pair_tx) == len(tables.map_index)
        assert tables.ground_coupling.shape[1] == max(len(s.illuminated) for s in tables.cell_sets)
        assert [record.pairs.start for record in tables.transmitters[1:]] == [
            record.pairs.stop for record in tables.transmitters[:-1]
        ]
        for record in tables.transmitters:
            assert np.all(tables.pair_tx[record.pairs] == record.tx)
            assert np.array_equal(tables.pair_rx[record.pairs], record.rx)
            rx, a, b = np.unravel_index(tables.map_index[record.pairs], (small_config.uav_count, L, L))
            assert np.array_equal(rx, np.repeat(record.rx[:, None], len(record.cells), axis=1))
            assert np.array_equal(np.stack([a[0], b[0]], axis=1), record.cells)

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

    def test_reference_cell_equals_its_slice_of_the_pair_streams(self, small_config):
        # One (pair, cell) rebuilt alone, from the pair's row of the trial's
        # phase block and the cell's slice of the pair's noise substream,
        # gives the estimate of the pair's stacked frames.
        trial = 3
        tables = build_tables(small_config, RunOptions(noise=True, fast_path=False))
        outcome = run_trial(small_config, trial, tables=tables, collect_maps=True)
        target, illuminated_by = engine._trial_target(small_config, tables, trial, None)
        seed = small_config.master_seed
        record = tables.transmitters[1]
        k, i = 2, len(record.cells) - 1
        p = record.pairs.start + k
        tx, rx, (a, b) = record.tx, int(record.rx[k]), record.cells[i]
        positions = tables.deployment.positions
        tx_frame = synth_tx_frame(small_config, substream(seed, trial, engine._STREAM_TXDATA, tx))
        block = _phase_block(small_config, tables, trial)
        phases = block[p, : len(tables.cell_sets[tx].illuminated)]
        if illuminated_by[tx]:
            phases = np.append(phases, block[p, -1])
        reflections = build_reflections(
            small_config, tx, rx, positions[tx], positions[rx], tables.cell_sets[tx], tables.grid,
            tables.weights[p, i], target if illuminated_by[tx] else None, phases,
        )
        noise = substream(seed, trial, engine._STREAM_NOISE, tx, rx)
        draws = noise.standard_normal((len(record.cells), 2, 8, 16))[i]
        frame = remove_data(synth_rx_frame(tx_frame, reflections, small_config, tables.noise_var[p, i], draws), tx_frame)
        peak = matched_point_value(frame, tables.matched_delay[p, i], small_config.doppler_hz, small_config)
        expected = peak * tables.est_scale[p, i]
        assert outcome.local_maps[rx].values[a, b] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lit", [False, True])
    def test_fast_cell_equals_its_row_of_the_trial_blocks(self, small_config, lit):
        # One (pair, cell) of the fast path from closed_form_peaks on the
        # pair's unpadded ground coupling plus the target row, with the pair's
        # rows of the trial's phase and noise blocks.
        tables = build_tables(small_config, RunOptions(noise=True))
        seed = small_config.master_seed
        for trial in range(20):
            target, illuminated_by = engine._trial_target(small_config, tables, trial, None)
            record = next((r for r in tables.transmitters if illuminated_by[r.tx] == lit), None)
            if record is not None:
                break
        outcome = run_trial(small_config, trial, tables=tables, collect_maps=True)
        k, i = 1, len(record.cells) // 2
        p, n_q = record.pairs.start + k, len(tables.cell_sets[record.tx].illuminated)
        coupling = math.sqrt(small_config.ground_rcs_m2) * tables.ground_coupling[p, :n_q]
        zeta = _phase_block(small_config, tables, trial)[p]
        if lit:
            rows = np.flatnonzero(illuminated_by[tables.pair_tx])
            target_row = engine._target_couplings(small_config, tables, rows, target, illuminated_by)[rows == p]
            coupling, zeta = np.vstack([coupling, target_row]), np.append(zeta[:n_q], zeta[-1])
        else:
            zeta = zeta[:n_q]
        draws = substream(seed, trial, engine._STREAM_NOISE).standard_normal((len(tables.pair_tx), 2, len(record.cells)))
        peaks = closed_form_peaks(coupling, zeta, small_config, tables.noise_var[p], draws[p])
        a, b = record.cells[i]
        expected = peaks[i] * tables.est_scale[p, i]
        assert outcome.local_maps[record.rx[k]].values[a, b] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_incompatible_tables_rejected(self, small_config):
        tables = build_tables(small_config, RunOptions())
        other = replace(small_config, area_side_m=80.0)
        with pytest.raises(ConfigError):
            run_trial(other, 0, tables=tables)

    @pytest.mark.parametrize("entry", ["run_trial", "workers=1", "workers=2"])
    def test_geometry_mismatch_raises_on_every_entry_point(self, small_config, entry):
        tables = build_tables(small_config, RunOptions())
        other = replace(small_config, grid_side=4, area_side_m=20.0)
        with pytest.raises(ConfigError, match="tables were built for a different scenario geometry"):
            if entry == "run_trial":
                run_trial(other, 0, tables=tables)
            else:
                run_monte_carlo_all_fusions(other, workers=int(entry[-1]), tables=tables)

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

    def test_worker_processes_bounded_by_cpu_count(self, small_config, monkeypatch):
        # Every worker process starts at once, so a huge `workers` must not
        # ask for that many. The fake pool maps in this process.
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", SerialPool)
        tables = build_tables(small_config, RunOptions())
        serial = run_monte_carlo_all_fusions(small_config, tables=tables)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 3)
        assert run_monte_carlo_all_fusions(small_config, workers=10**5, tables=tables) == serial
        assert started == [3]
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        assert run_monte_carlo_all_fusions(small_config, workers=10**5, tables=tables) == serial
        assert started == [3]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise", False),
            ("fast_path", False),
            ("beamformer", "ls"),
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


class TestTrialStreams:
    """Under rng_scheme v2 a trial's draws depend only on (master seed, trial)."""

    @staticmethod
    def _recorded(config, monkeypatch, **kwargs):
        outcomes = {}

        def recording(config, trial, *args, original=engine.run_trial, **kw):
            outcomes[trial] = original(config, trial, *args, **kw)
            return outcomes[trial]

        with monkeypatch.context() as patch:
            patch.setattr(engine, "run_trial", recording)
            stats = run_monte_carlo_all_fusions(config, RunOptions(), **kwargs)
        return stats, outcomes

    def test_run_trial_equals_the_trial_inside_a_batch(self, small_config, monkeypatch):
        _, inside = self._recorded(small_config, monkeypatch)
        assert sorted(inside) == list(range(small_config.trials))
        for trial, outcome in inside.items():
            alone = run_trial(small_config, trial)
            assert (alone.target_xy, alone.detections) == (outcome.target_xy, outcome.detections)

    def test_extending_trials_keeps_earlier_trials(self, small_config, monkeypatch):
        _, short = self._recorded(small_config, monkeypatch)
        _, longer = self._recorded(replace(small_config, trials=3 * small_config.trials), monkeypatch)
        for trial, outcome in short.items():
            assert (longer[trial].target_xy, longer[trial].detections) == (outcome.target_xy, outcome.detections)

    def test_serial_equals_two_workers(self, small_config):
        config = replace(small_config, trials=16, ground_rcs_m2=1.0)
        assert run_monte_carlo_all_fusions(config, workers=1) == run_monte_carlo_all_fusions(config, workers=2)


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
