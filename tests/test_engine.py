import math
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from uavsense import (
    ConfigError,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
    build_grid,
    build_tables,
    classify_cells,
    deploy_uavs,
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
    Reflections,
    build_reflections,
    coherent_peaks,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    reflection_amplitude,
    remove_data,
    subcarrier_ramps,
    synth_rx_frame,
    synth_tx_frame,
)
from uavsense.engine import (
    _config_for_sweep_point,
    substream,
    sweep_rows,
)

# run_monte_carlo_all_fusions starts at most os.cpu_count() workers, so on one
# CPU a two-worker run would be a serial run.
needs_two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs to start two worker processes")

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
    return aoa(np.zeros(3), canonical[None]), swap, flip, mirror


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
        designed.append(len(mesh.theta))
        return original(mesh, n)

    monkeypatch.setattr(engine, "ls_beamformer", counting)
    return build_tables(config, RunOptions(beamformer="ls")), sum(designed)


def assert_ls_rows_are_orbit_images(tables) -> dict:
    """Check every LS row against ls_row, bit for bit, and against its own direction's direct
    design to 1e-12; returns the designs made (canonical direction bits -> design)."""
    n, designs, rows, own = tables.config.array_side, {}, [], []
    for tx, tx_rows, listeners in transmitters(tables):
        for k, rx in enumerate(listeners):
            for i, (a, b) in enumerate(tables.cell_sets[tx].intended):
                rx_position, point = tables.positions[rx], tables.grid.centers[a, b]
                rows.append(tables.pair_weights(tx_rows)[k, i])
                assert rows[-1].tobytes() == ls_row(rx_position, point, n, designs).tobytes()
                own.append(aoa(rx_position, point))
    direct = ls_beamformer(aoa_mesh(AoA(np.array([d.theta for d in own]), np.array([d.phi for d in own])), n), n)
    assert np.max(np.abs(np.array(rows) - direct)) < 1e-12
    return designs


def reference_peaks(config, tables, tx_frame, tx, rx, weights, target, phases, p, cells, noise_variance, draws):
    """matched_point_value of one pair's frames for the intended cells `cells` (an index array),
    from build_reflections of the stack of listener rx alone and per-pair ramps."""
    listeners = np.array([rx])
    built = build_reflections(
        config, tx, listeners, tables.positions[tx], tables.positions[listeners], tables.cell_sets[tx], tables.grid,
        weights[None], target, phases[None],
    )
    reflections = Reflections(built.amplitude[0], built.gain[0], built.delay_s[0], built.phase[0])
    ramps = subcarrier_ramps(reflections.delay_s, config)
    frames = synth_rx_frame(tx_frame, reflections, ramps, config, noise_variance, draws)
    matched_ramps = subcarrier_ramps(tables.matched_delay[p, cells], config, +1)
    return matched_point_value(remove_data(frames, tx_frame), matched_ramps, config), built


def transmitters(tables):
    """(tx, its pair rows, its listeners) of every UAV, in pair-major order."""
    for tx in range(len(tables.positions)):
        rows = tables.pair_rows(tx)
        yield tx, rows, tables.pair_rx[rows]


def local_stack(outcome) -> np.ndarray:
    """An outcome's local maps as one (U, L, L) array."""
    return np.array([local.values for local in outcome.local_maps])


def fresh_generator() -> np.random.Generator:
    """A Philox generator for the engine's re-keyed draws; its own seed is never read."""
    return np.random.Generator(np.random.Philox(0))


def trial_phases(config, tables, trial) -> np.ndarray:
    """The (P, n_q_max + 1) phase block of one trial, a block of one."""
    return engine._phase_words(config, tables, [trial], fresh_generator())[0] * (2 * math.pi / 2**32)


def raw_phase_words(seed: int, trial: int, count: int) -> np.ndarray:
    """The first `count` phase words of a trial, split arithmetically from a fresh substream's raw
    64-bit outputs: the low half of each output first, then its high half."""
    raw = substream(seed, trial, engine._STREAM_PHASE).bit_generator.random_raw((count + 1) // 2)
    return np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).ravel()[:count].astype("<u4")


def trial_target(config, tables, trial):
    """One trial's target position and per-UAV footprint coverage, a block of one."""
    targets, covered = engine._trial_targets(config, tables, [trial], None, fresh_generator())
    return targets[0], covered[0]


def _path_words(seed: int, *path: int) -> tuple[int, int]:
    """The two key words of a substream path as Python ints, hashed in pure Python."""
    acc = seed & _MASK64
    for part in path:
        acc = _splitmix64(acc ^ _splitmix64(part))
    return acc, _splitmix64(acc ^ 0xA5A5A5A5A5A5A5A5)


# 16 UAVs over the 8x8 grid of small_config: 240 pairs, 48 distinct pair geometries.
SHARED_GEOMETRY = ScenarioConfig(grid_side=8, area_side_m=40.0, array_side=4, symbols_per_frame=8, subcarriers=16)


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
        # One generator per trial is reused across all pairs: the phase words
        # are its raw Philox stream, two words per output, low half first,
        # laid out pair-major, count per pair (3 and 15 words drop a high half).
        pairs, trial = 3, 2
        stub = SimpleNamespace(ground_coupling=np.empty((pairs, count - 1, 0)))
        for seed in KEY_CASES:
            block = engine._phase_words(SimpleNamespace(master_seed=seed), stub, [trial], fresh_generator())[0]
            expected = raw_phase_words(seed, trial, pairs * count)
            assert block.shape == (pairs, count) and block.dtype == expected.dtype
            assert block.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "seed, trial, words",
        [
            (1, 0, (2750497084, 1985598360, 2956328937, 242548313, 1343571404)),
            (20261018, 7, (2837960987, 841296895, 2540452900, 3616205893, 1217486210)),
        ],
    )
    def test_pinned_phase_words(self, seed, trial, words):
        # Literal words of rng_scheme v3: any change to the phase stream's
        # split or order moves them, and must come with a new RNG_SCHEME.
        stub = SimpleNamespace(ground_coupling=np.empty((1, len(words) - 1, 0)))
        block = engine._phase_words(SimpleNamespace(master_seed=seed), stub, [trial], fresh_generator())
        assert block.ravel().tolist() == list(words)

    def test_rekeyed_draws_equal_substream_draws(self, small_config):
        # One generator, re-keyed per (trial, role), gives each substream's
        # target, phase and noise draws byte for byte, after draws that leave
        # buffered bits behind, for ids below 0 and at or above 2**64 too.
        tables = build_tables(small_config, RunOptions())
        P, n_q_max, n_p = tables.ground_coupling.shape
        seed, trials = small_config.master_seed, [0, 7, -1, -(2**63), 2**64, 2**64 + 7, 2**70 + 3]
        generator = fresh_generator()
        targets, _ = engine._trial_targets(small_config, tables, trials, None, generator)
        words = engine._phase_words(small_config, tables, trials, generator)
        assert words.dtype == np.dtype("<u4")
        for k, trial in enumerate(trials):
            xy = substream(seed, trial, engine._STREAM_TARGET).uniform(0.0, small_config.area_side_m, size=2)
            assert targets[k].tobytes() == np.array([xy[0], xy[1], 0.0]).tobytes()
            assert words[k].tobytes() == raw_phase_words(seed, trial, P * (n_q_max + 1)).tobytes()
            generator.integers(0, 7, size=3, dtype=np.uint32)  # leaves half a word buffered
            noise = np.empty((P, 2, n_p))
            engine._keyed(generator, seed, trial, engine._STREAM_NOISE).standard_normal(out=noise)
            assert noise.tobytes() == substream(seed, trial, engine._STREAM_NOISE).standard_normal((P, 2, n_p)).tobytes()

    def test_phase_block_is_words_on_the_2_32_point_grid(self, small_config):
        # The reference path's phases are zeta = m (2 pi / 2**32) of the same
        # words, byte for byte, on [0, 2 pi).
        tables = build_tables(small_config, RunOptions(fast_path=False))
        trials = [0, 3, 2**64 + 1]
        words = engine._phase_words(small_config, tables, trials, fresh_generator())
        zeta = engine._phase_words(small_config, tables, trials, fresh_generator()) * (2 * math.pi / 2**32)
        assert zeta.dtype == np.float64
        assert zeta.tobytes() == (words * (2 * math.pi / 2**32)).tobytes()
        assert np.all((0.0 <= zeta) & (zeta < 2 * math.pi))

    def test_phasor_of_each_word_matches_exp(self):
        # The fast path's table phasor of a word m is e^{-2 pi j m / 2**32}.
        # At the bit-field edges it is within 4e-16 of numpy's exp. On random
        # words it is within 1.1e-15: exp's own argument, 2 pi m / 2**32
        # rounded, is up to 4.4e-16 off for zeta >= 4, so a phasor that tracks
        # the exact value cannot stay within 4e-16 of exp on every word.
        edges = np.array([0, 1, 2**10 - 1, 2**10, 2**21 - 1, 2**21, 2**31, 2**32 - 1], dtype=np.uint32)
        block = np.random.default_rng(24).integers(0, 2**32, size=(16, 256), dtype=np.uint32)
        for words, bound in ((edges, 4e-16), (block, 1.1e-15)):
            phasors = engine._phasors(words)
            assert phasors.shape == words.shape and phasors.dtype == np.complex128
            assert np.max(np.abs(phasors - np.exp(-2j * np.pi * words / 2**32))) <= bound


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
            assert designed == len(designs) < tables.design_index.size
            return
        calls = []

        def counting(intended, n, original=engine.capon_beamformer):
            calls.append(np.size(intended.theta))
            return original(intended, n)

        monkeypatch.setattr(engine, "capon_beamformer", counting)
        tables = build_tables(small_config, RunOptions(beamformer="capon"))
        n = small_config.array_side
        pairs, directions = 0, set()
        for tx, tx_rows, listeners in transmitters(tables):
            for k, rx in enumerate(listeners):
                for i, (a, b) in enumerate(tables.cell_sets[tx].intended):
                    d = aoa(tables.positions[rx], tables.grid.centers[a, b])
                    pairs += 1
                    directions.add(np.array([d.theta, d.phi]).tobytes())
                    assert tables.pair_weights(tx_rows)[k, i].tobytes() == capon_beamformer(d, n).tobytes()
        assert sum(calls) == len(directions) < pairs

    def test_ls_rows_on_a_non_dyadic_area(self, small_config, monkeypatch):
        # On an area whose cell centres are not dyadic, offsets related by a
        # symmetry need not map onto each other bit for bit; every row is still
        # its canonical direction's orbit image, within 1e-12 of its own
        # direction's design, and the rows share fewer designs.
        tables, designed = build_counting_ls_designs(replace(small_config, area_side_m=100.0 / 3.0), monkeypatch)
        designs = assert_ls_rows_are_orbit_images(tables)
        assert designed == len(designs) < tables.design_index.size

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
        for tx, tx_rows, listeners in transmitters(tables):
            for k, rx in enumerate(listeners):
                for i, (a, b) in enumerate(tables.cell_sets[tx].intended):
                    offset = tables.grid.centers[a, b] - tables.positions[rx]
                    rows.append((tuple(offset), tables.pair_weights(tx_rows)[k, i]))
        by_offset = dict(rows)  # -0.0 and 0.0 are one key
        mirrored = [(dx, dy, dz) for (dx, dy, dz), _ in rows if dy < 0 or (dy == 0 and dx < 0)]
        assert len(mirrored) == len(rows) // 2
        for dx, dy, dz in mirrored:
            assert by_offset[(dx, dy, dz)].tobytes() == by_offset[(-dx, -dy, dz)].conj().tobytes()

    @pytest.mark.parametrize(
        "geometry, beamformer",
        [
            pytest.param(None, "capon", id="capon"),
            pytest.param(None, "ls", id="ls"),
            pytest.param(SHARED_GEOMETRY, "capon", id="capon-shared-pairs"),
            pytest.param(SHARED_GEOMETRY, "ls", id="ls-shared-pairs"),
            pytest.param(replace(SHARED_GEOMETRY, area_side_m=40.0 / 3.0), "capon", id="capon-non-dyadic"),
            pytest.param(replace(SHARED_GEOMETRY, area_side_m=40.0 / 3.0), "ls", id="ls-non-dyadic"),
        ],
    )
    def test_listener_rows_equal_per_listener_oracle(self, small_config, geometry, beamformer):
        # Each listener's row of each transmitter, rebuilt from the public kernels
        # one listener at a time, equals the broadcast build bit for bit. The
        # 4-UAV default of this test repeats no pair geometry; the 16-UAV grid
        # builds 48 ground blocks for its 240 pairs and copies the rest, and on
        # the non-dyadic area every pair builds its own.
        config = geometry or small_config
        tables = build_tables(config, RunOptions(beamformer=beamformer))
        positions = tables.positions
        noise_w = config.noise_density_w_hz * config.bandwidth_hz
        for tx, tx_rows, listeners in transmitters(tables):
            illuminated = tables.cell_sets[tx].illuminated
            q_points = tables.grid.centers[illuminated[:, 0], illuminated[:, 1]]
            intended = tables.cell_sets[tx].intended
            p_points = tables.grid.centers[intended[:, 0], intended[:, 1]]
            d1_q = np.linalg.norm(q_points - positions[tx], axis=1)
            d1_p = np.linalg.norm(p_points - positions[tx], axis=1)
            for k, rx in enumerate(listeners):
                d2_q = np.linalg.norm(positions[rx] - q_points, axis=1)
                d2_p = np.linalg.norm(positions[rx] - p_points, axis=1)
                tau_p = (d1_p + d2_p) / SPEED_OF_LIGHT
                p = tx_rows.start + k
                weights = tables.pair_weights(p)
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

    @pytest.mark.parametrize(
        "config, blocks, directions",
        [
            pytest.param(ScenarioConfig(), 160, {"capon": 1212 + 1200, "ls": 1212 + 165}, id="defaults"),
            pytest.param(SHARED_GEOMETRY, 48, {"capon": 192 + 192, "ls": 192 + 27}, id="shared-pairs"),
            pytest.param(
                replace(SHARED_GEOMETRY, area_side_m=40.0 / 3.0),
                240,
                {"capon": 493 + 493, "ls": 493 + 105},
                id="non-dyadic",
            ),
        ],
    )
    def test_one_ground_block_per_distinct_pair_geometry(self, monkeypatch, config, blocks, directions):
        # A pair's ground block is built once per distinct tuple of the exact
        # bytes of its offsets q - tx, q - rx, p - tx and p - rx, and copied to
        # the pairs that repeat it. Blocks are counted as the pair rows whose
        # weights the build gathers, which only its ground stage does. aoa sees
        # each distinct offset q - rx of the built pairs once and each distinct
        # offset p - rx once (LS: each distinct orbit offset, |dx| and |dy|
        # sorted in descending order), whatever pairs and stages repeat it.
        # Every transmitter builds at least one block.
        built, seen = [], []

        def counting_weights(tables, rows, original=engine.ScenarioTables.pair_weights):
            built.append(len(rows))
            return original(tables, rows)

        def counting_aoa(observer, point, original=engine.aoa):
            toward = original(observer, point)
            seen.append(np.size(toward.theta))
            return toward

        monkeypatch.setattr(engine.ScenarioTables, "pair_weights", counting_weights)
        monkeypatch.setattr(engine, "aoa", counting_aoa)
        tables = build_tables(config, RunOptions(beamformer="capon"))
        positions, geometries, builders = tables.positions, {}, set()
        ground, intended, orbits = set(), set(), set()
        for tx, tx_rows, listeners in transmitters(tables):
            illuminated = tables.cell_sets[tx].illuminated
            q_points = tables.grid.centers[illuminated[:, 0], illuminated[:, 1]]
            cells = tables.cell_sets[tx].intended
            p_points = tables.grid.centers[cells[:, 0], cells[:, 1]]
            for k, rx in enumerate(listeners):
                key = tuple(
                    (points - positions[u]).tobytes() for points in (q_points, p_points) for u in (tx, rx)
                )
                p = tx_rows.start + k
                first = geometries.setdefault(key, p)
                assert tables.ground_coupling[p].tobytes() == tables.ground_coupling[first].tobytes()
                if first == p:
                    builders.add(tx)
                    folded = p_points - positions[rx]
                    ground.update(row.tobytes() for row in q_points - positions[rx])
                    intended.update(row.tobytes() for row in folded)
                    folded[:, :2] = np.sort(np.abs(folded[:, :2]), axis=1)[:, ::-1]
                    orbits.update(row.tobytes() for row in folded)
        assert len(tables.pair_tx) == 240
        assert sum(built) == len(geometries) == blocks
        assert builders == set(range(len(positions))) and len(built) == len(positions) and min(built) >= 1
        assert sum(seen) == len(ground) + len(intended) == directions["capon"]
        seen.clear()
        build_tables(config, RunOptions(beamformer="ls"))
        assert sum(seen) == len(ground) + len(orbits) == directions["ls"]

    @pytest.mark.parametrize(
        "config, beamformer",
        [
            pytest.param(ScenarioConfig(), "capon", id="defaults"),
            pytest.param(SHARED_GEOMETRY, "ls", id="shared-pairs"),
            pytest.param(replace(SHARED_GEOMETRY, area_side_m=40.0 / 3.0), "capon", id="non-dyadic"),
        ],
    )
    def test_one_delay_kernel_call_per_build(self, monkeypatch, config, beamformer):
        # delay_kernel works entry by entry, so a fast-path build calls it once,
        # on the grid of the distinct bit patterns of every pair's ground delays
        # tau_q and matched delays tau_p, and every block gathers its entries
        # from that grid (each block still equals its own matched_coupling:
        # test_listener_rows_equal_per_listener_oracle). Repeated pairs hold
        # their source's delays, so the grid of all pairs is the new pairs'.
        # Reference tables build no ground coupling and call it not at all.
        calls = []

        def counting(delay_s, matched_delay_s, config, original=engine.delay_kernel):
            calls.append((np.asarray(delay_s).copy(), np.asarray(matched_delay_s).copy()))
            return original(delay_s, matched_delay_s, config)

        monkeypatch.setattr(engine, "delay_kernel", counting)
        build_tables(config, RunOptions(beamformer=beamformer, fast_path=False))
        assert calls == []
        tables = build_tables(config, RunOptions(beamformer=beamformer))
        positions, ground = tables.positions, []
        for tx, tx_rows, listeners in transmitters(tables):
            illuminated = tables.cell_sets[tx].illuminated
            q_points = tables.grid.centers[illuminated[:, 0], illuminated[:, 1]]
            d1_q = np.linalg.norm(q_points - positions[tx], axis=1)
            for rx in listeners:
                ground.append((d1_q + np.linalg.norm(positions[rx] - q_points, axis=1)) / SPEED_OF_LIGHT)
        (tau_q, tau_p), = calls
        distinct = [np.unique(np.concatenate(ground).view(np.uint64)), np.unique(tables.matched_delay.view(np.uint64))]
        assert tau_q.view(np.uint64).tolist() == distinct[0].tolist()
        assert tau_p.view(np.uint64).tolist() == distinct[1].tolist()
        assert len(tau_q) < sum(map(len, ground)) and len(tau_p) < tables.matched_delay.size

    def test_pair_major_rows_follow_the_records(self, small_config):
        # Every UAV transmits to the other U - 1: pair_rows(tx) for tx = 0, ..., U - 1
        # tiles the U(U - 1) pair rows in order, each with the other UAVs ascending.
        tables = build_tables(small_config, RunOptions())
        U, L = small_config.uav_count, small_config.grid_side
        pairs = U * (U - 1)
        assert tables.ground_coupling.shape[0] == pairs == len(tables.pair_tx) == len(tables.map_index)
        assert tables.ground_coupling.shape[1] == max(len(s.illuminated) for s in tables.cell_sets)
        rows = [tables.pair_rows(tx) for tx in range(U)]
        assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]] and rows[-1].stop == pairs
        for tx, tx_rows in enumerate(rows):
            listeners = np.array([u for u in range(U) if u != tx])
            assert np.all(tables.pair_tx[tx_rows] == tx)
            assert np.array_equal(tables.pair_rx[tx_rows], listeners)
            cells = tables.cell_sets[tx].intended
            rx, a, b = np.unravel_index(tables.map_index[tx_rows], (U, L, L))
            assert np.array_equal(rx, np.repeat(listeners[:, None], len(cells), axis=1))
            assert np.array_equal(np.stack([a[0], b[0]], axis=1), cells)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("carrier_hz", [1e-150, 1e160, 1e300])
    def test_carrier_out_of_float_range_rejected(self, small_config, carrier_hz):
        # The squared wavelength or the two-hop amplitudes overflow or underflow
        # at these accepted frequencies, which made every estimate NaN or inf.
        config = replace(small_config, carrier_frequency_hz=carrier_hz)
        with pytest.raises(ConfigError, match="^carrier_frequency_hz: .*transmit_power_w"):
            build_tables(config, RunOptions())

    @pytest.mark.parametrize(
        "scenario, name",
        [
            (dict(area_side_m=1e154), "area_side_m"),
            (dict(area_side_m=1e300), "area_side_m"),
            (dict(area_side_m=1.7e308), "area_side_m"),  # its derived altitude is inf
            (dict(area_side_m=1.7e308, altitude_m=100.0), "area_side_m"),
            (dict(altitude_m=1e300), "altitude_m"),
        ],
        ids=["area_1e154", "area_1e300", "area_1.7e308", "area_1.7e308_altitude_100", "altitude_1e300"],
    )
    def test_distances_out_of_float_range_rejected(self, scenario, name):
        # The UAV-to-cell distances overflowed in numpy's norm or hypot, with a RuntimeWarning, and the
        # build then blamed carrier_frequency_hz for the zero amplitudes.
        with pytest.raises(ConfigError, match=f"^{name}: .*outside the finite floats"):
            build_tables(ScenarioConfig(**scenario), RunOptions())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("density", [1e290, 1e300])
    def test_noise_density_out_of_float_range_rejected(self, density):
        # At 1e290 W/Hz most noisy default estimates overflowed to inf and
        # fusion skipped their cells; at 1e300 no cell was left to detect.
        config = ScenarioConfig(noise_density_w_hz=density)
        with pytest.raises(ConfigError, match="^noise_density_w_hz: .*bandwidth_hz = 200000000.0"):
            build_tables(config, RunOptions())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("density, noise", [(1e285, True), (1e300, False)])
    def test_noise_density_in_float_range_runs(self, density, noise):
        # 1e285 W/Hz keeps every default estimate finite; without noise the density is never read.
        config = ScenarioConfig(noise_density_w_hz=density, trials=3)
        for outcome in run_trial(config, range(3), RunOptions(noise=noise), collect_maps=True):
            values = local_stack(outcome)
            assert np.isfinite(values[~np.isnan(values)]).all()


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

    def test_block_whose_target_no_footprint_covers(self):
        # At 40 m each footprint covers its UAV's own cell only, so neither
        # target below is lit: the block has no target rows, its local maps
        # hold the ground alone, and the noiseless reference path agrees.
        config = ScenarioConfig(altitude_m=40.0, master_seed=7)
        fast = build_tables(config, RunOptions(noise=False))
        uncovered = [(0.5, 0.5), (99.0, 50.0)]
        maps = []
        for xy in uncovered:
            _, covered = engine._trial_targets(config, fast, [0, 1], xy, fresh_generator())
            assert not covered.any()
            outcomes = run_trial(config, [0, 1], tables=fast, target_override=xy, collect_maps=True)
            maps.append(np.array([local_stack(outcome) for outcome in outcomes]))
        assert maps[0].tobytes() == maps[1].tobytes()
        reference = build_tables(config, RunOptions(noise=False, fast_path=False))
        for trial, fast_maps in zip([0, 1], maps[0]):
            ref = run_trial(config, trial, tables=reference, target_override=uncovered[0], collect_maps=True)
            ref_maps = local_stack(ref)
            finite = np.isfinite(fast_maps)
            assert finite.any() and np.array_equal(finite, np.isfinite(ref_maps))
            assert np.allclose(fast_maps[finite], ref_maps[finite], rtol=1e-9)

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
            h0, h1, h2 = (out.detections["avg"].delta_star <= d for d in (0, 1, 2))
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
        assert all(tx not in listeners for tx, _, listeners in transmitters(tables))

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
        target, illuminated_by = trial_target(small_config, tables, trial)
        seed = small_config.master_seed
        tx = 1
        cells = tables.cell_sets[tx].intended
        k, i = 2, len(cells) - 1
        p = tables.pair_rows(tx).start + k
        rx, (a, b) = int(tables.pair_rx[p]), cells[i]
        tx_frame = synth_tx_frame(small_config, substream(seed, trial, engine._STREAM_TXDATA, tx))
        block = trial_phases(small_config, tables, trial)
        phases = block[p, : len(tables.cell_sets[tx].illuminated)]
        if illuminated_by[tx]:
            phases = np.append(phases, block[p, -1])
        noise = substream(seed, trial, engine._STREAM_NOISE, tx, rx)
        draws = noise.standard_normal((len(cells), 2, 8, 16))[i : i + 1]
        cell = np.array([i])
        (peak,), _ = reference_peaks(
            small_config, tables, tx_frame, tx, rx, tables.pair_weights(p)[cell], target if illuminated_by[tx] else None,
            phases, p, cell, tables.noise_var[p, cell], draws,
        )
        expected = peak * tables.est_scale[p, i]
        assert outcome.local_maps[rx].values[a, b] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("lit", [False, True])
    def test_fast_cell_equals_its_row_of_the_trial_blocks(self, small_config, lit):
        # One (pair, cell) of the fast path from coherent_peaks of the phase
        # sum over the pair's unpadded ground coupling plus the target row, with
        # the pair's rows of the trial's phase and noise blocks.
        tables = build_tables(small_config, RunOptions(noise=True))
        seed = small_config.master_seed
        for trial in range(20):
            target, illuminated_by = trial_target(small_config, tables, trial)
            tx = next((u for u in range(len(tables.positions)) if illuminated_by[u] == lit), None)
            if tx is not None:
                break
        outcome = run_trial(small_config, trial, tables=tables, collect_maps=True)
        cells = tables.cell_sets[tx].intended
        k, i = 1, len(cells) // 2
        p, n_q = tables.pair_rows(tx).start + k, len(tables.cell_sets[tx].illuminated)
        coupling = math.sqrt(small_config.ground_rcs_m2) * tables.ground_coupling[p, :n_q]
        zeta = trial_phases(small_config, tables, trial)[p]
        if lit:
            rows = np.flatnonzero(illuminated_by[tables.pair_tx])
            block = (np.zeros_like(rows), rows), target[None], illuminated_by[None]
            target_row = engine._target_couplings(small_config, tables, *block)[rows == p]
            coupling, zeta = np.vstack([coupling, target_row]), np.append(zeta[:n_q], zeta[-1])
        else:
            zeta = zeta[:n_q]
        draws = substream(seed, trial, engine._STREAM_NOISE).standard_normal((len(tables.pair_tx), 2, len(cells)))
        total = (np.exp(-1j * np.asarray(zeta, dtype=float))[None, :] @ coupling)[0, :]
        nm = small_config.symbols_per_frame * small_config.subcarriers
        peaks = coherent_peaks(total, small_config, np.sqrt(nm * np.asarray(tables.noise_var[p]) / 2.0), draws[p])
        a, b = cells[i]
        expected = peaks[i] * tables.est_scale[p, i]
        assert outcome.local_maps[tables.pair_rx[p]].values[a, b] == pytest.approx(expected, rel=1e-12, abs=0.0)

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


class TestReferenceRamps:
    @pytest.mark.parametrize("noise", [False, True], ids=["noiseless", "noisy"])
    def test_estimates_equal_a_per_pair_loop_with_own_ramps(self, monkeypatch, noise):
        # The reference path computes each subcarrier ramp once per distinct
        # delay of the trial and gathers it per pair; a loop over the pairs
        # whose kernels compute their own ramps gives the same bytes. The
        # 16-UAV grid repeats delays within and across transmitters, and the
        # trial has lit and unlit transmitters.
        config = SHARED_GEOMETRY
        tables = build_tables(config, RunOptions(noise=noise, fast_path=False))
        for trial in range(20):
            target, illuminated_by = trial_target(config, tables, trial)
            if {bool(illuminated_by[tx]) for tx, _, _ in transmitters(tables)} == {False, True}:
                break
        else:
            pytest.fail("no trial with both lit and unlit transmitters")
        ramped = {-1: [], +1: []}

        def counting(delay_s, config, sign=-1, original=engine.subcarrier_ramps):
            ramped[sign].append(np.size(delay_s))
            return original(delay_s, config, sign)

        monkeypatch.setattr(engine, "subcarrier_ramps", counting)
        zeta = trial_phases(config, tables, trial)
        estimates = engine._reference_estimates(config, tables, trial, target, illuminated_by, zeta)

        seed = config.master_seed
        expected, delays = np.empty_like(estimates), []
        for tx, tx_rows, listeners in transmitters(tables):
            tx_frame = synth_tx_frame(config, substream(seed, trial, engine._STREAM_TXDATA, tx))
            n_q = len(tables.cell_sets[tx].illuminated)
            for k, rx in enumerate(listeners):
                p = tx_rows.start + k
                phases, lit_target = zeta[p, :n_q], None
                if illuminated_by[tx]:
                    phases, lit_target = np.append(phases, zeta[p, -1]), target
                cells = np.arange(len(tables.cell_sets[tx].intended))
                draws = None
                if noise:
                    draws = substream(seed, trial, engine._STREAM_NOISE, tx, rx).standard_normal(
                        (len(cells), 2) + tx_frame.shape
                    )
                peaks, built = reference_peaks(
                    config, tables, tx_frame, tx, rx, tables.pair_weights(p), lit_target, phases, p, cells,
                    tables.noise_var[p] if noise else 0.0, draws,
                )
                delays.append(built.delay_s[0])
                expected[p] = peaks * tables.est_scale[p]
        assert estimates.tobytes() == expected.tobytes()
        # One ramp per distinct delay bit pattern, far fewer than one per (pair, delay).
        delays = np.concatenate(delays)
        assert sum(ramped[-1]) == len(np.unique(delays.view(np.uint64))) < len(delays) // 10
        assert ramped[+1] == [len(np.unique(tables.matched_delay.view(np.uint64)))]

    def test_reference_tables_size_the_same_phase_block(self, small_config):
        # Reference tables skip the ground stage and hold a zero-width ground
        # coupling whose shape still sizes the phase block: same shape, same
        # bytes as with fast-path tables of the config.
        fast = build_tables(small_config, RunOptions(fast_path=True))
        reference = build_tables(small_config, RunOptions(fast_path=False))
        assert reference.ground_coupling.shape == fast.ground_coupling.shape[:2] + (0,)
        for trial in range(3):
            block = trial_phases(small_config, reference, trial)
            assert block.shape == (len(fast.pair_tx), fast.ground_coupling.shape[1] + 1)
            assert block.tobytes() == trial_phases(small_config, fast, trial).tobytes()


class TestReferenceDataRemoval:
    def test_maps_within_1e_12_of_dividing_by_the_data(self, monkeypatch):
        # remove_data multiplies by the reciprocal of the data, which moves a frame sample by about an ulp
        # from the quotient. A noiseless default reference trial's local maps stay within 1e-12 of the
        # quotient's, relative to each map's largest value.
        config = ScenarioConfig(trials=1)
        tables = build_tables(config, RunOptions(fast_path=False, noise=False))
        product = local_stack(run_trial(config, 0, tables=tables, collect_maps=True))
        monkeypatch.setattr(engine, "remove_data", lambda rx_frame, tx_frame: rx_frame / tx_frame)
        quotient = local_stack(run_trial(config, 0, tables=tables, collect_maps=True))
        assert not np.array_equal(product, quotient, equal_nan=True)  # the division ran
        assert np.array_equal(np.isnan(product), np.isnan(quotient))
        for new, old in zip(product, quotient):
            assert np.nanmax(np.abs(new - old)) <= 1e-12 * np.nanmax(old)


class TestMonteCarlo:
    def test_single_trial_probabilities(self, small_config):
        cfg = replace(small_config, trials=1)
        stats = run_monte_carlo(cfg, RunOptions(noise=False))
        assert stats.trials == 1
        for delta in (0, 1, 2):
            p = stats.p_detect(delta)
            assert p in (0.0, 1.0)
            assert stats.ci95_halfwidth(delta) == pytest.approx(1.96 * math.sqrt(p * (1 - p)))

    def test_wilson_interval(self):
        # Newcombe (1998), 81 of 263: Wilson 95% interval 0.2553 to 0.3662.
        # At p = 0 and p = 1 the Wald half-width is 0 but the Wilson interval
        # is not: its far end is z^2 / (n + z^2) from the observed p.
        stats = engine.DetectionStats(trials=263, hits=(81, 0, 263))
        lo, hi = stats.wilson95(0)
        assert (round(lo, 4), round(hi, 4)) == (0.2553, 0.3662)
        assert lo < stats.p_detect(0) < hi
        far = 1.96**2 / (263 + 1.96**2)
        assert stats.ci95_halfwidth(1) == stats.ci95_halfwidth(2) == 0.0
        assert stats.wilson95(1)[0] == 0.0 and stats.wilson95(1)[1] == pytest.approx(far, rel=1e-12)
        assert stats.wilson95(2)[1] == 1.0 and stats.wilson95(2)[0] == pytest.approx(1.0 - far, rel=1e-12)

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

            def map(self, fn, *iterables):
                return map(fn, *iterables)

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

        def recording(config, block, *args, original=engine.run_trial, **kw):
            # A batch passes blocks of trial ids and its one ground RCS value.
            results = original(config, block, *args, **kw)
            outcomes.update((trial, per_value[0]) for trial, per_value in zip(block, results))
            return results

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

    @pytest.mark.parametrize("beamformer, noise", [("capon", True), ("ls", False)])
    def test_hits_do_not_depend_on_the_blocks(self, small_config, monkeypatch, beamformer, noise):
        # Trials 0..N-1 give the same hits in blocks of 1, 3, 8 and N, and in
        # the strided chunks that two workers take, for two sigma_G values.
        config = replace(small_config, trials=11)
        tables = build_tables(config, RunOptions(beamformer=beamformer, noise=noise))
        sigmas, ids = (config.ground_rcs_m2, 0.3), list(range(config.trials))
        counts = []
        for size in (1, 3, 8, config.trials):
            monkeypatch.setattr(engine, "_TRIAL_BLOCK", size)
            counts.append(engine._count_hits(config, ids, tables, sigmas))
            counts.append(sum(engine._count_hits(config, ids[i::2], tables, sigmas) for i in range(2)))
        assert counts[0].sum() > 0
        for count in counts[1:]:
            assert np.array_equal(count, counts[0])

    @pytest.mark.parametrize(
        "geometry, beamformer, fast_path, noise",
        [
            ("small", "capon", True, True),
            ("small", "ls", True, False),
            ("small", "capon", False, True),
            ("shared", "capon", True, True),
            ("shared", "ls", True, True),
        ],
    )
    def test_block_outcomes_equal_single_trials(self, small_config, geometry, beamformer, fast_path, noise):
        # Each trial of a block, maps included, is the bytes of run_trial on
        # its id alone, with and without ground RCS values; the ids need not
        # be ascending or below 2**64.
        config = small_config if geometry == "small" else replace(SHARED_GEOMETRY, master_seed=20261018)
        tables = build_tables(config, RunOptions(beamformer=beamformer, fast_path=fast_path, noise=noise))
        block = [5, 0, 2**64 + 3, -2] if fast_path else [3, 1]
        values = (1e-3, config.ground_rcs_m2)
        outcomes = run_trial(config, block, tables=tables, collect_maps=True, ground_rcs_m2=values)
        assert len(outcomes) == len(block)
        for trial, per_value in zip(block, outcomes):
            for value, outcome in zip(values, per_value):
                alone = run_trial(replace(config, ground_rcs_m2=value), trial, tables=tables, collect_maps=True)
                assert_same_outcome(outcome, alone)
        for trial, outcome in zip(block, run_trial(config, block, tables=tables, collect_maps=True)):
            assert_same_outcome(outcome, run_trial(config, trial, tables=tables, collect_maps=True))


def assert_same_outcome(outcome, alone):
    """Two trial outcomes are equal byte for byte, maps included."""
    assert (outcome.trial, outcome.target_xy, outcome.detections) == (alone.trial, alone.target_xy, alone.detections)
    assert len(outcome.local_maps) == len(alone.local_maps)
    for a, b in zip(outcome.local_maps, alone.local_maps):
        assert a.owner == b.owner and a.values.tobytes() == b.values.tobytes()
    assert outcome.fused_maps.keys() == alone.fused_maps.keys()
    for method, fused in outcome.fused_maps.items():
        assert fused.tobytes() == alone.fused_maps[method].tobytes()


class TestGroundRcsValues:
    """run_trial's ground_rcs_m2 values share one pass of the trial's draws."""

    @pytest.mark.parametrize(
        "beamformer, fast_path, noise",
        [
            ("capon", True, True),
            ("capon", True, False),
            ("ls", True, True),
            ("ls", True, False),
            ("capon", False, False),
        ],
    )
    @pytest.mark.parametrize("values", [(1e-3, 0.1, 1.0), (0.1, 1e-3, 0.1), (0.01,)], ids=["three", "duplicate", "one"])
    def test_each_outcome_equals_a_separate_run(self, small_config, beamformer, fast_path, noise, values):
        tables = build_tables(small_config, RunOptions(beamformer=beamformer, fast_path=fast_path, noise=noise))
        for trial in range(3 if fast_path else 1):
            outcomes = run_trial(small_config, trial, tables=tables, collect_maps=True, ground_rcs_m2=values)
            assert len(outcomes) == len(values)
            for value, outcome in zip(values, outcomes):
                alone = run_trial(replace(small_config, ground_rcs_m2=value), trial, tables=tables, collect_maps=True)
                assert_same_outcome(outcome, alone)

    def test_invalid_value_names_the_field(self, small_config):
        tables = build_tables(small_config, RunOptions())
        with pytest.raises(ConfigError, match="ground_rcs_m2"):
            run_trial(small_config, 0, tables=tables, ground_rcs_m2=(0.1, small_config.target_rcs_m2))

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_batch_runs_each_trial_once(self, small_config, monkeypatch, fast_path):
        # A batch of T trials with S values enters run_trial once per block of
        # _TRIAL_BLOCK trials, and keys each trial's target and phase streams
        # once, and on the fast path its noise stream, with no new generator.
        trials, sigmas = engine._TRIAL_BLOCK + 3, (-30.0, -20.0, -10.0)
        calls = {"run_trial": 0, "substream": 0, "_keyed": 0}

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return counted

        options = RunOptions(fast_path=fast_path, noise=fast_path)
        spec = SweepSpec(parameter="antennas", values=(4.0,), sigma_g_dbsm=sigmas, deltas=(0,))
        monkeypatch.setattr(engine, "run_trial", counting("run_trial", engine.run_trial))
        monkeypatch.setattr(engine, "substream", counting("substream", engine.substream))
        monkeypatch.setattr(engine, "_keyed", counting("_keyed", engine._keyed))
        rows, errors = sweep(spec, replace(small_config, trials=trials), options)
        assert not errors and len(rows) == len(sigmas)
        assert calls["run_trial"] == 2
        assert calls["_keyed"] == (3 if fast_path else 2) * trials
        if fast_path:
            assert calls["substream"] == 0


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
        assert cfg.altitude_m == pytest.approx(derive_altitude(base, 5))

    def test_constant_area_rejects_indivisible_grid(self):
        # d = 4 m would need a 25-cell side, which the 4x4 deployment cannot tile.
        with pytest.raises(ConfigError, match="grid_side"):
            _config_for_sweep_point("cell_size_constant_area", 4.0, ScenarioConfig())

    def test_altitude_point(self):
        cfg = _config_for_sweep_point("altitude", 120.0, ScenarioConfig())
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
            values=(10.0, 7.0, 0.0, -5.0),  # 7 m does not divide the 40 m area side; no cell is 0 or -5 m wide
            sigma_g_dbsm=(-30.0,),
            deltas=(0,),
        )
        rows, errors = sweep(spec, small_config)
        assert len(errors) == 3
        assert "7.0" in errors[0]
        for error, value in zip(errors[1:], (0.0, -5.0)):
            assert error == f"cell_size_constant_area={value}: grid_side: cell size must be positive, got {value}"
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

    def test_ground_rcs_axis_builds_once_per_beamformer(self, small_config, monkeypatch):
        # Ground RCS shapes no table, so a ground_rcs axis is the sigma_G axis
        # of one point: 2 builds for 3 values and 2 beamformers, not 6. Rows
        # come beamformer-major and equal those of one sweep per value.
        cfg = replace(small_config, trials=2)
        spec = SweepSpec(
            parameter="ground_rcs", values=(-30.0, -20.0, -10.0), beamformers=("capon", "ls"), deltas=(0, 1)
        )
        builds = []

        def counting(config, options, original=engine.build_tables):
            builds.append(options.beamformer)
            return original(config, options)

        monkeypatch.setattr(engine, "build_tables", counting)
        rows, errors = sweep(spec, cfg)
        assert not errors
        assert builds == ["capon", "ls"]
        assert [(r.beamformer, r.sweep_value, r.delta) for r in rows] == [
            (b, v, d) for b in spec.beamformers for v in spec.values for d in spec.deltas
        ]
        assert all(r.sigma_g_dbsm == r.sweep_value for r in rows)
        one_build_each = [replace(spec, values=(v,), beamformers=(b,)) for b in spec.beamformers for v in spec.values]
        assert rows == [row for part in one_build_each for row in sweep(part, cfg)[0]]

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_two_cpus)])
    @pytest.mark.parametrize("parameter, values", [("antennas", (2.0, 4.0)), ("ground_rcs", (-30.0, 5.0, 0.0))])
    def test_rows_equal_one_batch_per_sigma(self, small_config, workers, parameter, values):
        # A batch runs a point's sigma_G values on one pass of each trial; its
        # rows equal those of one run_monte_carlo_all_fusions call per value
        # on the same tables. Ground RCS near the target's gives each value
        # its own hit counts, so rows attributed to the wrong value show.
        cfg = replace(small_config, trials=6)
        spec = SweepSpec(
            parameter=parameter,
            values=values,
            beamformers=("capon", "ls"),
            fusions=("prenorm", "avg"),
            sigma_g_dbsm=(0.0, -30.0, 5.0),
            deltas=(2, 0),
        )
        rows, errors = sweep(spec, cfg, workers=workers)
        assert not errors
        if parameter == "ground_rcs":
            points = [[(v, v) for v in values]]
        else:
            points = [[(v, s) for s in spec.sigma_g_dbsm] for v in values]
        expected = []
        for runs in points:
            point = _config_for_sweep_point(parameter, runs[0][0], cfg)
            for beamformer in spec.beamformers:
                options = RunOptions(beamformer=beamformer)
                tables = build_tables(point, options)
                for value, sigma in runs:
                    config = _config_for_sweep_point("ground_rcs", sigma, point)
                    stats = run_monte_carlo_all_fusions(config, options, tables=tables)
                    for fusion in spec.fusions:
                        expected += sweep_rows(
                            stats[fusion], spec.deltas, parameter, value, beamformer, fusion, sigma, cfg.master_seed
                        )
        assert rows == expected

    def test_invalid_ground_rcs_values_reported_per_value(self, small_config):
        # 10 and 20 dBsm are not below the 10 dBsm target RCS; each is reported
        # and the valid values still run.
        spec = SweepSpec(parameter="ground_rcs", values=(-30.0, 10.0, -20.0, 20.0), deltas=(0,))
        rows, errors = sweep(spec, replace(small_config, trials=2))
        assert [e.split(":")[0] for e in errors] == ["ground_rcs=10.0", "ground_rcs=20.0"]
        assert all("ground_rcs_m2: must be smaller than target_rcs_m2" in e for e in errors)
        assert [r.sweep_value for r in rows] == [-30.0, -20.0]

    def test_failed_ground_rcs_build_reported_per_value(self, small_config):
        # A geometry that cannot be built fails the one shared build of each
        # beamformer; the error names every value it stops.
        base = _config_for_sweep_point("altitude", 0.5 * derive_altitude(small_config, 1), small_config)
        spec = SweepSpec(parameter="ground_rcs", values=(-30.0, -20.0), beamformers=("capon", "ls"), deltas=(0,))
        rows, errors = sweep(spec, replace(base, trials=2))
        assert not rows
        assert [e.split(": ")[0] for e in errors] == [
            "ground_rcs=-30.0, beamformer=capon",
            "ground_rcs=-20.0, beamformer=capon",
            "ground_rcs=-30.0, beamformer=ls",
            "ground_rcs=-20.0, beamformer=ls",
        ]
        assert all(e.split(": ", 1)[1].startswith("altitude_m: no cell fits") for e in errors)

    def test_low_altitude_classification_regime(self):
        # Below the 3x3 threshold each intended set collapses to one cell.
        base = ScenarioConfig()
        h_small = 0.9 * derive_altitude(base, 3)
        cfg = _config_for_sweep_point("altitude", h_small, base)
        tables = build_tables(cfg, RunOptions())
        sizes = {len(s.intended) for s in tables.cell_sets}
        assert sizes == {1}

    def test_footprint_overlap_rejected(self):
        # The error names the first intended cell, in (UAV, row-major) order,
        # that an earlier UAV intends too, and both UAVs; the oracle is a loop
        # over the cells.
        small = ScenarioConfig(uav_count=4, grid_side=8, area_side_m=40.0)
        for base, cells in [(ScenarioConfig(), 7), (ScenarioConfig(), 20), (small, 6)]:
            cfg = _config_for_sweep_point("altitude", 1.05 * derive_altitude(base, cells), base)
            grid = build_grid(cfg)
            positions = deploy_uavs(cfg, grid)
            owners, expected = {}, None
            for u in range(cfg.uav_count):
                for a, b in classify_cells(cfg, u, grid, positions).intended.tolist():
                    if expected is None and (a, b) in owners:
                        expected = f"cell ({a}, {b}) is intended for both UAV {owners[a, b]} and UAV {u}"
                    owners.setdefault((a, b), u)
            assert expected is not None
            with pytest.raises(ConfigError, match=f"^altitude_m: footprints overlap, {re.escape(expected)}$"):
                build_tables(cfg, RunOptions())

    def test_one_uav_rejected(self):
        # Half-duplex: no UAV listens to its own illumination, so one UAV has no pair.
        cfg = ScenarioConfig(uav_count=1, grid_side=4, array_side=4)
        with pytest.raises(ConfigError, match="^uav_count: half-duplex sensing needs at least 2 UAVs, got 1$"):
            build_tables(cfg, RunOptions())

    def test_no_intended_cells_rejected(self):
        base = ScenarioConfig()
        cfg = _config_for_sweep_point("altitude", 0.5 * derive_altitude(base, 1), base)
        with pytest.raises(ConfigError, match="altitude"):
            build_tables(cfg, RunOptions())

    def test_one_uav_without_intended_cells_rejected(self, small_config, monkeypatch):
        # Every UAV transmits, so a single UAV with no intended cell refuses the geometry.
        def one_empty(config, uav, grid, positions, original=engine.classify_cells):
            sets = original(config, uav, grid, positions)
            return replace(sets, intended=sets.intended[:0]) if uav == 2 else sets

        monkeypatch.setattr(engine, "classify_cells", one_empty)
        with pytest.raises(ConfigError, match="^altitude_m: no cell fits inside any footprint at this altitude$"):
            build_tables(small_config, RunOptions())
