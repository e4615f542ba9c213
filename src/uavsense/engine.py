"""Protocol orchestration: sensing rounds in blocks of trials, Monte Carlo batches, sweeps.

Every random quantity comes from a counter-based substream keyed by
(master_seed, trial, stream tag, ids...), so outcomes are a pure function of
the configuration and trial index, whatever block of trials runs it. A
fast-path trial draws its target, all its phases and all its noise from one
key each, as blocks over the scenario's (transmitter, listener) pairs; a
batch runs one array pass per step for a block of trials. No stream depends
on the ground RCS sigma_G, so the sigma_G values of a sweep point share each
trial's draws and kernels and give the same bytes as separate runs.
Parallel and serial execution agree bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .config import (
    DELTAS,
    FUSION_METHODS,
    SPEED_OF_LIGHT,
    ConfigError,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
)
from .geometry import (
    AoA,
    aoa,
    build_grid,
    classify_cells,
    deploy_uavs,
    footprint_radius,
)
from .beamforming import aoa_mesh, capon_beamformer, ls_beamformer, steering_matrix, steering_vector
from .ofdm import (
    Reflections,
    build_reflections,
    coherent_peaks,
    delay_kernel,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    reflection_amplitude,
    remove_data,
    subcarrier_ramps,
    synth_rx_frame,
    synth_tx_frame,
)
from .fusion import DetectionResult, LocalRcsMap, detection_delta, fuse_and_detect

__all__ = [
    "TrialOutcome",
    "DetectionStats",
    "SweepRow",
    "ScenarioTables",
    "build_tables",
    "run_trial",
    "run_monte_carlo",
    "run_monte_carlo_all_fusions",
    "sweep",
    "sweep_rows",
    "substream",
]

# Stream tags for the counter-based substream split.
_STREAM_TARGET = 1
_STREAM_PHASE = 2
_STREAM_NOISE = 3
_STREAM_TXDATA = 4

_MASK64 = (1 << 64) - 1

# RunOptions fields that shape a trial run on given tables; tables carry the
# options they were built with, and a caller's options must agree on these.
_TABLE_OPTION_FIELDS = ("beamformer", "fast_path", "noise")

# Config fields that may change between a table build and a run (RCS values,
# trial count, master seed); every other field shapes the tables.
_RUN_FIELDS = ("ground_rcs_m2", "target_rcs_m2", "trials", "master_seed")
_SHAPING = tuple(f.name for f in fields(ScenarioConfig) if f.name not in _RUN_FIELDS)

# Directions per ls_beamformer call in build_tables. A call pays its Python
# overhead once per block, and its lag-table operands take about 100 KB per
# direction at n = 8; blocks of 16 to 48 designed equally fast at n = 4-8, and
# 16 keeps the temporaries smallest.
_LS_BLOCK = 16

# Most trials per run_trial call in a batch. Each block pays about 1 ms of fixed
# cost (its Python and numpy calls, one pass over the coupling table, the weight
# gathers), so a batch of T trials runs as ceil(T / _TRIAL_BLOCK) blocks whose
# sizes differ by at most one: 50 as 17/17/16, 20 as 10/10. A default 50-trial
# batch's temporaries peak at 6.8 MB (9.3 MB with two sigma_G values), a table
# build at 8.9 MB. Default 400-trial batches, one BLAS thread on a 2-core host:
# after a single build, 1.03-1.04 ms a trial with 107 page faults a trial,
# against 1.20-1.71 ms and 133 faults in blocks of 8; after three builds, when
# nothing faults, 0.78 against 0.92 ms.
_TRIAL_BLOCK = 17


# Name of the random-number scheme below, recorded in run manifests; any change
# to a stream's bytes gets a new name.
RNG_SCHEME = "splitmix64-path/philox4x64-10/v3-phase-words"

# e^{-2 pi j m / 2**32} of a 32-bit phase word m is the product of three table
# entries, one per bit field of m: bits 0-10 (LOW), 11-21 (MID) and 22-31
# (HIGH), 80 KB in all. LOW and MID span less than 0.007 rad; HIGH repeats its
# first quarter turn, rotated by the exact factors -j, -1 and j.
_PHASOR_LOW = np.exp(np.arange(2048) * (-2j * math.pi / 2**32))
_PHASOR_MID = np.exp(np.arange(2048) * (-2j * math.pi / 2**21))
_PHASOR_HIGH = np.concatenate([np.exp(np.arange(256) * (-2j * math.pi / 2**10)) * q for q in (1, -1j, -1, 1j)])
# Words per gather run of _phasors; a run's index and product temporaries
# (64 and 128 KB) stay in cache. Gathering a default 8-trial block whole took
# about 3x as long (0.22 against 0.07 ms a trial, timed alone).
_PHASOR_RUN = 8192


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer on a Python int masked to 64 bits; a cheap, well-mixed hash step.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _path_words(master_seed: int, path) -> tuple[int, int]:
    # Parts wrap modulo 2**64: negative ids and ids of 2**64 or more name the stream of their residue.
    acc = master_seed & _MASK64
    for part in path:
        acc = _splitmix64(acc ^ _splitmix64(int(part) & _MASK64))
    return acc, _splitmix64(acc ^ 0xA5A5A5A5A5A5A5A5)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (trial, tag, ids...) path under one seed.

    The path is hashed with SplitMix64 into two uint64 words; they reach
    Philox as a uint64 key array, which numpy stores exactly.
    """
    return np.random.Generator(np.random.Philox(key=np.array(_path_words(master_seed, path), dtype=np.uint64)))


@dataclass(frozen=True)
class TrialOutcome:
    trial: int
    target_xy: tuple[float, float]
    detections: dict  # fusion method -> DetectionResult
    local_maps: list | None = None  # LocalRcsMap of each UAV
    fused_maps: dict | None = None  # fusion method -> (L, L) fused map


@dataclass(frozen=True)
class DetectionStats:
    """Hit counts and detection probabilities with 95% binomial intervals."""

    trials: int
    hits: tuple[int, int, int]  # one count per delta in DELTAS

    def p_detect(self, delta: int) -> float:
        return self.hits[delta] / self.trials

    def ci95_halfwidth(self, delta: int) -> float:
        """Half-width of the Wald interval; 0 at p = 0 and p = 1, where wilson95 is not."""
        p = self.p_detect(delta)
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)

    def wilson95(self, delta: int) -> tuple[float, float]:
        """The 95% Wilson score interval (lo, hi) of the detection probability;
        its ends are exactly 0 at p = 0 and exactly 1 at p = 1."""
        p, z2, n = self.p_detect(delta), 1.96**2, self.trials
        center = (p + z2 / (2 * n)) / (1 + z2 / n)
        half = 1.96 * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
        return (0.0 if p == 0.0 else center - half), (1.0 if p == 1.0 else center + half)


@dataclass(frozen=True)
class SweepRow:
    sweep_param: str
    sweep_value: float
    beamformer: str
    fusion: str
    sigma_g_dbsm: float
    delta: int
    trials: int
    hits: int
    p_detect: float
    ci95_halfwidth: float
    seed: int


def sweep_rows(
    stats: DetectionStats,
    deltas,
    sweep_param: str,
    sweep_value: float,
    beamformer: str,
    fusion: str,
    sigma_g_dbsm: float,
    seed: int,
) -> list[SweepRow]:
    """One result row per delta of a batch's detection statistics."""
    return [
        SweepRow(
            sweep_param=sweep_param,
            sweep_value=float(sweep_value),
            beamformer=beamformer,
            fusion=fusion,
            sigma_g_dbsm=float(sigma_g_dbsm),
            delta=delta,
            trials=stats.trials,
            hits=stats.hits[delta],
            p_detect=stats.p_detect(delta),
            ci95_halfwidth=stats.ci95_halfwidth(delta),
            seed=seed,
        )
        for delta in deltas
    ]


@dataclass
class ScenarioTables:
    """Everything static for one (scenario geometry, beamformer) combination.

    Every UAV transmits while the other U - 1 listen: pair-major arrays have one
    row per off-diagonal (tx, rx) pair, tx-major with listeners ascending, and
    `pair_rows(tx)` names a transmitter's rows. Every transmitter has the same
    number n_p of intended cells (the blocks are congruent and no two intended
    sets overlap), so only the ground cells need padding. Every UAV flies at
    positions[0, 2], so a trial takes the footprint radius from it.
    """

    config: ScenarioConfig
    options: RunOptions
    grid: object
    positions: np.ndarray  # (U, 3) UAV positions, from deploy_uavs
    cell_sets: list
    pair_tx: np.ndarray  # (P,) transmitter of each pair
    pair_rx: np.ndarray  # (P,) listener of each pair
    matched_delay: np.ndarray  # (P, n_p)
    est_scale: np.ndarray  # (P, n_p) maps matched power to sigma-hat
    noise_var: np.ndarray  # (P, n_p) per-sample variance N0 BW ||w||^2
    designs: np.ndarray  # (D, n^2) receive weights of each distinct design
    design_index: np.ndarray  # (P, n_p) row of `designs` for each pair and intended cell
    # (P, n_q_max, n_p) matched_coupling of the ground at unit RCS, in illuminated-cell
    # order; rows past a transmitter's own n_q are zero, so they add +0.0 to any sum.
    # Reference tables hold a zero-width (P, n_q_max, 0) array: only its shape is read,
    # to size the phase block.
    ground_coupling: np.ndarray
    map_index: np.ndarray  # (P, n_p) flat index of each (listener, cell) in the (U, L, L) map stack

    def pair_rows(self, tx: int) -> slice:
        """Rows of transmitter tx's pairs in the pair-major arrays, its listeners ascending."""
        return slice(tx * (len(self.positions) - 1), (tx + 1) * (len(self.positions) - 1))

    def pair_weights(self, rows) -> np.ndarray:
        """Receive weights of the pair rows `rows` (an index, slice or index array of the
        pair-major arrays), one (n_p, n^2) block per pair, gathered from `designs`."""
        return self.designs[self.design_index[rows]]


def build_tables(config: ScenarioConfig, options: RunOptions) -> ScenarioTables:
    """Precompute geometry, beamformers, and trial-invariant coupling tables.

    The tables depend on the geometry, array size, OFDM timing, and beamformer
    design only; RCS values, seeds, and trial counts can change without a
    rebuild (ground amplitudes are stored for unit RCS). Every UAV transmits,
    so a geometry in which any UAV has no intended cell raises ConfigError.

    The uniform scenario repeats itself, and the build computes each repeated
    part once, byte-identical to computing it again. A pair's geometry is the
    exact bytes of its offsets q - tx, q - rx, p - tx and p - rx (q the
    illuminated, p the intended cells); a pair that repeats an earlier pair's
    geometry takes its design rows and copies its ground block. The defaults
    have 160 distinct pair geometries among their 240 pairs, 16 UAVs over an
    8x8 grid of 40 m have 48, and a non-dyadic area side shares none. The rows
    of the distinct pairs design a beamformer per distinct intended direction
    (LS: per symmetry orbit), and the tables hold each design once: `designs`
    has one row per distinct direction (LS: the 8 images of each orbit), and
    `design_index` names each (pair, cell)'s row, read through
    `pair_weights` (1200 rows for the 6000 of the default Capon tables).
    Both stages run aoa once per distinct listener-to-cell offset of the new
    pairs, keyed by its 24 bytes: the defaults evaluate 1212 of the 5332
    (listener, illuminated cell) rows and 1200 of the 4000 (listener, intended
    cell) rows (LS: 165 orbit offsets), 2412 rows (LS: 1377) in place of 9332.

    Reference tables (``options.fast_path`` false) skip the ground stage: the
    frames never read a coupling, so their ``ground_coupling`` is a zero-width
    (P, n_q_max, 0) array whose shape sizes the trial's phase block.
    """
    if config.uav_count < 2:
        raise ConfigError(f"uav_count: half-duplex sensing needs at least 2 UAVs, got {config.uav_count}")
    grid = build_grid(config)
    positions = deploy_uavs(config, grid)
    U = config.uav_count
    L = config.grid_side
    n = config.array_side
    cell_sets = [classify_cells(config, u, grid, positions) for u in range(U)]
    if not all(len(s.intended) for s in cell_sets):
        raise ConfigError("altitude_m: no cell fits inside any footprint at this altitude")

    # Intended cells in (UAV, row-major) order; the first repeat of a cell names it and its two UAVs.
    owner = np.repeat(np.arange(U), [len(s.intended) for s in cell_sets])
    intended = np.concatenate([s.intended for s in cell_sets])
    _, first, inverse = np.unique(intended[:, 0] * L + intended[:, 1], return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(len(intended)))
    if len(repeats):
        k = repeats[0]
        raise ConfigError(
            f"altitude_m: footprints overlap, cell ({intended[k, 0]}, {intended[k, 1]}) "
            f"is intended for both UAV {owner[first[inverse[k]]]} and UAV {owner[k]}"
        )

    noise_w = config.noise_density_w_hz * config.bandwidth_hz

    # Geometry of each transmitter, broadcast over its listeners (the other UAVs).
    # A pair's geometry key is a tuple of its offsets' bytes, so offsets of
    # different shapes never collide; its source is the first pair row with its key.
    pair_tx, pair_rx = np.nonzero(~np.eye(U, dtype=bool))
    intended = np.stack([s.intended for s in cell_sets])  # (U, n_p, 2)
    staged, offsets, delays, scales = [], [], [], []
    geometries, source = {}, []
    for tx in range(U):
        illuminated = cell_sets[tx].illuminated
        rx_pos = positions[pair_rx[pair_tx == tx]][:, None]  # (L, 1, 3)
        q_points = grid.centers[illuminated[:, 0], illuminated[:, 1]]  # (n_q, 3)
        q_offsets = q_points - rx_pos  # (L, n_q, 3)
        d1_q = np.linalg.norm(q_points - positions[tx], axis=1)
        d2_q = np.linalg.norm(q_offsets, axis=-1)  # (L, n_q)
        p_points = grid.centers[intended[tx, :, 0], intended[tx, :, 1]]  # (n_p, 3)
        p_offsets = p_points - rx_pos  # (L, n_p, 3)
        d1_p = np.linalg.norm(p_points - positions[tx], axis=1)
        d2_p = np.linalg.norm(p_offsets, axis=-1)  # (L, n_p)
        amplitude = reflection_amplitude(config, 1.0, d1_q, d2_q)
        scale = estimate_rcs(1.0, config, d1_p, d2_p)
        shared = ((q_points - positions[tx]).tobytes(), (p_points - positions[tx]).tobytes())
        for q, p in zip(q_offsets, p_offsets):
            source.append(geometries.setdefault(shared + (q.tobytes(), p.tobytes()), len(source)))
        tau_q = (d1_q + d2_q) / SPEED_OF_LIGHT
        staged.append((rx_pos, q_points, amplitude, tau_q))
        delays.append((d1_p + d2_p) / SPEED_OF_LIGHT)
        scales.append(scale)
        offsets.append(p_offsets)
    source = np.array(source)
    new = source == np.arange(len(source))
    del geometries  # its keys hold every distinct pair's offsets; released before the later stages

    # A design is a pure function of its intended AoA, and the uniform
    # deployment repeats (listener, cell) offsets, so each distinct direction of
    # the new pairs' rows is designed once, keyed on the 16 bytes of
    # (theta, phi) (so -0.0 and 0.0 stay apart).
    # The LS design also follows the square array's 8 symmetries, each of which
    # maps the design mesh onto the image direction's mesh as a multiset. With
    # steering entry (i, j) = x^i y^j (x the dy step, y the dx step): swapping dx
    # and dy transposes the design; negating dx reverses it along j and
    # multiplies it by y0^-(n-1), y0 the dx step of mesh point 0 before the
    # flip; negating both dx and dy conjugates it. So LS rows are designed once
    # per orbit, at the offset (max(|dx|, |dy|), min(|dx|, |dy|), dz), and each
    # row takes its image: transposed if |dy| > |dx|, then flipped if dx < 0
    # after the mirror, then conjugated if dy < 0 (or dy = 0 and dx < 0), so
    # mirrored rows stay exact conjugates. aoa runs on the distinct (folded)
    # offsets only.
    offsets = np.concatenate(offsets)[new].reshape(-1, 3)
    if options.beamformer == "ls":
        dx, dy = offsets[:, 0], offsets[:, 1]
        mirror = (dy < 0) | ((dy == 0) & (dx < 0))
        flip = np.where(mirror, dx > 0, dx < 0)
        swap = np.abs(dy) > np.abs(dx)
        offsets[:, :2] = np.sort(np.abs(offsets[:, :2]), axis=1)[:, ::-1]
    toward, rows = _distinct_aoa(offsets)
    bits = np.stack([toward.theta, toward.phi], axis=-1).view(np.dtype((np.void, 16)))[:, 0]
    keys, inverse = np.unique(bits, return_inverse=True)
    inverse = inverse[rows]
    directions = AoA(*keys.view(np.float64).reshape(-1, 2).T)

    # Pair-major tables; the design stage's inverse index runs over the new
    # pairs' (listener, cell) rows, and each pair reads its source's.
    matched_delay = np.concatenate(delays)
    est_scale = np.concatenate(scales)
    if options.beamformer == "capon":
        designs, index = capon_beamformer(directions, n), inverse
    else:
        images = np.empty((len(keys), 2, 2, 2, n, n), dtype=complex)  # [design, swap, flip, mirror]
        for start in range(0, len(keys), _LS_BLOCK):
            block = slice(start, start + _LS_BLOCK)
            mesh = aoa_mesh(AoA(directions.theta[block], directions.phi[block]), n)
            images[block, 0, 0, 0] = ls_beamformer(mesh, n).reshape(-1, n, n)
        images[:, 1, 0, 0] = images[:, 0, 0, 0].transpose(0, 2, 1)
        # x^(n-1) and y^(n-1) of each design's mesh point 0; a transposed design's dx step is x.
        ramp = steering_vector(directions, n).reshape(-1, n, n)
        corner = np.stack([ramp[:, 0, n - 1], ramp[:, n - 1, 0]], axis=1).conj()
        images[:, :, 1, 0] = images[:, :, 0, 0, :, ::-1] * corner[:, :, None, None]
        images[:, :, :, 1] = images[:, :, :, 0].conj()
        designs = images.reshape(-1, n * n)
        index = ((inverse * 2 + swap) * 2 + flip) * 2 + mirror
        del images
    design_index = index.reshape(-1, matched_delay.shape[1])[(np.cumsum(new) - 1)[source]]
    # A pair's weights are its designs' rows, so its noise variance is theirs.
    noise_var = (noise_w * np.sum(np.abs(designs) ** 2, axis=-1))[design_index]

    n_q_max = max(len(q_points) for _, q_points, *_ in staged)
    width = matched_delay.shape[1] if options.fast_path else 0  # reference tables: zero width
    tables = ScenarioTables(
        config=config,
        options=options,
        grid=grid,
        positions=positions,
        cell_sets=cell_sets,
        pair_tx=pair_tx,
        pair_rx=pair_rx,
        matched_delay=matched_delay,
        est_scale=est_scale,
        noise_var=noise_var,
        designs=designs,
        design_index=design_index,
        ground_coupling=np.zeros((len(design_index), n_q_max, width), dtype=complex),
        map_index=(pair_rx[:, None] * L + intended[pair_tx, :, 0]) * L + intended[pair_tx, :, 1],
    )
    if options.fast_path:
        _build_ground_blocks(tables, staged, new)
        tables.ground_coupling[~new] = tables.ground_coupling[source[~new]]
    return tables


def _build_ground_blocks(tables, staged, new) -> None:
    """Fill the ground_coupling rows of the pairs that `new` marks with the
    matched_coupling of their ground at unit RCS, byte for byte.

    Each transmitter's new listeners are stacked; every stacked row equals its
    own single build bit for bit. Every transmitter builds at least one: its
    pair with UAV 0 (UAV 0: any pair) has a listener offset that an earlier
    transmitter would need a listener at a negative grid index to repeat. The
    uniform deployment repeats (listener, illuminated cell) offsets across
    transmitters, so aoa and steering_matrix run once per distinct offset of
    the new pairs (1212 for the 5332 rows of the defaults), and each block
    gathers its steering columns from them. delay_kernel works entry by entry,
    so it is computed once, on the grid of the distinct bit patterns of the new
    pairs' ground delays tau_q and matched delays tau_p, and each block looks
    its delays' bits up in that grid and gathers its entries.
    """
    n = tables.config.array_side
    new_by_tx = new.reshape(len(staged), -1)  # (U, U - 1), the rows of pair_rows(tx) in row tx
    ground_delays = np.concatenate([tau_q[built].ravel() for built, (*_, tau_q) in zip(new_by_tx, staged)])
    q_bits = np.unique(ground_delays.view(np.uint64))
    p_bits = np.unique(tables.matched_delay[new].view(np.uint64))
    kernel = delay_kernel(q_bits.view(np.float64), p_bits.view(np.float64), tables.config)
    offsets = [(q_points - rx_pos[built]).reshape(-1, 3) for built, (rx_pos, q_points, *_) in zip(new_by_tx, staged)]
    toward, columns = _distinct_aoa(np.concatenate(offsets))
    steering = steering_matrix(toward, n)  # (n^2, distinct offsets)
    runs = np.split(columns, np.cumsum([len(o) for o in offsets])[:-1])  # one per transmitter
    del offsets
    for tx, (built, (_, q_points, amplitude, tau_q), index) in enumerate(zip(new_by_tx, staged, runs)):
        rows = tables.pair_rows(tx).start + np.flatnonzero(built)
        # matmul hands a stack to BLAS only when it is contiguous; a strided
        # operand is summed in another order. The strided gather is released once copied.
        ground = steering[:, index.reshape(len(rows), -1)]
        ground = np.ascontiguousarray(ground.transpose(1, 0, 2))  # (new listeners, n^2, n_q)
        weights = tables.pair_weights(rows)
        chi = np.conjugate(weights, out=weights) @ ground  # (new listeners, n_p, n_q)
        del ground, weights  # each temporary is released before the next is made
        block = amplitude[built][..., None] * chi.transpose(0, 2, 1)  # matched_coupling's product, in its order
        del chi
        q_rows = np.searchsorted(q_bits, tau_q[built].view(np.uint64))
        p_rows = np.searchsorted(p_bits, tables.matched_delay[rows].view(np.uint64))
        block *= kernel[q_rows[:, :, None], p_rows[:, None, :]]
        tables.ground_coupling[rows, : len(q_points)] = block


def _distinct_aoa(offsets: np.ndarray) -> tuple[AoA, np.ndarray]:
    """aoa at the origin of each distinct row of the (K, 3) `offsets`, rows keyed by their
    24 bytes (so -0.0 and 0.0 stay apart), and the (K,) index of each row's distinct row.
    aoa at the origin of an offset equals aoa of its two end points bit for bit."""
    _, first, index = np.unique(offsets.view(np.dtype((np.void, 24)))[:, 0], return_index=True, return_inverse=True)
    return aoa(np.zeros(3), offsets[first]), index


def _keyed(generator: np.random.Generator, master_seed: int, *path: int) -> np.random.Generator:
    """`generator` (a Philox one) re-keyed to the start of substream(master_seed, *path), whose draws it
    then gives byte for byte; a new state costs about 1 us, a new Philox 11 us or more."""
    key, zeros = np.array(_path_words(master_seed, path), dtype=np.uint64), np.zeros(4, dtype=np.uint64)
    generator.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                                     "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def _trial_targets(config: ScenarioConfig, tables: ScenarioTables, trials, target_override, generator):
    """Each trial's target position (T, 3) and whether each UAV's footprint covers it (T, U)."""
    targets = np.zeros((len(trials), 3))
    if target_override is not None:
        targets[:, :2] = target_override[0], target_override[1]
    else:
        for row, trial in zip(targets, trials):
            row[:2] = _keyed(generator, config.master_seed, trial, _STREAM_TARGET).uniform(0.0, config.area_side_m, 2)
    proj, footprint = tables.positions[:, :2], footprint_radius(config, tables.positions[0, 2])
    return targets, np.hypot(targets[:, :1] - proj[:, 0], targets[:, 1:2] - proj[:, 1]) <= footprint


def _phase_words(config: ScenarioConfig, tables: ScenarioTables, trials, generator) -> np.ndarray:
    """Each trial's 32-bit phase words m, shape (T, P, n_q_max + 1).

    Row p of a trial holds pair p's ground words in illuminated-cell order from
    column 0 and its target word in the last column. The words are
    substream(seed, trial, PHASE)'s raw 64-bit outputs, each split into two
    words, the low half first, on any host byte order; an odd count drops the
    last high half.
    """
    pairs, n_q_max, _ = tables.ground_coupling.shape
    count = pairs * (n_q_max + 1)
    raw = np.empty((len(trials), (count + 1) // 2), dtype="<u8")
    for row, trial in zip(raw, trials):
        row[:] = _keyed(generator, config.master_seed, trial, _STREAM_PHASE).bit_generator.random_raw(len(row))
    return raw.view("<u4")[:, :count].reshape(len(trials), pairs, n_q_max + 1)


def _phasors(words: np.ndarray) -> np.ndarray:
    """e^{-j zeta} of each phase word m, zeta = 2 pi m / 2**32, as the product of its bit fields' table
    entries, gathered in runs of _PHASOR_RUN words of `words` in C order."""
    out = np.empty(words.shape, dtype=complex)
    flat, m = out.reshape(-1), words.reshape(-1)
    for start in range(0, m.size, _PHASOR_RUN):
        run, part = m[start : start + _PHASOR_RUN].astype(np.intp), flat[start : start + _PHASOR_RUN]
        np.take(_PHASOR_HIGH, run >> 22, out=part)
        part *= _PHASOR_MID[(run >> 11) & 0x7FF]
        part *= _PHASOR_LOW[run & 0x7FF]
    return out


def _target_couplings(config, tables, lit, targets, covered) -> np.ndarray:
    """The target's matched_coupling row of each lit (trial, pair) of a block, `lit` holding their block
    and pair rows, trial-major. Distances and steering vectors are computed once per (trial, UAV); a lit
    transmitter's weights are gathered once, and each (trial, listener) takes its own (n_p, n^2) @ (n^2, 1)."""
    trial_rows, rows = lit
    positions, n = tables.positions, config.array_side
    distance = np.linalg.norm(positions - targets[:, None], axis=-1)  # (T, U)
    toward = steering_matrix(aoa(positions, targets[:, None]), n).T.conj().reshape(len(targets), -1, n * n, 1)
    slot = np.zeros(covered.shape[:1] + tables.pair_tx.shape, dtype=int)  # (trial, pair) -> its lit row
    slot[lit] = np.arange(len(rows))
    gain = np.empty(rows.shape + tables.design_index.shape[1:], dtype=complex)
    for tx in np.flatnonzero(covered.any(axis=0)):
        pairs, lit_trials = tables.pair_rows(tx), np.flatnonzero(covered[:, tx])
        listeners = tables.pair_rx[pairs]
        gain[slot[lit_trials, pairs]] = (tables.pair_weights(pairs) @ toward[lit_trials[:, None], listeners])[..., 0]
    d1, d2 = distance[trial_rows, tables.pair_tx[rows]], distance[trial_rows, tables.pair_rx[rows]]
    amplitude = reflection_amplitude(config, config.target_rcs_m2, d1, d2)
    return matched_coupling(amplitude, gain.conj(), (d1 + d2) / SPEED_OF_LIGHT, tables.matched_delay[rows], config)


def _closed_form_estimates(config, tables, trials, targets, covered, ground_rcs_m2, generator):
    """Fast-path RCS estimates of a block of trials, (values, T, P, n_p), each the bytes of its trial alone.

    Each step runs once for the block and all the ground RCS values: one table
    phasor of the pair-major phase words, one contraction of the (P, T, 1,
    n_q_max) phasors with the padded (P, 1, n_q_max, n_p) ground coupling (a
    pair's coupling is read once for all the trials), and the target rows of
    every lit (trial, pair). Each value scales the ground sum by its square
    root and adds the target rows; each (trial, pair, cell) takes one complex
    Gaussian from the trial's noise.
    """
    phases = _phasors(np.ascontiguousarray(_phase_words(config, tables, trials, generator).transpose(1, 0, 2)))
    ground = np.empty((len(trials),) + tables.est_scale.shape, dtype=complex)  # (T, P, n_p)
    np.matmul(phases[:, :, None, :-1], tables.ground_coupling[:, None], out=ground.transpose(1, 0, 2)[:, :, None])
    lit = np.nonzero(covered[:, tables.pair_tx])
    target_rows = phases[lit[1], lit[0], -1:] * _target_couplings(config, tables, lit, targets, covered)
    del phases  # large temporaries are released once read, see _TRIAL_BLOCK
    draws = scale = None
    if tables.options.noise:
        scale = np.sqrt(config.symbols_per_frame * config.subcarriers * tables.noise_var / 2.0)
        draws = np.empty((len(trials), ground.shape[1], 2, ground.shape[2]))
        for row, trial in zip(draws, trials):
            _keyed(generator, config.master_seed, trial, _STREAM_NOISE).standard_normal(out=row)
    estimates = np.empty((len(ground_rcs_m2),) + ground.shape)
    for k, (out, sigma) in enumerate(zip(estimates, ground_rcs_m2)):
        total = np.multiply(ground, math.sqrt(sigma), out=ground if k == len(estimates) - 1 else None)
        total[lit] += target_rows
        np.multiply(coherent_peaks(total, config, scale, draws), tables.est_scale, out=out)
    return estimates


def _reference_estimates(config, tables, trial, target, illuminated_by, zeta):
    """Frame-level RCS estimates of every pair, shape (P, n_p).

    Each transmitter builds the reflections of all its listeners once, with
    their rows of the trial's phase block `zeta` and one gain row per intended cell.
    Each (tx, rx) pair then synthesizes the frames of all its cells as one
    stack, taking their noise as one (n_p, 2, N, M) draw from
    substream(seed, trial, NOISE, tx, rx). Frames are held for one pair at a time.

    Subcarrier ramps are computed once per distinct delay of the trial, keyed
    on the delay's exact bits, and gathered per pair: the matched ramps of the
    tables' matched delays up front, and the delay ramps of the reflections as
    each transmitter brings delays not seen before. A ramp depends only on its
    own delay, so the frames and estimates are the bytes of per-pair ramps.
    """
    positions = tables.positions
    bits, matched_rows = np.unique(tables.matched_delay.view(np.uint64), return_inverse=True)
    matched_ramps = subcarrier_ramps(bits.view(np.float64), config, +1)
    matched_rows = matched_rows.reshape(tables.matched_delay.shape)
    delay_rows = {}  # bits of a reflection delay -> its row of delay_ramps
    delay_ramps = np.empty((0, config.subcarriers), dtype=complex)
    peaks = np.empty(tables.est_scale.shape)
    for tx in range(config.uav_count):
        rows = tables.pair_rows(tx)
        listeners = tables.pair_rx[rows]
        tx_frame = synth_tx_frame(config, substream(config.master_seed, trial, _STREAM_TXDATA, tx))
        columns = np.arange(len(tables.cell_sets[tx].illuminated))
        lit_target = None
        if illuminated_by[tx]:
            lit_target, columns = target, np.append(columns, -1)
        built = build_reflections(
            config, tx, listeners, positions[tx], positions[listeners], tables.cell_sets[tx], tables.grid,
            tables.pair_weights(rows), lit_target, zeta[rows, columns],
        )
        # Rows for this transmitter's delays; ramps of delays not seen before are appended in row order.
        bits, inverse = np.unique(built.delay_s.view(np.uint64), return_inverse=True)
        known = len(delay_rows)
        ramp_rows = np.array([delay_rows.setdefault(b, len(delay_rows)) for b in bits.tolist()])
        delay_ramps = np.concatenate([delay_ramps, subcarrier_ramps(bits[ramp_rows >= known].view(np.float64), config)])
        ramp_rows = ramp_rows[inverse.reshape(built.delay_s.shape)]
        for i, rx in enumerate(listeners):
            p = rows.start + i
            reflections = Reflections(built.amplitude[i], built.gain[i], built.delay_s[i], built.phase[i])
            ramps = delay_ramps[ramp_rows[i]]
            if tables.options.noise:
                noise = substream(config.master_seed, trial, _STREAM_NOISE, tx, rx)
                draws = noise.standard_normal((len(tables.cell_sets[tx].intended), 2) + tx_frame.shape)
                rx_frames = synth_rx_frame(tx_frame, reflections, ramps, config, tables.noise_var[p], draws)
            else:
                rx_frames = synth_rx_frame(tx_frame, reflections, ramps, config)
            processed = remove_data(rx_frames, tx_frame)
            peaks[p] = matched_point_value(processed, matched_ramps[matched_rows[p]], config)
    return peaks * tables.est_scale


def run_trial(
    config: ScenarioConfig,
    trial,
    options: RunOptions | None = None,
    tables: ScenarioTables | None = None,
    target_override=None,
    collect_maps: bool = False,
    ground_rcs_m2=None,
) -> TrialOutcome | list:
    """One complete sensing round: illuminate, estimate, fuse, detect.

    Each UAV in turn illuminates its block while every other UAV estimates the
    RCS of the illuminated intended cells; the local maps are fused and the
    argmax cell compared against the true target position. Detections are
    computed for both fusion methods since they share all estimates.

    Given a sequence of ground RCS values in m^2, returns one outcome per
    value, each byte for byte the outcome of
    ``run_trial(replace(config, ground_rcs_m2=value), trial, ...)``. The fast
    path draws and contracts the trial once for all of them; the reference
    path synthesizes its frames once per value.

    `trial` may be a block of ids (any sequence), which returns one entry per
    id, each the bytes of run_trial on that id alone: a single trial is a
    block of one, and the fast path runs each step once per block.
    """
    tables = _checked_tables(config, options, tables)
    configs = [config] if ground_rcs_m2 is None else [replace(config, ground_rcs_m2=s) for s in ground_rcs_m2]
    trials = [trial] if np.ndim(trial) == 0 else list(trial)

    generator = np.random.Generator(np.random.Philox(0))  # re-keyed before each draw, see _keyed
    targets, covered = _trial_targets(config, tables, trials, target_override, generator)
    if tables.options.fast_path:
        sigmas = [c.ground_rcs_m2 for c in configs]
        estimates = _closed_form_estimates(config, tables, trials, targets, covered, sigmas, generator)
    else:
        zeta = _phase_words(config, tables, trials, generator) * (2.0 * math.pi / 2**32)  # zeta on [0, 2 pi)
        estimates = np.empty((len(configs), len(trials)) + tables.est_scale.shape)
        for s, c in enumerate(configs):
            for k, t in enumerate(trials):
                estimates[s, k] = _reference_estimates(c, tables, t, targets[k], covered[k], zeta[k])
    outcomes = _outcomes(config, tables, trials, targets, estimates, collect_maps)
    per_trial = outcomes[0] if ground_rcs_m2 is None else [list(values) for values in zip(*outcomes)]
    return per_trial[0] if np.ndim(trial) == 0 else per_trial


def _outcomes(config, tables, trials, targets, estimates, collect_maps) -> list[list[TrialOutcome]]:
    """The outcomes [value][trial] of a block's pair estimates (values, T, P, n_p): local maps
    scattered into one (values, T, U, L, L) stack, fused and detected by every fusion method."""
    U, L = config.uav_count, config.grid_side
    maps = np.full(estimates.shape[:2] + (U * L * L,), np.nan)
    maps[:, :, tables.map_index] = estimates
    maps = maps.reshape(estimates.shape[:2] + (U, L, L))
    fused_maps, found = {}, []  # found: (method, rows, cols, delta*), each [value][trial]
    for method, (fused, (rows, cols)) in fuse_and_detect(maps).items():
        star = detection_delta(targets, tables.grid.centers[rows, cols], config.cell_size_m)
        found.append((method, rows.tolist(), cols.tolist(), star.tolist()))
        fused_maps[method] = fused
    return [
        [
            TrialOutcome(
                trial=trial,
                target_xy=(float(targets[k, 0]), float(targets[k, 1])),
                detections={
                    m: DetectionResult((row[s][k], col[s][k]), star[s][k])
                    for m, row, col, star in found
                },
                local_maps=[LocalRcsMap(owner=u, values=maps[s, k, u]) for u in range(U)] if collect_maps else None,
                fused_maps={m: fused[s, k] for m, fused in fused_maps.items()} if collect_maps else None,
            )
            for k, trial in enumerate(trials)
        ]
        for s in range(len(estimates))
    ]


def _checked_tables(config: ScenarioConfig, options: RunOptions | None, tables: ScenarioTables | None):
    """The tables a run of `config` reads: `tables` once checked against `config` and
    `options` (fusion aside), or, without them, tables built for both."""
    if tables is None:
        return build_tables(config, options or RunOptions())
    if config is not tables.config and any(getattr(tables.config, f) != getattr(config, f) for f in _SHAPING):
        raise ConfigError("tables were built for a different scenario geometry")
    for name in _TABLE_OPTION_FIELDS if options is not None else ():
        given, built = getattr(options, name), getattr(tables.options, name)
        if given != built:
            raise ConfigError(f"{name}: options give {given!r} but the tables were built with {built!r}")
    return tables


def _count_hits(config, trials, tables, ground_rcs_m2) -> np.ndarray:
    """Hit counts of `trials`, shape (values, fusion methods, deltas), one row per value of
    `ground_rcs_m2`; the trials run in ceil(T / _TRIAL_BLOCK) contiguous blocks whose sizes
    differ by at most one, one run_trial call each."""
    counts = np.zeros((len(ground_rcs_m2), len(FUSION_METHODS), len(DELTAS)), dtype=int)
    blocks = -(-len(trials) // _TRIAL_BLOCK)
    for k in range(blocks):
        ids = trials[k * len(trials) // blocks : (k + 1) * len(trials) // blocks]
        block = run_trial(config, ids, tables=tables, ground_rcs_m2=ground_rcs_m2)
        stars = np.array([[[o.detections[m].delta_star for m in FUSION_METHODS] for o in values] for values in block])
        counts += (stars[..., None] <= DELTAS).sum(axis=0)  # a hit at delta d is a delta* of at most d
    return counts


def _batch(config, tables, workers: int, ground_rcs_m2) -> list[dict[str, DetectionStats]]:
    """Detection statistics of config.trials trials on `tables`, one dict per
    value of `ground_rcs_m2`, each trial run once for all values."""
    trial_ids = list(range(config.trials))
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        counts = _count_hits(config, trial_ids, tables, ground_rcs_m2)
    else:
        chunks = [trial_ids[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            counts = sum(pool.map(_count_hits, repeat(config), chunks, repeat(tables), repeat(ground_rcs_m2)))
    return [
        {
            method: DetectionStats(trials=config.trials, hits=tuple(int(h) for h in hits))
            for method, hits in zip(FUSION_METHODS, per_value)
        }
        for per_value in counts
    ]


def run_monte_carlo_all_fusions(
    config: ScenarioConfig,
    options: RunOptions | None = None,
    workers: int = 1,
    tables: ScenarioTables | None = None,
) -> dict[str, DetectionStats]:
    """Aggregate hit counts over config.trials trials for both fusion methods.

    Given tables are used as they are; `options`, if also given, must agree
    with the options the tables were built with (fusion aside). Tables are
    built once here and shared with every worker process. At most
    ``os.cpu_count()`` worker processes start, however large `workers` is.
    """
    tables = _checked_tables(config, options, tables)
    return _batch(config, tables, workers, (config.ground_rcs_m2,))[0]


def run_monte_carlo(
    config: ScenarioConfig,
    options: RunOptions | None = None,
    workers: int = 1,
    tables: ScenarioTables | None = None,
) -> DetectionStats:
    """Monte Carlo detection statistics for the fusion method in `options`.

    Randomness is pre-split per trial, so any partition of the trial range
    across workers yields bit-identical statistics.
    """
    fusion = (options or RunOptions()).fusion
    return run_monte_carlo_all_fusions(config, options, workers, tables)[fusion]


def sweep(
    spec: SweepSpec,
    base_config: ScenarioConfig,
    base_options: RunOptions | None = None,
    workers: int = 1,
) -> tuple[list[SweepRow], list[str]]:
    """Run the Monte Carlo batches of every sweep combination.

    Returns result rows plus a list of diagnostics for sweep values whose
    configuration is invalid; invalid points are reported, never silently
    skipped. It does not read base_config.ground_rcs_m2, base_options.beamformer
    or base_options.fusion: the spec's sigma_G axis, beamformers and fusions
    set them. The spec gives each point's config (``spec.point``) and sigma_G
    values (``spec.sigma_g``). Runs whose configs differ only in
    ground_rcs_m2 (the sigma_G values of a point, or all the points of an
    axis whose values are sigma_G) share one table build per beamformer and
    one batch: each trial's draws, phasors, ground sum and target rows are
    computed once for all its sigma_G values, and every row has the same
    bytes as a separate run of its value. Fusion and delta axes share the
    batch's hit counts. Rows come point by point and beamformer-major within
    a point, so an axis whose values are sigma_G gives all its values for the
    first beamformer, then all for the next.
    """
    base_options = base_options or RunOptions()
    rows: list[SweepRow] = []
    errors: list[str] = []
    # Every config field but ground_rcs_m2 -> its runs (sweep value, sigma_G in dBsm, config).
    groups: dict[tuple, list] = {}
    for value in spec.values:
        try:
            point_config = spec.point(value, base_config)
        except ConfigError as exc:
            errors.append(f"{spec.parameter}={value}: {exc}")
            continue
        for sigma, ground_rcs_m2 in spec.sigma_g(value):
            try:
                config = replace(point_config, ground_rcs_m2=ground_rcs_m2)
            except ConfigError as exc:  # where the values are the sigma_G, the value alone names the run
                run = "" if spec.sigma_g_key == "sweep.values" else f", sigma_G={sigma} dBsm"
                errors.append(f"{spec.parameter}={value}{run}: {exc}")
                continue
            key = tuple(getattr(config, f.name) for f in fields(config) if f.name != "ground_rcs_m2")
            groups.setdefault(key, []).append((value, sigma, config))
    for runs in groups.values():
        config = runs[0][2]
        ground_rcs_m2 = tuple(run_config.ground_rcs_m2 for _, _, run_config in runs)
        for beamformer in spec.beamformers:
            options = replace(base_options, beamformer=beamformer)
            try:
                tables = build_tables(config, options)
            except ConfigError as exc:
                values = dict.fromkeys(value for value, _, _ in runs)
                errors += [f"{spec.parameter}={value}, beamformer={beamformer}: {exc}" for value in values]
                continue
            for (value, sigma, _), stats in zip(runs, _batch(config, tables, workers, ground_rcs_m2)):
                for fusion in spec.fusions:
                    rows += sweep_rows(
                        stats[fusion], spec.deltas, spec.parameter, value, beamformer, fusion, sigma, config.master_seed
                    )
    return rows, errors
