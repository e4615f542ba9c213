"""Protocol orchestration: per-trial sensing rounds, Monte Carlo batches, sweeps.

Every random quantity comes from a counter-based substream keyed by
(master_seed, trial, stream tag, ids...), so outcomes are a pure function of
the configuration and trial index. A fast-path trial draws its target, all
its phases and all its noise from one key each, as blocks over the
scenario's (transmitter, listener) pairs. Trials are independent work units;
parallel and serial execution agree bit for bit.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import (
    DELTAS,
    FUSION_METHODS,
    SPEED_OF_LIGHT,
    ConfigError,
    RunOptions,
    ScenarioConfig,
    SweepSpec,
    dbsm_to_m2,
)
from .geometry import (
    AoA,
    aoa,
    build_grid,
    cell_of_point,
    classify_cells,
    deploy_uavs,
    derive_altitude,
    footprint_radius,
)
from .beamforming import aoa_mesh, capon_beamformer, ls_beamformer, steering_matrix, steering_vector
from .ofdm import (
    Reflections,
    build_reflections,
    coherent_peaks,
    estimate_rcs,
    matched_coupling,
    matched_point_value,
    reflection_amplitude,
    remove_data,
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


# Name of the random-number scheme below, recorded in run manifests; any change
# to a stream's bytes gets a new name.
RNG_SCHEME = "splitmix64-path/philox4x64-10/v2-trial-blocks"


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
    """Hit counts and detection probabilities with 95% binomial half-widths."""

    trials: int
    hits: tuple[int, int, int]  # one count per delta in DELTAS

    def p_detect(self, delta: int) -> float:
        return self.hits[delta] / self.trials

    def ci95_halfwidth(self, delta: int) -> float:
        p = self.p_detect(delta)
        return 1.96 * math.sqrt(p * (1.0 - p) / self.trials)


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
class _TransmitterTables:
    """One active transmitter and its listeners. Every listener shares the
    transmitter's illuminated and intended cells."""

    tx: int
    rx: np.ndarray  # (L,) listeners, ascending
    cells: np.ndarray  # (n_p, 2) intended cells, row-major order
    pairs: slice  # rows of its (tx, rx) pairs, in the order of rx, in the pair-major arrays


@dataclass
class ScenarioTables:
    """Everything static for one (scenario geometry, beamformer) combination.

    Pair-major arrays have one row per (transmitter, listener) pair, in the
    order of `transmitters` and their listeners. Every transmitter has the
    same number n_p of intended cells (the blocks are congruent and no two
    intended sets overlap), so only the ground cells need padding.
    """

    config: ScenarioConfig
    options: RunOptions
    grid: object
    deployment: object
    cell_sets: list
    footprints: np.ndarray  # (U,) ground radii
    transmitters: list  # _TransmitterTables of each UAV with intended cells, ascending
    pair_tx: np.ndarray  # (P,) transmitter of each pair
    pair_rx: np.ndarray  # (P,) listener of each pair
    matched_delay: np.ndarray  # (P, n_p)
    est_scale: np.ndarray  # (P, n_p) maps matched power to sigma-hat
    noise_var: np.ndarray  # (P, n_p) per-sample variance N0 BW ||w||^2
    noise_scale: np.ndarray  # (P, n_p) noise deviation per part of a matched sum, sqrt(N M noise_var / 2)
    weights: np.ndarray  # (P, n_p, n^2) receive weights per pair and intended cell
    # (P, n_q_max, n_p) matched_coupling of the ground at unit RCS, in illuminated-cell
    # order; rows past a transmitter's own n_q are zero, so they add +0.0 to any sum.
    ground_coupling: np.ndarray
    map_index: np.ndarray  # (P, n_p) flat index of each (listener, cell) in the (U, L, L) map stack

    def compatible_with(self, config: ScenarioConfig) -> bool:
        return config is self.config or all(getattr(self.config, name) == getattr(config, name) for name in _SHAPING)


def build_tables(config: ScenarioConfig, options: RunOptions) -> ScenarioTables:
    """Precompute geometry, beamformers, and trial-invariant coupling tables.

    The tables depend on the geometry, array size, OFDM timing, and beamformer
    design only; RCS values, seeds, and trial counts can change without a
    rebuild (ground amplitudes are stored for unit RCS).
    """
    if config.uav_count < 2:
        raise ConfigError(f"uav_count: half-duplex sensing needs at least 2 UAVs, got {config.uav_count}")
    grid = build_grid(config)
    deployment = deploy_uavs(config, grid)
    U = config.uav_count
    L = config.grid_side
    n = config.array_side
    cell_sets = [classify_cells(config, u, grid, deployment) for u in range(U)]
    footprints = np.array([footprint_radius(config, deployment.positions[u][2]) for u in range(U)])

    owners = np.full((L, L), -1, dtype=int)
    for u in range(U):
        for a, b in cell_sets[u].intended:
            if owners[a, b] != -1:
                raise ConfigError(
                    "altitude_m: footprints overlap, cell "
                    f"({a}, {b}) is intended for both UAV {owners[a, b]} and UAV {u}"
                )
            owners[a, b] = u
    if all(len(s.intended) == 0 for s in cell_sets):
        raise ConfigError("altitude_m: no cell fits inside any footprint at this altitude")

    noise_w = config.noise_density_w_hz * config.bandwidth_hz
    positions = deployment.positions

    # Geometry of each transmitter, broadcast over its listeners (the rows of rx).
    staged, offsets, delays, scales = [], [], [], []
    for tx in range(U):
        intended = cell_sets[tx].intended
        if len(intended) == 0:
            continue
        illuminated = cell_sets[tx].illuminated
        listeners = np.array([rx for rx in range(U) if rx != tx])
        rx_pos = positions[listeners][:, None]  # (L, 1, 3)
        q_points = grid.centers[illuminated[:, 0], illuminated[:, 1]]  # (n_q, 3)
        d1_q = np.linalg.norm(q_points - positions[tx], axis=1)
        d2_q = np.linalg.norm(rx_pos - q_points, axis=-1)  # (L, n_q)
        p_points = grid.centers[intended[:, 0], intended[:, 1]]  # (n_p, 3)
        d1_p = np.linalg.norm(p_points - positions[tx], axis=1)
        d2_p = np.linalg.norm(rx_pos - p_points, axis=-1)  # (L, n_p)
        with np.errstate(over="ignore", divide="ignore"):
            amplitude = reflection_amplitude(config, 1.0, d1_q, d2_q)
            scale = estimate_rcs(1.0, config, d1_p, d2_p)
        both = np.concatenate([amplitude, scale], axis=1)
        if not np.all((both > 0) & (both < np.inf)):
            raise ConfigError(
                f"carrier_frequency_hz: a wavelength of {config.wavelength_m!r} m with transmit_power_w = "
                f"{config.transmit_power_w!r} and transmit_gain = {config.transmit_gain!r} puts the two-hop "
                "amplitudes or RCS scales of this geometry outside the positive finite floats"
            )
        tau_q = (d1_q + d2_q) / SPEED_OF_LIGHT
        tau_p = (d1_p + d2_p) / SPEED_OF_LIGHT
        staged.append((tx, listeners, intended, rx_pos, q_points, amplitude, tau_q, tau_p))
        delays.append(tau_p)
        scales.append(scale)
        offsets.append((p_points - rx_pos).reshape(-1, 3))

    # A design is a pure function of its intended AoA, and the uniform
    # deployment repeats (listener, cell) offsets, so each distinct direction is
    # designed once, keyed on the exact bits of (theta, phi) (so -0.0 and 0.0 stay apart).
    # The LS design also follows the square array's 8 symmetries, each of which
    # maps the design mesh onto the image direction's mesh as a multiset. With
    # steering entry (i, j) = x^i y^j (x the dy step, y the dx step): swapping dx
    # and dy transposes the design; negating dx reverses it along j and
    # multiplies it by y0^-(n-1), y0 the dx step of mesh point 0 before the
    # flip; negating both dx and dy conjugates it. So LS rows are designed once
    # per orbit, at the offset (max(|dx|, |dy|), min(|dx|, |dy|), dz), and each
    # row takes its image: transposed if |dy| > |dx|, then flipped if dx < 0
    # after the mirror, then conjugated if dy < 0 (or dy = 0 and dx < 0), so
    # mirrored rows stay exact conjugates. aoa at the origin of an offset equals
    # aoa of its two end points bit for bit.
    offsets = np.concatenate(offsets)
    if options.beamformer == "ls":
        dx, dy = offsets[:, 0], offsets[:, 1]
        mirror = (dy < 0) | ((dy == 0) & (dx < 0))
        flip = np.where(mirror, dx > 0, dx < 0)
        swap = np.abs(dy) > np.abs(dx)
        offsets[:, :2] = np.sort(np.abs(offsets[:, :2]), axis=1)[:, ::-1]
    toward = aoa(np.zeros(3), offsets)
    bits = np.stack([toward.theta, toward.phi], axis=-1).view(np.uint64)
    keys, inverse = np.unique(bits, axis=0, return_inverse=True)
    directions = AoA(*keys.view(np.float64).T)

    # Pair-major tables; the design stage's inverse index already runs over
    # (transmitter, listener, cell).
    matched_delay = np.concatenate(delays)
    est_scale = np.concatenate(scales)
    if options.beamformer == "capon":
        weights = capon_beamformer(directions, n)[inverse]
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
        weights = images[inverse, swap.astype(int), flip.astype(int), mirror.astype(int)]
    weights = weights.reshape(matched_delay.shape + (n * n,))
    noise_var = noise_w * np.sum(np.abs(weights) ** 2, axis=-1)
    n_q_max = max(len(cell_sets[tx].illuminated) for tx, *_ in staged)
    ground_coupling = np.zeros((len(weights), n_q_max, matched_delay.shape[1]), dtype=complex)
    transmitters, start = [], 0
    for tx, listeners, intended, rx_pos, q_points, amplitude, tau_q, tau_p in staged:
        rows = slice(start, start + len(listeners))
        start = rows.stop
        # matmul hands a stack to BLAS only when it is contiguous; a strided
        # operand is summed in another order.
        ground = steering_matrix(aoa(rx_pos, q_points), n).reshape(n * n, len(listeners), -1).transpose(1, 0, 2)
        chi = weights[rows].conj() @ np.ascontiguousarray(ground)  # (L, n_p, n_q)
        del ground  # released before the temporaries of matched_coupling
        ground_coupling[rows, : len(q_points)] = matched_coupling(
            amplitude, chi.transpose(0, 2, 1), tau_q, tau_p[:, None], config
        )
        transmitters.append(_TransmitterTables(tx=tx, rx=listeners, cells=intended, pairs=rows))
    return ScenarioTables(
        config=config,
        options=options,
        grid=grid,
        deployment=deployment,
        cell_sets=cell_sets,
        footprints=footprints,
        transmitters=transmitters,
        pair_tx=np.concatenate([np.full(len(r.rx), r.tx) for r in transmitters]),
        pair_rx=np.concatenate([r.rx for r in transmitters]),
        matched_delay=matched_delay,
        est_scale=est_scale,
        noise_var=noise_var,
        noise_scale=np.sqrt(config.symbols_per_frame * config.subcarriers * noise_var / 2.0),
        weights=weights,
        ground_coupling=ground_coupling,
        map_index=np.concatenate([(r.rx[:, None] * L + r.cells[:, 0]) * L + r.cells[:, 1] for r in transmitters]),
    )


def _trial_target(config: ScenarioConfig, tables: ScenarioTables, trial: int, target_override):
    """The trial's target position and, per UAV, whether its footprint covers it."""
    if target_override is not None:
        xy = target_override
    else:
        xy = substream(config.master_seed, trial, _STREAM_TARGET).uniform(0.0, config.area_side_m, size=2)
    target = np.array([xy[0], xy[1], 0.0])
    proj = tables.deployment.positions[:, :2]
    return target, np.hypot(target[0] - proj[:, 0], target[1] - proj[:, 1]) <= tables.footprints


def _phase_block(config: ScenarioConfig, tables: ScenarioTables, trial: int) -> np.ndarray:
    """The trial's reflection phases, uniform on [0, 2 pi), shape (P, n_q_max + 1).

    Row p holds pair p's ground phases in illuminated-cell order from column
    0 and its target phase in the last column. Both paths read this block.
    """
    pairs, n_q_max, _ = tables.ground_coupling.shape
    return substream(config.master_seed, trial, _STREAM_PHASE).uniform(0.0, 2.0 * math.pi, size=(pairs, n_q_max + 1))


def _target_couplings(config, tables, rows, target, illuminated_by) -> np.ndarray:
    """The target's matched_coupling row for each pair in `rows`, the ascending pair rows of the
    transmitters that `illuminated_by` marks, shape (len(rows), n_p).
    Distances and steering vectors are computed once per UAV and read per pair."""
    positions = tables.deployment.positions
    distance = np.linalg.norm(positions - target, axis=1)
    toward = steering_matrix(aoa(positions, target), config.array_side).T.conj()[:, :, None]  # (U, n^2, 1)
    d1, d2 = distance[tables.pair_tx[rows]], distance[tables.pair_rx[rows]]
    # Weights are read in place, one transmitter's block of pair rows at a time.
    gain = np.concatenate([tables.weights[r.pairs] @ toward[r.rx] for r in tables.transmitters if illuminated_by[r.tx]])
    return matched_coupling(
        reflection_amplitude(config, config.target_rcs_m2, d1, d2),
        gain[:, :, 0].conj(),
        (d1 + d2) / SPEED_OF_LIGHT,
        tables.matched_delay[rows],
        config,
    )


def _closed_form_estimates(config, tables, trial, target, illuminated_by):
    """Fast-path RCS estimates of every pair, shape (P, n_p).

    The ground sum of all pairs is one contraction of the trial's phase block
    with the padded ground coupling; the target rows are added for the pairs
    of illuminating transmitters, and the noise of every (pair, cell) is one
    complex Gaussian from one (P, 2, n_p) block of substream(seed, trial, NOISE).
    """
    phases = np.exp(-1j * _phase_block(config, tables, trial))
    total = (phases[:, None, :-1] @ tables.ground_coupling)[:, 0, :]
    total *= math.sqrt(config.ground_rcs_m2)
    lit = np.flatnonzero(illuminated_by[tables.pair_tx])
    if lit.size:
        total[lit] += phases[lit, -1:] * _target_couplings(config, tables, lit, target, illuminated_by)
    if not tables.options.noise:
        return coherent_peaks(total, config) * tables.est_scale
    draws = substream(config.master_seed, trial, _STREAM_NOISE).standard_normal((len(total), 2, total.shape[1]))
    return coherent_peaks(total, config, tables.noise_scale, draws) * tables.est_scale


def _reference_estimates(config, tables, trial, target, illuminated_by):
    """Frame-level RCS estimates of every pair, shape (P, n_p).

    Each transmitter builds the reflections of all its listeners once, with
    their rows of the trial's phase block and one gain row per intended cell.
    Each (tx, rx) pair then synthesizes the frames of all its cells as one
    stack, taking their noise as one (n_p, 2, N, M) draw from
    substream(seed, trial, NOISE, tx, rx). Frames are held for one pair at a time.
    """
    positions = tables.deployment.positions
    zeta = _phase_block(config, tables, trial)
    peaks = np.empty(tables.est_scale.shape)
    for record in tables.transmitters:
        tx, rows = record.tx, record.pairs
        tx_frame = synth_tx_frame(config, substream(config.master_seed, trial, _STREAM_TXDATA, tx))
        columns = np.arange(len(tables.cell_sets[tx].illuminated))
        lit_target = None
        if illuminated_by[tx]:
            lit_target, columns = target, np.append(columns, -1)
        built = build_reflections(
            config, tx, record.rx, positions[tx], positions[record.rx], tables.cell_sets[tx], tables.grid,
            tables.weights[rows], lit_target, zeta[rows, columns],
        )
        for i, rx in enumerate(record.rx):
            p = rows.start + i
            reflections = Reflections(
                built.amplitude[i], built.gain[i], built.delay_s[i], built.doppler_hz, built.phase[i]
            )
            if tables.options.noise:
                noise = substream(config.master_seed, trial, _STREAM_NOISE, tx, rx)
                draws = noise.standard_normal((len(record.cells), 2) + tx_frame.shape)
                rx_frames = synth_rx_frame(tx_frame, reflections, config, tables.noise_var[p], draws)
            else:
                rx_frames = synth_rx_frame(tx_frame, reflections, config)
            processed = remove_data(rx_frames, tx_frame)
            peaks[p] = matched_point_value(processed, tables.matched_delay[p], config.doppler_hz, config)
    return peaks * tables.est_scale


def run_trial(
    config: ScenarioConfig,
    trial: int,
    options: RunOptions | None = None,
    tables: ScenarioTables | None = None,
    target_override=None,
    collect_maps: bool = False,
) -> TrialOutcome:
    """One complete sensing round: illuminate, estimate, fuse, detect.

    Each UAV in turn illuminates its block while every other UAV estimates the
    RCS of the illuminated intended cells; the local maps are fused and the
    argmax cell compared against the true target position. Detections are
    computed for both fusion methods since they share all estimates.
    """
    if tables is None:
        tables = build_tables(config, options or RunOptions())
    else:
        _check_tables(config, options, tables)
    L = config.grid_side
    U = config.uav_count

    target, illuminated_by = _trial_target(config, tables, trial, target_override)
    estimate = _closed_form_estimates if tables.options.fast_path else _reference_estimates
    maps = np.full(U * L * L, np.nan)
    maps[tables.map_index] = estimate(config, tables, trial, target, illuminated_by)
    maps = maps.reshape(U, L, L)

    true_cell = cell_of_point(tables.grid, target[0], target[1])
    detections, fused_maps = {}, {}
    for method, (fused, detected) in fuse_and_detect(maps).items():
        center = tables.grid.centers[detected[0], detected[1]]
        delta_star = detection_delta(target, center, config.cell_size_m)
        detections[method] = DetectionResult(
            detected_cell=detected,
            true_cell=true_cell,
            delta_star=delta_star,
            hits=tuple(delta_star <= d for d in DELTAS),
        )
        fused_maps[method] = fused
    return TrialOutcome(
        trial=trial,
        target_xy=(float(target[0]), float(target[1])),
        detections=detections,
        local_maps=[LocalRcsMap(owner=u, values=maps[u]) for u in range(U)] if collect_maps else None,
        fused_maps=fused_maps if collect_maps else None,
    )


def _check_tables(config: ScenarioConfig, options: RunOptions | None, tables: ScenarioTables) -> None:
    if not tables.compatible_with(config):
        raise ConfigError("tables were built for a different scenario geometry")
    if options is None:
        return
    for name in _TABLE_OPTION_FIELDS:
        given, built = getattr(options, name), getattr(tables.options, name)
        if given != built:
            raise ConfigError(f"{name}: options give {given!r} but the tables were built with {built!r}")


def _count_hits(config, trials, tables) -> dict:
    counts = {method: np.zeros(len(DELTAS), dtype=int) for method in FUSION_METHODS}
    for trial in trials:
        outcome = run_trial(config, trial, tables=tables)
        for method, result in outcome.detections.items():
            counts[method] += np.asarray(result.hits, dtype=int)
    return counts


def _count_hits_star(args):
    return _count_hits(*args)


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
    if config.trials < 1:
        raise ConfigError("trials: must be >= 1")
    if tables is None:
        tables = build_tables(config, options or RunOptions())
    else:
        _check_tables(config, options, tables)
    trial_ids = list(range(config.trials))
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        counts = _count_hits(config, trial_ids, tables)
    else:
        chunks = [trial_ids[i::workers] for i in range(workers)]
        chunks = [c for c in chunks if c]
        counts = {method: np.zeros(len(DELTAS), dtype=int) for method in FUSION_METHODS}
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(_count_hits_star, [(config, chunk, tables) for chunk in chunks]):
                for method in counts:
                    counts[method] += part[method]
    return {
        method: DetectionStats(trials=config.trials, hits=tuple(int(h) for h in counts[method]))
        for method in FUSION_METHODS
    }


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


def _config_for_sweep_point(parameter: str, value: float, base: ScenarioConfig) -> ScenarioConfig:
    if parameter == "cell_size_constant_coverage":
        # Fixed grid and per-UAV coverage; the cell size rescales the whole
        # area, and the derived altitude grows with it.
        return replace(base, area_side_m=value * base.grid_side, altitude_mode="derived", altitude_m=None)
    if parameter == "cell_size_constant_area":
        # Fixed area and altitude; the cell size changes how many cells exist.
        new_side = round(base.area_side_m / value)
        if new_side < 1 or abs(new_side * value - base.area_side_m) > 1e-9 * base.area_side_m:
            raise ConfigError(f"grid_side: cell size {value} does not evenly divide the area side")
        altitude = (
            derive_altitude(base, base.cells_per_uav_side)
            if base.altitude_mode == "derived"
            else base.altitude_m
        )
        return replace(base, grid_side=new_side, altitude_mode="explicit", altitude_m=altitude)
    if parameter == "antennas":
        side = int(value)
        if side != value:
            raise ConfigError(f"array_side: must be an integer, got {value}")
        return replace(base, array_side=side, altitude_mode="derived", altitude_m=None)
    if parameter == "altitude":
        return replace(base, altitude_mode="explicit", altitude_m=float(value))
    if parameter == "ground_rcs":
        return replace(base, ground_rcs_m2=dbsm_to_m2(value))
    raise ConfigError(f"sweep.parameter: unknown parameter {parameter!r}")


def sweep(
    spec: SweepSpec,
    base_config: ScenarioConfig,
    base_options: RunOptions | None = None,
    workers: int = 1,
) -> tuple[list[SweepRow], list[str]]:
    """Run one Monte Carlo batch per sweep combination.

    Returns result rows plus a list of diagnostics for sweep values whose
    configuration is invalid; invalid points are reported, never silently
    skipped. Scenario tables are shared across the sigma_G, fusion, and delta
    axes of each sweep point.
    """
    base_options = base_options or RunOptions()
    rows: list[SweepRow] = []
    errors: list[str] = []
    sigma_values = spec.sigma_g_dbsm if spec.parameter != "ground_rcs" else (None,)
    for value in spec.values:
        try:
            point_config = _config_for_sweep_point(spec.parameter, value, base_config)
        except ConfigError as exc:
            errors.append(f"{spec.parameter}={value}: {exc}")
            continue
        for beamformer in spec.beamformers:
            options = replace(base_options, beamformer=beamformer)
            try:
                tables = build_tables(point_config, options)
            except ConfigError as exc:
                errors.append(f"{spec.parameter}={value}, beamformer={beamformer}: {exc}")
                continue
            for sigma_dbsm in sigma_values:
                if sigma_dbsm is None:
                    config = point_config
                    sigma_report = value
                else:
                    try:
                        config = replace(point_config, ground_rcs_m2=dbsm_to_m2(sigma_dbsm))
                    except ConfigError as exc:
                        errors.append(f"{spec.parameter}={value}, sigma_G={sigma_dbsm} dBsm: {exc}")
                        continue
                    sigma_report = sigma_dbsm
                stats = run_monte_carlo_all_fusions(config, options, workers, tables)
                for fusion in spec.fusions:
                    rows += sweep_rows(
                        stats[fusion], spec.deltas, spec.parameter, value, beamformer, fusion, sigma_report,
                        config.master_seed,
                    )
    return rows, errors
