"""Protocol orchestration: per-trial sensing rounds, Monte Carlo batches, sweeps.

Every random quantity comes from a counter-style substream derived from
(master_seed, trial, stream tag, ids), so outcomes are a pure function of the
configuration and trial index. The fast path computes the same streams in
bulk: the keys of all pairs at once, then one reused generator reset to each.
Trials are independent work units; parallel and serial execution agree bit
for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import (
    DELTAS,
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
    path_distances,
)
from .beamforming import aoa_mesh, capon_beamformer, ls_beamformer, steering_matrix
from .ofdm import (
    OfdmParams,
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
from .fusion import DetectionResult, LocalRcsMap, detect, detection_delta, fuse

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

FUSION_METHODS = ("avg", "prenorm")

# Stream tags for the counter-based substream split.
_STREAM_TARGET = 1
_STREAM_PHASE = 2
_STREAM_NOISE = 3
_STREAM_TXDATA = 4

_MASK64 = (1 << 64) - 1

# RunOptions fields that shape a trial run on given tables; tables carry the
# options they were built with, and a caller's options must agree on these.
_TABLE_OPTION_FIELDS = ("beamformer", "fast_path", "noise", "ls_iterations")

# Config fields that may change between a table build and a run (RCS values,
# trial count, master seed); every other field shapes the tables.
_RUN_FIELDS = ("ground_rcs_m2", "target_rcs_m2", "trials", "master_seed")


# Name of the random-number scheme below, recorded in run manifests; any change
# to a stream's bytes gets a new name.
RNG_SCHEME = "splitmix64-path/philox4x64-10/v1"


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer on uint64 arrays (wrapping arithmetic); a cheap,
    # well-mixed 64-bit hash step.
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _words(part) -> np.ndarray:
    # A path part as uint64, wrapping modulo 2**64: negative ids and ids of
    # 2**64 or more name the stream of their residue.
    if np.ndim(part) == 0:
        return np.asarray(int(part) & _MASK64, dtype=np.uint64)
    return np.asarray(part).astype(np.uint64)


def _stream_keys(master_seed: int, trial, tag, *ids) -> np.ndarray:
    """Philox keys of the substreams at (trial, tag, *ids), shape broadcast(ids) + (2,).

    The path is hashed with SplitMix64. The two words are then what
    ``np.random.Philox(key=(k0, k1))`` stores for Python ints k0 and k1: numpy
    parses the tuple with ``np.asarray``, which gives float64 when exactly one
    word is >= 2**63, so both words of such a key are rounded to float64
    before the cast to uint64. Keys whose words are both below 2**63, or both
    at or above it, are exact.
    """
    path = np.stack(np.broadcast_arrays(*(_words(part) for part in (trial, tag, *ids))))
    shape = path.shape[1:]
    acc = np.full(path[0].size, master_seed & _MASK64, dtype=np.uint64)
    for hashed in _mix64(path.reshape(len(path), -1)):
        acc = _mix64(acc ^ hashed)
    keys = np.stack([acc, _mix64(acc ^ np.uint64(0xA5A5A5A5A5A5A5A5))], axis=1)
    top = keys >> np.uint64(63)
    mixed = top[:, :1] != top[:, 1:]
    keys = np.where(mixed, keys.astype(np.float64).astype(np.uint64), keys)
    return keys.reshape(shape + (2,))


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for a (trial, tag, ids...) path under one seed."""
    return np.random.Generator(np.random.Philox(key=_stream_keys(master_seed, *path)))


def _keyed_draws(generator: np.random.Generator, keys: np.ndarray, method: str, shape: tuple) -> np.ndarray:
    """``substream`` draws of ``method(shape)`` (an ``out``-taking Generator
    method) for every key row of a (K, 2) array, shape (K, *shape).

    The Philox under `generator` is reset to each key in turn, with the
    counter and buffer of a new generator; a reset is much cheaper than
    constructing one.
    """
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": None},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((len(keys),) + tuple(shape))
    draw = getattr(generator, method)
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        generator.bit_generator.state = state
        draw(out=row)
    return out


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
    """Static factors of one active transmitter and all its listeners, reused
    across trials. Every listener shares the transmitter's illuminated and
    intended cells; rows follow `rx`."""

    tx: int
    rx: np.ndarray  # (L,) listeners, ascending
    cells: np.ndarray  # (n_p, 2) intended cells, row-major order
    matched_delay: np.ndarray  # (L, n_p)
    est_scale: np.ndarray  # (L, n_p) maps matched power to sigma-hat
    noise_var: np.ndarray  # (L, n_p) per-sample variance N0 BW ||w||^2
    ground_coupling: np.ndarray  # (L, n_q, n_p) matched_coupling of the ground at unit RCS
    weights: np.ndarray  # (L, n_p, n^2) receive weights per listener and intended cell


@dataclass
class ScenarioTables:
    """Everything static for one (scenario geometry, beamformer) combination."""

    config: ScenarioConfig
    options: RunOptions
    grid: object
    deployment: object
    cell_sets: list
    footprints: np.ndarray  # (U,) ground radii
    transmitters: list  # _TransmitterTables of each UAV with intended cells, ascending

    def compatible_with(self, config: ScenarioConfig) -> bool:
        shaping = [f.name for f in fields(config) if f.name not in _RUN_FIELDS]
        return all(getattr(self.config, name) == getattr(config, name) for name in shaping)


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

    params = OfdmParams.from_config(config)
    noise_w = config.noise_density_w_hz * config.bandwidth_hz

    # A design is a pure function of its intended AoA, and the uniform
    # deployment repeats (listener, cell) offsets, so each distinct direction is
    # designed once, keyed on the exact bits of (theta, phi).
    designs: dict[bytes, np.ndarray] = {}

    def design(theta: float, phi: float) -> np.ndarray:
        key = np.array([theta, phi]).tobytes()
        if key not in designs:
            direction = AoA(theta, phi)
            if options.beamformer == "capon":
                designs[key] = capon_beamformer(direction, n)
            else:
                designs[key] = ls_beamformer(aoa_mesh(direction, n), n, iterations=options.ls_iterations)
        return designs[key]

    transmitters = []
    for tx in range(U):
        intended = cell_sets[tx].intended
        if len(intended) == 0:
            continue
        illuminated = cell_sets[tx].illuminated
        tx_pos = deployment.positions[tx]
        q_points = grid.centers[illuminated[:, 0], illuminated[:, 1]]  # (n_q, 3)
        d1_q = np.linalg.norm(q_points - tx_pos, axis=1)
        p_points = grid.centers[intended[:, 0], intended[:, 1]]  # (n_p, 3)
        d1_p = np.linalg.norm(p_points - tx_pos, axis=1)
        listeners = np.array([rx for rx in range(U) if rx != tx])
        n_l, n_q, n_p = len(listeners), len(q_points), len(p_points)
        record = _TransmitterTables(
            tx=tx,
            rx=listeners,
            cells=intended,
            matched_delay=np.empty((n_l, n_p)),
            est_scale=np.empty((n_l, n_p)),
            noise_var=np.empty((n_l, n_p)),
            ground_coupling=np.empty((n_l, n_q, n_p), dtype=complex),
            weights=np.empty((n_l, n_p, n * n), dtype=complex),
        )
        for k, rx in enumerate(listeners):
            rx_pos = deployment.positions[rx]
            d2_q = np.linalg.norm(rx_pos - q_points, axis=1)
            d2_p = np.linalg.norm(rx_pos - p_points, axis=1)
            tau_p = (d1_p + d2_p) / SPEED_OF_LIGHT

            toward = aoa(rx_pos, p_points)
            w_stack = np.stack([design(t, f) for t, f in zip(toward.theta, toward.phi)])  # (n_p, n^2)
            chi = w_stack.conj() @ steering_matrix(aoa(rx_pos, q_points), n)  # (n_p, n_q)
            record.ground_coupling[k] = matched_coupling(
                reflection_amplitude(config, 1.0, d1_q, d2_q),
                chi.T,
                (d1_q + d2_q) / SPEED_OF_LIGHT,
                config.doppler_hz,
                tau_p,
                config.doppler_hz,
                params,
            )
            record.matched_delay[k] = tau_p
            record.est_scale[k] = estimate_rcs(1.0, config, d1_p, d2_p)
            record.noise_var[k] = noise_w * np.sum(np.abs(w_stack) ** 2, axis=1)
            record.weights[k] = w_stack
        transmitters.append(record)
    return ScenarioTables(
        config=config,
        options=options,
        grid=grid,
        deployment=deployment,
        cell_sets=cell_sets,
        footprints=footprints,
        transmitters=transmitters,
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


def _target_couplings(config, tables, params, record, target) -> np.ndarray:
    """The target's matched_coupling row for every listener of an illuminating
    transmitter, shape (L, n_p); one call covers all listeners."""
    positions = tables.deployment.positions
    g_target = steering_matrix(aoa(positions[record.rx], target), config.array_side)  # (n^2, L)
    d1, d2 = np.array([path_distances(positions[record.tx], target, positions[rx]) for rx in record.rx]).T
    return matched_coupling(
        reflection_amplitude(config, config.target_rcs_m2, d1, d2),
        (record.weights.conj() @ g_target.T[:, :, None])[:, :, 0],
        (d1 + d2) / SPEED_OF_LIGHT,
        config.doppler_hz,
        record.matched_delay,
        config.doppler_hz,
        params,
    )


def _closed_form_estimates(config, tables, params, trial, target, illuminated_by):
    """Fast-path RCS estimates, shape (L, n_p), of every listener of each transmitter.

    Reflections follow the order of build_reflections: ground cells first,
    the target last when the transmitter illuminates it. Each (tx, rx) pair
    draws its phases from substream(seed, trial, PHASE, tx, rx) and its noise
    from substream(seed, trial, NOISE, tx, rx); every pair draws the longest
    phase length and uses its prefix.
    """
    records = tables.transmitters
    tx_ids = np.concatenate([np.full(len(r.rx), r.tx) for r in records])
    rx_ids = np.concatenate([r.rx for r in records])
    lengths = [r.ground_coupling.shape[1] + int(illuminated_by[r.tx]) for r in records]
    generator = np.random.Generator(np.random.Philox(key=0))
    keys = _stream_keys(config.master_seed, trial, _STREAM_PHASE, tx_ids, rx_ids)
    # uniform(0, 2 pi) is 0.0 + 2 pi * random(): the same bytes
    zeta = 2.0 * math.pi * _keyed_draws(generator, keys, "random", (max(lengths),))
    if tables.options.noise:
        noise_keys = _stream_keys(config.master_seed, trial, _STREAM_NOISE, tx_ids, rx_ids)
    estimates = []
    start = 0
    for record, length in zip(records, lengths):
        rows = slice(start, start + len(record.rx))
        start = rows.stop
        coupling = math.sqrt(config.ground_rcs_m2) * record.ground_coupling
        if illuminated_by[record.tx]:
            target_rows = _target_couplings(config, tables, params, record, target)
            coupling = np.concatenate([coupling, target_rows[:, None, :]], axis=1)
        if tables.options.noise:
            draws = _keyed_draws(generator, noise_keys[rows], "standard_normal", (2, len(record.cells)))
            peaks = closed_form_peaks(coupling, zeta[rows, :length], params, record.noise_var, draws)
        else:
            peaks = closed_form_peaks(coupling, zeta[rows, :length], params)
        estimates.append(peaks * record.est_scale)
    return estimates


def _estimate_pair_reference(config, tables, params, record, k, trial, target, tx_frame):
    """Full frame-level pipeline for every intended cell of one listener (row
    k of the transmitter's record).

    Every cell redraws the pair's phases from a new generator on the
    substream (trial, PHASE, tx, rx), and its noise from (trial, NOISE, tx,
    rx, a, b); the keys of all cells are derived in one call.
    """
    tx, rx = record.tx, int(record.rx[k])
    tx_pos = tables.deployment.positions[tx]
    rx_pos = tables.deployment.positions[rx]
    sets = tables.cell_sets[tx]
    phase_key = _stream_keys(config.master_seed, trial, _STREAM_PHASE, tx, rx)
    a, b = record.cells.T
    noise_keys = _stream_keys(config.master_seed, trial, _STREAM_NOISE, tx, rx, a, b)
    estimates = np.empty(len(record.cells))
    for i in range(len(record.cells)):
        rng_phase = np.random.Generator(np.random.Philox(key=phase_key))
        reflections = build_reflections(
            config, tx, rx, tx_pos, rx_pos, sets, tables.grid, record.weights[k, i], target, rng_phase
        )
        noise_var = float(record.noise_var[k, i]) if tables.options.noise else 0.0
        rng_noise = np.random.Generator(np.random.Philox(key=noise_keys[i]))
        rx_frame = synth_rx_frame(tx_frame, reflections, params, noise_var, rng_noise)
        processed = remove_data(rx_frame, tx_frame)
        peak = matched_point_value(processed, float(record.matched_delay[k, i]), config.doppler_hz, params)
        estimates[i] = peak * record.est_scale[k, i]
    return estimates


def _reference_estimates(config, tables, params, trial, target, illuminated_by):
    """Frame-level RCS estimates, shape (L, n_p), of every listener of each transmitter."""
    estimates = []
    for record in tables.transmitters:
        tx_frame = synth_tx_frame(params, substream(config.master_seed, trial, _STREAM_TXDATA, record.tx))
        lit_target = target if illuminated_by[record.tx] else None
        rows = [
            _estimate_pair_reference(config, tables, params, record, k, trial, lit_target, tx_frame)
            for k in range(len(record.rx))
        ]
        estimates.append(np.stack(rows))
    return estimates


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
    elif not tables.compatible_with(config):
        raise ConfigError("tables were built for a different scenario geometry")
    elif options is not None:
        _check_options(options, tables)
    L = config.grid_side
    U = config.uav_count

    target, illuminated_by = _trial_target(config, tables, trial, target_override)
    params = OfdmParams.from_config(config)
    estimate = _closed_form_estimates if tables.options.fast_path else _reference_estimates
    maps = np.full((U, L, L), np.nan)
    for record, est in zip(tables.transmitters, estimate(config, tables, params, trial, target, illuminated_by)):
        maps[record.rx[:, None], record.cells[:, 0], record.cells[:, 1]] = est

    true_cell = cell_of_point(tables.grid, target[0], target[1])
    detections = {}
    fused_maps = {}
    for method in FUSION_METHODS:
        fused = fuse(maps, method=method)
        detected = detect(fused)
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


def _check_options(options: RunOptions, tables: ScenarioTables) -> None:
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
    built once here and shared with every worker process.
    """
    if config.trials < 1:
        raise ConfigError("trials: must be >= 1")
    if tables is None:
        tables = build_tables(config, options or RunOptions())
    elif options is not None:
        _check_options(options, tables)
    trial_ids = list(range(config.trials))
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
