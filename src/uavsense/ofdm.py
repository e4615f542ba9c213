"""OFDM frame synthesis, periodogram processing, and per-cell RCS estimation.

Frame indexing: k = 0..N-1 runs over OFDM symbols, l = 0..M-1 over
subcarriers. A reflection with delay tau and Doppler f_D multiplies the
transmitted symbols by exp(+j*2*pi*f_D*T_o*k) * exp(-j*2*pi*tau*df*l), i.e.
Doppler shows up across symbols and delay across subcarriers. The periodogram
transforms symbols with a forward FFT (Doppler axis n) and subcarriers with an
inverse FFT (delay axis m), so a reflection with f_D*T_o = n/N' and
tau*df = m/M' peaks exactly at bin (n, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, ScenarioConfig
from .geometry import CellGrid, CellSets, aoa
from .beamforming import steering_matrix

__all__ = [
    "Reflections",
    "synth_tx_frame",
    "reflection_amplitude",
    "build_reflections",
    "subcarrier_ramps",
    "synth_rx_frame",
    "remove_data",
    "periodogram_grid",
    "matched_point_value",
    "estimate_rcs",
    "dirichlet_kernel",
    "delay_kernel",
    "matched_coupling",
    "coherent_peaks",
]


@dataclass(frozen=True)
class Reflections:
    """The reflections seen by L listeners as arrays over r: amplitude, delay and random phase (L, R) and the
    gain (L, n_p, R), one row per weight vector; synth_rx_frame takes one listener's rows. Every reflection
    carries the scenario's one Doppler, which the frame kernels read from ``config.doppler_hz``."""

    amplitude: np.ndarray
    gain: np.ndarray
    delay_s: np.ndarray
    phase: np.ndarray


def synth_tx_frame(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw an N x M frame of unit-modulus QPSK symbols."""
    quadrant = rng.integers(0, 4, size=(config.symbols_per_frame, config.subcarriers))
    return np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * quadrant))


def reflection_amplitude(config: ScenarioConfig, rcs_m2, d1, d2):
    """Two-hop amplitude attenuation sqrt(P G sigma lambda^2 / ((4 pi)^3 d1^2 d2^2)), element-wise."""
    if (np.fmin(d1, d2) <= 0).any():
        raise ValueError("propagation distances must be positive")
    lam = config.wavelength_m
    num = config.transmit_power_w * config.transmit_gain * rcs_m2 * lam * lam
    return np.sqrt(num / ((4.0 * math.pi) ** 3 * d1 * d1 * d2 * d2))


def build_reflections(
    config: ScenarioConfig,
    tx: int,
    listeners: np.ndarray,
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    cell_sets: CellSets,
    grid: CellGrid,
    weights: np.ndarray,
    target_pos: np.ndarray | None,
    phase: np.ndarray,
) -> Reflections:
    """Reflections seen by each of the L `listeners` (positions ``rx_pos`` (L, 3)) while `tx` illuminates.

    One ground reflection per illuminated cell (in row-major cell order), plus
    one target reflection appended iff ``target_pos`` is given (the target was
    illuminated). ``weights`` (L, n_p, n^2) holds each listener's receive
    weight vectors, e.g. one per intended cell, with one gain row each.
    ``phase`` (L, R) gives each listener's random phase of each reflection in
    that order. Every returned array has the listener axis first, and row i
    depends on listener i's inputs only.
    """
    if np.any(np.asarray(listeners) == tx):
        raise ValueError("half-duplex operation: a transmitter cannot listen to itself")
    cells = cell_sets.illuminated
    points = grid.centers[cells[:, 0], cells[:, 1]]
    rcs = np.full(len(points), config.ground_rcs_m2)
    if target_pos is not None:
        points = np.vstack([points, target_pos])
        rcs = np.append(rcs, config.target_rcs_m2)
    if np.shape(phase) != (len(rx_pos), len(points)):
        raise ValueError(f"{len(points)} reflections need one phase each, got shape {np.shape(phase)}")
    n = config.array_side
    d1 = np.linalg.norm(points - tx_pos, axis=1)  # (R,)
    d2 = np.linalg.norm(rx_pos[:, None] - points, axis=-1)  # (L, R)
    # matmul hands a stack to BLAS only when it is contiguous; a strided
    # operand is summed in another order.
    steering = steering_matrix(aoa(rx_pos[:, None], points), n).reshape(n * n, len(rx_pos), -1).transpose(1, 0, 2)
    return Reflections(
        amplitude=reflection_amplitude(config, rcs, d1, d2),
        gain=weights.conj() @ np.ascontiguousarray(steering),
        delay_s=(d1 + d2) / SPEED_OF_LIGHT,
        phase=np.asarray(phase, dtype=float),
    )


def subcarrier_ramps(delay_s, config: ScenarioConfig, sign: int = -1) -> np.ndarray:
    """Subcarrier ramps exp(sign j 2 pi tau df l), l = 0..M-1, of delays (...,), shape (..., M).

    Sign -1 is the turn a reflection of delay tau puts on the subcarriers
    (synth_rx_frame), +1 the matched correlator's (matched_point_value).
    Each entry depends only on its own delay's bits, so the ramps of repeated
    delays may be computed once and gathered.
    """
    turn = 2j if sign > 0 else -2j
    subcarriers = np.arange(config.subcarriers)
    return np.exp(turn * math.pi * np.asarray(delay_s)[..., None] * config.subcarrier_spacing_hz * subcarriers)


def synth_rx_frame(
    tx_frame: np.ndarray,
    reflections: Reflections,
    ramps: np.ndarray,
    config: ScenarioConfig,
    noise_variance=0.0,
    noise_draws: np.ndarray | None = None,
) -> np.ndarray:
    """One listener's received frames, shape (n_p, N, M): the superposition of all reflections plus noise.

    Element (k, l) of frame i is
    sum_r b_r chi_ir tx[k, l] e^{+j 2 pi f_D T_o k} e^{-j 2 pi tau_r df l} e^{-j zeta_r} + z_i[k, l],
    one frame per row i of the gain (n_p, R). Every reflection shares the one
    Doppler f_D, ``config.doppler_hz``, so the sum over reflections is one row
    over subcarriers, times the symbol ramp and the data: O(R M + N M) per
    frame, not the O(N R M) of a rank-R product. ``ramps`` (R, M) are the
    reflections' delay ramps ``subcarrier_ramps(reflections.delay_s, config)``,
    e.g. gathered from the ramps of a set of distinct delays; rows of equal
    delays are equal bit for bit, so the frames are the same bytes. With standard normal
    ``noise_draws`` (n_p, 2, N, M) and ``noise_variance`` (n_p,),
    z_i = sqrt(noise_variance[i] / 2) (draws[i, 0] + j draws[i, 1]), added in place.
    """
    N, M = tx_frame.shape
    if (N, M) != (config.symbols_per_frame, config.subcarriers):
        raise ValueError("frame shape does not match the OFDM parameters")
    symbol_ramp = np.exp(2j * math.pi * config.doppler_hz * config.symbol_duration_s * np.arange(N))  # (N,)
    weighted = reflections.amplitude * reflections.gain * np.exp(-1j * reflections.phase)  # (n_p, R)
    rx = (weighted @ ramps)[..., None, :] * (symbol_ramp[:, None] * tx_frame)
    if noise_draws is not None:
        scale = np.sqrt(np.asarray(noise_variance) / 2.0)[..., None, None]
        rx.real += scale * noise_draws[..., 0, :, :]
        rx.imag += scale * noise_draws[..., 1, :, :]
    elif np.any(noise_variance):
        raise ValueError("noise requires standard normal draws")
    return rx


def remove_data(rx_frame: np.ndarray, tx_frame: np.ndarray) -> np.ndarray:
    """Element-wise division removing the transmitted data from each (N, M) frame of a stack."""
    if rx_frame.shape[-2:] != tx_frame.shape:
        raise ValueError("frame shapes differ")
    if np.any(tx_frame == 0):
        raise ValueError("transmit frame contains zero symbols")
    return rx_frame / tx_frame


def periodogram_grid(frame: np.ndarray, padded_symbols: int, padded_subcarriers: int) -> np.ndarray:
    """Delay-Doppler periodogram on the integer bin grid.

    P(n, m) = (1/(N M)) |sum_k sum_l c[k,l] e^{+j 2 pi l m / M'} e^{-j 2 pi k n / N'}|^2,
    an FFT across symbols (Doppler bins n) followed by an inverse FFT across
    subcarriers (delay bins m), zero-padded to N' x M'.
    """
    N, M = frame.shape
    if padded_symbols < N or padded_subcarriers < M:
        raise ValueError("padded lengths must be >= the frame dimensions")
    padded = np.zeros((padded_symbols, padded_subcarriers), dtype=complex)
    padded[:N, :M] = frame
    spectrum = np.fft.fft(padded_subcarriers * np.fft.ifft(padded, axis=1), axis=0)
    return np.abs(spectrum) ** 2 / (N * M)


def matched_point_value(frame: np.ndarray, ramps: np.ndarray, config: ScenarioConfig):
    """Periodogram value of each frame (n_p, N, M) at an exact continuous delay-Doppler point, shape (n_p,).

    Correlates each processed frame against the ramps of a hypothetical reflection at its delay and the
    scenario's Doppler ``config.doppler_hz``; equals the grid periodogram wherever the point falls on an
    integer bin. ``ramps`` (n_p, M) are the correlator ramps ``subcarrier_ramps(delay_s, config, +1)`` of
    the frames' delays (n_p,), e.g. gathered from the ramps of a set of distinct delays, which give the
    same bytes.
    """
    N, M = frame.shape[-2:]
    if (N, M) != (config.symbols_per_frame, config.subcarriers):
        raise ValueError("frame shape does not match the OFDM parameters")
    sym = np.exp(-2j * math.pi * config.doppler_hz * config.symbol_duration_s * np.arange(N))
    return np.abs(np.sum((sym @ frame) * ramps, axis=-1)) ** 2 / (N * M)


def estimate_rcs(peak_value, config: ScenarioConfig, d1, d2):
    """Invert the two-hop propagation model to RCS estimates in m^2, element-wise."""
    if np.any(np.asarray(peak_value) < 0):
        raise ValueError("periodogram values are non-negative")
    N = config.symbols_per_frame
    M = config.subcarriers
    lam = config.wavelength_m
    scale = (4.0 * math.pi) ** 3 * d1 * d1 * d2 * d2 / (
        N * M * config.transmit_power_w * config.transmit_gain * lam * lam
    )
    return peak_value * scale


def dirichlet_kernel(x: np.ndarray | float, length: int) -> np.ndarray | complex:
    """Geometric phase-ramp sum sum_{l=0}^{length-1} e^{-j 2 pi x l}.

    Equals length at integer x and rolls off as the periodic sinc in between,
    sin(length pi x) / sin(pi x); where |sin(pi x)| < 1e-7 it takes the limit
    length (-1)^(round(x) (length - 1)), the rule of scipy.special.diric.
    """
    x = np.asarray(x, dtype=float)
    half = math.pi * x
    denominator = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.asarray(np.sin(length * half) / (length * denominator))
    limit = np.abs(denominator) < 1e-7
    if limit.any():
        ratio[limit] = np.where(np.round(half[limit] / math.pi) * (length - 1) % 2 == 0, 1.0, -1.0)
    return length * ratio * np.exp(-1j * math.pi * x * (length - 1))


def matched_coupling(amplitude, gain, delay_s, matched_delay_s, config: ScenarioConfig) -> np.ndarray:
    """Matched-point response of each reflection (rows) at each cell (columns).

    The matched correlation of one reflection separates into two geometric
    phase-ramp sums, so reflection r contributes
    b_r chi_rp D_N((f_p - f_r) T_o) D_M((tau_r - tau_p) df) e^{-j zeta_r}
    to the coherent sum of cell p. Every reflection and every matched point
    carry the one scenario Doppler, so the symbol-axis sum is D_N(0) = N.
    This returns that product without the random phase, shape (...,
    reflections, cells). ``amplitude`` and ``delay_s`` are per reflection,
    (..., reflections) (scalars broadcast), ``matched_delay_s`` is per cell
    (..., 1, cells) or per reflection and cell, and ``gain`` broadcasts to
    (..., reflections, cells). Leading axes are batch axes, e.g. one per
    listener; without them, ``matched_delay_s`` may be a plain (cells,) row.
    """
    return np.asarray(amplitude)[..., None] * gain * delay_kernel(delay_s, matched_delay_s, config)


def delay_kernel(delay_s, matched_delay_s, config: ScenarioConfig) -> np.ndarray:
    """The factor N D_M((tau_r - tau_p) df) of matched_coupling, shape (..., reflections, cells).

    It depends on the delays only, entry by entry, so permuting the
    reflections or the cells permutes its rows or columns bit for bit.
    """
    delay_mismatch = np.asarray(delay_s)[..., None] - np.asarray(matched_delay_s)
    kernel_sub = dirichlet_kernel(delay_mismatch * config.subcarrier_spacing_hz, config.subcarriers)
    return config.symbols_per_frame * kernel_sub


def coherent_peaks(total, config: ScenarioConfig, noise_scale=0.0, noise_draws=None) -> np.ndarray:
    """Periodogram value at the matched point of every cell, in closed form: frame synthesis + data
    removal + matched_point_value without a frame, from the noiseless coherent sums ``total`` (..., cells),
    sum_r coupling[..., r, p] e^{-j zeta_r} (see matched_coupling), at O(reflections) per cell. With standard
    normal ``noise_draws`` (..., 2, cells), cell p gains one complex Gaussian of variance N M noise_variance,
    ``noise_scale`` = sqrt(N M noise_variance / 2) times draws[..., 0, p] + j draws[..., 1, p]: the
    reference path's noise in distribution. Noiseless values equal the reference path to rounding."""
    if noise_draws is not None:
        total = total + noise_scale * noise_draws[..., 0, :]
        total.imag += noise_scale * noise_draws[..., 1, :]
    power = np.abs(total)
    return np.divide(np.square(power, out=power), config.symbols_per_frame * config.subcarriers, out=power)
