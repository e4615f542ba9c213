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
from scipy.special import diric

from .config import SPEED_OF_LIGHT, ScenarioConfig
from .geometry import CellGrid, CellSets, aoa
from .beamforming import steering_matrix

__all__ = [
    "OfdmParams",
    "Reflections",
    "synth_tx_frame",
    "reflection_amplitude",
    "build_reflections",
    "synth_rx_frame",
    "remove_data",
    "periodogram_grid",
    "matched_point_value",
    "estimate_rcs",
    "dirichlet_kernel",
    "matched_coupling",
    "closed_form_peaks",
]


@dataclass(frozen=True)
class OfdmParams:
    """Frame dimensions and timing for one OFDM sensing frame."""

    symbols: int  # N
    subcarriers: int  # M
    subcarrier_spacing_hz: float
    cp_duration_s: float

    def __post_init__(self):
        if self.symbols < 1 or self.subcarriers < 1:
            raise ValueError("frame must have at least one symbol and one subcarrier")

    @property
    def symbol_duration_s(self) -> float:
        """Total symbol duration T_o = 1/df + T_CP."""
        return 1.0 / self.subcarrier_spacing_hz + self.cp_duration_s

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "OfdmParams":
        return cls(
            symbols=config.symbols_per_frame,
            subcarriers=config.subcarriers,
            subcarrier_spacing_hz=config.subcarrier_spacing_hz,
            cp_duration_s=config.cp_duration_s,
        )


@dataclass(frozen=True)
class Reflections:
    """The reflections in a received frame as arrays over r: amplitude, delay, Doppler and
    random phase of shape (R,), and the beamformed gain (..., R), one row per weight vector."""

    amplitude: np.ndarray
    gain: np.ndarray
    delay_s: np.ndarray
    doppler_hz: np.ndarray
    phase: np.ndarray


def synth_tx_frame(params: OfdmParams, rng: np.random.Generator) -> np.ndarray:
    """Draw an N x M frame of unit-modulus QPSK symbols."""
    quadrant = rng.integers(0, 4, size=(params.symbols, params.subcarriers))
    return np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * quadrant))


def reflection_amplitude(config: ScenarioConfig, rcs_m2, d1, d2):
    """Two-hop amplitude attenuation sqrt(P G sigma lambda^2 / ((4 pi)^3 d1^2 d2^2)), element-wise."""
    if np.any(np.asarray(d1) <= 0) or np.any(np.asarray(d2) <= 0):
        raise ValueError("propagation distances must be positive")
    lam = config.wavelength_m
    num = config.transmit_power_w * config.transmit_gain * rcs_m2 * lam * lam
    return np.sqrt(num / ((4.0 * math.pi) ** 3 * d1 * d1 * d2 * d2))


def build_reflections(
    config: ScenarioConfig,
    tx: int,
    listener: int,
    tx_pos: np.ndarray,
    rx_pos: np.ndarray,
    cell_sets: CellSets,
    grid: CellGrid,
    weights: np.ndarray,
    target_pos: np.ndarray | None,
    rng: np.random.Generator,
) -> Reflections:
    """Reflections seen by `listener` while `tx` illuminates.

    One ground reflection per illuminated cell (in row-major cell order), plus
    one target reflection appended iff ``target_pos`` is given (the target was
    illuminated). ``weights`` is one (n^2,) receive weight vector or a stack,
    e.g. (n_p, n^2) for the listener's intended cells, with one gain row each.
    Phases are drawn i.i.d. uniform on [0, 2*pi) in that order, so a reused
    stream reproduces identical phases.
    """
    if tx == listener:
        raise ValueError("half-duplex operation: a transmitter cannot listen to itself")
    cells = cell_sets.illuminated
    points = grid.centers[cells[:, 0], cells[:, 1]]
    rcs = np.full(len(points), config.ground_rcs_m2)
    if target_pos is not None:
        points = np.vstack([points, target_pos])
        rcs = np.append(rcs, config.target_rcs_m2)
    d1 = np.linalg.norm(points - tx_pos, axis=1)
    d2 = np.linalg.norm(rx_pos - points, axis=1)
    return Reflections(
        amplitude=reflection_amplitude(config, rcs, d1, d2),
        gain=weights.conj() @ steering_matrix(aoa(rx_pos, points), config.array_side),
        delay_s=(d1 + d2) / SPEED_OF_LIGHT,
        doppler_hz=np.full(len(points), config.doppler_hz),
        phase=rng.uniform(0.0, 2.0 * math.pi, size=len(points)),
    )


def synth_rx_frame(
    tx_frame: np.ndarray,
    reflections: Reflections,
    params: OfdmParams,
    noise_variance=0.0,
    noise_draws: np.ndarray | None = None,
) -> np.ndarray:
    """Received frames, shape (..., N, M): the superposition of all reflections plus noise.

    Element (k, l) is
    sum_r b_r chi_r tx[k, l] e^{+j 2 pi f_r T_o k} e^{-j 2 pi tau_r df l} e^{-j zeta_r} + z[k, l],
    the rank-R product D (N x R) diag(b chi e^{-j zeta}) E (R x M) times the
    data, one frame per leading row of the gain. With standard normal
    ``noise_draws`` (..., 2, N, M), z = sqrt(noise_variance / 2) (draws[..., 0, :, :] + j draws[..., 1, :, :]).
    """
    N, M = tx_frame.shape
    if (N, M) != (params.symbols, params.subcarriers):
        raise ValueError("frame shape does not match the OFDM parameters")
    k = np.arange(N)[:, None]
    l = np.arange(M)[None, :]
    doppler_ramps = np.exp(2j * math.pi * reflections.doppler_hz * params.symbol_duration_s * k)  # (N, R)
    delay_ramps = np.exp(-2j * math.pi * reflections.delay_s[:, None] * params.subcarrier_spacing_hz * l)  # (R, M)
    weighted = reflections.amplitude * reflections.gain * np.exp(-1j * reflections.phase)  # (..., R)
    rx = ((doppler_ramps * weighted[..., None, :]) @ delay_ramps) * tx_frame
    if noise_draws is not None:
        scale = np.sqrt(np.asarray(noise_variance) / 2.0)[..., None, None]
        rx = rx + scale * (noise_draws[..., 0, :, :] + 1j * noise_draws[..., 1, :, :])
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


def matched_point_value(frame: np.ndarray, delay_s, doppler_hz: float, params: OfdmParams):
    """Periodogram value at the exact continuous delay-Doppler point.

    Correlates the processed frame against the phase ramps of a hypothetical
    reflection with the given delay and Doppler; equals the grid periodogram
    wherever the point falls on an integer bin. Frames (..., N, M) take delays (...,).
    """
    N, M = frame.shape[-2:]
    sym = np.exp(-2j * math.pi * doppler_hz * params.symbol_duration_s * np.arange(N))
    sub = np.exp(2j * math.pi * np.asarray(delay_s)[..., None] * params.subcarrier_spacing_hz * np.arange(M))
    return np.abs(np.sum((sym @ frame) * sub, axis=-1)) ** 2 / (N * M)


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

    Equals length at integer x and rolls off as the periodic sinc in between.
    """
    x = np.asarray(x, dtype=float)
    magnitude = length * diric(2.0 * math.pi * x, length)
    return magnitude * np.exp(-1j * math.pi * x * (length - 1))


def matched_coupling(
    amplitude,
    gain,
    delay_s,
    doppler_hz,
    matched_delay_s,
    matched_doppler_hz,
    params: OfdmParams,
) -> np.ndarray:
    """Matched-point response of each reflection (rows) at each cell (columns).

    The matched correlation of one reflection separates into two geometric
    phase-ramp sums, so reflection r contributes
    b_r chi_rp D_N((f_p - f_r) T_o) D_M((tau_r - tau_p) df) e^{-j zeta_r}
    to the coherent sum of cell p. This returns that product without the
    random phase. ``amplitude``, ``delay_s`` and ``doppler_hz`` are per
    reflection (scalars broadcast), ``matched_delay_s`` is per cell (or per
    reflection and cell), and ``gain`` broadcasts to (reflections, cells).
    """
    doppler_mismatch = matched_doppler_hz - np.reshape(doppler_hz, (-1, 1))
    delay_mismatch = np.reshape(delay_s, (-1, 1)) - np.asarray(matched_delay_s)
    kernel_sym = dirichlet_kernel(doppler_mismatch * params.symbol_duration_s, params.symbols)
    kernel_sub = dirichlet_kernel(delay_mismatch * params.subcarrier_spacing_hz, params.subcarriers)
    return np.reshape(amplitude, (-1, 1)) * gain * (kernel_sym * kernel_sub)


def closed_form_peaks(
    coupling: np.ndarray,
    zeta,
    params: OfdmParams,
    noise_variance=0.0,
    noise_draws: np.ndarray | None = None,
) -> np.ndarray:
    """Periodogram value at the matched point of every cell, in closed form.

    Equals frame synthesis + data removal + matched_point_value without
    building a frame: the coherent sum over reflections of
    coupling[..., r, p] e^{-j zeta[..., r]} (see matched_coupling) costs
    O(reflections) per cell instead of O(reflections * N * M). Leading axes
    of ``coupling`` (reflections, cells) and ``zeta`` (reflections,) are
    batch axes, e.g. one per listener. With ``noise_draws``, standard normal
    draws of shape (..., 2, cells), noise enters as one complex Gaussian per
    cell of variance N*M*noise_variance on the un-normalized sum, cell p
    taking draws[..., 0, p] + j draws[..., 1, p]; this matches the reference
    path in distribution. Noiseless results equal the reference path to
    rounding.
    """
    N = params.symbols
    M = params.subcarriers
    phases = np.exp(-1j * np.asarray(zeta, dtype=float))
    total = (phases[..., None, :] @ coupling)[..., 0, :]
    if noise_draws is not None:
        noise = noise_draws[..., 0, :] + 1j * noise_draws[..., 1, :]
        total = total + np.sqrt(N * M * noise_variance / 2.0) * noise
    elif np.any(noise_variance):
        raise ValueError("noise requires standard normal draws")
    return np.abs(total) ** 2 / (N * M)
