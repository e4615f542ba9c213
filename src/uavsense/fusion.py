"""Local map assembly, fusion-center averaging, and the detection test.

Maps are L x L float arrays; NaN marks a cell with no estimate (the owner's
own cells on a local map, or cells never illuminated). No-estimate cells are
excluded from fusion and from the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import FUSION_METHODS

__all__ = [
    "LocalRcsMap",
    "DetectionResult",
    "normalize_map",
    "fuse",
    "detect",
    "fuse_and_detect",
    "hypothesis_test",
    "detection_delta",
]


@dataclass(frozen=True)
class LocalRcsMap:
    owner: int
    values: np.ndarray  # (L, L), NaN = no estimate


@dataclass(frozen=True)
class DetectionResult:
    detected_cell: tuple[int, int]  # argmax cell of one fusion method's map
    delta_star: int  # smallest delta for which the detection counts as a hit


def _rescaled(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(values - min) / (max - min) of each map over its non-NaN entries; 0.0 on a map whose span is not positive.
    Written into `out` when given."""
    lo = np.fmin.reduce(values, axis=(-2, -1), keepdims=True)
    if not lo.all():  # a zero minimum: its sign reaches -0.0 entries, so keep the masked reduction's sign
        lo = np.min(values, axis=(-2, -1), keepdims=True, initial=np.inf, where=~np.isnan(values))
    span = np.fmax.reduce(values, axis=(-2, -1), keepdims=True) - lo
    rising = span > 0
    if rising.all():
        return np.divide(np.subtract(values, lo, out=out), span, out=out)
    return np.divide(np.where(rising, values - lo, 0.0), np.where(rising, span, 1.0), out=out)


def normalize_map(values: np.ndarray) -> np.ndarray:
    """Rescale the finite entries of each map (the last two axes) to [0, 1].

    A constant map maps to all zeros; no-estimate cells, and so an all-NaN
    map, stay NaN.
    """
    return np.where(np.isfinite(values), _rescaled(values), np.nan)


def _average(zeroed: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean over the maps (axis -3) of maps whose no-estimate cells hold 0.0; NaN where counts is 0."""
    sums = zeroed.sum(axis=-3)
    return np.divide(sums, counts, out=np.full(sums.shape, np.nan), where=counts > 0)


def fuse(maps: np.ndarray, method: str = "avg") -> np.ndarray:
    """Average a (U, L, L) stack of local maps cell by cell over the maps that
    estimated each cell, giving the (L, L) fused map.

    "prenorm" rescales every local map to [0, 1] before averaging. A fused
    cell is NaN exactly when no local map holds an estimate for it.
    """
    if len(maps) == 0:
        raise ValueError("at least one local map is required")
    if method == "prenorm":
        maps = normalize_map(maps)
    elif method != "avg":
        raise ValueError(f"unknown fusion method {method!r}")
    finite = np.isfinite(maps)
    return _average(np.where(finite, maps, 0.0), finite.sum(axis=0))


def detect(values: np.ndarray) -> tuple[int, int]:
    """Cell of highest fused estimate; ties break to the smallest row-major index."""
    if not np.isfinite(values).any():
        raise ValueError("no cell carries an estimate")
    flat = np.where(np.isfinite(values), values, -np.inf)
    idx = int(np.argmax(flat))
    return np.unravel_index(idx, values.shape)


def fuse_and_detect(maps: np.ndarray) -> dict:
    """{method: (fuse(maps, method), detect of it)} for each of FUSION_METHODS, in one pass sharing the finite
    mask and the counts; byte for byte the separate calls when no map holds -inf and no finite range or sum
    overflows (any stack of nonnegative RCS estimates), as each fused cell is then finite exactly where estimated.
    Axes before the (U, L, L) stack are batch axes: a (T, U, L, L) block gives (T, L, L) maps and (T,) indices."""
    finite = np.isfinite(maps)
    counts = finite.sum(axis=-3)
    if not counts.any(axis=(-2, -1)).all():
        raise ValueError("no cell carries an estimate")
    stack = np.empty((2,) + maps.shape)
    stack[0] = maps
    _rescaled(maps, out=stack[1])
    np.copyto(stack, 0.0, where=~finite)
    fused = _average(stack, counts)
    flat = np.fmax(fused, -np.inf).reshape(fused.shape[:-2] + (-1,))
    rows, cols = np.unravel_index(flat.argmax(axis=-1), counts.shape[-2:])
    return {method: (fused[k], (rows[k], cols[k])) for k, method in enumerate(FUSION_METHODS)}


def hypothesis_test(target_pos, cell_center, cell_size: float, delta: int = 0) -> bool:
    """True when the target counts as located at the cell.

    The test is the closed L-infinity threshold ||target - center||_inf <=
    d * (1/2 + delta); delta = 0 is the plain cell-containment test and larger
    delta relaxes it by whole cells.
    """
    if cell_size <= 0:
        raise ValueError("cell size must be positive")
    if delta < 0:
        raise ValueError("delta must be a non-negative integer")
    dist = max(abs(target_pos[0] - cell_center[0]), abs(target_pos[1] - cell_center[1]))
    return dist <= cell_size * (0.5 + delta)


def detection_delta(target_pos, cell_center, cell_size: float):
    """Smallest delta at which hypothesis_test accepts, i.e. ceil(L_inf/d - 1/2) floored at 0, as an integer
    array over the broadcast leading axes of (..., 2 or 3) position stacks (0-d for one pair)."""
    offset = np.abs(np.asarray(target_pos, dtype=float)[..., :2] - np.asarray(cell_center, dtype=float)[..., :2])
    return np.maximum(np.ceil(np.maximum(offset[..., 0], offset[..., 1]) / cell_size - 0.5), 0.0).astype(int)
