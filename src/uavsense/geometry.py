"""Grid construction, UAV deployment, beam footprints, and angle geometry.

Conventions: the grid origin is at (0, 0); cell (a, b) spans
[a*d, (a+1)*d] x [b*d, (b+1)*d] with its center at ((a+1/2)d, (b+1/2)d, 0).
UAV arrays face straight down; elevation is measured from that boresight,
so theta = 0 means directly below the UAV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

__all__ = [
    "AoA",
    "CellGrid",
    "CellSets",
    "build_grid",
    "deploy_uavs",
    "hpbw",
    "derive_altitude",
    "footprint_radius",
    "classify_cells",
    "aoa",
]


# Element-wise libm angles. numpy's float64 arctan and arctan2 take SIMD paths
# on some CPUs and its hypot is not CPython's, so they differ from math in the
# last bit from machine to machine; a Capon design turns a last-bit change of
# its direction into relative changes near 1e-11 of low-gain estimates.
def _libm(fn, shape, *args: list) -> np.ndarray:
    return np.fromiter(map(fn, *args), dtype=float, count=math.prod(shape)).reshape(shape)


# Absolute slack for closed containment tests; geometric thresholds that are
# algebraically exact (inscribed square == block edge) must not fail to rounding.
_GEOM_EPS = 1e-9


@dataclass(frozen=True)
class AoA:
    """Angles of arrival as equal-shape arrays: elevation from the downward boresight, azimuth from +x."""

    theta: np.ndarray
    phi: np.ndarray


@dataclass(frozen=True)
class CellGrid:
    cell_size: float
    centers: np.ndarray  # (L, L, 3), centers[a, b] = ((a+.5)d, (b+.5)d, 0)


@dataclass(frozen=True)
class CellSets:
    """One UAV's cells: intended (inside the inscribed square of the HPBW
    footprint) and illuminated (intended, or center inside the circle; the
    rest are clutter). Arrays of (a, b) index pairs in row-major order."""

    intended: np.ndarray
    illuminated: np.ndarray


def build_grid(config: ScenarioConfig) -> CellGrid:
    """Section the area into grid_side x grid_side square cells."""
    L = config.grid_side
    d = config.cell_size_m
    axis = (np.arange(L) + 0.5) * d
    centers = np.zeros((L, L, 3))
    centers[:, :, 0] = axis[:, None]
    centers[:, :, 1] = axis[None, :]
    return CellGrid(cell_size=d, centers=centers)


def hpbw(n: int) -> float:
    """Half-power beam width of the n-element side of the array, radians.

    Broadside approximation for a uniform half-wavelength-spaced line of n
    elements, 0.886 * 2 / n, applied to both principal planes of the square
    array. Strictly decreasing in n.
    """
    if n < 2:
        raise ValueError(f"array side must be >= 2 for a beam width, got {n}")
    return 0.886 * 2.0 / n


def derive_altitude(config: ScenarioConfig, cells_per_side: int) -> float:
    """Minimum altitude whose inscribed footprint square spans cells_per_side cells.

    The footprint circle has radius h*tan(HPBW/2); its inscribed square has
    side r*sqrt(2). Solving r*sqrt(2) = c*d for h gives the altitude at which
    a c x c block just fits.
    """
    if cells_per_side < 1:
        raise ValueError(f"cells_per_side must be >= 1, got {cells_per_side}")
    half_beam = hpbw(config.array_side) / 2.0
    return cells_per_side * config.cell_size_m / (math.sqrt(2.0) * math.tan(half_beam))


def footprint_radius(config: ScenarioConfig, altitude: float) -> float:
    """Ground radius of the HPBW projection at the given altitude."""
    return altitude * math.tan(hpbw(config.array_side) / 2.0)


def deploy_uavs(config: ScenarioConfig, grid: CellGrid) -> np.ndarray:
    """Positions (U, 3) of sqrt(U) x sqrt(U) UAVs above the centers of equal cell blocks.

    UAV index u = i * sqrt(U) + j sits above block (i, j); blocks tile the
    grid with no overlap. Altitude is derived from the per-UAV coverage
    (block side in cells) unless the config fixes it.
    """
    block_side = config.cells_per_uav_side
    altitude = derive_altitude(config, block_side) if config.altitude_m is None else float(config.altitude_m)
    axis = (np.arange(config.uavs_per_side) + 0.5) * (block_side * grid.cell_size)
    positions = np.full((config.uav_count, 3), altitude)
    positions[:, 0] = np.repeat(axis, len(axis))
    positions[:, 1] = np.tile(axis, len(axis))
    return positions


def classify_cells(config: ScenarioConfig, uav: int, grid: CellGrid, positions: np.ndarray) -> CellSets:
    """Split the grid into intended and illuminated cells for one UAV's footprint.

    Intended cells lie completely inside the largest axis-aligned square
    inscribed in the HPBW ground circle; illuminated cells are the intended
    ones and those with their center inside the circle. Both sets may be
    empty at low altitude.
    """
    ux, uy, h = positions[uav]
    radius = footprint_radius(config, h)
    half_square = radius * math.sqrt(2.0) / 2.0
    d = grid.cell_size
    centers = grid.centers
    dx = np.abs(centers[:, :, 0] - ux)
    dy = np.abs(centers[:, :, 1] - uy)
    tol = _GEOM_EPS * max(1.0, radius)
    inside_square = np.maximum(dx, dy) + d / 2.0 <= half_square + tol
    inside_circle = np.hypot(dx, dy) <= radius + tol
    return CellSets(intended=np.argwhere(inside_square), illuminated=np.argwhere(inside_circle | inside_square))


def aoa(observer: np.ndarray, point: np.ndarray) -> AoA:
    """Angle of arrival at `observer` of a ray from ground `point`.

    Elevation arctan(horizontal distance / height difference), azimuth the
    planar angle of (point - observer) from +x in [0, 2*pi). Straight down
    maps to (0, 0). Observer and point broadcast over leading axes, and the
    angles are arrays of the broadcast shape: (K, 3) on either side gives (K,),
    one (3,) pair gives 0-d arrays.
    """
    observer = np.asarray(observer, dtype=float)
    point = np.asarray(point, dtype=float)
    offset = point - observer
    dx, dy, dz = offset[..., 0], offset[..., 1], -offset[..., 2]
    if (dz <= 0).any():
        raise ValueError("observed point must lie below the observer")
    x, y = dx.ravel().tolist(), dy.ravel().tolist()
    rho = _libm(math.hypot, dz.shape, x, y)
    theta = _libm(math.atan, dz.shape, (rho / dz).ravel().tolist())
    phi = np.where(rho == 0.0, 0.0, _libm(math.atan2, dz.shape, y, x) % (2.0 * math.pi))
    return AoA(theta=theta, phi=phi)
