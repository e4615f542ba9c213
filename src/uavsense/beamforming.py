"""Steering vectors and the two receive beamformer designs.

The receive gain convention is Hermitian throughout: the gain of a reflection
with steering vector g under weights w is w^H g, so a distortionless design
has w^H g(intended) = 1.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zpotrf, zpotrs

from .geometry import AoA

__all__ = [
    "steering_vector",
    "steering_matrix",
    "aoa_mesh",
    "ls_beamformer",
    "capon_beamformer",
]

# Diagonal loading applied when the LS normal matrix is singular.
_LS_LOADING = 1e-9
# Iterative refinement of the LS solve: at most this many steps, stopping once
# a step lowers the residual by less than the tolerance.
_LS_REFINE_STEPS = 10
_LS_REFINE_TOL = 1e-10


def steering_matrix(directions: AoA, n: int) -> np.ndarray:
    """Steering vectors of every direction as columns, shape (n^2, H).

    `directions` holds H elevations and azimuths (arrays, or floats for
    H = 1). Entry (i, j) of a column, i and j in 0..n-1, is
    exp(-j*pi*i*sin(theta)*sin(phi)) * exp(-j*pi*j*sin(theta)*cos(phi)),
    flattened row-major; every entry has unit modulus and entry (0, 0) is 1.
    """
    if n < 1:
        raise ValueError(f"array side must be >= 1, got {n}")
    phi = np.ravel(directions.phi)
    scale = -1j * math.pi * np.sin(np.ravel(directions.theta))
    ramps = np.exp(np.arange(n)[:, None, None] * (scale * np.array([np.sin(phi), np.cos(phi)])))  # (n, 2, H)
    return (ramps[:, None, 0, :] * ramps[None, :, 1, :]).reshape(n * n, -1)


def steering_vector(direction: AoA, n: int) -> np.ndarray:
    """Per-element phase signature of a plane wave from each direction: the columns of steering_matrix
    as contiguous rows, (H, n^2) for H directions given as angle arrays, (n^2,) for float angles."""
    rows = np.ascontiguousarray(steering_matrix(direction, n).T)
    return rows if np.ndim(direction.theta) else rows[0]


def aoa_mesh(intended: AoA, n: int) -> AoA:
    """The heuristic design mesh of n elevations x 4n azimuths, raveled
    elevation-major; the intended AoA is the first point.

    Float angles give (4n^2,) arrays; K intended directions given as angle
    arrays give (K, 4n^2) arrays whose row k is the mesh of direction k, bit
    for bit. The modular wrap can duplicate the first elevation/azimuth at the
    far end; duplicates are kept as written.
    """
    if n < 2:
        raise ValueError(f"array side must be >= 2 for the design mesh, got {n}")
    i = np.arange(n)
    j = np.arange(4 * n)
    elevations = np.mod(np.asarray(intended.theta)[..., None] + i * math.pi / (2.0 * (n - 1)), math.pi / 2.0)
    azimuths = np.mod(np.asarray(intended.phi)[..., None] + j * 2.0 * math.pi / (4.0 * n - 1.0), 2.0 * math.pi)
    return AoA(theta=np.repeat(elevations, 4 * n, axis=-1), phi=np.tile(azimuths, n))


def ls_beamformer(mesh: AoA, n: int) -> np.ndarray:
    """Constrained least-squares weights (n^2,) over the AoA mesh.

    Minimizes ||A w - v||_2^2 where row h of A is the conjugated steering
    vector of mesh AoA h and v is the desired response, 1 at the intended
    (first) mesh point and 0 elsewhere, then rescales to ||w||_2 = 1. Solved
    through the normal equations G w = A^H v with a Cholesky factorization
    (diagonal loading if singular) plus an iterative refinement loop that
    never lets the residual grow.

    A is never formed. With x_h = exp(-j*pi*sin(theta_h)*sin(phi_h)) and y_h
    the same with cos(phi_h), steering entry (i, j) of mesh point h is
    x_h^i * y_h^j, so G = A^H A is two-level Toeplitz,
    G[(i, j), (k, l)] = T[i - k, j - l] with the lag table
    T[a, b] = sum_h x_h^a * y_h^b over lags -(n-1)..n-1, and A^H v is the
    steering vector of mesh point 0. The residual follows from the same
    quantities: ||A w - v||^2 = 1 - Re w^H (2 A^H v - G w).
    """
    phi = np.ravel(mesh.phi)
    steps = np.exp(-1j * math.pi * np.sin(np.ravel(mesh.theta)) * np.array([np.sin(phi), np.cos(phi)]))  # (2, H)
    powers = np.empty((n,) + steps.shape, dtype=complex)
    powers[0] = 1.0
    powers[1:] = steps
    np.cumprod(powers, axis=0, out=powers)  # powers[a] = steps^a
    lags = np.concatenate([powers[:0:-1].conj(), powers])  # (2n - 1, 2, H), lag -(n-1) first
    table = lags[:, 0] @ lags[:, 1].T
    if not np.isfinite(table).all():
        raise ValueError("the design mesh holds a non-finite angle")
    # With element (i, j) at i * (2n - 1) + j, two elements' difference plus
    # 2n(n - 1), the flat index of lag (0, 0), is the flat index of their lag.
    flat = (np.arange(n)[:, None] * (2 * n - 1) + np.arange(n)).ravel()
    normal = table.ravel()[flat[:, None] - flat + 2 * n * (n - 1)]
    rhs = np.outer(powers[:, 0, 0], powers[:, 1, 0]).ravel()  # A^H v, the steering vector of mesh point 0
    factor, info = zpotrf(normal, clean=0)
    if info > 0:
        factor, info = zpotrf(normal + _LS_LOADING * np.eye(n * n), clean=0)
    if info != 0:
        raise scipy.linalg.LinAlgError(f"LS normal matrix not positive definite (zpotrf info {info})")
    w = zpotrs(factor, rhs)[0]
    fitted = normal @ w
    residual = 1.0 - np.vdot(w, 2.0 * rhs - fitted).real
    for _ in range(_LS_REFINE_STEPS):
        candidate = w + zpotrs(factor, rhs - fitted)[0]
        cand_fitted = normal @ candidate
        cand_residual = 1.0 - np.vdot(candidate, 2.0 * rhs - cand_fitted).real
        if cand_residual > residual:
            break
        improved = residual - cand_residual
        w, fitted, residual = candidate, cand_fitted, cand_residual
        if improved < _LS_REFINE_TOL:
            break
    return w / np.linalg.norm(w)


def capon_beamformer(intended: AoA, n: int) -> np.ndarray:
    """Minimum-variance distortionless weights for the single-direction model, shaped like
    steering_vector; each row of a stacked design equals its own single design bit for bit.

    The modeled covariance R = g g^H + eps * I of the intended direction gives
    R^-1 g = g / (eps + g^H g), so R^-1 g / (g^H R^-1 g) equals g / (g^H g)
    exactly for every loading eps > 0; no system is solved and no loading is
    needed. The weights satisfy w^H g(intended) = 1.
    """
    g = steering_vector(intended, n)
    return g / (g.conj()[..., None, :] @ g[..., :, None])[..., 0].real
