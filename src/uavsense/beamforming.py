"""Steering vectors, beam patterns, and the two receive beamformer designs.

The receive gain convention is Hermitian throughout: the gain of a reflection
with steering vector g under weights w is w^H g, so a distortionless design
has w^H g(intended) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .geometry import AoA

__all__ = [
    "SteeringOrder",
    "BeamformerWeights",
    "AoAMesh",
    "steering_vector",
    "steering_matrix",
    "beam_pattern",
    "aoa_mesh",
    "ls_beamformer",
    "capon_beamformer",
]

# Diagonal loading applied when the LS normal matrix is singular.
_LS_LOADING = 1e-9


@dataclass(frozen=True)
class BeamformerWeights:
    """Receive weights for the n x n array, flattened row-major over (i, j)."""

    weights: np.ndarray  # (n*n,) complex
    design: str  # "ls" or "capon"
    intended: AoA
    fit_residual: float | None = None  # pre-normalization LS residual ||A w - v||^2


@dataclass(frozen=True)
class AoAMesh:
    """Evenly wrapped (elevation, azimuth) mesh centred on the intended AoA.

    n elevations by 4n azimuths, raveled elevation-major, with the desired
    response 1 at the intended (first) mesh point and 0 elsewhere. The modular
    wrap can duplicate the first elevation/azimuth at the far end; duplicates
    are kept as written.
    """

    elevations: np.ndarray  # (n,)
    azimuths: np.ndarray  # (4n,)
    theta: np.ndarray  # (4n^2,) raveled
    phi: np.ndarray  # (4n^2,)
    desired: np.ndarray  # (4n^2,) real


def steering_matrix(directions: AoA, n: int) -> np.ndarray:
    """Steering vectors of every direction as columns, shape (n^2, H).

    `directions` holds H elevations and azimuths (arrays, or floats for
    H = 1). Entry (i, j) of a column, i and j in 0..n-1, is
    exp(-j*pi*i*sin(theta)*sin(phi)) * exp(-j*pi*j*sin(theta)*cos(phi)),
    flattened row-major; every entry has unit modulus and entry (0, 0) is 1.
    """
    if n < 1:
        raise ValueError(f"array side must be >= 1, got {n}")
    theta = np.ravel(directions.theta)
    phi = np.ravel(directions.phi)
    st = np.sin(theta)
    idx = np.arange(n)[:, None]
    ramp_i = np.exp(idx * (-1j * math.pi * st * np.sin(phi)))  # (n, H)
    ramp_j = np.exp(idx * (-1j * math.pi * st * np.cos(phi)))
    return (ramp_i[:, None, :] * ramp_j[None, :, :]).reshape(n * n, -1)


def steering_vector(direction: AoA, n: int) -> np.ndarray:
    """Per-element phase signature of a plane wave from `direction`: the
    single column of steering_matrix, shape (n^2,)."""
    return steering_matrix(direction, n)[:, 0]


def beam_pattern(matrix: np.ndarray, weights: BeamformerWeights | np.ndarray) -> np.ndarray:
    """Complex gain w^H g at every AoA column of the steering matrix."""
    w = weights.weights if isinstance(weights, BeamformerWeights) else np.asarray(weights)
    if matrix.shape[0] != w.shape[0]:
        raise ValueError(f"steering matrix has {matrix.shape[0]} rows, weights have {w.shape[0]} entries")
    return w.conj() @ matrix


def aoa_mesh(intended: AoA, n: int) -> AoAMesh:
    """Build the heuristic design mesh of n elevations x 4n azimuths."""
    if n < 2:
        raise ValueError(f"array side must be >= 2 for the design mesh, got {n}")
    i = np.arange(n)
    j = np.arange(4 * n)
    elevations = np.mod(intended.theta + i * math.pi / (2.0 * (n - 1)), math.pi / 2.0)
    azimuths = np.mod(intended.phi + j * 2.0 * math.pi / (4.0 * n - 1.0), 2.0 * math.pi)
    theta = np.repeat(elevations, 4 * n)
    phi = np.tile(azimuths, n)
    desired = np.zeros(4 * n * n)
    desired[0] = 1.0
    return AoAMesh(elevations=elevations, azimuths=azimuths, theta=theta, phi=phi, desired=desired)


def ls_beamformer(mesh: AoAMesh, n: int, iterations: int = 10, tol: float = 1e-10) -> BeamformerWeights:
    """Constrained least-squares design over the AoA mesh.

    Minimizes ||A w - v||_2^2 where row h of A is the conjugated steering
    vector of mesh AoA h and v is the one-hot desired response, then rescales
    to ||w||_2 = 1. Solved through the normal equations with a Cholesky
    factorization (diagonal loading if singular) plus an iterative refinement
    loop that never lets the residual grow.
    """
    response_matrix = steering_matrix(AoA(mesh.theta, mesh.phi), n).conj().T  # (H', n^2)
    v = mesh.desired.astype(complex)
    normal = response_matrix.conj().T @ response_matrix
    rhs = response_matrix.conj().T @ v
    try:
        factor = scipy.linalg.cho_factor(normal)
    except scipy.linalg.LinAlgError:
        factor = scipy.linalg.cho_factor(normal + _LS_LOADING * np.eye(normal.shape[0]))
    w = scipy.linalg.cho_solve(factor, rhs)
    residual = float(np.sum(np.abs(response_matrix @ w - v) ** 2))
    for _ in range(iterations):
        correction = scipy.linalg.cho_solve(factor, rhs - normal @ w)
        candidate = w + correction
        cand_residual = float(np.sum(np.abs(response_matrix @ candidate - v) ** 2))
        if cand_residual > residual:
            break
        improved = residual - cand_residual
        w, residual = candidate, cand_residual
        if improved < tol:
            break
    w = w / np.linalg.norm(w)
    intended = AoA(theta=float(mesh.elevations[0]), phi=float(mesh.azimuths[0]))
    return BeamformerWeights(weights=w, design="ls", intended=intended, fit_residual=residual)


def capon_beamformer(intended: AoA, n: int) -> BeamformerWeights:
    """Minimum-variance distortionless weights for the single-direction model.

    The modeled covariance R = g g^H + eps * I of the intended direction gives
    R^-1 g = g / (eps + g^H g), so R^-1 g / (g^H R^-1 g) equals g / (g^H g)
    exactly for every loading eps > 0; no system is solved and no loading is
    needed. The weights satisfy w^H g(intended) = 1.
    """
    g = steering_vector(intended, n)
    w = g / np.vdot(g, g).real
    return BeamformerWeights(weights=w, design="capon", intended=intended)
