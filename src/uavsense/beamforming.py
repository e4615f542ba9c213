"""Steering vectors and the two receive beamformer designs.

The receive gain convention is Hermitian throughout: the gain of a reflection
with steering vector g under weights w is w^H g, so a distortionless design
has w^H g(intended) = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import AoA

__all__ = [
    "steering_vector",
    "steering_matrix",
    "aoa_mesh",
    "ls_beamformer",
    "capon_beamformer",
]

# A folded LS system whose Cholesky diagonal spans more than 1 / _LS_DIAG_RANGE
# (condition number above about 1e6) loses more than about 1e-10 of its weights
# to the normal equations; only n = 2 near boresight (theta below about 0.025)
# gets there, and such a direction is solved by dense least squares instead.
_LS_DIAG_RANGE = 1e-3
# Iterative refinement of the LS solve: at most this many steps, stopping once
# a step lowers the residual by less than the tolerance.
_LS_REFINE_STEPS = 10
_LS_REFINE_TOL = 1e-10


def steering_matrix(directions: AoA, n: int) -> np.ndarray:
    """Steering vectors of every direction as columns, shape (n^2, H).

    `directions` holds H elevations and azimuths as arrays of any shape,
    taken in raveled order. Entry (i, j) of a column, i and j in 0..n-1, is
    exp(-j*pi*i*sin(theta)*sin(phi)) * exp(-j*pi*j*sin(theta)*cos(phi)),
    flattened row-major; every entry has unit modulus and entry (0, 0) is 1.
    """
    if n < 1:
        raise ValueError(f"array side must be >= 1, got {n}")
    phi = np.ravel(directions.phi)
    scale = -1j * math.pi * np.sin(np.ravel(directions.theta))
    ramps = np.exp(np.arange(n)[:, None, None] * (scale * np.array([np.sin(phi), np.cos(phi)])))  # (n, 2, H)
    return (ramps[:, None, 0, :] * ramps[None, :, 1, :]).reshape(n * n, -1)


def steering_vector(directions: AoA, n: int) -> np.ndarray:
    """Per-element phase signature of a plane wave from each of H directions, shape (H, n^2):
    the columns of steering_matrix as contiguous rows."""
    return np.ascontiguousarray(steering_matrix(directions, n).T)


def aoa_mesh(intended: AoA, n: int) -> AoA:
    """The heuristic design meshes of n elevations x 4n azimuths, raveled
    elevation-major, one per intended direction; each intended AoA is the
    first point of its mesh.

    K intended directions (K,) give (K, 4n^2) angle arrays whose row k is the
    mesh of direction k. The modular wrap can duplicate the first
    elevation/azimuth at the far end; duplicates are kept as written.
    """
    if n < 2:
        raise ValueError(f"array side must be >= 2 for the design mesh, got {n}")
    i = np.arange(n)
    j = np.arange(4 * n)
    elevations = np.mod(np.asarray(intended.theta)[..., None] + i * math.pi / (2.0 * (n - 1)), math.pi / 2.0)
    azimuths = np.mod(np.asarray(intended.phi)[..., None] + j * 2.0 * math.pi / (4.0 * n - 1.0), 2.0 * math.pi)
    return AoA(theta=np.repeat(elevations, 4 * n, axis=-1), phi=np.tile(azimuths, n))


def ls_beamformer(mesh: AoA, n: int) -> np.ndarray:
    """Constrained least-squares weights over each of K AoA meshes: (K, 4n^2)
    angle arrays, as from aoa_mesh, give (K, n^2) weights. Each row depends on
    its own mesh only, so a row of a stack equals its stack of one bit for bit.

    For each mesh, minimizes ||A w - v||_2^2 where row h of A is the
    conjugated steering vector of mesh AoA h and v is the desired response, 1
    at the intended (first) mesh point and 0 elsewhere, then rescales to
    ||w||_2 = 1.

    A is never formed. With x_h = exp(-j*pi*sin(theta_h)*sin(phi_h)) and y_h
    the same with cos(phi_h), steering entry (i, j) of mesh point h is
    x_h^i * y_h^j, so G = A^H A is two-level Toeplitz,
    G[(i, j), (k, l)] = T[i - k, j - l] with the lag table
    T[a, b] = sum_h x_h^a * y_h^b, of which only the lags a >= 0 are summed
    (T[-a, -b] = conj T[a, b]), and A^H v = r is the steering vector of mesh
    point 0.

    G is centro-Hermitian (J G J = conj G, J the exchange matrix), and with
    s = sqrt(r[m - 1]), m = n^2, b = r / s satisfies J conj b = b. So
    w = s Q y with y real, Q = [[I, 0, iI], [0, 2, 0], [J, 0, -iJ]] (the middle
    row and column only for odd m), where y solves the real SPD system
    M y = beta of order m,

        M = Q^H G Q / 2 = [[Re(A + P),   2 Re c,  Im P - Im A],
                           [2 Re c^T,    2 g,     2 Im c^T   ],
                           [Im A + Im P, 2 Im c,  Re(A - P)  ]],
        beta = Q^H b / 2 = [Re b_top, b_middle, Im b_top],

    A being G's top-left block, P its top-right block with the columns
    reversed, c the top half of its middle column and g its centre. Each
    system is solved with dpotrf/dpotrs plus an iterative refinement loop that
    never lets the residual ||A w - v||^2 = 1 - 2 y^T (2 beta - M y) grow.
    A direction whose factorization fails, or whose Cholesky diagonal spans
    more than 1 / _LS_DIAG_RANGE, takes the normalized dense lstsq solution
    of its 4n^2 x n^2 response instead (n = 2 near boresight).
    """
    theta, phi = mesh.theta, mesh.phi  # (K, H)
    K, m, h = len(theta), n * n, n * n // 2
    steps = np.exp(-1j * math.pi * np.sin(theta) * np.array([np.sin(phi), np.cos(phi)]))  # (2, K, H)
    xpow = np.empty((n,) + theta.shape, dtype=complex)  # xpow[a] = x^a
    ylag = np.empty((2 * n - 1,) + theta.shape, dtype=complex)  # ylag[b + n - 1] = y^b
    xpow[0] = ylag[n - 1] = 1.0
    xpow[1], ylag[n] = steps
    for a in range(2, n):
        np.multiply(xpow[a - 1], steps[0], out=xpow[a])
        np.multiply(ylag[n + a - 2], steps[1], out=ylag[n + a - 1])
    np.conjugate(ylag[: n - 1 : -1], out=ylag[: n - 1])
    half = xpow.transpose(1, 0, 2) @ ylag.transpose(1, 2, 0)  # (K, n, 2n - 1): T[a >= 0, b]
    if not np.isfinite(half).all():
        raise ValueError("the design mesh holds a non-finite angle")
    table = np.concatenate([half[:, :0:-1, ::-1].conj(), half], axis=1).reshape(K, -1)
    # With element (i, j) at i * (2n - 1) + j, two elements' difference plus
    # 2n(n - 1), the flat index of lag (0, 0), is the flat index of their lag.
    flat = (np.arange(n)[:, None] * (2 * n - 1) + np.arange(n)).ravel()
    lag = flat[:, None] - flat + 2 * n * (n - 1)
    top_left = table[:, lag[:h, :h]]
    top_right = table[:, lag[:h, ::-1][:, :h]]
    system = np.empty((K, m, m))
    np.add(top_left.real, top_right.real, out=system[:, :h, :h])
    np.subtract(top_right.imag, top_left.imag, out=system[:, :h, -h:])
    np.add(top_left.imag, top_right.imag, out=system[:, -h:, :h])
    np.subtract(top_left.real, top_right.real, out=system[:, -h:, -h:])
    r = (xpow[:, :, 0].T[:, :, None] * ylag[n - 1 :, :, 0].T[:, None, :]).reshape(K, m)
    s = np.sqrt(r[:, -1])
    b = r / s[:, None]
    rhs = np.empty((K, m))
    rhs[:, :h] = b[:, :h].real
    rhs[:, -h:] = b[:, :h].imag
    if m % 2:
        middle = table[:, lag[:h, h]]
        system[:, :h, h] = system[:, h, :h] = 2.0 * middle.real
        system[:, -h:, h] = system[:, h, -h:] = 2.0 * middle.imag
        system[:, h, h] = 2.0 * table[:, 2 * n * (n - 1)].real
        rhs[:, h] = b[:, h].real

    # LAPACK is loaded by the first LS design, so runs without one never import scipy.linalg.
    from scipy.linalg.lapack import dpotrf, dpotrs

    # Factor in place: the transpose of a C-ordered symmetric matrix is itself, in Fortran order.
    factors = system.copy()
    info = np.array([dpotrf(f.T, clean=0, overwrite_a=1)[1] for f in factors])
    diagonal = np.diagonal(factors, axis1=1, axis2=2)
    dense = (info != 0) | (diagonal.min(axis=1) < _LS_DIAG_RANGE * diagonal.max(axis=1))
    y = np.zeros((K, m))
    for k in np.flatnonzero(~dense):
        y[k] = _refined_solve(dpotrs, system[k], factors[k].T, rhs[k])
    z_top = y[:, :h] + 1j * y[:, -h:]  # z = Q y; y[:, h : m - h] is the middle unknown, for odd m only
    w = s[:, None] * np.concatenate([z_top, 2.0 * y[:, h : m - h], z_top[:, ::-1].conj()], axis=1)
    for k in np.flatnonzero(dense):
        response = steering_matrix(AoA(theta[k], phi[k]), n).conj().T
        desired = np.zeros(len(response), dtype=complex)
        desired[0] = 1.0
        w[k] = np.linalg.lstsq(response, desired, rcond=None)[0]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w


def _refined_solve(dpotrs, system: np.ndarray, factor: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Cholesky solve of system y = rhs with LAPACK's dpotrs, refined while a step
    lowers the LS residual 1 - 2 y^T (2 rhs - system y) by at least _LS_REFINE_TOL."""
    y = dpotrs(factor, rhs)[0]
    fitted = system @ y
    residual = 1.0 - 2.0 * (y @ (2.0 * rhs - fitted))
    for _ in range(_LS_REFINE_STEPS):
        candidate = y + dpotrs(factor, rhs - fitted)[0]
        cand_fitted = system @ candidate
        cand_residual = 1.0 - 2.0 * (candidate @ (2.0 * rhs - cand_fitted))
        if cand_residual > residual:
            break
        improved = residual - cand_residual
        y, fitted, residual = candidate, cand_fitted, cand_residual
        if improved < _LS_REFINE_TOL:
            break
    return y


def capon_beamformer(intended: AoA, n: int) -> np.ndarray:
    """Minimum-variance distortionless weights for the single-direction model of each of H
    intended directions, shape (H, n^2) like steering_vector; each row equals the design of
    its stack of one bit for bit.

    The modeled covariance R = g g^H + eps * I of the intended direction gives
    R^-1 g = g / (eps + g^H g), so R^-1 g / (g^H R^-1 g) equals g / (g^H g)
    exactly for every loading eps > 0; no system is solved and no loading is
    needed. The weights satisfy w^H g(intended) = 1.
    """
    g = steering_vector(intended, n)
    return g / (g.conj()[:, None, :] @ g[:, :, None])[:, 0].real
