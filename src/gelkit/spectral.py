"""Gelation time via the spectral radius of the criticality matrix.

The conserved coordinates evolve linearly until the second moments blow up;
the matrix governing that growth is ``L = A_plus @ Q`` with ``Q`` the
second-moment (Gram) matrix of the conserved coordinates under the initial
measure.  ``L`` is entrywise nonnegative, similar to the symmetric matrix
``L_chol^T A_plus L_chol`` (Cholesky ``Q = L_chol L_chol^T``), so its
spectral radius ``r`` is its largest eigenvalue and has a single-signed
eigenvector.  Gelation happens at ``t_g = 1 / r``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasure, NoConvergence, SchemaError
from .system import AtomicMeasure, BilinearSystem, gram_plus

_GRAM_TOL = 1e-9
_RESIDUAL_TOL = 1e-10


def criticality_matrix(sys: BilinearSystem, measure: AtomicMeasure) -> np.ndarray:
    """``A_plus @ Q`` where Q is the conserved-coordinate Gram matrix.

    Only the conserved block enters: the sign-odd coordinates cannot feed
    moment growth under mirror-symmetric data.
    """
    return _criticality(sys, gram_plus(measure))


def _criticality(sys: BilinearSystem, q: np.ndarray) -> np.ndarray:
    """:func:`criticality_matrix` from the Gram matrix ``q``;
    :class:`DegenerateMeasure` unless ``q`` is well conditioned."""
    eigs = np.linalg.eigvalsh(q)
    if eigs[-1] <= 0.0 or eigs[0] <= _GRAM_TOL * eigs[-1]:
        raise DegenerateMeasure(
            "conserved coordinates are linearly dependent under the measure "
            f"(Gram eigenvalue ratio {eigs[0] / max(eigs[-1], 1e-300):.3e})"
        )
    return sys.a_plus @ q


@dataclass(frozen=True)
class SpectralResult:
    """Criticality matrix, its Perron data, and the gelation time."""

    lambda_matrix: np.ndarray
    radius: float
    psi: np.ndarray
    t_g: float


def spectral_radius(
    mat: np.ndarray, tol: float = 1e-13, max_iter: int = 200_000
) -> tuple[float, np.ndarray]:
    """Power iteration on an entrywise-nonnegative matrix.

    Independent of the eigendecomposition route; used as a cross-check.
    Returns (radius, unit direction).  Raises NoConvergence if the iteration
    stalls, which signals reducible or degenerate input.
    """
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if k == 1:
        return abs(float(mat[0, 0])), np.ones(1)
    v = np.full(k, 1.0 / np.sqrt(k))
    lam = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0, v
        w /= norm
        lam_new = float(w @ (mat @ w))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)) and float(
            np.linalg.norm(mat @ w - lam_new * w)
        ) <= 100.0 * tol * max(1.0, abs(lam_new)):
            return lam_new, w
        lam, v = lam_new, w
    raise NoConvergence(
        f"power iteration did not settle in {max_iter} steps; "
        "matrix may be reducible or defective"
    )


def gelation(sys: BilinearSystem, measure: AtomicMeasure) -> SpectralResult:
    """Full spectral solve: criticality matrix, radius, Perron vector, t_g.

    The Perron vector ``psi`` is normalized to ``psi^T Q psi = 1`` and is
    componentwise positive; a sign-mixed eigenvector means the measure
    does not satisfy the admissibility hypotheses.  A measure that is not
    mirror symmetric (hypothesis A1) is refused with a :class:`SchemaError`
    at ``/atoms``: the limit theory, which reads only the conserved block,
    does not describe it.  A radius too small for ``1 / r`` to be finite is
    a :class:`DegenerateMeasure`.
    """
    if not measure.mirror_symmetric:
        raise SchemaError(
            "/atoms",
            "the measure is not mirror symmetric (hypothesis A1): some atom's "
            "reflection is missing or carries another weight",
        )
    q = gram_plus(measure)
    lam_mat = _criticality(sys, q)
    chol = np.linalg.cholesky(q)
    sym = chol.T @ sys.a_plus @ chol
    sym = (sym + sym.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    radius = float(eigvals[-1])
    if not (radius > 0.0 and 1.0 / radius < np.inf):
        raise DegenerateMeasure(
            f"criticality matrix has top eigenvalue {radius}: no finite t_g"
        )
    u = eigvecs[:, -1]
    # psi solves chol.T psi = u, hence L psi = radius psi and
    # psi^T Q psi = u^T u = 1 automatically.
    psi = np.linalg.solve(chol.T, u)
    if psi[np.argmax(np.abs(psi))] < 0.0:
        psi = -psi
    scale = float(np.abs(psi).max())
    if psi.min() < -1e-9 * scale:
        raise DegenerateMeasure(
            "Perron direction is not single-signed; the criticality matrix "
            "is reducible on this measure"
        )
    psi = np.abs(psi)
    residual = float(np.linalg.norm(lam_mat @ psi - radius * psi))
    assert residual <= _RESIDUAL_TOL * max(1.0, radius * float(np.abs(psi).max())), (
        f"eigenpair residual {residual:.3e} out of tolerance"
    )
    return SpectralResult(
        lambda_matrix=lam_mat,
        radius=radius,
        psi=psi,
        t_g=1.0 / radius,
    )


def gelation_time(sys: BilinearSystem, measure: AtomicMeasure) -> float:
    return gelation(sys, measure).t_g
