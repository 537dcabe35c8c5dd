"""Maximal fixed point of the gel equation, gel data, and critical slope.

Past the gelation time a particle drawn from the initial measure has a
positive chance of being swallowed by the macroscopic cluster; that chance
is ``rho(x) = 1 - exp(-plus(x) . c)`` where the coefficient vector ``c``
solves

    c = t * F(c),
    F(c) = A_plus < plus * (1 - exp(-plus . c)) >_mu0.

Among the solutions (0 is always one) the physical branch is the MAXIMAL
one, which is zero exactly up to the gelation time.  Past it the maximal
root is found by monotone Newton on ``G(c) = c - t * F(c)``:
G is convex and order-monotone, so Newton started at the saturation bound
``t * A_plus <plus>`` decreases to the maximal root (Ortega &
Rheinboldt 1970, sec. 13.3), quadratically once close and by about half a
step per iteration far above a root near zero.  Gel observables are the
moments of ``rho`` against the initial measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCubic, SlowConvergence
from .spectral import SpectralResult, gelation
from .system import (
    AtomicMeasure,
    BilinearSystem,
    GelData,
    check_times,
    first_moments,
    gram_plus,
    moment_matrix,
    time_array,
)

# Newton stops once a step is at most this fraction of |c|_inf.
_NEWTON_RTOL = 1e-13
# Far above a root near zero each Newton step about halves c, so a root of
# size 1e-12 * |saturation bound| takes about 40 steps.
_MAX_NEWTON = 100
# t within this relative band above t_g is treated as subcritical: the
# root there is below 1e-12 relative and the Jacobian is singular to
# rounding, while the gate gives the limit value 0 exactly.
_CRITICAL_BAND = 1e-12


@dataclass(frozen=True)
class SurvivalCoefficients:
    """Solution of the fixed-point equation at one time."""

    t: float
    c: np.ndarray
    residual: float

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.c == 0.0))


def fixed_point_map(
    sys: BilinearSystem, measure: AtomicMeasure, c: np.ndarray
) -> np.ndarray:
    """The map F above.  Monotone nondecreasing in c, saturating at
    ``A_plus <plus>``."""
    c = np.asarray(c, dtype=float)
    plus = measure.coords[:, 1 : 1 + sys.n]
    w = measure.weight_array
    rho = -np.expm1(-(plus @ c))
    return sys.a_plus @ (plus.T @ (w * rho))


def _newton(
    sys: BilinearSystem, measure: AtomicMeasure, times: np.ndarray
) -> np.ndarray:
    """Maximal roots of ``c = t * F(c)``, one row of the ``(k, n)`` result
    per supercritical time in ``times``.

    Each row runs monotone Newton from the saturation bound with the
    Jacobian ``I - t * A_plus <plus plus^T exp(-plus . c)>`` and stops on
    its own: after a step of at most ``_NEWTON_RTOL * |c|_inf``, or, without
    applying it, at a step with no positive entry, since the descent has
    then reached the rounding floor.
    """
    plus = measure.coords[:, 1 : 1 + sys.n]
    w = measure.weight_array
    a = sys.a_plus
    s = np.asarray(times, dtype=float)[:, None]
    c = s * (a @ (plus.T @ w))
    live = np.arange(len(c))
    for _ in range(_MAX_NEWTON):
        if live.size == 0:
            return c
        cl, sl = c[live], s[live]
        # einsum, unlike a BLAS product, does the same arithmetic for a row
        # whatever the stack, so a row equals its one-row solve bit for bit
        x = np.einsum("ki,ai->ka", cl, plus)
        f = np.einsum("ij,ka,aj->ki", a, w * -np.expm1(-x), plus)
        g = cl - sl * f
        curv = np.einsum("ka,ai,aj->kij", w * np.exp(-x), plus, plus)
        jac = np.eye(sys.n) - sl[:, :, None] * np.einsum("ij,kjl->kil", a, curv)
        step = np.linalg.solve(jac, g[:, :, None])[:, :, 0]
        descends = (step > 0.0).any(axis=1)
        done = np.abs(step).max(axis=1) <= _NEWTON_RTOL * np.abs(cl).max(axis=1)
        c[live[descends]] = cl[descends] - step[descends]
        live = live[descends & ~done]
    if live.size:
        raise SlowConvergence(
            f"maximal fixed point not resolved in {_MAX_NEWTON} Newton steps at "
            f"t = {float(s[live[0], 0])!r}"
        )
    return c


def _maximal_roots(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    times: np.ndarray,
    t_g: float,
) -> np.ndarray:
    """Maximal roots at the array ``times``, one row each: exact zeros up to
    ``t_g * (1 + _CRITICAL_BAND)``, one :func:`_newton` stack past it."""
    c = np.zeros((times.size, sys.n))
    sup = times > t_g * (1.0 + _CRITICAL_BAND)
    c[sup] = _newton(sys, measure, times[sup])
    return c


def solve_fixed_point(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    t: float,
    spectral: SpectralResult | None = None,
) -> SurvivalCoefficients:
    """Maximal solution of ``c = t * F(c)``.

    Subcritical times (up to ``t_g * (1 + 1e-12)``) return exact zeros from
    the spectral gate.  Supercritically, monotone Newton from the
    saturation bound decreases to the maximal root and stops on a step of
    at most ``1e-13 * |c|_inf``; it raises :class:`SlowConvergence` if that
    takes more than 100 steps.  ``residual`` is ``|c - t * F(c)|_inf`` at
    the returned ``c``.
    """
    check_times([t])
    if spectral is None:
        spectral = gelation(sys, measure)
    c = _maximal_roots(sys, measure, np.array([t]), spectral.t_g)[0]
    gap = c - t * fixed_point_map(sys, measure, c)
    return SurvivalCoefficients(t, c, float(np.abs(gap).max()))


def survival_probabilities(
    sys: BilinearSystem, measure: AtomicMeasure, sol: SurvivalCoefficients
) -> np.ndarray:
    """Per-atom probability of belonging to the macroscopic cluster."""
    plus = measure.coords[:, 1 : 1 + sys.n]
    return -np.expm1(-(plus @ sol.c))


def gel_data(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    t: float,
    spectral: SpectralResult | None = None,
) -> GelData:
    """Gel observables ``g_i = <pi_i rho_t>`` for all 1+n+m coordinates."""
    sol = solve_fixed_point(sys, measure, t, spectral)
    if sol.is_zero:
        return GelData(np.zeros(1 + sys.n + sys.m))
    rho = survival_probabilities(sys, measure, sol)
    return GelData(measure.coords.T @ (measure.weight_array * rho))


def tilted_measure(
    sys: BilinearSystem, measure: AtomicMeasure, t: float
) -> AtomicMeasure:
    """The initial measure thinned by non-survival: weights times
    ``1 - rho_t``.  Describes the sol phase as a fresh subcritical system."""
    sol = solve_fixed_point(sys, measure, t)
    return measure._tilted(survival_probabilities(sys, measure, sol))


def gel_curve(sys: BilinearSystem, measure: AtomicMeasure, times) -> np.ndarray:
    """Rows ``(t, c_1..c_n, M, E_1..E_n)`` over a time grid, in its order;
    the supercritical times are solved together as one Newton stack."""
    t = time_array(np.ravel(times))
    t_g = gelation(sys, measure).t_g
    c = _maximal_roots(sys, measure, t, t_g)
    rho = -np.expm1(-(c @ measure.coords[:, 1 : 1 + sys.n].T))
    g = (rho * measure.weight_array) @ measure.coords
    return np.column_stack((t, c, g[:, : 1 + sys.n]))


def critical_slope(
    sys: BilinearSystem, measure: AtomicMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Right-derivatives at the gelation time: (dc/dt, dg/dt).

    Expanding the fixed point to second order around t_g and projecting
    onto the Perron direction psi (self-adjoint for the Q-weighted inner
    product) gives

        c'(t_g+) = psi / (t_g^2 * <psi, Sigma(psi)>_Q),
        Sigma(psi)_i = 1/2 sum_j a+_ij <pi_j (psi . plus)^2>,

    and the gel slope g'_i = sum_j c'_j <pi_i pi_j> for i = 0..n.
    """
    spectral = gelation(sys, measure)
    psi, t_g = spectral.psi, spectral.t_g
    n = sys.n
    plus = measure.coords[:, 1 : 1 + n]
    w = measure.weight_array
    q = gram_plus(measure)
    sigma = 0.5 * (sys.a_plus @ (plus.T @ (w * (plus @ psi) ** 2)))
    denom = float(psi @ q @ sigma)
    scale = float(np.abs(sys.a_plus).max() * (q.max() ** 1.5))
    if denom <= 1e-14 * max(1.0, scale):
        raise DegenerateCubic(
            "cubic moment term vanishes; the measure cannot support a "
            "nondegenerate gel onset"
        )
    c_prime = psi / (t_g * t_g * denom)
    z_plus = moment_matrix(measure, [0], range(1, n + 1))[0]
    g_prime = np.concatenate(([z_plus @ c_prime], q @ c_prime))
    assert np.all(g_prime > 0.0), "gel slope must be strictly positive"
    return c_prime, g_prime


@dataclass(frozen=True)
class SizeBiasReport:
    """Comparison of the gel's early diet against the population average.

    ``lhs`` weights the gel slope by the Perron direction; ``rhs`` is the
    prediction if the gel recruited uniformly at random.  lhs >= rhs always;
    strict inequality exactly when the mean interaction rate s(x) varies
    across atoms (the gel prefers high-activity particles).
    """

    lhs: float
    rhs: float
    strict: bool
    s_variance: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


def size_bias_check(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    tol: float = 1e-9,
) -> SizeBiasReport:
    spectral = gelation(sys, measure)
    c_prime, g_prime = critical_slope(sys, measure)
    theta = spectral.psi / float(spectral.psi.sum())
    moments = first_moments(measure)
    lhs = float(theta @ g_prime[1:])
    rhs = float(theta @ moments[1 : 1 + sys.n]) / float(moments[0]) * g_prime[0]
    assert lhs >= rhs - tol * max(1.0, abs(rhs)), "size-bias inequality violated"
    s = measure.coords[:, 1:] @ (sys.block @ moments[1:])
    w = measure.weight_array / measure.total_mass
    mean_s = float(w @ s)
    s_variance = float(w @ (s - mean_s) ** 2)
    return SizeBiasReport(
        lhs=lhs,
        rhs=rhs,
        strict=s_variance > tol * max(1.0, mean_s * mean_s),
        s_variance=s_variance,
    )
