"""Second-moment dynamics: subcritical growth, blowup, supercritical sol.

Under the pair-merge dynamics the second moments of the conserved block
close into an autonomous quadratic ODE system,

    dQ/dt   = Q A+ Q         Q_ij = <pi_i pi_j>,  1 <= i,j <= n
    dz_i/dt = (z A+ Q)_i     z_i  = <pi0 pi_i>,   1 <= i <= n
    dz_0/dt = z A+ z^T       z_0  = <pi0^2>

(mirror symmetry kills every mixed moment with a sign-odd coordinate, so
the odd block never feeds back).  Bordering ``Q`` with ``z`` gives the
(1+n) x (1+n) second-moment matrix ``Y = <(pi0, plus)(pi0, plus)^T>``, and
the whole system is one matrix Riccati equation,

    dY/dt = Y A_hat Y,      A_hat = diag(0, A+),

so ``Q^-1`` falls linearly in time, and the flow has the closed form
``Y(t) = Y0 (I - t A_hat Y0)^-1``, its resolvent: that is what the
production path evaluates.  It blows up exactly at ``t r = 1``, with ``r``
the spectral radius of the gelation eigenproblem, the gelation time, and
following the ODE to its pole gives a route to t_g independent of the
spectral formula: ``explosion_time`` steps the flow by its Taylor series,
whose coefficients the quadratic right-hand side gives exactly, until the
peak entry of ``D^-1 Y D^-1``, ``D = sqrt(diag Y0)``, has grown a
million-fold over its start, and fits the first-order pole with a
quadratic in ``t`` over the last two decades of that growth.

After gelation the sol phase is described through duality: tilt the
initial measure by the non-survival factor, check by one Cholesky factor
that the tilted system is subcritical, and evaluate the same closed form
from the tilted moments.  Those set the rate at which the gel grows, and
``gel_growth_ode`` steps that growth by its Taylor series, with the same
resolvent and the same check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import DualNotSubcritical, ExplosionReached, NumericError
from .spectral import SpectralResult, _gelation, gelation
from .survival import gel_data, solve_fixed_point
from .system import AtomicMeasure, BilinearSystem, GelData, check_times, gram_plus
from .system import moment_matrix

# the flow is blown up once 1 - (t - t0) r is at most this, r its spectral radius
_POLE_GAP = 1e-12
# explosion_time stops once the peak |Y| entry has grown this much over its
# start, and fits the pole to the steps within this factor of the last peak
_POLE_GROWTH = 1e6
_POLE_WINDOW = 1e2

# rounding slack of |Y_ij| <= sqrt(Y_ii Y_jj); squared, it stays below 1e-7
_CS_SLACK = 4.9e-8

# explosion_time's Taylor steps: the share of the radius of convergence a
# step covers (a tail of 0.25^21 / 0.75, about 3e-13 of the state), and
# the step budget
_SERIES_REACH = 0.25
_SERIES_STEPS = _rk.MAX_STEPS
# gel_growth_ode's Taylor steps: at a quarter of the radius its error
# stalls near 6e-11, so a step covers less (0.15^20 already holds the last
# term below its rtol of about rounding)
_GROWTH_REACH = 0.15
_GROWTH_RTOL = 1e-16


@dataclass(frozen=True)
class MomentState:
    """Second moments ``Y`` at one time; ``z = Y[0]``, ``Q = Y[1:, 1:]``."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2 or y.shape[0] != y.shape[1] or y.shape[0] < 2:
            raise ValueError("Y must be square, with n >= 1")
        object.__setattr__(self, "y", y)

    q = property(lambda self: self.y[1:, 1:])
    z = property(lambda self: self.y[0])
    n = property(lambda self: self.y.shape[0] - 1)

    @property
    def total_second_moment(self) -> float:
        """<phi^2> where phi = pi0 + sum of conserved coordinates."""
        return float(self.z[0] + 2.0 * self.z[1:].sum() + self.q.sum())


def initial_state(measure: AtomicMeasure) -> MomentState:
    y = np.empty((measure.n + 1, measure.n + 1))
    y[0] = moment_matrix(measure, [0], range(0, measure.n + 1))[0]
    y[1:, 0] = y[0, 1:]
    y[1:, 1:] = gram_plus(measure)
    return MomentState(0.0, y)


def _a_hat(sys: BilinearSystem) -> np.ndarray:
    """``A_hat = diag(0, A+)``, the rate matrix of the bordered moments."""
    a_hat = np.zeros((sys.n + 1, sys.n + 1))
    a_hat[1:, 1:] = sys.a_plus
    return a_hat


def moment_rhs(
    sys: BilinearSystem, state: MomentState
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (dQ, dz) at the given state."""
    dy = state.y @ _a_hat(sys) @ state.y
    return dy[1:, 1:], dy[0]


def _flow(sys: BilinearSystem, state0: MomentState, t: float) -> MomentState:
    """The closed form of the moment flow from ``state0`` at ``t``, its
    resolvent ``Y0 (I - s A_hat Y0)^-1`` with ``s = t - t0``, symmetrised."""
    y0 = state0.y
    y = y0 @ np.linalg.inv(np.eye(len(y0)) - (t - state0.t) * _a_hat(sys) @ y0)
    return MomentState(t, (y + y.T) / 2.0)


def _check_subcritical(a_plus: np.ndarray, q: np.ndarray, t: float, tau: float) -> None:
    """DualNotSubcritical unless the flow from the tilted Gram matrix ``q``
    stays finite past ``tau``: with ``q = C C^T``, ``I - tau C^T A+ C``
    has a Cholesky factor."""
    try:
        chol = np.linalg.cholesky(q)
        np.linalg.cholesky(np.eye(len(q)) - tau * (chol.T @ a_plus @ chol))
    except np.linalg.LinAlgError:
        raise DualNotSubcritical(
            f"tilted system at t={t} is not subcritical past {tau}; "
            "fixed-point solution is inconsistent"
        ) from None


def integrate_subcritical(
    sys: BilinearSystem,
    state0: MomentState,
    t_end: float,
    outputs=None,
) -> MomentState | list[MomentState]:
    """Moments at ``t_end`` by the closed form of the moment flow
    (:func:`_flow`).  ExplosionReached once ``1 - s r`` is at most
    ``_POLE_GAP``, the one blowup rule, with ``s = t_end - t0`` and ``r``
    the spectral radius of ``state0.q``, which no unit of a coordinate
    changes.  With ``outputs`` given, returns the states at those times
    instead of just the final state.
    """
    (t_end,) = check_times([t_end], state0.t)
    times = check_times([] if outputs is None else outputs, state0.t, t_end)
    radius = _gelation(sys, state0.q).radius
    if 1.0 - (t_end - state0.t) * radius <= _POLE_GAP:
        raise ExplosionReached(
            f"second moments blow up at t={state0.t + 1.0 / radius},"
            f" not after requested t={t_end}"
        )
    states = [_flow(sys, state0, t) for t in [t_end, *times]]
    return states[0] if outputs is None else states[1:]


def _series_step(
    y: np.ndarray, a_hat: np.ndarray, rtol: float
) -> tuple[np.ndarray, float]:
    """One Taylor step of ``dY/dtau = Y A_hat Y`` from ``Y`` by
    :func:`_rk.step`: the new state and the step, or ``Y`` and ``inf`` when
    the flow is at rest.

    In the rule's unit ``u``, with ``B = u A_hat``, the quadratic
    right-hand side gives the coefficients ``Z_k`` of
    ``Y(tau + u s) = sum_k Z_k s^k`` exactly, by the Cauchy product
    ``Z_{k+1} = (1/(k+1)) sum_{i<=k} (Z_i B) Z_{k-i}``, one matrix product
    over ``i`` for each ``k``.  A step covers ``_SERIES_REACH`` of the
    radius of convergence.
    """
    m, order = y.shape[0], _rk.ORDER
    dy = y @ a_hat @ y

    def series(u: float) -> np.ndarray:
        b = u * a_hat
        # zr[order - k] is Z_k, so the Z_{k-i}, i <= k, are the rows from
        # order - k on, against the Z_i B side by side in zb
        zr = np.empty((order + 1, m, m))
        zb = np.empty((m, (order + 1) * m))
        zr[order], zr[order - 1] = y, u * dy
        np.matmul(y, b, out=zb[:, :m])
        for k in range(1, order):
            np.matmul(zr[order - k], b, out=zb[:, k * m : (k + 1) * m])
            z_next = zr[order - k - 1]
            np.matmul(zb[:, : (k + 1) * m], zr[order - k :].reshape(-1, m), out=z_next)
            z_next /= k + 1
        return zr[::-1]

    z, s, u = _rk.step(y, dy, series, _SERIES_REACH, rtol)
    return _rk.value(z, s), s * u


def explosion_time(
    sys: BilinearSystem,
    state0: MomentState,
    rtol: float = 1e-9,
) -> float:
    """Blowup time of the moment ODE, found by stepping its Taylor series.

    Runs until the peak entry of ``|Y~|`` has grown a million-fold
    (``_POLE_GROWTH``) over the start's, then fits the exact first-order
    pole, ``1/peak = a (T - t) + b (T - t)^2 + O((T - t)^3)``: a quadratic
    in ``t - t_last`` through the steps within two decades
    (``_POLE_WINDOW``) of the last peak, at least the last four, whose real
    root nearest 0 puts ``T``.  There ``T - t`` is below about ``1e-4 T``,
    so the dropped term is about ``1e-12`` relative.  ``Y~ = D^-1 Y D^-1``,
    ``D = sqrt(diag Y0)`` (1 where an entry is 0), has the same flow under
    ``D A_hat D``, stepped in units of that matrix's largest entry by
    :func:`_series_step`, each step a quarter of the way to the pole, so
    the run takes about 50 steps and the result follows any unit of each
    coordinate up to the double range.
    ``rtol`` bounds the series' last term in each step, relative to the
    state; above about ``1e-12`` the quarter radius is the tighter bound.
    Deliberately makes no use of the spectral formula, the closed form or
    ``np.linalg``, so the two routes cross-validate each other.
    NumericError for a start whose peak entry is zero or not finite, for
    the first state that violates Cauchy-Schwarz, when no blowup shows
    within ``_SERIES_STEPS`` steps, and when the fit has no real root.
    """
    if not rtol > 0.0:
        raise ValueError(f"rtol must be positive, got {rtol}")
    unit = np.sqrt(state0.y.diagonal())
    unit[unit == 0.0] = 1.0
    y = state0.y / unit[:, None] / unit
    peak0 = float(np.abs(y).max())
    if not 0.0 < peak0 < np.inf:
        raise NumericError(
            f"starting second moments peak at {peak0}; no pole to integrate to"
        )
    b = unit[:, None] * _a_hat(sys) * unit
    lam = float(np.abs(b).max())
    b, tau = b / lam, 0.0
    ts: list[float] = []
    peaks: list[float] = []
    for _ in range(_SERIES_STEPS):
        y, h = _series_step(y, b, rtol)
        if not h < math.inf:
            break
        tau += h
        sym = (y + y.T) / 2.0
        d = np.sqrt(sym.diagonal())
        if (np.abs(sym) > d[:, None] * d * (1.0 + _CS_SLACK) + 1e-300).any():
            raise NumericError(
                f"Cauchy-Schwarz violated in the second moments at"
                f" t={state0.t + tau / lam}; integration unreliable"
            )
        # each step's peak entry, kept for the pole fit
        ts.append(tau)
        peaks.append(float(np.abs(y).max()))
        if peaks[-1] >= _POLE_GROWTH:
            break
    if not (peaks and peaks[-1] >= _POLE_GROWTH):
        raise NumericError(
            "moment ODE showed no blowup within the step budget; "
            "the system appears subcritical forever (degenerate input)"
        )
    peaks = np.array(peaks)
    ts = np.array(ts)
    sel = peaks >= peaks[-1] / _POLE_WINDOW
    if sel.sum() < 4:
        sel[-4:] = True
    # centred on the last step, so that the fit stays well conditioned
    c2, c1, c0 = np.polyfit(ts[sel] - ts[-1], 1.0 / peaks[sel], 2)
    disc = c1 * c1 - 4.0 * c2 * c0
    # of the roots h / c2 and c0 / h, the second is the one nearest 0, and
    # it stays exact as c2 -> 0 (the n = 1 presets have 1/peak linear)
    h = -0.5 * (c1 + np.copysign(np.sqrt(disc), c1)) if disc >= 0.0 else 0.0
    if h == 0.0:
        raise NumericError("pole fit failed: 1/moments has no real root")
    return float(state0.t + (ts[-1] + c0 / h) / lam)


def supercritical_moments(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    t: float,
    spectral: SpectralResult | None = None,
) -> MomentState:
    """Sol-phase second moments after gelation, via the duality tilt.

    Thin the initial measure by the survival probabilities at time t,
    verify that the tilted flow stays finite past ``t + (t - t_g) / 2``
    (its gap is about ``t - t_g``) by :func:`_check_subcritical`, then
    evaluate the closed form of the flow from the tilted moments at t.
    ``spectral`` is the measure's own gelation result, solved here when not
    given.
    """
    if spectral is None:
        spectral = gelation(sys, measure)
    if t <= spectral.t_g:
        raise ValueError(
            f"t={t} is subcritical (t_g={spectral.t_g}); integrate directly"
        )
    sol = solve_fixed_point(sys, measure, t, spectral)
    return _dual(sys, measure, t, sol.c, spectral.t_g)


def _dual(
    sys: BilinearSystem, measure: AtomicMeasure, t: float, c: np.ndarray, t_g: float
) -> MomentState:
    """Sol moments at t from the fixed point ``c`` at t: the moment flow of
    the tilted measure, once it is checked to stay finite past t."""
    tilted = measure._tilted(-np.expm1(-(measure.coords[:, 1 : 1 + sys.n] @ c)))
    state0 = initial_state(tilted)
    # the tilted gap is about t - t_g, so the margin scales with it
    _check_subcritical(sys.a_plus, state0.q, t, t + 0.5 * (t - t_g))
    return _flow(sys, state0, t)


def moments_at(
    sys: BilinearSystem, measure: AtomicMeasure, t: float
) -> tuple[MomentState, str]:
    """Moments of the sol at time t with the phase label."""
    spectral = gelation(sys, measure)
    if t <= spectral.t_g:
        state = integrate_subcritical(sys, initial_state(measure), t)
        return state, "sol-subcritical"
    state = supercritical_moments(sys, measure, t, spectral)
    return state, "supercritical-dual"


def gel_growth_ode(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    t_to: float,
    outputs=None,
) -> list[tuple[float, GelData]]:
    """Post-gel trajectory of the gel data by direct integration.

    The gel absorbs sol particles at a rate set by the sol moments ``S``:
    ``dg = S[:, 1:] f`` on ``g = (M, E)``, with ``f = A+ E``.  On the
    maximal branch the fixed point is ``c = t f``, so ``S`` is the moment
    flow of the tilted measure in its resolvent form, ``S = G (I - t A_hat
    G)^-1`` with ``G = V^T diag(w e^(-plus . c)) V`` on the ``(pi0, plus)``
    columns ``V``, and the right-hand side is a function of ``(t, g)``
    alone; along it ``c - t F(c)`` stays 0.  Steps its Taylor series by
    :func:`_rk.integrate`; with ``t = t0 + u s``, the coefficients follow
    from ``c_k = t0 f_k + u f_(k-1)``, the exponential's recurrence on
    ``x = plus . c``, the inverse's ``N_k = -N_0 sum_(i>=1) M_i N_(k-i)`` on
    ``M = I - t A_hat G`` and Cauchy products, with no eigenproblem and no
    tilted :func:`gelation`.  DualNotSubcritical at the first state whose
    tilted system is not subcritical past ``t + (t - t_g) / 2`` (its gap is
    about ``t - t_g``), by :func:`_check_subcritical` on ``G+``.  Starts at
    ``t_g (1 + 1e-3)``, or halfway to ``t_to`` if sooner, from the
    fixed-point gel (the one fixed-point solve), and drops outputs before
    that start.  The second, independent gel curve.
    """
    given = check_times([t_to, *([] if outputs is None else outputs)])
    spectral = gelation(sys, measure)
    t_g = spectral.t_g
    if t_to <= t_g:
        raise ValueError(f"t_to={t_to} is not after the gelation time {t_g}")
    t_start = t_g * (1.0 + 1e-3)
    if t_to <= t_start:
        t_start = t_g + 0.5 * (t_to - t_g)
    g0 = gel_data(sys, measure, t_start, spectral).g
    n, order = sys.n, _rk.ORDER
    cols, w = measure.coords[:, : 1 + n], measure.weight_array
    plus, a_plus, a_hat = cols[:, 1:], sys.a_plus, _a_hat(sys)

    def taylor(t: float, y: np.ndarray):
        f0 = a_plus @ y[1:]
        x0 = plus @ (t * f0)
        e0 = np.exp(-x0)
        gram = (cols.T * (w * e0)) @ cols
        _check_subcritical(a_plus, gram[1:, 1:], t, t + 0.5 * (t - t_g))
        n0 = np.linalg.inv(np.eye(1 + n) - t * a_hat @ gram)
        s0 = gram @ n0
        dy = s0[:, 1:] @ f0

        def series(u: float) -> np.ndarray:
            ys = np.empty((order + 1, 1 + n))
            fs, (es, jx) = np.empty((order, n)), np.empty((2, order, len(w)))
            gs, ms, ns, ss = np.empty((4, order, 1 + n, 1 + n))
            ys[0], ys[1], fs[0], es[0], gs[0], ns[0], ss[0] = y, u * dy, f0, e0, gram, n0, s0
            for k in range(1, order):
                fs[k] = a_plus @ ys[k, 1:]
                # k x_k, for x = plus . c with c_k = t f_k + u f_(k-1)
                jx[k] = k * (plus @ (t * fs[k] + u * fs[k - 1]))
                es[k] = -(jx[1 : k + 1] * es[k - 1 :: -1]).sum(axis=0) / k
                gs[k] = (cols.T * (w * es[k])) @ cols
                # M_k = -A_hat (t G_k + u G_(k-1)), of M = I - t A_hat G
                ms[k] = -a_hat @ (t * gs[k] + u * gs[k - 1])
                ns[k] = -n0 @ (ms[1 : k + 1] @ ns[k - 1 :: -1]).sum(axis=0)
                ss[k] = (gs[: k + 1] @ ns[k::-1]).sum(axis=0)
                ys[k + 1] = u / (k + 1) * np.einsum("kij,kj->i", ss[: k + 1, :, 1:], fs[k::-1])
            return ys

        return dy, series

    out = sorted({v for v in given if v >= t_start})
    traj = _rk.integrate(
        taylor, t_start, g0[: 1 + n], t_to, _GROWTH_REACH, _GROWTH_RTOL, outputs=out
    )
    return [(t, GelData(np.concatenate((y, g0[1 + n :])))) for t, y in zip(traj.ts, traj.ys)]
