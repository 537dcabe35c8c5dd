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

so ``Q^-1`` falls linearly in time.  The gelation eigenproblem diagonalises
it, mode k growing by ``1 / (1 - t sigma_k)``: that closed form is what the
production path evaluates.  It blows up exactly at ``t sigma_max = 1``, the
gelation time, and following the ODE to its pole gives a route to t_g
independent of the spectral formula: ``explosion_time`` steps the flow by
its Taylor series, whose coefficients the quadratic right-hand side gives
exactly, until the peak entry of ``Y`` has grown a million-fold over its
start, and fits the first-order pole with a quadratic in ``t`` over the
last two decades of that growth.

After gelation the sol phase is described through duality: tilt the
initial measure by the non-survival factor, check the tilted system is
subcritical, and evaluate the same flow from the tilted moments.
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

# the flow is blown up once 1 - (t - t0) sigma_max is at most this
_POLE_GAP = 1e-12
# explosion_time stops once the peak |Y| entry has grown this much over its
# start, and fits the pole to the steps within this factor of the last peak
_POLE_GROWTH = 1e6
_POLE_WINDOW = 1e2

# rounding slack of |Y_ij| <= sqrt(Y_ii Y_jj); squared, it stays below 1e-7
_CS_SLACK = 4.9e-8

# explosion_time's Taylor steps: the series order, the share of its radius
# of convergence a step covers (a tail of 0.25^21 / 0.75, about 3e-13 of
# the state), and the step budget
_SERIES_ORDER = 20
_SERIES_REACH = 0.25
_SERIES_STEPS = 1000


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


def _riccati(sys: BilinearSystem):
    """The whole moment flow ``dY = Y A_hat Y`` on the flattened ``Y``."""
    m = sys.n + 1
    a_hat = _a_hat(sys)

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        y = y.reshape(m, m)
        return (y @ a_hat @ y).reshape(-1)

    return rhs


def moment_rhs(
    sys: BilinearSystem, state: MomentState
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (dQ, dz) at the given state."""
    dy = _riccati(sys)(state.t, state.y).reshape(state.n + 1, state.n + 1)
    return dy[1:, 1:], dy[0]


def _modal_flow(
    state0: MomentState, modes: SpectralResult, times: list[float]
) -> list[MomentState]:
    """The closed form of the moment flow from ``state0`` at ``times``, in
    the modes of ``Q0 = W W^T``, ``A+ = W^-T diag(sigma) W^-1``:
    ``Y(t) = Y0 + V diag(s sigma / (1 - s sigma)) V^T`` with ``s = t - t0``
    and ``V = [W^-1 z+ ; W]``.  ExplosionReached once ``1 - s sigma_max``
    is at most ``_POLE_GAP``, the one blowup rule; ``sigma`` is unchanged by
    any change of units of the coordinates, so the rule is too."""
    sigma, w = modes.sigma, modes.w
    if 1.0 - (max(times) - state0.t) * sigma[-1] <= _POLE_GAP:
        raise ExplosionReached(
            f"second moments blow up at t={state0.t + 1.0 / sigma[-1]!r},"
            f" not after requested t={max(times)!r}"
        )
    v = np.vstack((np.linalg.solve(w, state0.z[1:]), w))
    states = []
    for t in times:
        s = t - state0.t
        y = state0.y + (v * (s * sigma / (1.0 - s * sigma))) @ v.T
        states.append(MomentState(t, (y + y.T) / 2.0))
    return states


def integrate_subcritical(
    sys: BilinearSystem,
    state0: MomentState,
    t_end: float,
    outputs=None,
) -> MomentState | list[MomentState]:
    """Moments at ``t_end`` by the closed form of the moment flow, in the
    modes of the gelation eigenproblem of ``state0.q`` (:func:`_modal_flow`).
    Raises ExplosionReached when ``t_end`` is that close to the pole.  With
    ``outputs`` given, returns the states at those times instead of just
    the final state.
    """
    check_times([t_end], state0.t)
    times = check_times([] if outputs is None else outputs, state0.t, t_end)
    states = _modal_flow(state0, _gelation(sys, state0.q), [t_end, *times])
    return states[0] if outputs is None else states[1:]


def _series_step(
    y: np.ndarray, a_hat: np.ndarray, rtol: float
) -> tuple[np.ndarray, float]:
    """One Taylor step of ``dY/dtau = Y A_hat Y`` from ``Y``: the new state
    and the step, or ``Y`` and ``inf`` when the flow is at rest.

    Time is first rescaled by ``u = max|Y| / max|Y A_hat Y|``, so that with
    ``B = u A_hat`` the coefficients ``Z_k`` of ``Y(tau + u s) = sum_k Z_k s^k``
    stay of the size of ``Y`` at any rate or coordinate unit.  The quadratic
    right-hand side gives them exactly, by the Cauchy product
    ``Z_{k+1} = (1/(k+1)) sum_{i<=k} (Z_i B) Z_{k-i}``, one matrix product
    over ``i`` for each ``k``.  The radius of convergence is read off the
    last two coefficients (Jorba & Zou 2005), and the step covers
    ``_SERIES_REACH`` of it, or less where the last term would exceed
    ``rtol`` of the state.
    """
    m, order = y.shape[0], _SERIES_ORDER
    dy = y @ a_hat @ y
    peak, grow = float(np.abs(y).max()), float(np.abs(dy).max())
    if grow == 0.0:  # the flow is at rest
        return y, math.inf
    u = peak / grow
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
    size = np.abs(zr).max(axis=(1, 2)) / peak
    root = max(size[1] ** (1.0 / (order - 1)), size[0] ** (1.0 / order))
    # a series that ends (only from a start that fails Cauchy-Schwarz) is
    # exact at any step: one time unit
    s = min(_SERIES_REACH, rtol ** (1.0 / order)) / root if root > 0.0 else 1.0
    return (s ** np.arange(order, -1, -1.0)) @ zr.reshape(order + 1, -1), s * u


def explosion_time(
    sys: BilinearSystem,
    state0: MomentState,
    rtol: float = 1e-9,
) -> float:
    """Blowup time of the moment ODE, found by stepping its Taylor series.

    Runs until the peak ``|Y|`` entry has grown a million-fold
    (``_POLE_GROWTH``) over the start's, then fits the exact first-order
    pole, ``1/peak = a (T - t) + b (T - t)^2 + O((T - t)^3)``: a quadratic
    in ``t - t_last`` through the steps within two decades
    (``_POLE_WINDOW``) of the last peak, at least the last four, whose real
    root nearest 0 puts ``T``.  There ``T - t`` is below about ``1e-4 T``,
    so the dropped term is about ``1e-12`` relative.  It steps the
    normalised flow ``dY~/dtau = Y~ A_hat Y~`` from ``Y~0 = Y0 / max|Y0|`` in
    ``tau = max|Y0| (t - t0)`` by :func:`_series_step`, each step a quarter
    of the way to the pole, so the run takes about 50 steps and the result
    follows any rescaling of the coordinates up to the double range.
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
    m = state0.n + 1
    peak0 = float(np.abs(state0.y).max())
    if not 0.0 < peak0 < np.inf:
        raise NumericError(
            f"starting second moments peak at {peak0}; no pole to integrate to"
        )
    a_hat = _a_hat(sys)
    y, tau = state0.y / peak0, 0.0
    ts: list[float] = []
    peaks: list[float] = []
    for _ in range(_SERIES_STEPS):
        y, h = _series_step(y, a_hat, rtol)
        if not h < math.inf:
            break
        y = y.reshape(m, m)
        tau += h
        sym = (y + y.T) / 2.0
        d = np.sqrt(sym.diagonal())
        if (np.abs(sym) > d[:, None] * d * (1.0 + _CS_SLACK) + 1e-300).any():
            raise NumericError(
                f"Cauchy-Schwarz violated in the second moments at"
                f" t={state0.t + tau / peak0}; integration unreliable"
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
    return float(state0.t + (ts[-1] + c0 / h) / peak0)


def supercritical_moments(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    t: float,
    spectral: SpectralResult | None = None,
) -> MomentState:
    """Sol-phase second moments after gelation, via the duality tilt.

    Thin the initial measure by the survival probabilities at time t,
    verify the tilted system gels later than t by at least half of
    ``t - t_g`` (its gap is about ``t - t_g``), then evaluate the ordinary
    moment flow from the tilted moments up to t.  ``spectral`` is the
    measure's own gelation result, solved here when not given.
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
    the tilted measure, once its gelation time is checked to be past t."""
    tilted = measure._tilted(-np.expm1(-(measure.coords[:, 1 : 1 + sys.n] @ c)))
    modes = gelation(sys, tilted)
    # the tilted gap is about t - t_g, so the margin scales with it
    if modes.t_g - t <= 0.5 * (t - t_g):
        raise DualNotSubcritical(
            f"tilted system gels at {modes.t_g}, not after requested t={t}; "
            "fixed-point solution is inconsistent"
        )
    return _modal_flow(initial_state(tilted), modes, [t])[0]


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

    The gel absorbs sol particles at a rate set by the current sol moments:
    dg_0 = z A+ g_plus and dg_plus = Q A+ g_plus.  On the maximal branch the
    fixed point is ``c = t A+ g_plus``, so (Q, z) are the tilted moments of
    ``_dual`` at that ``c``, and the right-hand side is a function of
    ``(t, g)`` alone; along it ``c - t F(c)`` stays 0.  Starts at
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
    n = sys.n

    def rhs(t: float, g: np.ndarray) -> np.ndarray:
        flow = sys.a_plus @ g[1 : 1 + n]
        dg = np.zeros_like(g)
        dg[: 1 + n] = _dual(sys, measure, t, t * flow, t_g).y[:, 1:] @ flow
        return dg

    out = sorted({v for v in given if v >= t_start})
    traj = _rk.integrate(
        rhs, t_start, g0, t_to, rtol=1e-7, atol=1e-10, outputs=out,
        max_steps=20_000,
    )
    return [(t, GelData(y)) for t, y in zip(traj.ts, traj.ys)]
