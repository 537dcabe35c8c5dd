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

so ``Q^-1`` falls linearly in time and the solution has a closed form,
which is what the production path evaluates.  The solution blows up in
finite time; that blowup time equals the gelation time, and integrating
the ODE to its pole gives a route to t_g independent of the spectral
formula: ``explosion_time`` integrates until the peak entry of ``Y`` has
grown a million-fold over its start and fits the first-order pole with a
quadratic in ``t`` over the last two decades of that growth.

After gelation the sol phase is described through duality: tilt the
initial measure by the non-survival factor, check the tilted system is
subcritical, and evaluate the same flow from the tilted moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import DualNotSubcritical, ExplosionReached, NumericError
from .spectral import SpectralResult, gelation
from .survival import _maximal_roots, gel_data, solve_fixed_point
from .system import AtomicMeasure, BilinearSystem, GelData, check_times, gram_plus
from .system import moment_matrix

BLOWUP_THRESHOLD = 1e12
# explosion_time stops once the peak |Y| entry has grown this much over its
# start, and fits the pole to the steps within this factor of the last peak
_POLE_GROWTH = 1e6
_POLE_WINDOW = 1e2

# rounding slack of |Y_ij| <= sqrt(Y_ii Y_jj); squared, it stays below 1e-7
_CS_SLACK = 4.9e-8


@dataclass(frozen=True)
class MomentState:
    """Second moments at one time: Q (n x n) and z (length n+1)."""

    t: float
    q: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be square")
        if z.shape != (q.shape[0] + 1,):
            raise ValueError("z must have length n+1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def total_second_moment(self) -> float:
        """<phi^2> where phi = pi0 + sum of conserved coordinates."""
        return float(self.z[0] + 2.0 * self.z[1:].sum() + self.q.sum())


def initial_state(measure: AtomicMeasure) -> MomentState:
    n = measure.n
    return MomentState(
        0.0,
        gram_plus(measure),
        moment_matrix(measure, [0], range(0, n + 1))[0],
    )


def _second_moments(state: MomentState) -> np.ndarray:
    """``Y = <(pi0, plus)(pi0, plus)^T>``: ``z`` borders ``Q``."""
    y = np.empty((state.n + 1, state.n + 1))
    y[0] = state.z
    y[1:, 0] = state.z[1:]
    y[1:, 1:] = state.q
    return y


def _riccati(sys: BilinearSystem):
    """The whole moment flow ``dY = Y A_hat Y``, ``A_hat = diag(0, A+)``,
    on the flattened ``Y``."""
    m = sys.n + 1
    a_hat = np.zeros((m, m))
    a_hat[1:, 1:] = sys.a_plus

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        y = y.reshape(m, m)
        return (y @ a_hat @ y).reshape(-1)

    return rhs


def moment_rhs(
    sys: BilinearSystem, state: MomentState
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivatives (dQ, dz) at the given state."""
    dy = _riccati(sys)(state.t, _second_moments(state)).reshape(
        state.n + 1, state.n + 1
    )
    return dy[1:, 1:], dy[0]


def integrate_subcritical(
    sys: BilinearSystem,
    state0: MomentState,
    t_end: float,
    outputs=None,
) -> MomentState | list[MomentState]:
    """Moments at ``t_end`` by the closed form of the moment flow.

    The flow is a matrix Riccati equation, so ``Q^-1`` falls linearly:
    ``Q(t) = (Q0^-1 - (t - t0) A+)^-1``, ``z+ = v Q`` and
    ``z0 = z0(t0) + v (Q - Q0) v^T`` with ``v = z+(t0) Q0^-1``.  Raises
    ExplosionReached once the bracket is no longer positive definite or an
    entry reaches the blowup threshold before ``t_end``.  With ``outputs``
    given, returns the states at those times instead of just the final state.
    """
    t0, q0, z0 = state0.t, state0.q, state0.z
    check_times([t_end], t0)
    times = check_times([] if outputs is None else outputs, t0, t_end)
    q0_inv = np.linalg.inv(q0)
    v = z0[1:] @ q0_inv

    def at(t: float) -> MomentState:
        bracket = q0_inv - (t - t0) * sys.a_plus
        try:
            np.linalg.cholesky(bracket)
        except np.linalg.LinAlgError:
            raise ExplosionReached(
                f"second moments blow up at or before t={t}"
                f" (requested t_end={t_end})"
            ) from None
        q = np.linalg.inv(bracket)
        q = (q + q.T) / 2.0
        z = np.concatenate(([z0[0] + v @ (q - q0) @ v], v @ q))
        if max(np.abs(q).max(), np.abs(z).max()) >= BLOWUP_THRESHOLD:
            raise ExplosionReached(
                f"second moments crossed {BLOWUP_THRESHOLD:.0e} at t={t}"
                f" before requested t_end={t_end}"
            )
        return MomentState(t, q, z)

    final = at(t_end)  # raises if the flow blows up before t_end
    return final if outputs is None else [at(t) for t in times]


def explosion_time(
    sys: BilinearSystem,
    state0: MomentState,
    rtol: float = 1e-9,
) -> float:
    """Blowup time of the moment ODE, found by integration.

    Runs until the peak ``|Y|`` entry has grown a million-fold
    (``_POLE_GROWTH``) over the start's, then fits the exact first-order
    pole, ``1/peak = a (T - t) + b (T - t)^2 + O((T - t)^3)``: a quadratic
    in ``t - t_last`` through the accepted steps within two decades
    (``_POLE_WINDOW``) of the last peak, at least the last four, whose real
    root nearest 0 puts ``T``.  There ``T - t`` is below about ``1e-4 T``,
    so the dropped term is about ``1e-12`` relative.  The stop and the
    window are relative, so the result follows any rescaling of the
    coordinates.  Deliberately makes no use of the spectral formula, so the
    two routes cross-validate each other.  NumericError for a start whose
    peak entry is zero or not finite, and when the fit has no real root.
    """
    m = state0.n + 1
    y0 = _second_moments(state0)
    peak0 = float(np.abs(y0).max())
    if not 0.0 < peak0 < np.inf:
        raise NumericError(
            f"starting second moments peak at {peak0}; no pole to integrate to"
        )
    ts: list[float] = []
    peaks: list[float] = []

    def accept(t: float, y: np.ndarray) -> np.ndarray | None:
        y = y.reshape(m, m)
        sym = (y + y.T) / 2.0
        d = np.sqrt(sym.diagonal())
        if (np.abs(sym) > d[:, None] * d * (1.0 + _CS_SLACK) + 1e-300).any():
            raise NumericError(
                f"Cauchy-Schwarz violated in the second moments at t={t}; "
                "integration unreliable"
            )
        # a state left unchanged keeps the integrator's last stage as its slope
        return None if np.array_equal(sym, y) else sym.reshape(-1)

    def stop(t: float, y: np.ndarray) -> bool:
        # each accepted step's peak entry, kept for the pole fit
        ts.append(t)
        peaks.append(float(np.abs(y).max()))
        return peaks[-1] >= _POLE_GROWTH * peak0

    # trial steps overshoot the pole; the step controller rejects them,
    # so the transient overflows are expected and harmless
    with np.errstate(over="ignore", invalid="ignore"):
        traj = _rk.integrate(
            _riccati(sys),
            state0.t,
            y0.reshape(-1),
            1e30,
            rtol=rtol,
            atol=1e-12,
            accept_cb=accept,
            stop=stop,
            max_steps=200_000,
        )
    if not traj.stopped:
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
    return float(ts[-1] + c0 / h)


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
    tilted_tg = gelation(sys, tilted).t_g
    # the tilted gap is about t - t_g, so the margin scales with it
    if tilted_tg - t <= 0.5 * (t - t_g):
        raise DualNotSubcritical(
            f"tilted system gels at {tilted_tg}, not after requested t={t}; "
            "fixed-point solution is inconsistent"
        )
    return integrate_subcritical(sys, initial_state(tilted), t)


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
    rtol: float = 1e-7,
) -> list[tuple[float, GelData]]:
    """Post-gel trajectory of the gel data by direct integration.

    The gel absorbs sol particles at a rate set by the current sol moments:
    dg_0 = z A+ g_plus and dg_plus = Q A+ g_plus, with (Q, z)
    taken from the duality pipeline at each time; the fixed points of an
    attempted step's stage times are solved together, as one Newton stack.
    Starts at ``t_g (1 + 1e-3)``, or halfway to ``t_to`` if sooner, from the
    fixed-point gel, and drops outputs before that start.  The second,
    independent gel curve.
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
    coeff_cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def prefetch(times) -> None:
        # the coefficients depend on t alone, so a step's stage times are
        # solved together; the last two stage times of a step coincide
        todo = np.array([u for u in dict.fromkeys(times) if u not in coeff_cache])
        c = _maximal_roots(sys, measure, todo, t_g)
        for u, cu in zip(todo.tolist(), c):
            state = _dual(sys, measure, u, cu, t_g)
            coeff_cache[u] = (state.q, state.z[1:])

    def rhs(t: float, g: np.ndarray) -> np.ndarray:
        if t not in coeff_cache:
            prefetch([t])
        q, zp = coeff_cache[t]
        gp = g[1 : 1 + n]
        dg = np.zeros_like(g)
        flow = sys.a_plus @ gp
        dg[0] = float(zp @ flow)
        dg[1 : 1 + n] = q @ flow
        return dg

    out = sorted({v for v in given if v >= t_start})
    traj = _rk.integrate(
        rhs, t_start, g0, t_to, rtol=rtol, atol=1e-10, outputs=out,
        max_steps=20_000, stages=prefetch,
    )
    return [(t, GelData(y)) for t, y in zip(traj.ts, traj.ys)]
