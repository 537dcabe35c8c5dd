"""Taylor-series stepping, the one ODE stepper of the package: the rule
:func:`step`, and :func:`integrate`, which drives it for the gel growth
ODE (``moments.explosion_time`` runs the rule in its own loop).  The names
``_rk``, ``integrate`` and ``Trajectory.n_rejected`` (always 0) stay from
the Runge-Kutta pair this replaced: ``perfbench/layers.py`` wraps
``_rk.integrate`` by name and reads both counts.  The rename belongs with
the package's own run metrics (ROADMAP item 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergence, NumericError
from .system import check_times

# the series order of both callers, and the default step budget
ORDER = 20
MAX_STEPS = 1000


@dataclass
class Trajectory:
    """Integration record: states at requested outputs plus step counts."""

    ts: list[float] = field(default_factory=list)
    ys: list[np.ndarray] = field(default_factory=list)
    n_accepted: int = 0
    n_rejected: int = 0


def step(y, dy, series: Callable[[float], np.ndarray], reach: float, rtol: float):
    """One step from the state ``y`` with slope ``dy``: the coefficients
    ``z[k]`` of ``y(t + u s)``, ``k = 0..order``, that ``series(u)`` gives
    exactly, the step ``s`` and the unit ``u = max|y| / max|dy|``, in which
    they stay of the size of ``y`` at any rate or coordinate unit.

    The radius of convergence is read off the last two coefficients (Jorba
    & Zou, *Experimental Mathematics* 14 (2005)); the step covers ``reach``
    of it, or less where the last term would exceed ``rtol`` of the state,
    and at most one unit.  Where a complex pair of singularities makes the
    last two coefficients cancel, they read the radius too large: a step of
    2.2 units once cost the gel ODE 4e-12 on kinetic gas.  A flow at rest
    has ``u = inf`` and is its own series, ``z = [y]``.  NumericError when
    the state, the slope or a last coefficient is not finite.
    """
    peak, grow = float(np.abs(y).max()), float(np.abs(dy).max())
    if not (math.isfinite(peak) and math.isfinite(grow)):
        raise NumericError(f"Taylor series state {peak} or slope {grow} not finite")
    if grow == 0.0:
        return y[np.newaxis], 1.0, math.inf
    u = peak / grow
    z = series(u)
    order = len(z) - 1
    last = np.abs(z[-2:]).reshape(2, -1).max(axis=1) / peak
    if not np.isfinite(last).all():
        raise NumericError("Taylor coefficient not finite; the series is unusable")
    root = max(last[0] ** (1.0 / (order - 1)), last[1] ** (1.0 / order))
    bound = min(reach, rtol ** (1.0 / order))
    return z, bound / max(root, bound), u


def value(z: np.ndarray, s: float) -> np.ndarray:
    """The series ``sum_k z[k] s^k``."""
    return ((s ** np.arange(len(z))) @ z.reshape(len(z), -1)).reshape(z.shape[1:])


def integrate(
    taylor, t0: float, y0, t_end: float, reach: float, rtol: float,
    outputs: Sequence[float] | None = None, max_steps: int = MAX_STEPS,
) -> Trajectory:
    """Step ``y`` from ``t0`` to ``t_end`` by :func:`step`, landing on
    ``t_end`` exactly; each output takes its value from the polynomial of
    the step that covers it.  ``taylor(t, y)`` returns the slope and the
    ``series`` of :func:`step`; it runs on every accepted state, the last
    included, so a check in it sees each.  NoConvergence once ``max_steps``
    steps have not reached ``t_end``.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    check_times([t_end], t)
    out = check_times([] if outputs is None else outputs, t, t_end)
    traj = Trajectory()
    while out and out[0] <= t:
        traj.ts.append(out.pop(0))
        traj.ys.append(y.copy())
    while True:
        dy, series = taylor(t, y)
        if t >= t_end:
            return traj
        if traj.n_accepted == max_steps:
            raise NoConvergence(f"Taylor integration exceeded {max_steps} steps at t={t}")
        z, s, u = step(y, dy, series, reach, rtol)
        t_next = min(t + s * u, t_end)
        while out and out[0] <= t_next:
            traj.ts.append(out[0])
            traj.ys.append(value(z, (out.pop(0) - t) / u))
        y, t = value(z, (t_next - t) / u), t_next
        traj.n_accepted += 1
