"""Adaptive Dormand-Prince 5(4) integrator.

Small, dependency-free, and tailored to what this package needs from an ODE
solver: exact landing on requested output times, a per-accepted-step
callback that may replace the state, and a stop predicate for blowup
detection.  FSAL is exploited (the 7th stage of an accepted step seeds the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NoConvergence
from .system import check_times

# Butcher tableau (Dormand & Prince 1980).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
        [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    ]
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [
        5179 / 57600,
        0.0,
        7571 / 16695,
        393 / 640,
        -92097 / 339200,
        187 / 2100,
        1 / 40,
    ]
)
_ERR = _B5 - _B4
# a step's stage times after the first are t + c h, then t + h for the last
_C_STAGES = _C[1:6].tolist()

_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_SAFETY = 0.9


@dataclass
class Trajectory:
    """Integration record: states at requested outputs plus step counts."""

    ts: list[float] = field(default_factory=list)
    ys: list[np.ndarray] = field(default_factory=list)
    stopped: bool = False
    n_accepted: int = 0
    n_rejected: int = 0


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_end: float,
    rtol: float = 1e-9,
    atol: float = 1e-12,
    outputs: Sequence[float] | None = None,
    accept_cb: Callable[[float, np.ndarray], np.ndarray | None] | None = None,
    stop: Callable[[float, np.ndarray], bool] | None = None,
    max_steps: int = 1_000_000,
) -> Trajectory:
    """Integrate y' = f(t, y) from t0 to t_end.

    ``outputs`` are hit exactly by clipping the step size, never by
    interpolation.  ``accept_cb`` runs after each accepted step and may
    return a replacement state (``explosion_time`` symmetrises its ``Y``);
    ``stop`` ends the run early when it returns True (used for blowup
    detection).  ``f`` may not keep the array it is given: the stages reuse
    one buffer.  A step too small to advance ``t`` raises NoConvergence.
    """
    y = np.array(y0, dtype=float)
    t = float(t0)
    check_times([t_end], t)
    out = check_times([] if outputs is None else outputs, t, t_end)
    traj = Trajectory()

    def emit_outputs():
        while out and out[0] <= t + 1e-15 * abs(t):
            traj.ts.append(out.pop(0))
            traj.ys.append(y.copy())

    emit_outputs()
    if t_end == t:
        return traj

    n = y.size
    # k[0] is always the slope of the accepted state (FSAL: the last stage
    # of an accepted step seeds the next); a trial writes k[1:] only
    k = np.empty((7, n))
    k[0] = f(t, y)
    # conservative initial step from the state/derivative scales
    span = t_end - t
    scale = atol + rtol * np.abs(y)
    d0 = float(np.max(np.abs(y) / scale)) if n else 0.0
    d1 = float(np.max(np.abs(k[0]) / scale)) if n else 0.0
    h = min(span, 0.01 * (d0 / d1) if d1 > 0 else 0.1 * span)
    if h == 0.0:
        h = 1e-12 * span

    rows = [(_A[s, :s], k[:s]) for s in range(1, 6)]
    b5, k6 = _B5[:6], k[:6]
    ys, tmp, err_vec, scale = (np.empty(n) for _ in range(4))
    for _ in range(max_steps):
        clipped = False
        h_step = min(h, t_end - t)
        if out and out[0] > t and out[0] - t < h_step:
            h_step = out[0] - t
            clipped = True
        if t + h_step == t:
            raise NoConvergence(f"integrator step underflow at t={t} (step {h_step!r})")
        stage_ts = [t + c * h_step for c in _C_STAGES] + [t + h_step]
        for s, (row, ks) in enumerate(rows, 1):
            np.matmul(row, ks, out=tmp)
            tmp *= h_step
            k[s] = f(stage_ts[s - 1], np.add(y, tmp, out=ys))
        y5 = np.matmul(b5, k6)
        y5 *= h_step
        y5 += y
        k[6] = f(stage_ts[5], y5)
        np.matmul(_ERR, k, out=err_vec)
        err_vec *= h_step
        np.abs(err_vec, out=err_vec)
        np.maximum(np.abs(y, out=scale), np.abs(y5, out=tmp), out=scale)
        scale *= rtol
        scale += atol
        err_vec /= scale
        err = float(err_vec.max()) if n else 0.0
        if not math.isfinite(err):
            h = h_step * 0.25
            traj.n_rejected += 1
            continue
        if err > 1.0:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            traj.n_rejected += 1
            continue
        t = stage_ts[5]
        y = y5
        k[0] = k[6]
        traj.n_accepted += 1
        if accept_cb is not None:
            replacement = accept_cb(t, y)
            if replacement is not None:
                y = np.asarray(replacement, dtype=float)
                k[0] = f(t, y)
        emit_outputs()
        if stop is not None and stop(t, y):
            traj.stopped = True
            break
        if t >= t_end - 1e-15 * abs(t_end):
            break
        factor = _MAX_FACTOR if err == 0.0 else min(
            _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
        )
        # a step clipped to land on an output keeps its unclipped ambition
        h = max(h, h_step * factor) if clipped else h_step * factor
    else:
        raise NoConvergence(
            f"integrator exceeded {max_steps} steps at t={t} (step {h:.3e})"
        )
    return traj
