"""The benchmark's workloads: what one round does and how its outputs are checked.

Every workload is a closed loop in one process: one item after another, no
thread pool.  ``__init__`` is the set-up (models and reference values); a
round is the workload's fixed unit of work, and its inputs depend only on the
workload seed and the round index.  Each item's output is checked against an
oracle; an item fails when its call raises a ``GelkitError`` or its check
fails.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

import gelkit as gk
from speed import PROBE_REF_S, Speed, probe_interpreter, probe_numpy

# Why each workload is in the benchmark; later changes cite these by name.
WHY = {
    "ensemble": (
        "multiplicative N=1e5 replicas through 10 checkpoints: the shape of "
        "`simulate`/`convergence` and criteria 5-7; the particles exact path "
        "(m=0, no thinning) does ~98% of the work"
    ),
    "coupling": (
        "kinetic-gas coupling_test at N=2000, t=1.5 t_g: the paper's "
        "graph/particle cross-validation; the only workload where graphs "
        "works, and particles run with signed coordinates and thinning"
    ),
    "limit": (
        "the limit solvers on all three presets, including the near-critical "
        "gel_data ladder that raises SlowConvergence today and gel_growth_ode: "
        "survival and moments do the work, particles and graphs are idle"
    ),
}


@dataclass
class Item:
    label: str
    seconds: float
    probe_s: float  # mean probe time just before and just after the call
    error: str | None = None  # GelkitError class name if the call raised one
    problem: str | None = None  # why the output check failed
    chance: bool = False  # the check can fail by chance on correct code

    @property
    def failed(self) -> bool:
        return self.error is not None or self.problem is not None

    @property
    def ref_s(self) -> float:
        """The call's time at reference machine speed."""
        return self.seconds * PROBE_REF_S / self.probe_s


class Workload:
    """Set-up in ``__init__``; each call of a round is timed between two probes."""

    # the probe whose work is most like the workload's hot loops
    probe = staticmethod(probe_interpreter)

    def __init__(self, seed: int):
        self.seed = seed
        self.speed = Speed(self.probe)

    def _call(self, tracer, label, fn, check) -> Item:
        before = self.speed.before()
        start = time.perf_counter()
        error = out = None
        try:
            with tracer.span("item:" + label):
                out = fn()
        except gk.GelkitError as exc:
            error = type(exc).__name__
        seconds = time.perf_counter() - start
        probe_s = 0.5 * (before + self.speed.sample())
        if error:
            return Item(label, seconds, probe_s, error=error)
        with tracer.paused():
            problem = check(out)
        return Item(label, seconds, probe_s, problem=problem)

    def verdict(self) -> str | None:
        """A check over the whole run, after its last round."""
        return None


class Ensemble(Workload):
    REPLICAS_PER_ROUND = 3
    N = 100_000
    TIMES = tuple(float(t) for t in np.linspace(0.2, 2.0, 10))

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sys, self.measure = gk.multiplicative()
        self.m2 = gk.gel_data(self.sys, self.measure, 2.0).mass

    def round(self, r: int, tracer) -> list[Item]:
        items = []
        for i in range(self.REPLICAS_PER_ROUND):
            j = r * self.REPLICAS_PER_ROUND + i
            items.append(self._call(tracer, f"replica[{j}]", lambda: self._replica(j), self._check))
        return items

    def _replica(self, j: int):
        ps = gk.init_poisson(self.sys, self.measure, self.N, gk.child_seed(self.seed, j))
        return ps.run(self.TIMES)

    def _check(self, snaps) -> str | None:
        # M_N(2) only: near t_g the N=1e5 error is ~0.02 by chance alone
        err = abs(snaps[-1].gel_largest.mass - self.m2)
        if err > 0.02:
            return f"|M_N(2) - M(2)| = {err:.4f} > 0.02"
        early = max(s.gel_largest.mass for s in snaps if s.t <= 0.5)
        if early >= 1e-3:
            return f"largest particle {early:.2e} >= 1e-3 at t <= 0.5"
        return None


@contextlib.contextmanager
def _replica_probes(tracer, speed: Speed, probes: list[tuple[float, float, float]]):
    """Probe the machine between coupling replicas.

    ``coupling_test`` runs its replicas inside one call and draws each
    replica's rows with one ``sample_atoms`` call, so a probe taken just
    before each of those calls separates the replicas.  ``probes`` gets the
    (start, end, probe seconds) of each probe; the traced span keeps the
    probes out of ``coupling_test``'s self time.
    """
    inner = gk.graphs.sample_atoms

    def probed(*args, **kwargs):
        with tracer.span("bench.probe"):
            start = time.perf_counter()
            probe_s = speed.sample()
            probes.append((start, time.perf_counter(), probe_s))
        return inner(*args, **kwargs)

    gk.graphs.sample_atoms = probed
    try:
        yield
    finally:
        gk.graphs.sample_atoms = inner


class Coupling(Workload):
    REPLICAS_PER_ROUND = 50
    N = 2000
    # run-level two-sample test over all replicas: a real defect (e.g. a
    # factor-2 rate) gives p ~ 0, while chance alone goes below this once
    # in 1e6 runs
    POOLED_LEVEL = 1e-6

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sys, self.measure = gk.kinetic_gas()
        self.t = 1.5 * gk.gelation_time(self.sys, self.measure)
        self.reports = {}  # round index -> report; a repeated round replaces its own

    def round(self, r: int, tracer) -> list[Item]:
        batch_seed = int(np.random.SeedSequence((self.seed, r)).generate_state(1)[0])
        probes: list[tuple[float, float, float]] = []
        error = None
        start = time.perf_counter()
        with _replica_probes(tracer, self.speed, probes):
            try:
                with tracer.span("item:coupling_test"):
                    report = gk.coupling_test(
                        self.sys, self.measure, self.N, self.t,
                        self.REPLICAS_PER_ROUND, seed=batch_seed,
                    )
            except gk.GelkitError as exc:
                error = type(exc).__name__
        end = time.perf_counter()
        after = self.speed.sample()
        problem = None
        if error is None:
            self.reports[r] = report
            if not report.passed:
                problem = f"KS p=({report.p_largest:.2e}, {report.p_count:.2e}) <= 1e-3"
        # replica i runs from the end of probe i to the start of probe i + 1;
        # the first replica also gets the time before its probe
        probes = probes or [(start, start, after)]
        starts = [p[1] for p in probes]
        ends = [p[0] for p in probes[1:]] + [end]
        seconds = [b - a for a, b in zip(starts, ends)]
        seconds[0] += probes[0][0] - start
        probe_s = [p[2] for p in probes] + [after]
        return [
            Item(f"replica[{r}.{i}]", sec, 0.5 * (probe_s[i] + probe_s[i + 1]), error, problem, chance=True)
            for i, sec in enumerate(seconds)
        ]

    def verdict(self) -> str | None:
        if not self.reports:
            return None
        reports = self.reports.values()
        g_big = np.concatenate([rep.graph_largest for rep in reports])
        p_big = np.concatenate([rep.particle_largest for rep in reports])
        g_cnt = np.concatenate([rep.graph_counts for rep in reports])
        p_cnt = np.concatenate([rep.particle_counts for rep in reports])
        p1 = ks_2samp(g_big, p_big, method="asymp").pvalue
        p2 = ks_2samp(g_cnt, p_cnt, method="asymp").pvalue
        if min(p1, p2) <= self.POOLED_LEVEL:
            return f"pooled KS p=({p1:.2e}, {p2:.2e}) <= {self.POOLED_LEVEL}"
        return None


def _bisection_gel_mass(times: np.ndarray) -> np.ndarray:
    """Largest root of M = 1 - exp(-t M) (multiplicative gel mass), by bisection."""
    lo = np.zeros_like(times)
    hi = np.ones_like(times)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mid < -np.expm1(-times * mid)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _riccati_q(sys, measure, t: float) -> np.ndarray:
    """Closed form of dQ/dt = Q A+ Q: Q(t) = (Q0^-1 - t A+)^-1."""
    q0 = gk.gram_plus(measure)
    return np.linalg.inv(np.linalg.inv(q0) - t * sys.a_plus)


class Limit(Workload):
    probe = staticmethod(probe_numpy)
    PRESETS = ("multiplicative", "bidisperse", "kinetic-gas")
    CURVE_POINTS = 1000
    LADDER = (2, 3, 4, 5, 6)  # gel_data at t_g (1 + 10^-k)
    MOMENT_GRID = (0.25, 0.5, 0.75, 0.9, 1.1, 1.25, 1.5, 2.0)  # times t_g
    MOMENT_JITTER = 0.02

    def __init__(self, seed: int):
        super().__init__(seed)
        self.models = {name: gk.from_name(name) for name in self.PRESETS}
        self.t_g = {name: gk.gelation_time(*m) for name, m in self.models.items()}
        self.slope = {name: gk.critical_slope(*m)[1][0] for name, m in self.models.items()}
        self.curve_t = {
            name: np.linspace(0.0, 2.5 * t_g, self.CURVE_POINTS) for name, t_g in self.t_g.items()
        }
        self.curve_oracle = _bisection_gel_mass(self.curve_t["multiplicative"])
        mult, bidi = self.models["multiplicative"], self.models["bidisperse"]
        self.gel_mult = gk.gel_data(*mult, 2.0 * self.t_g["multiplicative"]).g
        self.gel_bidi = gk.gel_data(*bidi, 2.0 * self.t_g["bidisperse"]).g
        coords = bidi[1].coords
        self.phi_bidi = float(bidi[1].weight_array @ (coords[:, 0] + coords[:, 1:2].sum(axis=1)))
        self.oracle_err: dict[int, float] = {}

    def round(self, r: int, tracer) -> list[Item]:
        jitter = np.random.default_rng((self.seed, r)).uniform(
            -self.MOMENT_JITTER, self.MOMENT_JITTER, (len(self.PRESETS), len(self.MOMENT_GRID))
        )
        self.oracle_err[r] = 0.0
        items = []
        for p, name in enumerate(self.PRESETS):
            sys, meas = self.models[name]
            t_g = self.t_g[name]
            items.append(self._call(tracer, f"gelation[{name}]",
                               lambda: gk.gelation(sys, meas), lambda res: self._check_tg(name, res)))
            items.append(self._call(tracer, f"gel_curve[{name}]",
                               lambda: gk.gel_curve(sys, meas, self.curve_t[name]),
                               lambda rows: self._check_curve(name, rows, r)))
            for k in self.LADDER:
                t = t_g * (1.0 + 10.0**-k)
                items.append(self._call(tracer, f"gel_data[{name},k={k}]",
                                   lambda: gk.gel_data(sys, meas, t),
                                   lambda g: self._check_ladder(name, t, k, g, r)))
            for f, jit in zip(self.MOMENT_GRID, jitter[p]):
                t = f * (1.0 + jit) * t_g
                items.append(self._call(tracer, f"moments_at[{name},{t / t_g:.4f}t_g]",
                                   lambda: gk.moments_at(sys, meas, t),
                                   lambda out: self._check_moments(name, t, out)))
            items.append(self._call(tracer, f"explosion_time[{name}]",
                               lambda: gk.explosion_time(sys, gk.initial_state(meas)),
                               lambda te: self._rel_check("explosion_time", te, t_g, 1e-3)))
            items.append(self._call(tracer, f"critical_slope[{name}]",
                               lambda: gk.critical_slope(sys, meas),
                               lambda out: self._check_slope(name, out)))
        mult, bidi = self.models["multiplicative"], self.models["bidisperse"]
        t_mult, t_bidi = 2.0 * self.t_g["multiplicative"], 2.0 * self.t_g["bidisperse"]
        items.append(self._call(tracer, "gel_growth_ode[multiplicative]",
                           lambda: gk.gel_growth_ode(*mult, t_mult), self._check_growth))
        items.append(self._call(tracer, "flory[multiplicative,xi=64]",
                           lambda: gk.TruncatedFlory(*mult, 64).integrate(t_mult)[-1],
                           self._check_flory_mult))
        items.append(self._call(tracer, "flory[bidisperse,xi=32]",
                           lambda: self._flory_bidi(*bidi, t_bidi), self._check_flory_bidi))
        return items

    @staticmethod
    def _flory_bidi(sys, meas, t):
        model = gk.TruncatedFlory(sys, meas, 32)
        return model, model.integrate(t)[-1]

    @staticmethod
    def _rel_check(what, got, want, tol) -> str | None:
        err = abs(got - want) / abs(want)
        return None if err <= tol else f"{what} {got!r} vs {want!r}: rel err {err:.2e} > {tol}"

    def _check_tg(self, name, res) -> str | None:
        if name == "multiplicative" and abs(res.t_g - 1.0) > 1e-12:
            return f"multiplicative t_g = {res.t_g!r}, not 1 within 1e-12"
        radius, _ = gk.spectral_radius(res.lambda_matrix)
        return self._rel_check("t_g vs power iteration", res.t_g, 1.0 / radius, 1e-9)

    def _check_curve(self, name, rows, r) -> str | None:
        sys, meas = self.models[name]
        n = sys.n
        t, c, mass = rows[:, 0], rows[:, 1 : 1 + n], rows[:, 1 + n]
        if name == "multiplicative":
            err = float(np.abs(mass - self.curve_oracle).max())
            self.oracle_err[r] = max(self.oracle_err[r], err)
            if err > 1e-9:
                return f"gel curve vs bisection: max err {err:.2e} > 1e-9"
        sub = t <= self.t_g[name]
        if np.any(mass[sub] != 0.0) or np.any(mass[~sub] <= 0.0):
            return "gel mass not zero exactly up to t_g and positive after"
        if np.any(np.diff(mass) < 0.0):
            return "gel mass decreases along the curve"
        # c = t F(c) with F(c) = A+ <plus (1 - exp(-plus . c))>
        plus, w = meas.coords[:, 1 : 1 + n], meas.weight_array
        f = (-np.expm1(-c @ plus.T) * w) @ plus @ sys.a_plus.T
        residual = float(np.abs(c - t[:, None] * f).max())
        if residual > 1e-11:
            return f"fixed-point residual {residual:.2e} > 1e-11"
        return None

    def _check_ladder(self, name, t, k, g, r) -> str | None:
        # first-order critical expansion M ~ M'(t_g+) (t - t_g); the next
        # term is O(10^-k) relative, so 10^(1-k) leaves a factor 10 margin
        predicted = self.slope[name] * (t - self.t_g[name])
        dev = abs(g.mass / predicted - 1.0)
        if name == "multiplicative":
            exact = float(_bisection_gel_mass(np.array([t]))[0])
            self.oracle_err[r] = max(self.oracle_err[r], abs(g.mass - exact))
        if dev > 10.0 ** (1 - k):
            return f"M = {g.mass!r} off the critical expansion by {dev:.2e} > 1e{1 - k}"
        return None

    def _check_moments(self, name, t, out) -> str | None:
        sys, meas = self.models[name]
        state, phase = out
        sub = t <= self.t_g[name]
        want = "sol-subcritical" if sub else "supercritical-dual"
        if phase != want:
            return f"phase {phase!r} at t = {t!r}, expected {want!r}"
        q = _riccati_q(sys, meas if sub else gk.tilted_measure(sys, meas, t), t)
        err = float(np.abs(state.q - q).max() / np.abs(q).max())
        return None if err <= 1e-6 else f"Q vs closed form: rel err {err:.2e} > 1e-6"

    def _check_slope(self, name, out) -> str | None:
        c_prime, g_prime = out
        if not np.all(np.isfinite(g_prime)) or np.any(g_prime <= 0.0):
            return f"gel slope {g_prime} not positive"
        if name == "multiplicative" and abs(g_prime[0] - 2.0) > 1e-9:
            return f"multiplicative M'(t_g+) = {g_prime[0]!r}, not 2 within 1e-9"
        return None

    def _check_growth(self, traj) -> str | None:
        n = self.models["multiplicative"][0].n
        err = float(np.abs(traj[-1][1].g[: 1 + n] - self.gel_mult[: 1 + n]).max())
        return None if err <= 1e-5 else f"gel_growth_ode vs gel_data: err {err:.2e} > 1e-5"

    def _check_flory_mult(self, state) -> str | None:
        err = abs(state.gel.mass - self.gel_mult[0])
        return None if err <= 5e-3 else f"Flory xi=64 vs M(2): err {err:.2e} > 5e-3"

    def _check_flory_bidi(self, out) -> str | None:
        model, state = out
        # truncation counts the unresolved tail as gel, so it bounds M from above
        if state.gel.mass < self.gel_bidi[0] - 1e-9:
            return f"Flory xi=32 gel {state.gel.mass!r} below the limit {self.gel_bidi[0]!r}"
        return self._rel_check("Flory conserved total", model.conserved_total(state), self.phi_bidi, 1e-9)


WORKLOADS = {"ensemble": Ensemble, "coupling": Coupling, "limit": Limit}
