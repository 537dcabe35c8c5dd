"""Spans around gelkit's layers, recorded from outside the package.

At run time every target function below is replaced by a wrapper at each
module attribute that binds it (``gelkit.gelation``, ``gelkit.spectral.gelation``,
``gelkit.survival.gelation``, ``gelkit.moments.gelation`` ...), and methods are
replaced on their class, so calls the package makes internally are seen too.
Each wrapper records a span (name, start, end, parent) plus the counts it can
read from its arguments and return value.  Spans stay in memory and are
written out when the benchmark ends.

``PER_LAYER`` lists every per-layer metric with its unit and the end-to-end
metric (on which workload) it is expected to move.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

# (name, unit, the end-to-end metric it should move)
PER_LAYER = [
    ("particles.init_s", "s", "ensemble wall_s, item_s.p50"),
    ("particles.run_s", "s", "ensemble wall_s, item_s.p50; coupling wall_s"),
    ("particles.snapshot_s", "s", "ensemble wall_s, item_s.p50"),
    ("particles.proposals", "count", "ensemble wall_s; coupling wall_s"),
    ("particles.merges", "count", "ensemble wall_s; coupling wall_s"),
    ("particles.accept_ratio", "ratio", "ensemble wall_s; coupling wall_s"),
    ("particles.proposals_per_s", "1/s", "ensemble wall_s; coupling wall_s"),
    ("graphs.sample_s", "s", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.pairs_scanned", "count", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.edges", "count", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.edge_yield", "ratio", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.trajectory_s", "s", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.components", "count", "coupling wall_s, item_s.p50, item_s.p90"),
    ("graphs.coupling_self_s", "s", "coupling wall_s, item_s.p50, item_s.p90"),
    ("system.sample_atoms_s", "s", "coupling wall_s"),
    ("spectral.gelation_calls", "count", "limit wall_s"),
    ("spectral.gelation_s", "s", "limit wall_s"),
    ("survival.fixed_point_calls", "count", "limit wall_s, fail_frac; ensemble setup_s"),
    ("survival.fixed_point_s", "s", "limit wall_s; ensemble setup_s"),
    ("survival.fixed_point_s.p50", "s", "limit wall_s"),
    ("survival.fixed_point_s.p90", "s", "limit wall_s"),
    ("survival.fixed_point_fail", "count", "limit fail_frac"),
    ("survival.residual_max", "1", "limit fail_frac (must not grow)"),
    ("survival.oracle_err_max", "1", "limit fail_frac"),
    ("survival.gel_curve_s", "s", "limit wall_s"),
    ("moments.subcritical_calls", "count", "limit wall_s"),
    ("moments.subcritical_s", "s", "limit wall_s"),
    ("moments.supercritical_calls", "count", "limit wall_s"),
    ("moments.supercritical_s", "s", "limit wall_s"),
    ("moments.gel_growth_s", "s", "limit wall_s"),
    ("moments.explosion_s", "s", "limit wall_s"),
    ("moments.rk_accepted", "count", "limit wall_s"),
    ("moments.rk_rejected", "count", "limit wall_s"),
    ("restricted.build_s", "s", "limit wall_s"),
    ("restricted.types", "count", "limit wall_s"),
    ("restricted.integrate_s", "s", "limit wall_s"),
    ("restricted.rk_accepted", "count", "limit wall_s"),
    ("restricted.clamped", "1", "limit fail_frac"),
    ("trace.overhead_frac", "ratio", "none: traced wall_s / untraced wall_s - 1"),
]

# Counts that must repeat exactly between two runs with the same seed.
EXACT = [name for name, unit, _ in PER_LAYER if unit == "count"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    counts: dict = field(default_factory=dict)
    raised: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._replaced: list[tuple] = []  # (owner, attribute, original value)

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield None
            return
        idx = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield span
        except Exception:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own output checks are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(args) if before else None
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after:
                    span.counts.update(after(args, result, state))
            return result

        return wrapper

    def _replace(self, owner, attr, value) -> None:
        self._replaced.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, so untraced rounds run gelkit as shipped."""
        while self._replaced:
            owner, attr, value = self._replaced.pop()
            setattr(owner, attr, value)

    def install(self, gk) -> None:
        """Wrap every target at every gelkit module attribute that binds it."""
        ps, tf = gk.ParticleSystem, gk.TruncatedFlory

        def events(args):
            return args[0].events, args[0].merges

        def run_counts(args, result, state):
            self_ = args[0]
            return {"proposals": self_.events - state[0], "merges": self_.merges - state[1]}

        def graph_counts(args, result, state):
            n = result.n_vertices
            return {"edges": int(result.edge_u.size), "pairs": n * (n - 1) // 2}

        def rk_counts(args, result, state):
            return {"accepted": result.n_accepted, "rejected": result.n_rejected}

        def flory_clamped(args):
            return args[0].clamped

        functions = [
            ("particles.init", gk.particles.init_poisson, None),
            ("system.sample_atoms", gk.system.sample_atoms, None),
            ("graphs.sample_graph", gk.graphs.sample_graph, graph_counts),
            ("graphs.trajectory", gk.graphs.trajectory,
             lambda a, r, s: {"components": r[-1].n_components if r else 0}),
            ("graphs.coupling_test", gk.graphs.coupling_test, None),
            ("spectral.gelation", gk.spectral.gelation, None),
            ("survival.solve_fixed_point", gk.survival.solve_fixed_point,
             lambda a, r, s: {"residual": r.residual}),
            ("survival.gel_curve", gk.survival.gel_curve, None),
            ("moments.integrate_subcritical", gk.moments.integrate_subcritical, None),
            ("moments.supercritical_moments", gk.moments.supercritical_moments, None),
            ("moments.gel_growth_ode", gk.moments.gel_growth_ode, None),
            ("moments.explosion_time", gk.moments.explosion_time, None),
            ("rk.integrate", gk._rk.integrate, rk_counts),
        ]
        modules = [m for key, m in sys.modules.items() if key == "gelkit" or key.startswith("gelkit.")]
        for name, fn, after in functions:
            wrapper = self.wrap(name, fn, after=after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)
        methods = [
            (ps, "__init__", "particles.construct", None, None),
            (ps, "run", "particles.run", events, run_counts),
            (ps, "snapshot", "particles.snapshot", None, None),
            (tf, "__init__", "restricted.build", None,
             lambda a, r, s: {"types": len(a[0].types)}),
            (tf, "integrate", "restricted.integrate", flory_clamped,
             lambda a, r, s: {"clamped": a[0].clamped - s}),
        ]
        for cls, attr, name, before, after in methods:
            self._replace(cls, attr, self.wrap(name, vars(cls)[attr], before, after))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "raised": s.raised, "counts": s.counts,
                }) + "\n")


def _subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of the spans below ``root`` (spans are stored in start order)."""
    inside = {root}
    out = []
    for idx in range(root + 1, len(spans)):
        if spans[idx].parent in inside:
            inside.add(idx)
            out.append(idx)
        elif spans[idx].start > spans[root].end:
            break
    return out


def layer_metrics(spans: list[Span], root: int, notes: dict) -> dict:
    """Per-layer metrics of the spans under one round's root span.

    ``notes`` supplies the metrics that do not come from spans:
    ``trace.overhead_frac`` and ``survival.oracle_err_max``.
    """
    idxs = _subtree(spans, root)
    child_time: dict[int, float] = {}
    for i in idxs:
        child_time[spans[i].parent] = child_time.get(spans[i].parent, 0.0) + spans[i].seconds

    def named(*names):
        return [i for i in idxs if spans[i].name in names]

    def outer_total(*names):
        # a span nested in another span of the same group is counted once
        total = 0.0
        for i in named(*names):
            p = spans[i].parent
            while p != root and spans[p].name not in names:
                p = spans[p].parent
            if p == root:
                total += spans[i].seconds
        return total

    def self_total(name):
        return sum(spans[i].seconds - child_time.get(i, 0.0) for i in named(name))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in named(name))

    def rk(layer, key):
        total = 0
        for i in named("rk.integrate"):
            p = spans[i].parent
            while p != root and not spans[p].name.startswith(("moments.", "restricted.")):
                p = spans[p].parent
            if p != root and spans[p].name.startswith(layer):
                total += spans[i].counts.get(key, 0)
        return total

    def ratio(a, b):
        return a / b if b else 0.0

    proposals = count("particles.run", "proposals")
    merges = count("particles.run", "merges")
    run_s = self_total("particles.run")
    pairs = count("graphs.sample_graph", "pairs")
    edges = count("graphs.sample_graph", "edges")
    fp = named("survival.solve_fixed_point")
    fp_times = sorted(spans[i].seconds for i in fp)
    out = {
        "particles.init_s": outer_total("particles.init", "particles.construct"),
        "particles.run_s": run_s,
        "particles.snapshot_s": outer_total("particles.snapshot"),
        "particles.proposals": proposals,
        "particles.merges": merges,
        "particles.accept_ratio": ratio(merges, proposals),
        "particles.proposals_per_s": ratio(proposals, run_s),
        "graphs.sample_s": outer_total("graphs.sample_graph"),
        "graphs.pairs_scanned": pairs,
        "graphs.edges": edges,
        "graphs.edge_yield": ratio(edges, pairs),
        "graphs.trajectory_s": outer_total("graphs.trajectory"),
        "graphs.components": count("graphs.trajectory", "components"),
        "graphs.coupling_self_s": self_total("graphs.coupling_test"),
        "system.sample_atoms_s": outer_total("system.sample_atoms"),
        "spectral.gelation_calls": len(named("spectral.gelation")),
        "spectral.gelation_s": outer_total("spectral.gelation"),
        "survival.fixed_point_calls": len(fp),
        "survival.fixed_point_s": outer_total("survival.solve_fixed_point"),
        "survival.fixed_point_s.p50": quantile(fp_times, 0.5),
        "survival.fixed_point_s.p90": quantile(fp_times, 0.9),
        "survival.fixed_point_fail": sum(spans[i].raised for i in fp),
        "survival.residual_max": max((spans[i].counts.get("residual", 0.0) for i in fp), default=0.0),
        "survival.gel_curve_s": outer_total("survival.gel_curve"),
        "moments.subcritical_calls": len(named("moments.integrate_subcritical")),
        "moments.subcritical_s": outer_total("moments.integrate_subcritical"),
        "moments.supercritical_calls": len(named("moments.supercritical_moments")),
        "moments.supercritical_s": outer_total("moments.supercritical_moments"),
        "moments.gel_growth_s": outer_total("moments.gel_growth_ode"),
        "moments.explosion_s": outer_total("moments.explosion_time"),
        "moments.rk_accepted": rk("moments.", "accepted"),
        "moments.rk_rejected": rk("moments.", "rejected"),
        "restricted.build_s": outer_total("restricted.build"),
        "restricted.types": count("restricted.build", "types"),
        "restricted.integrate_s": outer_total("restricted.integrate"),
        "restricted.rk_accepted": rk("restricted.", "accepted"),
        "restricted.clamped": sum(spans[i].counts.get("clamped", 0.0) for i in named("restricted.integrate")),
        **notes,
    }
    if sorted(out) != sorted(name for name, _, _ in PER_LAYER):
        raise KeyError("per-layer metrics do not match PER_LAYER")
    return out


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 when there is nothing to rank."""
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def combine(rounds: list[dict]) -> dict:
    """Counts and quantities derived from counts come from the first traced
    round, whose inputs depend on the seed alone, so they repeat exactly;
    times are the median over traced rounds."""
    first = rounds[0]
    out = {}
    for name, unit, _ in PER_LAYER:
        if unit in ("s", "1/s"):
            out[name] = statistics.median(r[name] for r in rounds)
        else:
            out[name] = first[name]
    return out
