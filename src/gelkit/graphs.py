"""Inhomogeneous random graphs whose connectivity mirrors the merge flow.

Vertices carry particle coordinate rows; the unordered pair {u, v} receives
an edge at an Exp(1)-distributed multiple of ``n_scale / (rate_scale *
kbar(u, v))``, so by time t the edge is present with probability
``1 - exp(-rate_scale * kbar * t / n_scale)``.  Connected components then
play the role of merged particles: component data is the coordinate sum of
its vertices.

All pair scans run in fixed-size blocks so memory stays flat in the vertex
count; the vertex count itself is capped because the scan is quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import ks_2samp

from .errors import BudgetExceeded, NegativeRate, WindowInvalid
from .spectral import gelation_time
from .survival import solve_fixed_point, survival_probabilities, tilted_measure
from .system import AtomicMeasure, BilinearSystem, sample_atoms

_BLOCK = 512
_MAX_VERTICES = 30_000


@dataclass(frozen=True)
class GraphRealization:
    """Vertex rows plus every edge arriving before the horizon."""

    vertices: np.ndarray  # (N, 1+n+m)
    n_scale: float
    t_max: float
    rate_scale: float
    edge_u: np.ndarray  # int indices, sorted by arrival time
    edge_v: np.ndarray
    edge_t: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def edges_until(self, t: float) -> int:
        """Number of edges with arrival time <= t (prefix of the arrays)."""
        return int(np.searchsorted(self.edge_t, t, side="right"))


def sample_graph(
    sys: BilinearSystem,
    vertices: np.ndarray,
    n_scale: float,
    t_max: float,
    seed: int | np.random.SeedSequence,
    rate_scale: float = 1.0,
    max_vertices: int = _MAX_VERTICES,
) -> GraphRealization:
    """Draw every edge with arrival time <= t_max.

    The scan touches all ~N^2/2 pairs, so the vertex count is capped;
    raise the cap explicitly if you accept the quadratic cost.
    """
    vertices = np.asarray(vertices, dtype=float)
    count = vertices.shape[0]
    if count > max_vertices:
        raise BudgetExceeded(
            f"{count} vertices exceeds the pair-scan cap {max_vertices}"
        )
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rng = np.random.default_rng(seed)
    rates = vertices[:, 1:]
    block = sys.block
    scale = rate_scale / n_scale
    env = float(np.abs(rates).max(initial=0.0)) ** 2 * float(
        np.abs(block).sum()
    )
    us, vs, ts = [], [], []
    for bi in range(0, count, _BLOCK):
        ri = rates[bi : bi + _BLOCK]
        for bj in range(bi, count, _BLOCK):
            rj = rates[bj : bj + _BLOCK]
            kbar = ri @ block @ rj.T
            if kbar.min(initial=0.0) < -1e-9 * max(1.0, env):
                raise NegativeRate(
                    f"pair rate {kbar.min():.3e} is negative beyond tolerance"
                )
            np.clip(kbar, 0.0, None, out=kbar)
            if bi == bj:
                # keep strict upper triangle only
                kbar[np.tril_indices_from(kbar)] = 0.0
            taus = rng.standard_exponential(kbar.shape)
            with np.errstate(divide="ignore"):
                arrival = np.where(kbar > 0.0, taus / (scale * kbar), np.inf)
            ii, jj = np.nonzero(arrival <= t_max)
            if ii.size:
                us.append(ii + bi)
                vs.append(jj + bj)
                ts.append(arrival[ii, jj])
    if us:
        eu = np.concatenate(us)
        ev = np.concatenate(vs)
        et = np.concatenate(ts)
        order = np.argsort(et, kind="stable")
        eu, ev, et = eu[order], ev[order], et[order]
    else:
        eu = np.zeros(0, dtype=np.int64)
        ev = np.zeros(0, dtype=np.int64)
        et = np.zeros(0)
    return GraphRealization(
        vertices=vertices,
        n_scale=float(n_scale),
        t_max=float(t_max),
        rate_scale=float(rate_scale),
        edge_u=eu,
        edge_v=ev,
        edge_t=et,
    )


def graph_from_measure(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n: int,
    t_max: float,
    seed: int | np.random.SeedSequence,
    rate_scale: float = 1.0,
    max_vertices: int = _MAX_VERTICES,
) -> GraphRealization:
    """Fixed vertex count n, rows i.i.d. from the normalized measure."""
    rng = np.random.default_rng(seed)
    rows = sample_atoms(measure, n, rng)
    return sample_graph(
        sys, rows, n, t_max, rng, rate_scale=rate_scale,
        max_vertices=max_vertices,
    )


class UnionFind:
    """Union by size with path compression; coordinate sums live at roots."""

    def __init__(self, vertices: np.ndarray):
        count = vertices.shape[0]
        self.parent = np.arange(count, dtype=np.int64)
        self.size = np.ones(count, dtype=np.int64)
        self.pi = vertices.copy()
        self.n_components = count

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return int(root)

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.pi[ru] += self.pi[rv]
        self.n_components -= 1
        return True

    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.parent == np.arange(self.parent.size))

    def root_of_each(self) -> np.ndarray:
        for v in range(self.parent.size):
            self.find(v)
        return self.parent


@dataclass(frozen=True)
class ComponentTrack:
    """Component statistics of one graph at one time."""

    t: float
    n_components: int
    xi: int
    c1_vertices: int
    c1_over_n: float
    pi_c1: np.ndarray  # coordinate sums of the largest component / n_scale
    meso_fraction: float  # vertex fraction in non-largest components >= xi
    size_values: np.ndarray
    size_counts: np.ndarray


def _track(
    uf: UnionFind, n_scale: float, t: float, xi: int
) -> ComponentTrack:
    roots = uf.roots()
    sizes = uf.size[roots]
    big_pos = int(np.argmax(sizes))  # first max: smallest root index wins ties
    c1 = int(sizes[big_pos])
    meso = int(sizes[(sizes >= xi)].sum() - (c1 if c1 >= xi else 0))
    values, counts = np.unique(sizes, return_counts=True)
    return ComponentTrack(
        t=t,
        n_components=int(roots.size),
        xi=int(xi),
        c1_vertices=c1,
        c1_over_n=c1 / n_scale,
        pi_c1=uf.pi[roots[big_pos]] / n_scale,
        meso_fraction=meso / n_scale,
        size_values=values,
        size_counts=counts,
    )


def trajectory(
    graph: GraphRealization, checkpoint_times, xi: int | None = None
) -> list[ComponentTrack]:
    """Insert edges in arrival order, reporting at each checkpoint.

    Checkpoints past the sampling horizon are rejected: edges there were
    never drawn.
    """
    times = sorted(float(v) for v in checkpoint_times)
    if times and times[-1] > graph.t_max + 1e-12:
        raise ValueError("checkpoint beyond the sampled edge horizon")
    if xi is None:
        xi = int(np.ceil(np.sqrt(graph.n_scale)))
    uf = UnionFind(graph.vertices)
    out = []
    pos = 0
    for target in times:
        stop = graph.edges_until(target)
        for e in range(pos, stop):
            uf.union(int(graph.edge_u[e]), int(graph.edge_v[e]))
        pos = stop
        out.append(_track(uf, graph.n_scale, target, xi))
    return out


@dataclass(frozen=True)
class CouplingReport:
    """Two-sample agreement between graph components and merge clusters."""

    n: int
    t: float
    n_replicas: int
    p_largest: float  # KS p-value, total size of the largest object / N
    p_count: float  # KS p-value, number of objects
    graph_largest: np.ndarray
    particle_largest: np.ndarray
    graph_counts: np.ndarray
    particle_counts: np.ndarray

    @property
    def passed(self) -> bool:
        return self.p_largest > 1e-3 and self.p_count > 1e-3


def coupling_test(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n: int,
    t: float,
    n_replicas: int,
    seed: int,
    rate_scale: float = 1.0,
    graph_rate_factor: float = 1.0,
) -> CouplingReport:
    """Match component laws against merge-cluster laws, replica by replica.

    Each replica shares one sampled vertex set between the two dynamics.
    ``graph_rate_factor`` deliberately mis-scales the graph side; anything
    but 1.0 should make the test fail, which is the calibration control.
    """
    from .particles import ParticleSystem, child_seed

    g_largest = np.empty(n_replicas)
    g_counts = np.empty(n_replicas)
    p_largest = np.empty(n_replicas)
    p_counts = np.empty(n_replicas)
    phi_cols = slice(0, 1 + sys.n)
    for r in range(n_replicas):
        rows = sample_atoms(
            measure, n, np.random.default_rng(child_seed(seed, r, 0))
        )
        graph = sample_graph(
            sys,
            rows,
            n,
            t,
            child_seed(seed, r, 1),
            rate_scale=rate_scale * graph_rate_factor,
        )
        track = trajectory(graph, [t])[0]
        g_largest[r] = float(track.pi_c1[phi_cols].sum())
        g_counts[r] = track.n_components
        ps = ParticleSystem(
            sys,
            rows,
            n,
            np.random.default_rng(child_seed(seed, r, 2)),
            rate_scale=rate_scale,
        )
        snap = ps.run([t])[0]
        p_largest[r] = float(snap.gel_largest.g[phi_cols].sum())
        p_counts[r] = snap.n_particles
    ks1 = ks_2samp(g_largest, p_largest, method="asymp")
    ks2 = ks_2samp(g_counts, p_counts, method="asymp")
    return CouplingReport(
        n=n,
        t=t,
        n_replicas=n_replicas,
        p_largest=float(ks1.pvalue),
        p_count=float(ks2.pvalue),
        graph_largest=g_largest,
        particle_largest=p_largest,
        graph_counts=g_counts,
        particle_counts=p_counts,
    )


@dataclass(frozen=True)
class DualityReport:
    """What is left after deleting the giant, versus a fresh subcritical run."""

    n: int
    t_minus: float
    t_plus: float
    t_gel: float
    t_gel_tilted: float
    survivor_fraction: float
    expected_sol_fraction: float  # 1 - gel mass fraction at t_minus
    dual_c1_over_n: float
    fresh_c1_over_n: float
    histogram_distance: float  # total variation between size histograms


def duality_experiment(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n: int,
    t_minus: float,
    t_plus: float,
    seed: int,
    rate_scale: float = 1.0,
) -> DualityReport:
    """Remove the giant component at t_minus; what survives to t_plus should
    look like a fresh graph driven by the tilted measure.

    The window must satisfy t_gel < t_minus < t_plus < t_gel(tilted), else
    the comparison is meaningless and WindowInvalid is raised.
    """
    from .particles import child_seed

    t_gel = gelation_time(sys, measure, rate_scale=rate_scale)
    coeff = solve_fixed_point(sys, measure, t_minus, rate_scale=rate_scale)
    rho = survival_probabilities(sys, measure, coeff)
    tilted = tilted_measure(sys, measure, t_minus, rate_scale=rate_scale)
    t_gel_tilted = gelation_time(sys, tilted, rate_scale=rate_scale)
    if not (t_gel < t_minus < t_plus < t_gel_tilted):
        raise WindowInvalid(
            f"need t_gel={t_gel:.6g} < t_minus < t_plus < "
            f"tilted t_gel={t_gel_tilted:.6g}; "
            f"got t_minus={t_minus}, t_plus={t_plus}"
        )
    rows = sample_atoms(
        measure, n, np.random.default_rng(child_seed(seed, 0))
    )
    graph = sample_graph(
        sys, rows, n, t_plus, child_seed(seed, 1), rate_scale=rate_scale
    )
    # components as seen at t_minus pick out the giant to delete
    uf_minus = UnionFind(graph.vertices)
    stop = graph.edges_until(t_minus)
    for e in range(stop):
        uf_minus.union(int(graph.edge_u[e]), int(graph.edge_v[e]))
    roots = uf_minus.roots()
    giant_root = int(roots[np.argmax(uf_minus.size[roots])])
    survivors = np.flatnonzero(uf_minus.root_of_each() != giant_root)
    survivor_set = np.zeros(n, dtype=bool)
    survivor_set[survivors] = True
    uf_dual = UnionFind(graph.vertices)
    for e in range(graph.edge_u.size):
        u, v = int(graph.edge_u[e]), int(graph.edge_v[e])
        if survivor_set[u] and survivor_set[v]:
            uf_dual.union(u, v)
    _, dual_sizes = np.unique(
        uf_dual.root_of_each()[survivors], return_counts=True
    )
    fresh_rows = sample_atoms(
        tilted, survivors.size, np.random.default_rng(child_seed(seed, 2))
    )
    fresh = sample_graph(
        sys, fresh_rows, n, t_plus, child_seed(seed, 3),
        rate_scale=rate_scale,
    )
    uf_fresh = UnionFind(fresh.vertices)
    for e in range(fresh.edge_u.size):
        uf_fresh.union(int(fresh.edge_u[e]), int(fresh.edge_v[e]))
    fresh_sizes = uf_fresh.size[uf_fresh.roots()]
    # survivors are counted in vertices, so the prediction is the weighted
    # mean non-extraction probability, not the gel mass itself
    sol_number = float(
        (measure.weight_array * (1.0 - rho)).sum() / measure.total_mass
    )
    return DualityReport(
        n=n,
        t_minus=t_minus,
        t_plus=t_plus,
        t_gel=t_gel,
        t_gel_tilted=t_gel_tilted,
        survivor_fraction=survivors.size / n,
        expected_sol_fraction=sol_number,
        dual_c1_over_n=float(dual_sizes.max(initial=0)) / n,
        fresh_c1_over_n=float(fresh_sizes.max(initial=0)) / n,
        histogram_distance=_histogram_distance(dual_sizes, fresh_sizes),
    )


def _histogram_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation between empirical component-size distributions."""
    if a.size == 0 or b.size == 0:
        return 1.0
    hi = int(max(a.max(), b.max()))
    pa = np.bincount(a, minlength=hi + 1) / a.size
    pb = np.bincount(b, minlength=hi + 1) / b.size
    return 0.5 * float(np.abs(pa - pb).sum())
