"""Inhomogeneous random graphs whose connectivity mirrors the merge flow.

Vertices carry particle coordinate rows; the unordered pair {u, v} receives
an edge at an Exp(1)-distributed multiple of ``n_scale / kbar(u, v)``, so
by time t the edge is present with probability ``1 - exp(-kbar * t /
n_scale)``.  Connected components then play the role of merged particles:
component data is the coordinate sum of its vertices.

``sample_graph`` draws the edges with the merge engine of
``ParticleSystem.run``: Poisson envelope proposals, thinned by
``kbar / khat`` and stamped with uniform arrival times, of which each pair
keeps its first.  The envelope and its guide table are built once per
graph, in O(N), and a proposal then costs expected O(1), under a budget on
the expected proposal count.  Components come from ``particles.contract`` on edge
prefixes.  ``_sample_graph_blocks`` is an independent sampler kept as the
oracle of ``coupling_test``: it groups vertices into types of equal rate
rows and draws each type pair's edges by geometric skipping, in
O(K^2 + N + edges) for K types.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import float_info

import numpy as np

from .errors import BudgetExceeded, WindowInvalid
from .particles import (
    _CHUNK,
    _MAX_PARTICLES,
    ParticleSystem,
    _check_scale,
    _check_table,
    _Forest,
    _size_threshold,
    child_seed,
    contract,
    envelope,
    envelope_proposals,
    snapshot,
)
from .spectral import gelation
from .survival import solve_fixed_point, survival_probabilities
from .system import AtomicMeasure, BilinearSystem, check_times, pair_rates, sample_atoms

# budget on expected edge proposals, and on the oracle's type pairs and
# expected edges
_MAX_PROPOSALS = 10**7


@dataclass(frozen=True)
class GraphRealization:
    """Vertex rows plus every edge arriving before the horizon."""

    vertices: np.ndarray  # (N, 1+n+m)
    n_scale: float
    t_max: float
    edge_u: np.ndarray  # int indices, u < v, sorted by arrival time
    edge_v: np.ndarray
    edge_t: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def edges_until(self, t: float) -> int:
        """Number of edges with arrival time <= t (prefix of the arrays)."""
        return int(np.searchsorted(self.edge_t, t, side="right"))


def _realization(vertices, n_scale, t_max, eu, ev, et):
    """Edge arrays into a realization sorted by arrival time."""
    order = np.argsort(et, kind="stable")
    return GraphRealization(
        vertices=vertices,
        n_scale=float(n_scale),
        t_max=float(t_max),
        edge_u=eu[order],
        edge_v=ev[order],
        edge_t=et[order],
    )


def sample_graph(
    sys: BilinearSystem,
    vertices: np.ndarray,
    n_scale: float,
    t_max: float,
    seed: int | np.random.SeedSequence,
) -> GraphRealization:
    """Draw every edge with arrival time <= t_max.

    Poisson(rate * t_max) envelope proposals, where rate is the merge
    envelope rate of the vertex rows, each get a uniform arrival time in
    [0, t_max] and are thinned by :func:`particles.envelope_proposals`.
    The kept arrivals of a pair form a Poisson process of rate
    ``kbar / n_scale``, so its first one, the one stored, is the pair's
    exponential edge time.  An expected proposal count above
    ``_MAX_PROPOSALS`` raises BudgetExceeded before any draw.
    """
    vertices = _check_table(sys, vertices)
    _check_scale(n_scale)
    (t_max,) = check_times([t_max])
    rng = np.random.default_rng(seed)
    cum, guide, pair_cum = envelope(sys, vertices)
    mean = 0.5 / n_scale * float(pair_cum[-1]) * t_max
    if not mean <= _MAX_PROPOSALS:
        raise BudgetExceeded(
            f"expected {mean:.3g} edge proposals exceeds the budget "
            f"{_MAX_PROPOSALS}"
        )
    count = int(rng.poisson(mean))
    # the batch lists start with an empty batch, so that they concatenate
    empty = np.zeros(0, dtype=np.intp)
    us, vs, ts = [empty], [empty], [np.zeros(0)]
    while count:
        size = min(count, _CHUNK)
        count -= size
        p, q, keep = envelope_proposals(
            rng, sys, vertices, cum, guide, pair_cum, size
        )
        t = rng.random(size) * t_max
        p, q = p[keep], q[keep]
        us.append(np.minimum(p, q))
        vs.append(np.maximum(p, q))
        ts.append(t[keep])
    eu, ev, et = (np.concatenate(part) for part in (us, vs, ts))
    # the first arrival of each pair: sort by (u, v, t), keep the group heads
    order = np.lexsort((et, ev, eu))
    eu, ev, et = eu[order], ev[order], et[order]
    head = np.ones(eu.size, dtype=bool)
    head[1:] = (eu[1:] != eu[:-1]) | (ev[1:] != ev[:-1])
    return _realization(vertices, n_scale, t_max, eu[head], ev[head], et[head])


def _unrank_pairs(pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower-triangle index ``i (i - 1) / 2 + j`` back to (i, j), j < i."""
    i = ((1.0 + np.sqrt(1.0 + 8.0 * pos)) // 2).astype(np.int64)
    # the float root may be off by one either way
    i -= i * (i - 1) // 2 > pos
    i += (i + 1) * i // 2 <= pos
    return i, pos - i * (i - 1) // 2


def _block_hits(rng, first: float, log_q: float, count: float) -> np.ndarray:
    """Every position below ``count`` of a Bernoulli(1 - e^log_q) sequence
    whose first success is ``first``, by geometric skipping."""
    hits = [np.array([first])]
    last = first
    while True:
        mean = (count - last) * -np.expm1(log_q)
        size = int(mean + 4.0 * np.sqrt(mean)) + 16
        with np.errstate(over="ignore"):
            gaps = np.floor(np.log1p(-rng.random(size)) / log_q)
        pos = last + np.cumsum(gaps + 1.0)
        inside = pos[pos < count]
        hits.append(inside)
        if inside.size < size:
            return np.concatenate(hits)
        last = pos[-1]


def _sample_graph_blocks(
    sys: BilinearSystem,
    vertices: np.ndarray,
    n_scale: float,
    t_max: float,
    seed: int | np.random.SeedSequence,
    rate_scale: float = 1.0,
) -> GraphRealization:
    """Draw every edge with arrival time <= t_max, block by block.

    The oracle of :func:`coupling_test`: it shares no sampling code with
    the merge engine.  Vertices with equal rate rows form a type, and every
    pair of one type pair (a block) has the same edge probability
    ``p = 1 - exp(-r t_max)``, ``r = rate_scale * kbar / n_scale``, where
    ``rate_scale >= 0`` is the calibration control of :func:`coupling_test`
    (1 samples the system's own law, 0 an empty graph).  The
    edges of a block are its Bernoulli(p) successes, found by geometric
    skipping, and each edge's time is Exp(r) truncated at t_max.  With K
    types this costs O(K^2 + N + edges); K(K+1)/2 type pairs or an
    expected edge count above ``_MAX_PROPOSALS`` raise BudgetExceeded
    before any draw.
    """
    vertices = _check_table(sys, vertices)
    _check_scale(n_scale)
    if not 0 <= rate_scale <= float_info.max:
        raise ValueError(f"rate_scale = {rate_scale} must be nonnegative and finite")
    (t_max,) = check_times([t_max])
    rng = np.random.default_rng(seed)
    rates = vertices[:, 1:]
    # vertices sorted by rate row; a type is a run of equal rows
    order = np.lexsort(rates.T)
    ranked = rates[order]
    start = np.flatnonzero(
        np.r_[order.size > 0, (ranked[1:] != ranked[:-1]).any(axis=1)]
    )
    sizes = np.diff(np.r_[start, order.size])
    types = ranked[start]
    n_types = start.size
    if n_types * (n_types + 1) // 2 > _MAX_PROPOSALS:
        raise BudgetExceeded(
            f"{n_types} vertex types give {n_types * (n_types + 1) // 2} "
            f"type pairs, which exceeds the budget {_MAX_PROPOSALS}"
        )
    # blocks a <= b: pair count, edge rate and edge probability
    a, b = np.triu_indices(n_types)
    pairs = np.where(
        a == b, sizes[a] * (sizes[a] - 1) // 2, sizes[a] * sizes[b]
    ).astype(float)
    rate = rate_scale / n_scale * pair_rates(sys, types[a], types[b])[0]
    prob = -np.expm1(-rate * t_max)
    expected = float((pairs * prob).sum())
    if not expected <= _MAX_PROPOSALS:
        raise BudgetExceeded(
            f"expected {expected:.3g} edges exceeds the budget {_MAX_PROPOSALS}"
        )
    # each block's first success as a float geometric gap: kinetic-gas
    # same-atom rates of ~1e-16 would overflow an integer geometric draw
    live = np.flatnonzero(prob > 0.0)
    with np.errstate(divide="ignore", over="ignore"):  # p = 1 or p tiny
        log_q = np.log1p(-prob[live])
        first = np.floor(np.log1p(-rng.random(live.size)) / log_q)
    hit = first < pairs[live]
    block_of, positions = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for k, pos, lq in zip(live[hit], first[hit], log_q[hit]):
        found = _block_hits(rng, pos, lq, pairs[k])
        block_of.append(np.full(found.size, k))
        positions.append(found)
    blk = np.concatenate(block_of)
    pos = np.concatenate(positions).astype(np.int64)
    # position -> (row, column) inside the block, then -> vertex indices
    diag = a[blk] == b[blk]
    row, col = np.divmod(pos, sizes[b[blk]])
    row[diag], col[diag] = _unrank_pairs(pos[diag])
    u = order[start[a[blk]] + row]
    v = order[start[b[blk]] + col]
    # arrival times: Exp(rate) conditioned on arriving by t_max
    times = -np.log1p(-rng.random(blk.size) * prob[blk]) / rate[blk]
    return _realization(
        vertices, n_scale, t_max,
        np.minimum(u, v), np.maximum(u, v), np.minimum(times, t_max),
    )


def _check_vertices(n: int) -> None:
    """BudgetExceeded, before any row is drawn, past ``_MAX_PARTICLES``."""
    if n > _MAX_PARTICLES:
        raise BudgetExceeded(f"{n} vertices exceeds the budget {_MAX_PARTICLES}")


def graph_from_measure(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n: int,
    t_max: float,
    seed: int | np.random.SeedSequence,
) -> GraphRealization:
    """Fixed vertex count n, rows i.i.d. from the normalized measure."""
    _check_vertices(n)
    rng = np.random.default_rng(seed)
    rows = sample_atoms(measure, n, rng)
    return sample_graph(sys, rows, n, t_max, rng)


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
    graph: GraphRealization, labels: np.ndarray, count: int, t: float, xi: int
) -> ComponentTrack:
    sizes = np.bincount(labels, minlength=count)
    # first max: labels follow each component's lowest vertex
    big = int(np.argmax(sizes))
    c1 = int(sizes[big])
    meso = int(sizes[(sizes >= xi)].sum() - (c1 if c1 >= xi else 0))
    values, counts = np.unique(sizes, return_counts=True)
    return ComponentTrack(
        t=t,
        n_components=count,
        xi=int(xi),
        c1_vertices=c1,
        c1_over_n=c1 / graph.n_scale,
        pi_c1=graph.vertices[labels == big].sum(axis=0) / graph.n_scale,
        meso_fraction=meso / graph.n_scale,
        size_values=values,
        size_counts=counts,
    )


def trajectory(
    graph: GraphRealization, checkpoint_times, xi: int | None = None
) -> list[ComponentTrack]:
    """Contract edges in arrival order, reporting at each checkpoint.

    Of equally large components the one holding the lowest vertex is the
    largest.  Checkpoints past the sampling horizon are rejected: edges
    there were never drawn.
    """
    times = check_times(checkpoint_times, end=graph.t_max)
    xi = _size_threshold(xi, graph.n_scale)
    count = graph.n_vertices
    labels = np.arange(count)
    out = []
    pos = 0
    for target in times:
        stop = graph.edges_until(target)
        labels, count = contract(
            labels, count, graph.edge_u[pos:stop], graph.edge_v[pos:stop]
        )
        pos = stop
        out.append(_track(graph, labels, count, target, xi))
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


def _ks_equal(a: np.ndarray, b: np.ndarray) -> float:
    """Exact p-value of the two-sided two-sample Kolmogorov-Smirnov test on
    two samples of one size n: exact for continuous laws, conservative with
    ties.  ``h = n D`` is an integer, and (Gnedenko & Korolyuk, 1951)
    ``P(D >= h/n) = 2 sum_k (-1)^(k-1) C(2n, n-kh) / C(2n, n)``."""
    n, pooled = a.size, np.concatenate([a, b])
    # n times each empirical distribution function, at every pooled value
    cdf = [np.searchsorted(np.sort(x), pooled, side="right") for x in (a, b)]
    h = int(np.abs(cdf[0] - cdf[1]).max())
    if h == 0:
        return 1.0
    # C(2n, n-j) / C(2n, n) = prod_{i<j} (n-i) / (n+1+i), at j = h, 2h, ...
    i = np.arange(n)
    terms = np.cumprod((n - i) / (n + 1.0 + i))[h - 1 :: h]
    return min(1.0, 2.0 * float(terms[::2].sum() - terms[1::2].sum()))


def coupling_test(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n: int,
    t: float,
    n_replicas: int,
    seed: int,
    graph_rate_factor: float = 1.0,
) -> CouplingReport:
    """Match component laws against merge-cluster laws, replica by replica.

    Each replica shares one sampled vertex set between the two dynamics,
    and both sides pick their largest object by the rule of
    :func:`particles.snapshot`.  ``graph_rate_factor`` (nonnegative)
    deliberately mis-scales the graph side; anything but 1.0 should make
    the test fail, which is the calibration control.
    """
    if n_replicas < 1:
        raise ValueError(f"n_replicas = {n_replicas} must be at least 1")
    g_largest = np.empty(n_replicas)
    g_counts = np.empty(n_replicas)
    p_largest = np.empty(n_replicas)
    p_counts = np.empty(n_replicas)
    phi_cols = slice(0, 1 + sys.n)
    _check_vertices(n)
    for r in range(n_replicas):
        rows = sample_atoms(
            measure, n, np.random.default_rng(child_seed(seed, r, 0))
        )
        graph = _sample_graph_blocks(
            sys, rows, n, t, child_seed(seed, r, 1), rate_scale=graph_rate_factor
        )
        forest = _Forest(graph.vertices.T.copy())
        forest.join(graph.edge_u, graph.edge_v)
        comps = snapshot(sys, forest.table(), n, t)
        g_largest[r] = float(comps.gel_largest.g[phi_cols].sum())
        g_counts[r] = comps.n_particles
        ps = ParticleSystem(sys, rows, n, np.random.default_rng(child_seed(seed, r, 2)))
        snap = ps.run([t])[0]
        p_largest[r] = float(snap.gel_largest.g[phi_cols].sum())
        p_counts[r] = snap.n_particles
    return CouplingReport(
        n=n,
        t=t,
        n_replicas=n_replicas,
        p_largest=_ks_equal(g_largest, p_largest),
        p_count=_ks_equal(g_counts, p_counts),
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
) -> DualityReport:
    """Remove the giant component at t_minus; what survives to t_plus should
    look like a fresh graph driven by the tilted measure.

    The window must satisfy t_gel < t_minus < t_plus < t_gel(tilted), else
    the comparison is meaningless and WindowInvalid is raised.
    """
    spectral = gelation(sys, measure)
    coeff = solve_fixed_point(sys, measure, t_minus, spectral)
    rho = survival_probabilities(sys, measure, coeff)
    tilted = measure._tilted(rho)
    t_gel, t_gel_tilted = spectral.t_g, gelation(sys, tilted).t_g
    if not (t_gel < t_minus < t_plus < t_gel_tilted):
        raise WindowInvalid(
            f"need t_gel={t_gel:.6g} < t_minus < t_plus < "
            f"tilted t_gel={t_gel_tilted:.6g}; "
            f"got t_minus={t_minus}, t_plus={t_plus}"
        )
    _check_vertices(n)
    rows = sample_atoms(
        measure, n, np.random.default_rng(child_seed(seed, 0))
    )
    graph = sample_graph(sys, rows, n, t_plus, child_seed(seed, 1))
    eu, ev = graph.edge_u, graph.edge_v
    # components as seen at t_minus pick out the giant to delete
    stop = graph.edges_until(t_minus)
    labels, count = contract(np.arange(n), n, eu[:stop], ev[:stop])
    survivor = labels != np.argmax(np.bincount(labels, minlength=count))
    both = survivor[eu] & survivor[ev]
    dual = contract(np.arange(n), n, eu[both], ev[both])[0][survivor]
    dual_sizes = np.bincount(dual)
    dual_sizes = dual_sizes[dual_sizes > 0]
    n_survivors = int(survivor.sum())
    fresh_rows = sample_atoms(
        tilted, n_survivors, np.random.default_rng(child_seed(seed, 2))
    )
    fresh = sample_graph(sys, fresh_rows, n, t_plus, child_seed(seed, 3))
    fresh_sizes = np.bincount(
        contract(np.arange(n_survivors), n_survivors, fresh.edge_u, fresh.edge_v)[0]
    )
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
        survivor_fraction=n_survivors / n,
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
