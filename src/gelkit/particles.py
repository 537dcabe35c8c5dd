"""Finite-N pair-merge simulator, exact in law.

Particles are rows of a coordinate array; an unordered pair merges at rate
``kbar(x, y) / n_scale``.  Because the sign-odd block makes ``kbar``
non-factorizable, proposals are drawn from the entrywise-absolute envelope
``khat(x, y) = sum |a_kl| |pi_k(x)| |pi_l(y)| >= kbar`` (which does
factorize) and thinned by the exact ratio.

``run`` never steps event by event.  The kernel is bilinear, so two
clusters merge at the summed rate of their member pairs, and the clusters
at time t are the connected components of a random graph on the run's
starting rows whose edge {i, j} arrives at rate ``kbar(x_i, x_j) /
n_scale``.  Each checkpoint interval draws a Poisson batch of pair
proposals from the static envelope of the starting rows, keeps each with
probability ``kbar / khat`` and contracts the kept edges into the current
clusters, in fixed-size chunks.  ``events`` counts these static-envelope
proposals.

A proposal's rows are drawn by inverting the cumulative |x_k| of the
starting rows.  The run builds that table once, in O(P), with a guide
table (Chen & Asau's indexed search) that cuts each coordinate total into
P equal buckets and gives the first row each bucket can reach.  A draw
starts there and steps at most twice; the few draws not settled by then
go to a binary search, and every draw is checked against the exact
``searchsorted(side="right")`` condition, so the rows are those of a plain
binary search.  While the nonzero |x_k| of a coordinate stay within a
bounded ratio, as on the presets, a draw costs expected O(1): on
multiplicative no draw falls back, on kinetic-gas (whose momentum
coordinates are 0 on half the atoms) about 3% do.

A run costs O(P) per chunk and per checkpoint plus expected O(1) per
proposal.  A chunk's kept edges go to :func:`contract`, whose hooking
rounds touch at most one pointer per edge (2 to 4 rounds on the presets)
before one O(K) pass numbers the K clusters and one O(P) gather relabels
the starting rows; no cluster-by-cluster matrix is built.  A checkpoint
then sums the rows into the cluster table, one O(P) ``bincount`` per
column.

A sampler's ``coords`` is the table of its live clusters and nothing else,
one row each, ordered by the cluster's lowest starting row.

A :class:`Snapshot` at each checkpoint holds what the data files read: the
time, the particle count, the size threshold ``xi``, the largest
particle's data and the summed data of the particles with ``pi0 >= xi``.
It costs a few O(P) passes over the ``pi0`` column and a sum over the
heavy rows.  :func:`table_moments` gives the rest of a table on demand:
the first and second moments, the same without the largest particle, and
the size histogram.

``DirectPairSimulator`` is the independent event-by-event reference: it
evaluates every pair's rate at every event and shares no sampling code
with the envelope engine, guide table included.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from sys import float_info
from typing import NamedTuple

import numpy as np

from .errors import BudgetExceeded, RateUnderflow, SchemaError
from .system import AtomicMeasure, BilinearSystem, GelData, check_times, pair_rates
from .system import sample_atoms

# proposals drawn and contracted at a time by run
_CHUNK = 1 << 15
_MAGIC = b"GELK1"
# header after the magic, by format version; v1 stored n_scale as an integer
_HEADERS = {1: "<BII Q d d Q", 2: "<BII d d d Q"}
# expected initial particle count above which init_poisson refuses to start
_MAX_PARTICLES = 10**7


def child_seed(seed: int, *key: int) -> np.random.SeedSequence:
    """Derived seed for replica fan-out: (seed, index...) -> child stream.

    Distinct keys give independent streams; the derivation is stable across
    runs and platforms.
    """
    return np.random.SeedSequence((int(seed), *map(int, key)))


def _check_scale(n_scale: float) -> None:
    """ValueError unless n_scale is positive and finite.  The bounds are
    compared, not converted: an integer past the double range is refused."""
    if not 0 < n_scale <= float_info.max:
        raise ValueError(f"n_scale = {n_scale} must be positive and finite")


def _check_table(sys: BilinearSystem, coords) -> np.ndarray:
    """The rows as a fresh float table; ValueError unless it is (P, 1+n+m),
    finite, with nonnegative conserved coordinates."""
    coords = np.array(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 1 + sys.n + sys.m:
        raise ValueError("coords must be (P, 1+n+m)")
    if not np.isfinite(coords).all() or (coords[:, 1 : 1 + sys.n] < 0.0).any():
        raise ValueError("rows must be finite with nonnegative conserved coordinates")
    return coords


def _size_threshold(xi, n_scale: float):
    """``xi``, or ``ceil(sqrt(n_scale))`` when it is None."""
    return int(np.ceil(np.sqrt(n_scale))) if xi is None else xi


def envelope(
    sys: BilinearSystem, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The static proposal law on a table of rows: the cumulative |x_k| of
    the rows per rate coordinate, (d, P), its :func:`_guide` table, and the
    cumulative weights ``|a_kl| s_k s_l`` (s_k the total |x_k|) of the
    nonzero envelope entries in ``np.nonzero(sys.block_abs)`` order, which
    sum to ``sum_pq khat``."""
    cum = np.cumsum(np.abs(rows[:, 1:].T), axis=1)
    s = cum[:, -1] if rows.shape[0] else np.zeros(sys.dim)
    kk, ll = np.nonzero(sys.block_abs)
    return cum, _guide(cum), np.cumsum(sys.block_abs[kk, ll] * s[kk] * s[ll])


def _guide(cum: np.ndarray) -> np.ndarray:
    """Guide table of the row draws (Chen & Asau's indexed search), (d, P+1).

    Entry (k, j) is the first row whose cumulative |x_k| exceeds
    ``j s_k / P``: the search for a uniform in ``[j / P, (j + 1) / P)``
    starts there.  It counts the ``cum[k, :-1]`` at or below that edge, so
    starts never pass ``P - 1``.  Rounding may put a start a row off, which
    :func:`_draw_rows` catches.  A coordinate whose total is 0, not finite
    or too small to divide P by starts every search at row 0.
    """
    d, size = cum.shape
    guide = np.zeros((d, size + 1), dtype=np.int32)
    totals = cum[:, -1].tolist() if size else [0.0] * d
    for k, total in enumerate(totals):
        scale = size / total if total > 0.0 else 0.0
        if 0.0 < scale < math.inf:
            edge = np.ceil(cum[k, :-1] * scale).astype(np.intp)
            np.minimum(edge, size, out=edge)
            np.cumsum(np.bincount(edge, minlength=size + 1), out=guide[k])
    return guide


def _short(row: np.ndarray, at: np.ndarray, key: np.ndarray, last: int) -> np.ndarray:
    """The draws whose search goes on past row ``at``: ``row[at] <= key``,
    the condition of ``searchsorted(side="right")``, below the last row."""
    return (row[at] <= key) & (at < last)


def _draw_rows(
    rng: np.random.Generator, cum: np.ndarray, guide: np.ndarray, coord: np.ndarray
) -> np.ndarray:
    """One row per proposal, with probability |x_k| / s_k for its coordinate k.

    The row is ``min(searchsorted(cum[k], u s_k, side="right"), P - 1)`` for
    a uniform u.  The search starts at the :func:`_guide` entry of u and
    steps at most twice; the draws it leaves short of that row, or past it,
    go to ``searchsorted``.
    """
    u = rng.random(coord.size)
    out = np.empty(coord.size, dtype=np.intp)
    size = cum.shape[1]
    # a draw that rounds onto the total picks the last row, as find does
    last = size - 1
    for k in range(cum.shape[0]):
        sel = coord == k
        if not sel.any():
            continue
        uk = u[sel]
        key = uk * cum[k, -1]
        row = cum[k]
        at = guide[k, (uk * size).astype(np.intp)].astype(np.intp)
        for _ in range(2):
            at += _short(row, at, key, last)
        miss = _short(row, at, key, last)
        miss |= (at > 0) & (row[at - 1] > key)
        if miss.any():
            at[miss] = np.minimum(np.searchsorted(row, key[miss], side="right"), last)
        out[sel] = at
    return out


def envelope_proposals(rng, sys, rows, cum, guide, pair_cum, size: int):
    """Draw ``size`` proposals from :func:`envelope` and thin them.

    A proposal picks the coordinate pair (k, l) by weight, then row p with
    probability |x_pk| / s_k and row q with |x_ql| / s_l: the ordered pair
    (p, q) comes with probability proportional to ``khat(x_p, x_q)``.
    Returns ``(p, q, keep)``; ``keep`` drops self pairs and keeps the rest
    with probability ``kbar / khat`` (1 when m = 0).
    """
    kk, ll = np.nonzero(sys.block_abs)
    pick = np.searchsorted(pair_cum, rng.random(size) * pair_cum[-1], side="right")
    pick = np.minimum(pick, pair_cum.size - 1, out=pick)
    p = _draw_rows(rng, cum, guide, kk[pick])
    q = _draw_rows(rng, cum, guide, ll[pick])
    keep = p != q
    if sys.m:
        u = rng.random(size)
        kbar, khat = pair_rates(sys, rows[p[keep], 1:], rows[q[keep], 1:])
        keep[keep] = u[keep] * khat < kbar
    return p, q, keep


def _jump(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Double the pointers of ``nodes`` until each points at its root, and
    return those roots.  The nodes must hold every non-root that their
    pointers reach."""
    up = parent[nodes]
    while True:
        top = parent[up]
        if (top == up).all():
            return up
        parent[nodes] = up = top


def contract(
    labels: np.ndarray, clusters: int, p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, int]:
    """Join the clusters of rows p[i] and q[i]: the new labels and count.

    A union-find by hooking and pointer jumping (Shiloach & Vishkin) on the
    cluster ids.  Each round hooks the larger root of every live edge to
    the smallest root it shares an edge with, doubles the hooked roots'
    pointers until each points at its new root, moves the edges onto the
    new roots and drops those inside one tree.  Pointers only go to lower
    ids, so a joined cluster's root is its lowest member, and the roots,
    numbered in order, keep the labels ordered by each cluster's lowest
    row.

    The loop ends: each round hooks at least one root.  A tree with a live
    edge merges within two rounds (it hooks, is hooked onto, or has an edge
    to a tree that hooked below it), so there are O(log K) rounds for K
    clusters, each of O(log K) doublings over at most one pointer per edge.
    Numbering the roots costs one O(K) pass and relabelling the rows one
    O(P) gather.
    """
    a, b = labels[p], labels[q]
    cross = a != b
    if not cross.any():
        return labels, clusters
    a, b = a[cross], b[cross]
    parent = np.arange(clusters, dtype=labels.dtype)
    hooked = np.zeros(clusters, dtype=bool)
    while a.size:
        high = np.maximum(a, b)
        np.minimum.at(parent, high, np.minimum(a, b))
        hooked[high] = True
        _jump(parent, high)
        a, b = parent[a], parent[b]
        live = a != b
        a, b = a[live], b[live]
    low = np.flatnonzero(hooked)
    up = _jump(parent, low)
    clusters -= low.size
    parent[~hooked] = np.arange(clusters, dtype=parent.dtype)
    parent[low] = parent[up]
    return parent[labels], clusters


def _cluster_sums(cols: np.ndarray, labels: np.ndarray, clusters: int) -> np.ndarray:
    """Each cluster's row sum, one row per label, from the rows' columns."""
    sums = np.empty((clusters, cols.shape[0]))
    for j, col in enumerate(cols):
        sums[:, j] = np.bincount(labels, weights=col, minlength=clusters)
    return sums


@dataclass(frozen=True)
class Snapshot:
    """The observables a data file reads, of the particle population at one
    time; :func:`table_moments` gives the moments and size histogram."""

    t: float
    n_particles: int
    xi: int
    gel_largest: GelData  # largest particle's data / n_scale
    gel_threshold: GelData  # summed data of particles with pi0 >= xi, / n_scale


def _largest(rows: np.ndarray, n: int) -> int | None:
    """Row of the largest particle: most absorbed, then largest phi (pi0
    plus the n conserved coordinates), then lowest row; None for an empty
    table."""
    if not rows.shape[0]:
        return None
    pi0 = rows[:, 0]
    top = np.flatnonzero(pi0 == pi0.max())
    if top.size > 1:
        phi = pi0[top] + rows[top, 1 : 1 + n].sum(axis=1)
        top = top[phi == phi.max()]
    return int(top[0])


def snapshot(
    sys: BilinearSystem,
    rows: np.ndarray,
    n_scale: float,
    t: float,
    xi: int | None = None,
) -> Snapshot:
    """Observables of a table of live particle rows at time t."""
    xi = _size_threshold(xi, n_scale)
    inv = 1.0 / n_scale
    big = _largest(rows, sys.n)
    big_row = np.zeros(1 + sys.dim) if big is None else rows[big]
    heavy = rows[rows[:, 0] >= xi]
    gel_threshold = GelData(
        heavy.sum(axis=0) * inv if heavy.size else np.zeros(1 + sys.dim)
    )
    return Snapshot(
        t=t,
        n_particles=int(rows.shape[0]),
        xi=int(xi),
        gel_largest=GelData(big_row * inv),
        gel_threshold=gel_threshold,
    )


class TableMoments(NamedTuple):
    """Moments and size histogram of a table of live particle rows; the
    moments are over ``n_scale``."""

    first: np.ndarray  # sums of all coordinates
    q: np.ndarray  # conserved second moments, sum plus plus^T
    z: np.ndarray  # sum pi0 * (pi0, plus)
    q_sol: np.ndarray  # q without the largest particle of snapshot
    z_sol: np.ndarray  # z without the largest particle of snapshot
    size_values: np.ndarray  # the distinct pi0 values, ascending
    size_counts: np.ndarray  # how many rows hold each


def table_moments(sys: BilinearSystem, rows: np.ndarray, n_scale: float) -> TableMoments:
    """Moments and size histogram of a table of live particle rows."""
    n = sys.n
    inv = 1.0 / n_scale
    first = rows.sum(axis=0) * inv
    plus = rows[:, 1 : 1 + n]
    q = (plus.T @ plus) * inv
    pi0 = rows[:, 0]
    z = np.concatenate(([float(pi0 @ pi0)], pi0 @ plus)) * inv
    big = _largest(rows, n)
    sol = rows if big is None else np.delete(rows, big, axis=0)
    plus_sol = sol[:, 1 : 1 + n]
    q_sol = (plus_sol.T @ plus_sol) * inv
    pi0_sol = sol[:, 0]
    z_sol = np.concatenate(([float(pi0_sol @ pi0_sol)], pi0_sol @ plus_sol)) * inv
    values, counts = np.unique(pi0.astype(np.int64), return_counts=True)
    return TableMoments(first, q, z, q_sol, z_sol, values, counts)


class ParticleSystem:
    """Mutable simulation state: the table of live clusters and its clock."""

    def __init__(
        self,
        sys: BilinearSystem,
        coords: np.ndarray,
        n_scale: float,
        rng: np.random.Generator,
        t: float = 0.0,
    ):
        self.coords = _check_table(sys, coords)
        _check_scale(n_scale)
        self.sys = sys
        self.n_scale = float(n_scale)
        (self.t,) = check_times([t])
        self.rng = rng
        self.events = 0
        self.merges = 0

    @property
    def n_particles(self) -> int:
        return self.coords.shape[0]

    def snapshot(self, xi: int | None = None) -> Snapshot:
        return snapshot(self.sys, self.coords, self.n_scale, self.t, xi)

    def run(self, checkpoint_times, xi: int | None = None) -> list[Snapshot]:
        """Advance through the given times, with a snapshot at each.

        Each checkpoint interval is one thinned Poisson batch of edges on
        the run's starting rows, contracted into the current clusters (see
        the module docstring).  After each checkpoint ``coords`` holds each
        cluster's row sum, ordered by the cluster's lowest starting row, and
        ``merges`` and ``events`` are updated.  Checkpoints must be finite
        and not before the current time.  Below two particles nothing
        happens, so the remaining checkpoints freeze.
        """
        times = check_times(checkpoint_times, self.t)
        # bincount copies a strided column on every call, so the run keeps
        # the starting table by columns; coords becomes a view of them and
        # the row-major table is freed
        cols = np.ascontiguousarray(self.coords.T)
        rows = self.coords = cols.T
        cum, guide, pair_cum = envelope(self.sys, rows)
        merge_rate = 0.0
        if self.n_particles >= 2:
            merge_rate = 0.5 / self.n_scale * float(pair_cum[-1])
        if not math.isfinite(merge_rate):
            raise RateUnderflow(f"envelope rate {merge_rate} is not finite")
        clusters = self.n_particles
        labels = np.arange(clusters)  # cluster of each row
        out: list[Snapshot] = []
        for target in times:
            if merge_rate > 0.0 and target > self.t:
                count = int(self.rng.poisson(merge_rate * (target - self.t)))
                while count and clusters >= 2:
                    size = min(count, _CHUNK)
                    count -= size
                    self.events += size
                    p, q, keep = envelope_proposals(
                        self.rng, self.sys, rows, cum, guide, pair_cum, size
                    )
                    labels, clusters = contract(labels, clusters, p[keep], q[keep])
            self.t = target
            self.merges += self.n_particles - clusters
            self.coords = _cluster_sums(cols, labels, clusters)
            out.append(self.snapshot(xi))
        return out

    def dump_state(self, path) -> None:
        """Write the particle table in the documented binary layout; the
        rate factor slot holds 1, as the rates are the system's."""
        header = _MAGIC + struct.pack(
            _HEADERS[2],
            2,
            self.sys.n,
            self.sys.m,
            self.n_scale,
            self.t,
            1.0,
            self.n_particles,
        )
        try:
            with open(path, "wb") as fh:
                fh.write(header)
                fh.write(self.coords.astype("<f8").tobytes())
        except OSError as exc:
            raise SchemaError(str(path), f"cannot write dump: {exc.strerror}") from None


def load_state(
    sys: BilinearSystem, path, seed: int | np.random.SeedSequence
) -> ParticleSystem:
    """Rebuild a ParticleSystem from a dump; randomness restarts from seed.
    :meth:`ParticleSystem.dump_state` writes 1 in the rate factor slot; a
    dump whose slot holds another factor runs on ``sys.scaled(slot)``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SchemaError(str(path), f"cannot read dump: {exc.strerror}") from None
    if blob[:5] != _MAGIC:
        raise SchemaError(str(path), "not a particle dump (bad magic)")
    off = 5 + struct.calcsize(_HEADERS[2])  # the same size in every version
    if len(blob) < off:
        raise SchemaError(str(path), f"truncated dump: {len(blob)}-byte header")
    if blob[5] not in _HEADERS:
        raise SchemaError(str(path), f"unsupported dump version {blob[5]}")
    _, n, m, n_scale, t, rate_scale, count = struct.unpack(
        _HEADERS[blob[5]], blob[5:off]
    )
    if (n, m) != (sys.n, sys.m):
        raise SchemaError(
            str(path), f"dump is for n={n}, m={m}; system has {sys.n}, {sys.m}"
        )
    width = 1 + n + m
    end = off + 8 * count * width
    if len(blob) < end:
        raise SchemaError(str(path), f"truncated dump: fewer than {count} rows")
    if len(blob) > end:
        raise SchemaError(str(path), f"{len(blob) - end} bytes after the {count} rows")
    coords = np.frombuffer(
        blob, dtype="<f8", count=count * width, offset=off
    ).reshape(count, width)
    rng = np.random.default_rng(seed)
    try:
        if rate_scale != 1.0:
            sys = sys.scaled(rate_scale)
        return ParticleSystem(sys, coords, n_scale, rng, t=t)
    except ValueError as exc:
        raise SchemaError(str(path), str(exc)) from None


def init_poisson(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n_scale: float,
    seed: int | np.random.SeedSequence,
) -> ParticleSystem:
    """Poissonized start: particle count ~ Poisson(n_scale * total mass),
    data i.i.d. from the normalized measure."""
    # divided, not multiplied: n_scale may be an integer past the double range
    if n_scale > _MAX_PARTICLES / measure.total_mass:
        raise BudgetExceeded(
            f"N = {n_scale} times mass {measure.total_mass:.3g} exceeds "
            f"the particle budget {_MAX_PARTICLES}"
        )
    _check_scale(n_scale)
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n_scale * measure.total_mass))
    if count == 0:
        coords = np.zeros((0, 1 + sys.n + sys.m))
    else:
        coords = sample_atoms(measure, count, rng)
    return ParticleSystem(sys, coords, n_scale, rng)


class DirectPairSimulator:
    """Quadratic-cost reference: explicit per-pair rates, no envelope.

    Statistically identical to ParticleSystem; used to validate the
    thinning construction on small populations.
    """

    def __init__(
        self,
        sys: BilinearSystem,
        coords: np.ndarray,
        n_scale: float,
        rng: np.random.Generator,
    ):
        self.coords = _check_table(sys, coords)
        _check_scale(n_scale)
        self.sys = sys
        self.n_scale = float(n_scale)
        self.rng = rng
        self.t = 0.0

    @property
    def n_particles(self) -> int:
        return self.coords.shape[0]

    def _pair_rates(self):
        """The merge rate of each unordered pair of rows and the pairs'
        upper-triangle indices."""
        pts = self.coords[:, 1:]
        iu = np.triu_indices(self.n_particles, k=1)
        kbar = pair_rates(self.sys, pts[iu[0]], pts[iu[1]])[0]
        return kbar * (1.0 / self.n_scale), iu

    def run(self, checkpoint_times, xi: int | None = None) -> list[Snapshot]:
        """Advance through the given times, one merge event at a time, with
        a snapshot at each; checkpoints must be finite and not before the
        current time.  A merge adds row q into row p < q and deletes row q,
        so rows stay ordered by each cluster's lowest starting row."""
        times = check_times(checkpoint_times, self.t)
        out = []
        for target in times:
            while self.n_particles >= 2:
                rates, iu = self._pair_rates()
                total = float(rates.sum())
                if total <= 0.0:
                    break
                wait = self.rng.standard_exponential() / total
                if self.t + wait > target:
                    break
                self.t += wait
                pick = self.rng.random() * total
                idx = int(np.searchsorted(np.cumsum(rates), pick, side="right"))
                idx = min(idx, rates.size - 1)
                p, q = int(iu[0][idx]), int(iu[1][idx])
                self.coords[p] += self.coords[q]
                self.coords = np.delete(self.coords, q, axis=0)
            self.t = target
            out.append(snapshot(self.sys, self.coords, self.n_scale, self.t, xi))
        return out
