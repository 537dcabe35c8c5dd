"""Finite-N pair-merge simulator, exact in law.

Particles are rows of a coordinate array; an unordered pair merges at rate
``rate_scale * kbar(x, y) / n_scale``.  Because the sign-odd block makes
``kbar`` non-factorizable, proposals are drawn from the entrywise-absolute
envelope ``khat(x, y) = sum |a_kl| |pi_k(x)| |pi_l(y)| >= kbar`` (which does
factorize) and thinned by the exact ratio.

Without a hook, ``run`` never steps event by event.  The kernel is bilinear,
so two clusters merge at the summed rate of their member pairs, and the
clusters at time t are the connected components of a random graph on the
run's starting rows whose edge {i, j} arrives at rate ``rate_scale *
kbar(x_i, x_j) / n_scale``.  Each checkpoint interval draws a Poisson batch
of pair proposals from the static envelope of the starting rows, keeps each
with probability ``kbar / khat`` and contracts the kept edges into the
current clusters, in fixed-size chunks; a run costs O(P + proposals).
``events`` counts these static-envelope proposals.

``step()`` and runs with a per-particle jump hook (internal evolution that
preserves the conserved block, on the same clock via its own envelope
channel) use the sequential event loop instead, because a hook changes
signed coordinates and so the envelope weights.  It keeps one Fenwick tree
per rate coordinate over absolute values, built on first use, so an event
costs O((n+m) log P).  Rejected proposals advance time only; that, plus
memoryless redraws at checkpoints, keeps the law exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    BudgetExceeded,
    HookViolatesConservation,
    NegativeRate,
    RateUnderflow,
    SchemaError,
    ToleranceFailure,
)
from .fenwick import FenwickTree
from .system import AtomicMeasure, BilinearSystem, GelData, sample_atoms

_BUFFER = 8192
# proposals drawn and contracted at a time by the hook-free run
_CHUNK = 1 << 15
_RESYNC_DEFAULT = 1 << 20
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


def envelope(sys: BilinearSystem, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The static proposal law on a table of rows: the cumulative |x_k| of
    the rows per rate coordinate, (d, P), and the cumulative weights
    ``|a_kl| s_k s_l`` (s_k the total |x_k|) of the nonzero envelope entries
    in ``np.nonzero(sys.block_abs)`` order, which sum to ``sum_pq khat``."""
    cum = np.cumsum(np.abs(rows[:, 1:].T), axis=1)
    s = cum[:, -1] if rows.shape[0] else np.zeros(sys.dim)
    kk, ll = np.nonzero(sys.block_abs)
    return cum, np.cumsum(sys.block_abs[kk, ll] * s[kk] * s[ll])


def _pair_rates(sys: BilinearSystem, rp, rq, real) -> tuple[np.ndarray, np.ndarray]:
    """``kbar`` and ``khat`` of row pairs; NegativeRate if a ``real`` pair's
    ``kbar`` is below ``-1e-9 khat``, beyond rounding."""
    kbar = np.einsum("ij,jk,ik->i", rp, sys.block, rq)
    khat = np.einsum("ij,jk,ik->i", np.abs(rp), sys.block_abs, np.abs(rq))
    bad = real & (kbar < -1e-9 * khat)
    if bad.any():
        raise NegativeRate(
            f"negative merge rate {kbar[bad].min()} encountered in simulation"
        )
    return kbar, khat


def _draw_rows(rng: np.random.Generator, cum: np.ndarray, coord: np.ndarray) -> np.ndarray:
    """One row per proposal, with probability |x_k| / s_k for its coordinate k."""
    u = rng.random(coord.size)
    out = np.empty(coord.size, dtype=np.intp)
    for k in range(cum.shape[0]):
        sel = coord == k
        if sel.any():
            out[sel] = np.searchsorted(cum[k], u[sel] * cum[k, -1], side="right")
    # a draw that rounds onto the total picks the last row, as find does
    return np.minimum(out, cum.shape[1] - 1, out=out)


def envelope_proposals(rng, sys, rows, cum, pair_cum, size: int):
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
    p = _draw_rows(rng, cum, kk[pick])
    q = _draw_rows(rng, cum, ll[pick])
    keep = p != q
    if sys.m:
        kbar, khat = _pair_rates(sys, rows[p, 1:], rows[q, 1:], keep)
        keep &= rng.random(size) * khat < kbar
    return p, q, keep


def contract(
    labels: np.ndarray, clusters: int, p: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, int]:
    """Join the clusters of rows p[i] and q[i]: the new labels and count.

    ``connected_components`` numbers components by their lowest node, so
    labels stay ordered by each cluster's lowest row.
    """
    a, b = labels[p], labels[q]
    cross = a != b
    if not cross.any():
        return labels, clusters
    graph = csr_matrix(
        (np.ones(int(cross.sum())), (a[cross], b[cross])),
        shape=(clusters, clusters),
    )
    clusters, comp = connected_components(graph, directed=False)
    return comp[labels], clusters


@dataclass(frozen=True)
class Snapshot:
    """Observables of the particle population at one time."""

    t: float
    n_particles: int
    xi: int
    first: np.ndarray  # per-capita sums of all coordinates
    q: np.ndarray  # per-capita conserved second moments, all particles
    z: np.ndarray  # per-capita <pi0 * (pi0, plus)>, all particles
    q_sol: np.ndarray  # as q, excluding the largest particle
    z_sol: np.ndarray
    gel_largest: GelData  # largest particle's data / n_scale
    gel_threshold: GelData  # summed data of particles with pi0 >= xi, / n_scale
    size_values: np.ndarray  # distinct pi0 values among particles
    size_counts: np.ndarray


@dataclass(frozen=True)
class StepRecord:
    """Outcome of one proposed event."""

    t: float
    kind: str  # "merge" or "hook"
    p: int
    q: int
    accepted: bool


def snapshot(
    sys: BilinearSystem,
    rows: np.ndarray,
    n_scale: float,
    t: float,
    xi: int | None = None,
) -> Snapshot:
    """Observables of a table of live particle rows at time t."""
    if xi is None:
        xi = int(np.ceil(np.sqrt(n_scale)))
    n = sys.n
    inv = 1.0 / n_scale
    first = rows.sum(axis=0) * inv
    plus = rows[:, 1 : 1 + n]
    q_all = (plus.T @ plus) * inv
    pi0 = rows[:, 0]
    z_all = np.concatenate(([float(pi0 @ pi0)], pi0 @ plus)) * inv
    # largest particle: most absorbed, then largest phi, then first index
    if rows.shape[0]:
        top = np.flatnonzero(pi0 == pi0.max())
        if top.size > 1:
            phi = pi0[top] + plus[top].sum(axis=1)
            top = top[phi == phi.max()]
        big = int(top[0])
        big_row = rows[big]
        sol = np.delete(rows, big, axis=0)
    else:
        big_row = np.zeros(1 + sys.dim)
        sol = rows
    plus_sol = sol[:, 1 : 1 + n]
    q_sol = (plus_sol.T @ plus_sol) * inv
    pi0_sol = sol[:, 0]
    z_sol = np.concatenate(([float(pi0_sol @ pi0_sol)], pi0_sol @ plus_sol)) * inv
    heavy = rows[pi0 >= xi]
    gel_threshold = GelData(
        heavy.sum(axis=0) * inv if heavy.size else np.zeros(1 + sys.dim)
    )
    values, counts = np.unique(pi0.astype(np.int64), return_counts=True)
    return Snapshot(
        t=t,
        n_particles=int(rows.shape[0]),
        xi=int(xi),
        first=first,
        q=q_all,
        z=z_all,
        q_sol=q_sol,
        z_sol=z_sol,
        gel_largest=GelData(big_row * inv),
        gel_threshold=gel_threshold,
        size_values=values,
        size_counts=counts,
    )


class ParticleSystem:
    """Mutable simulation state; one instance per thread."""

    def __init__(
        self,
        sys: BilinearSystem,
        coords: np.ndarray,
        n_scale: float,
        rng: np.random.Generator,
        rate_scale: float = 1.0,
        t: float = 0.0,
        resync_interval: int = _RESYNC_DEFAULT,
    ):
        coords = np.array(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 1 + sys.n + sys.m:
            raise ValueError("coords must be (P, 1+n+m)")
        if n_scale <= 0:
            raise ValueError("n_scale must be positive")
        self.sys = sys
        self.coords = coords
        self.n_scale = float(n_scale)
        self.rate_scale = float(rate_scale)
        self.t = float(t)
        self.rng = rng
        self.resync_interval = int(resync_interval)
        self.capacity = coords.shape[0]
        self.alive = np.ones(self.capacity, dtype=bool)
        self.n_particles = self.capacity
        self.events = 0
        self.merges = 0
        self.s_hat = np.abs(coords[:, 1:]).sum(axis=0)
        # the sequential loop's index, built by _index on first use
        self._abs: np.ndarray | None = None
        self.trees: list[FenwickTree] | None = None
        # nonzero envelope entries, upper triangle doubled into full weight
        kk, ll = np.nonzero(sys.block_abs)
        self._env_k = kk
        self._env_l = ll
        self._env_a = sys.block_abs[kk, ll]
        self._u_buf = np.empty(0)
        self._u_pos = 0
        self._e_buf = np.empty(0)
        self._e_pos = 0
        self._hook = None
        self._hook_bound = 0.0
        self._hook_rate_fn = None
        self._phi_tree: FenwickTree | None = None

    # -- randomness ---------------------------------------------------

    def _uniform(self) -> float:
        if self._u_pos >= self._u_buf.size:
            self._u_buf = self.rng.random(_BUFFER)
            self._u_pos = 0
        u = self._u_buf[self._u_pos]
        self._u_pos += 1
        return float(u)

    def _exponential(self) -> float:
        if self._e_pos >= self._e_buf.size:
            self._e_buf = self.rng.standard_exponential(_BUFFER)
            self._e_pos = 0
        e = self._e_buf[self._e_pos]
        self._e_pos += 1
        return float(e)

    # -- rates ---------------------------------------------------------

    def merge_envelope_rate(self) -> float:
        s = self.s_hat
        return (
            0.5
            * self.rate_scale
            / self.n_scale
            * float(self._env_a @ (s[self._env_k] * s[self._env_l]))
        )

    def hook_envelope_rate(self) -> float:
        if self._hook is None:
            return 0.0
        self._index()
        return self._hook_bound * self._phi_tree.total

    # -- hook ----------------------------------------------------------

    def set_hook(self, hook, rate_bound: float, rate_fn=None) -> None:
        """Enable per-particle jumps at rate <= rate_bound * phi(x).

        ``hook(t, row)`` returns the particle's new coordinate row; it must
        leave coordinates 0..n (absorbed count and conserved block) exactly
        unchanged.  ``rate_fn(row)``, if given, is the actual jump rate and
        is thinned against the bound.
        """
        if rate_bound < 0:
            raise ValueError("rate bound must be nonnegative")
        self._hook = hook
        self._hook_bound = float(rate_bound)
        self._hook_rate_fn = rate_fn
        if hook is not None and self.trees is not None and self._phi_tree is None:
            self._phi_tree = FenwickTree(self._phi().tolist())

    # -- sequential index ------------------------------------------------

    def _phi(self) -> np.ndarray:
        """Each particle's hook weight pi0 + sum(plus); 0 for dead slots."""
        phi = self.coords[:, 0] + self.coords[:, 1 : 1 + self.sys.n].sum(axis=1)
        phi[~self.alive] = 0.0
        return phi

    def _index(self) -> None:
        """Build the sequential loop's Fenwick trees and ``s_hat`` if stale."""
        if self.trees is not None:
            return
        self._abs = np.abs(self.coords[:, 1:])
        self._abs[~self.alive] = 0.0
        self.s_hat = self._abs.sum(axis=0)
        self.trees = [FenwickTree(col.tolist()) for col in self._abs.T]
        if self._hook is not None:
            self._phi_tree = FenwickTree(self._phi().tolist())

    # -- dynamics ------------------------------------------------------

    def _pick_coordinate_pair(self) -> tuple[int, int]:
        s = self.s_hat
        cum = np.cumsum(self._env_a * s[self._env_k] * s[self._env_l])
        idx = int(np.searchsorted(cum, self._uniform() * cum[-1], side="right"))
        idx = min(idx, cum.size - 1)
        return int(self._env_k[idx]), int(self._env_l[idx])

    def _apply_merge(self, p: int, q: int) -> None:
        coords = self.coords
        coords[p] += coords[q]
        coords[q] = 0.0
        new_abs = np.abs(coords[p, 1:])
        old_p = self._abs[p].copy()
        old_q = self._abs[q].copy()
        self._abs[p] = new_abs
        self._abs[q] = 0.0
        for k, tree in enumerate(self.trees):
            tree.set_value(p, float(new_abs[k]))
            tree.set_value(q, 0.0)
        self.s_hat += new_abs - old_p - old_q
        if self._phi_tree is not None:
            n = self.sys.n
            self._phi_tree.set_value(
                p, float(coords[p, 0] + coords[p, 1 : 1 + n].sum())
            )
            self._phi_tree.set_value(q, 0.0)
        self.alive[q] = False
        self.n_particles -= 1
        self.merges += 1

    def _apply_hook(self, p: int) -> bool:
        row = self.coords[p]
        if self._hook_rate_fn is not None:
            phi = float(row[0] + row[1 : 1 + self.sys.n].sum())
            actual = float(self._hook_rate_fn(row))
            if actual > self._hook_bound * phi * (1.0 + 1e-12):
                raise HookViolatesConservation(
                    f"hook rate {actual} exceeds bound {self._hook_bound}*phi"
                )
            if self._uniform() * self._hook_bound * phi >= actual:
                return False
        new_row = np.asarray(self._hook(self.t, row.copy()), dtype=float)
        if new_row.shape != row.shape:
            raise HookViolatesConservation("hook changed the coordinate layout")
        n = self.sys.n
        if not np.array_equal(new_row[: 1 + n], row[: 1 + n]):
            raise HookViolatesConservation(
                "hook modified the absorbed count or a conserved coordinate"
            )
        self.coords[p] = new_row
        new_abs = np.abs(new_row[1:])
        delta = new_abs - self._abs[p]
        self._abs[p] = new_abs
        for k in range(self.sys.n, self.sys.dim):
            if delta[k] != 0.0:
                self.trees[k].increment(p, float(delta[k]))
        self.s_hat += delta
        return True

    def _resync(self) -> None:
        self._abs[~self.alive] = 0.0
        fresh = self._abs.copy()
        fresh_sums = fresh.sum(axis=0)
        drift = np.abs(fresh_sums - self.s_hat)
        scale = np.maximum(1.0, fresh_sums)
        if np.any(drift > 1e-6 * scale):
            raise ToleranceFailure(
                f"coordinate-sum drift {drift.max():.3e} beyond 1e-6; "
                "float accumulation is unreliable at this scale"
            )
        self.s_hat = fresh_sums
        for k, tree in enumerate(self.trees):
            tree.rebuild(fresh[:, k].tolist())
        if self._phi_tree is not None:
            self._phi_tree.rebuild(self._phi().tolist())

    def _rates(self) -> tuple[float, float, float]:
        """Merge, hook and total envelope rates; no merge below two particles."""
        merge_rate = self.merge_envelope_rate() if self.n_particles >= 2 else 0.0
        hook_rate = self.hook_envelope_rate()
        total = merge_rate + hook_rate
        if not math.isfinite(total):
            raise RateUnderflow(f"envelope rate {total}; rates are not finite")
        return merge_rate, hook_rate, total

    def _propose(
        self, merge_rate: float, hook_rate: float, total: float
    ) -> tuple[str, int, int, bool]:
        """One proposed event at the current time: hook or merge, thinned.

        Returns ``(kind, p, q, accepted)``; the clock is the caller's.
        """
        self.events += 1
        if self.events % self.resync_interval == 0:
            self._resync()
        if hook_rate > 0.0 and self._uniform() * total >= merge_rate:
            p = self._phi_tree.find(self._uniform() * self._phi_tree.total)
            return "hook", p, p, self._apply_hook(p)
        k, l = (0, 0) if self._env_a.size == 1 else self._pick_coordinate_pair()
        tree_k, tree_l = self.trees[k], self.trees[l]
        p = tree_k.find(self._uniform() * tree_k.total)
        q = tree_l.find(self._uniform() * tree_l.total)
        if p == q or not (self.alive[p] and self.alive[q]):
            return "merge", p, q, False
        if self.sys.m:  # else the envelope is the kernel
            kbar, khat = _pair_rates(
                self.sys, self.coords[[p], 1:], self.coords[[q], 1:], True
            )
            if kbar[0] <= 0.0 or self._uniform() * khat[0] >= kbar[0]:
                return "merge", p, q, False
        self._apply_merge(p, q)
        return "merge", p, q, True

    def step(self) -> StepRecord:
        """Advance by exactly one proposed event (merge or hook attempt)."""
        self._index()
        merge_rate, hook_rate, total = self._rates()
        if total <= 0.0:
            raise RateUnderflow(f"envelope rate {total}; absorbing state")
        self.t += self._exponential() / total
        return StepRecord(self.t, *self._propose(merge_rate, hook_rate, total))

    # -- observables ----------------------------------------------------

    def snapshot(self, xi: int | None = None) -> Snapshot:
        return snapshot(self.sys, self.coords[self.alive], self.n_scale, self.t, xi)

    def run(self, checkpoint_times, xi: int | None = None) -> list[Snapshot]:
        """Advance through the given times, with a snapshot at each.

        Without a hook the run is one batched graph draw per checkpoint
        interval (see the module docstring); with one it is the sequential
        event loop.  Either way the state after each checkpoint (``coords``,
        ``alive``, ``n_particles``, ``merges``, ``events``) is what
        ``snapshot``, ``step`` and ``dump_state`` see.  An absorbing state
        (nothing left to happen) freezes the remaining checkpoints.
        """
        times = sorted(float(v) for v in checkpoint_times)
        if times and times[0] < self.t - 1e-12:
            raise ValueError("checkpoint before current time")
        if self._hook is None:
            return self._run_batched(times, xi)
        self._index()
        out: list[Snapshot] = []
        for target in times:
            # checkpoints are crossed by discarding the pending waiting
            # time and redrawing after the snapshot: exact by memorylessness
            while True:
                merge_rate, hook_rate, total = self._rates()
                if total <= 0.0:
                    break
                wait = self._exponential() / total
                if self.t + wait > target:
                    break
                self.t += wait
                self._propose(merge_rate, hook_rate, total)
            self.t = target
            out.append(self.snapshot(xi))
        return out

    def _run_batched(self, times: list[float], xi: int | None) -> list[Snapshot]:
        """Hook-free run: thinned Poisson edges on the starting rows, contracted."""
        # the run rewrites the table, so the sequential index goes stale
        self._abs = self.trees = self._phi_tree = None
        start = np.flatnonzero(self.alive)
        rows = self.coords[start]
        cum, pair_cum = envelope(self.sys, rows)
        self.s_hat = cum[:, -1].copy() if start.size else np.zeros(self.sys.dim)
        merge_rate = self._rates()[0]
        labels = np.arange(start.size, dtype=np.int32)  # cluster of each row
        clusters = start.size
        out: list[Snapshot] = []
        for target in times:
            if merge_rate > 0.0 and target > self.t:
                count = int(self.rng.poisson(merge_rate * (target - self.t)))
                while count and clusters >= 2:
                    size = min(count, _CHUNK)
                    count -= size
                    self.events += size
                    p, q, keep = envelope_proposals(
                        self.rng, self.sys, rows, cum, pair_cum, size
                    )
                    labels, clusters = contract(labels, clusters, p[keep], q[keep])
            self.t = target
            self._write_clusters(start, rows, labels, clusters)
            out.append(self.snapshot(xi))
        return out

    def _write_clusters(
        self, start: np.ndarray, rows: np.ndarray, labels: np.ndarray, clusters: int
    ) -> None:
        """Store each cluster's row sum at its lowest starting slot."""
        sums = np.empty((clusters, rows.shape[1]))
        for j in range(rows.shape[1]):
            sums[:, j] = np.bincount(labels, weights=rows[:, j], minlength=clusters)
        first = np.full(clusters, start.size, dtype=np.intp)
        np.minimum.at(first, labels, np.arange(start.size))
        slots = start[first]
        self.coords[start] = 0.0
        self.alive[start] = False
        self.coords[slots] = sums
        self.alive[slots] = True
        self.merges += self.n_particles - clusters
        self.n_particles = clusters
        self.s_hat = np.abs(sums[:, 1:]).sum(axis=0)

    # -- persistence -----------------------------------------------------

    def dump_state(self, path) -> None:
        """Write the particle table in the documented binary layout."""
        rows = self.coords[self.alive]
        header = _MAGIC + struct.pack(
            _HEADERS[2],
            2,
            self.sys.n,
            self.sys.m,
            self.n_scale,
            self.t,
            self.rate_scale,
            rows.shape[0],
        )
        try:
            with open(path, "wb") as fh:
                fh.write(header)
                fh.write(rows.astype("<f8").tobytes())
        except OSError as exc:
            raise SchemaError(str(path), f"cannot write dump: {exc.strerror}") from None


def load_state(
    sys: BilinearSystem, path, seed: int | np.random.SeedSequence
) -> ParticleSystem:
    """Rebuild a ParticleSystem from a dump; randomness restarts from seed."""
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
    for name, value in (("N", n_scale), ("rate_scale", rate_scale)):
        if not (math.isfinite(value) and value > 0.0):
            raise SchemaError(str(path), f"{name} = {value} is not positive and finite")
    if not (math.isfinite(t) and t >= 0.0):
        raise SchemaError(str(path), f"t = {t} is not nonnegative and finite")
    coords = np.frombuffer(
        blob, dtype="<f8", count=count * width, offset=off
    ).reshape(count, width)
    if not np.isfinite(coords).all() or (coords[:, 1 : 1 + n] < 0.0).any():
        raise SchemaError(
            str(path), "rows must be finite with nonnegative conserved coordinates"
        )
    rng = np.random.default_rng(seed)
    return ParticleSystem(
        sys, coords, n_scale, rng, rate_scale=rate_scale, t=t
    )


def init_poisson(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    n_scale: float,
    seed: int | np.random.SeedSequence,
    rate_scale: float = 1.0,
) -> ParticleSystem:
    """Poissonized start: particle count ~ Poisson(n_scale * total mass),
    data i.i.d. from the normalized measure."""
    if n_scale <= 0:
        raise ValueError("n_scale must be positive")
    if n_scale * measure.total_mass > _MAX_PARTICLES:
        raise BudgetExceeded(
            f"expected {n_scale * measure.total_mass:.3g} particles exceeds "
            f"the budget {_MAX_PARTICLES}"
        )
    rng = np.random.default_rng(seed)
    count = int(rng.poisson(n_scale * measure.total_mass))
    if count == 0:
        coords = np.zeros((0, 1 + sys.n + sys.m))
    else:
        coords = sample_atoms(measure, count, rng)
    return ParticleSystem(sys, coords, n_scale, rng, rate_scale=rate_scale)


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
        rate_scale: float = 1.0,
    ):
        self.sys = sys
        self.coords = np.array(coords, dtype=float)
        self.n_scale = float(n_scale)
        self.rate_scale = float(rate_scale)
        self.rng = rng
        self.t = 0.0
        self.alive = np.ones(self.coords.shape[0], dtype=bool)
        self.n_particles = self.coords.shape[0]

    def _pair_rates(self):
        rows = np.flatnonzero(self.alive)
        pts = self.coords[rows][:, 1:]
        mat = pts @ self.sys.block @ pts.T
        np.clip(mat, 0.0, None, out=mat)
        iu = np.triu_indices(rows.size, k=1)
        return rows, mat[iu] * (self.rate_scale / self.n_scale), iu

    def run(self, checkpoint_times, xi: int | None = None) -> list[Snapshot]:
        times = sorted(float(v) for v in checkpoint_times)
        out = []
        for target in times:
            while True:
                if self.n_particles < 2:
                    break
                rows, rates, iu = self._pair_rates()
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
                p = int(rows[iu[0][idx]])
                q = int(rows[iu[1][idx]])
                self.coords[p] += self.coords[q]
                self.coords[q] = 0.0
                self.alive[q] = False
                self.n_particles -= 1
            self.t = target
            out.append(
                snapshot(self.sys, self.coords[self.alive], self.n_scale, self.t, xi)
            )
        return out
