"""Truncated Flory dynamics on a finite composition space.

Types are integer composition vectors over the initial species, kept while
their conserved-coordinate size (sum of the plus block) is within ``xi``; a
merge product beyond it leaves for the gel, which also absorbs resolved
particles at the bilinear rate against its data.  Sol plus gel data is
conserved, so a type's loss rate ``loss_c`` is constant and linear in ``c``.

The equation is solved in closed form.  With ``N_c = sum_s c_s`` particles,

    n_c(t) = w_c t^(N_c - 1) e^(-loss_c t),   w_c = T_K(c) prod_s n0_s^c_s / c_s!,

where ``T_K(c)`` sums, over the spanning trees on c's particles, the product
of the species pair rates ``K_ss'`` on their edges.  It holds because
``e^(-loss_c t)`` leaves every gain term (``loss`` is linear) and cutting one
of a tree's ``N_c - 1`` edges leaves two trees joined by one pair:
``(N_c - 1) w_c = 1/2 sum_{a+b=c} K(a, b) w_a w_b``.  By the matrix-tree
theorem ``T_K(c) = prod_s d_s^(c_s - 1) det(L_-j) / c_j`` over the species
present, with ``d = K c``, ``L`` of zero row sums and ``L_ss' = -K_ss' c_s'``
off the diagonal, and ``L_-j`` without species ``j``.  One species gives
Cayley's ``K^(N-1) N^(N-2)``; the multiplicative kernel, Flory-Stockmayer's
``n_k = k^(k-2) t^(k-1) e^(-kt) / k!``.  Evaluated in logs, no density
overflows or goes negative.  The gel is read off by conservation,
``(n0 - n) . coords``, and decreases to the fixed-point gel as xi grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BudgetExceeded
from .system import AtomicMeasure, BilinearSystem, GelData, check_times, pair_rates

# candidate pairs tested at once by TruncatedFlory._build_pairs
_PAIR_BLOCK = 1 << 20
# a size within this fraction above xi is kept: rounding of the summed sizes
_XI_SLACK = 1e-12


def enumerate_types(
    measure: AtomicMeasure, xi: float, max_types: int = 100_000
) -> list[tuple[int, ...]]:
    """All compositions over the measure's species with plus-size <= xi.

    Sorted by (size, composition), sizes equal up to rounding counting as
    one, so downstream indexing is reproducible in any coordinate unit.
    Raises BudgetExceeded when the space outgrows ``max_types``.
    """
    sizes = measure.coords[:, 1 : 1 + measure.n].sum(axis=1).tolist()
    if not sizes:
        return []
    if min(sizes) <= 0.0:
        raise BudgetExceeded(
            "a species with zero conserved size makes the truncated space infinite"
        )
    limit = xi * (1.0 + _XI_SLACK)
    # the smallest size from each species on: where it does not fit, every
    # later count is 0 and the composition is complete
    floor = [*accumulate(reversed(sizes), min)][::-1] + [math.inf]
    found: list[tuple[float, tuple[int, ...]]] = []
    # depth first over (next species, size so far, counts so far)
    stack = [(0, 0.0, ())]
    while stack:
        species, used, counts = stack.pop()
        c = 0
        while (size := used + c * sizes[species]) <= limit:
            comp = counts + (c,)
            c += 1
            if size + floor[species + 1] <= limit:
                stack.append((species + 1, size, comp))
            elif size > 0.0:  # sizes are positive: not the empty composition
                found.append((size, comp + (0,) * (len(sizes) - len(comp))))
                if len(found) > max_types:
                    raise BudgetExceeded(
                        f"more than {max_types} compositions below xi={xi}"
                    )
    found.sort()
    # sizes within the rounding slack of a group's smallest are one size,
    # ordered by composition, so the order does not read the coordinate unit
    groups: list[list[tuple[int, ...]]] = []
    for used, comp in found:
        if not groups or used > first + xi * _XI_SLACK:
            first = used
            groups.append([])
        groups[-1].append(comp)
    return [comp for group in groups for comp in sorted(group)]


@dataclass(frozen=True)
class TruncatedState:
    """Resolved densities plus the gel they have lost, at one time."""

    t: float
    densities: np.ndarray
    gel: GelData
    phi_sol: float


class TruncatedFlory:
    """Precomputed generator of the truncated dynamics for one (measure, xi)."""

    # no density is ever clamped; perfbench's tracer still reads this
    clamped = 0.0

    def __init__(
        self,
        sys: BilinearSystem,
        measure: AtomicMeasure,
        xi: float,
        max_types: int = 100_000,
        max_pairs: int = 2_000_000,
    ):
        if not (measure.coords[:, 0] == 1.0).all():
            raise ValueError("truncated dynamics start from an initial measure")
        self.sys = sys
        self.xi = float(xi)
        self.types = enumerate_types(measure, xi, max_types)
        species = measure.coords  # (k, 1+n+m)
        too_big = species[:, 1 : 1 + sys.n].sum(axis=1).max() > xi * (1.0 + _XI_SLACK)
        if not self.types or too_big:
            raise ValueError(
                f"xi={xi} excludes an initial species; nothing to resolve"
            )
        self.index = {comp: i for i, comp in enumerate(self.types)}
        comp_mat = np.array(self.types, dtype=float)
        self.coords = comp_mat @ species  # type data rows, pi0 included
        self.sizes = self.coords[:, 1 : 1 + sys.n].sum(axis=1)
        self.phi_vec = self.coords[:, 0] + self.sizes
        self._measure = measure
        # a spanning tree's edges: initial particles per type, less one
        self._edges = comp_mat.sum(axis=1) - 1.0
        # each species starts as its own singleton type
        dens0 = np.where(self._edges == 0.0, comp_mat @ measure.weight_array, 0.0)
        self.initial_densities = dens0
        self._build_pairs(max_pairs)
        # sol plus gel data is conserved, so each type's total merge rate
        # against it is fixed by the initial densities
        rate = self.coords[:, 1:]
        self._loss = rate @ (sys.block @ (dens0 @ rate))

    def _build_pairs(self, max_pairs: int) -> None:
        """Every in-range pair (i, j >= i) with the type its merge makes.

        A composition is read as a mixed-radix number, one digit per species,
        and after each digit the prefix is replaced by its rank among the
        types' prefixes, so keys stay below ``T * radix`` for any number of
        species.  A merged composition is a type when every digit is in
        range and every prefix is found.
        """
        rate = self.coords[:, 1:]
        digits = np.array(self.types, dtype=np.int64).T  # one row per species
        radix = digits.max(axis=1) + 1
        levels = []
        rank = np.zeros(digits.shape[1], dtype=np.int64)
        for digit, base in zip(digits, radix):
            key = rank * base + digit
            levels.append(np.unique(key))
            rank = np.searchsorted(levels[-1], key)
        type_of_rank = np.argsort(rank)  # the ranks are a permutation
        t_count = len(rank)
        block = max(1, _PAIR_BLOCK // t_count)
        ix, iy, iz = [], [], []
        count = 0
        for start in range(0, t_count, block):
            # candidate pairs (i, j >= i) of these rows, in (i, j) order
            sizes = self.sizes[start : start + block, None] + self.sizes[None, start:]
            i, j = np.nonzero(np.triu(sizes <= self.xi * (1.0 + _XI_SLACK)))
            i += start
            j += start
            found = np.ones(len(i), dtype=bool)
            rank = np.zeros(len(i), dtype=np.int64)
            for digit, base, level in zip(digits, radix, levels):
                merged = digit[i] + digit[j]
                key = rank * base + merged
                rank = np.minimum(np.searchsorted(level, key), len(level) - 1)
                found &= (merged < base) & (level[rank] == key)
            # a merged composition not found fell out of range (float edge)
            count += int(found.sum())
            if count > max_pairs:
                raise BudgetExceeded(
                    f"more than {max_pairs} in-range pairs at xi={self.xi}"
                )
            ix.append(i[found])
            iy.append(j[found])
            iz.append(type_of_rank[rank[found]])
        self._ix, self._iy, self._iz = map(np.concatenate, (ix, iy, iz))
        kv = pair_rates(self.sys, rate[self._ix], rate[self._iy])[0]
        self._pair_rate = np.where(self._ix == self._iy, 0.5, 1.0) * kv

    def _rhs(self, t: float, n: np.ndarray) -> np.ndarray:
        flux = n[self._ix]
        flux *= n[self._iy]
        flux *= self._pair_rate
        gain = np.bincount(self._iz, weights=flux, minlength=len(n))
        return gain - n * self._loss

    def _log_weights(self) -> np.ndarray:
        """``log w_c`` of every type (-inf for a tree weight 0), by groups of
        types with ``p`` species present and ``p x p`` Laplacians.  ``K_ss'``
        is clipped at 0; ``_build_pairs`` has checked each entry used."""
        digits = np.array(self.types, dtype=np.int64)
        width = (digits > 0).sum(axis=1)
        log_fact = np.array([math.lgamma(c + 1.0) for c in range(digits.max() + 1)])
        log_n0 = np.log(self._measure.weight_array)
        log_w = np.empty(len(digits))
        for p in np.unique(width).tolist():
            rows = np.flatnonzero(width == p)
            species = np.nonzero(digits[rows])[1].reshape(-1, p)
            counts = digits[rows[:, None], species]
            c = counts.astype(float)
            x = self._measure.coords[species, 1:]
            k = np.maximum(x @ self.sys.block @ np.swapaxes(x, 1, 2), 0.0)
            eye = np.eye(p, dtype=bool)
            lap = np.where(eye, 0.0, -k * c[:, None, :])  # -K_ss' c_s' off the diagonal
            lap[:, eye] = -lap.sum(axis=2)  # and zero row sums
            # the cofactor of the first present species
            sign, log_det = np.linalg.slogdet(lap[:, 1:, 1:])
            d = np.einsum("gab,gb->ga", k, c)
            with np.errstate(divide="ignore"):
                log_d = np.log(d, out=np.zeros_like(d), where=counts > 1)
            terms = c * log_n0[species] - log_fact[counts] + (c - 1.0) * log_d
            log_det = np.where(sign > 0.0, log_det, -np.inf) - np.log(c[:, 0])
            log_w[rows] = terms.sum(axis=1) + log_det
        return log_w

    def _state(self, t: float, n: np.ndarray) -> TruncatedState:
        g = (self.initial_densities - n) @ self.coords
        # M and E of what was lost are nonnegative; P is signed
        np.maximum(g[: 1 + self.sys.n], 0.0, out=g[: 1 + self.sys.n])
        return TruncatedState(
            t=t, densities=n, gel=GelData(g), phi_sol=float(n @ self.phi_vec)
        )

    def integrate(self, t_end: float, outputs=None) -> list[TruncatedState]:
        """States at ``outputs`` (default: only ``t_end``), by the closed
        form; at t = 0 the densities are the initial ones."""
        out = sorted(set(check_times([t_end, *([] if outputs is None else outputs)])))
        log_w = self._log_weights()
        return [
            self._state(t, np.exp(log_w + self._edges * math.log(t) - self._loss * t)
                        if t > 0.0 else self.initial_densities.copy())
            for t in out
        ]

    def conserved_total(self, state: TruncatedState) -> float:
        """phi of everything, resolved or not; constant in time."""
        g = state.gel.g
        return state.phi_sol + float(g[0] + g[1 : 1 + self.sys.n].sum())

    def density_map(self, state: TruncatedState) -> dict[tuple[int, ...], float]:
        return dict(zip(self.types, state.densities.tolist()))


def integrate_truncated(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    xi: float,
    t_end: float,
    outputs=None,
) -> list[TruncatedState]:
    """One-call convenience wrapper around :class:`TruncatedFlory`."""
    return TruncatedFlory(sys, measure, xi).integrate(t_end, outputs=outputs)
