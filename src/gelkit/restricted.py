"""Truncated Flory dynamics on a finite composition space.

Types are integer composition vectors over the initial species: merging is
exact integer bookkeeping, so closure under merge is trivial to test.  A
composition is kept while its conserved-coordinate size (sum of the plus
block) stays within the truncation threshold ``xi``; a merge product beyond
the threshold leaves the resolved system for the gel, and the gel also
absorbs resolved particles directly, at the bilinear rate against its data.
Sol plus gel data is conserved and the kernel is bilinear in it, so every
type's total loss rate is a constant coefficient of its density, fixed by
the initial data: the Flory equation.  The one-type reduction shows it:
u' = -u(u+g), u+g = 1, so the monomer density is e^-t.

The state is therefore the resolved densities alone, and the gel is read
off at each output by conservation, as the data the densities have lost:
``(n0 - n) . coords``.  A density that rounds below zero is clamped to zero
after its step; conservation books the amount clamped against the gel, so
the conserved total still holds, and ``clamped`` sums it.

As xi grows, resolved densities increase and the truncated gel decreases,
converging to the fixed-point gel of the survival module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _rk
from .errors import BudgetExceeded, ToleranceFailure
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
    k = len(sizes)
    found: list[tuple[float, tuple[int, ...]]] = []
    counts = [0] * k

    def grow(species: int, used: float) -> None:
        if species == k:
            if counts != [0] * k:
                found.append((used, tuple(counts)))
                if len(found) > max_types:
                    raise BudgetExceeded(
                        f"more than {max_types} compositions below xi={xi}"
                    )
            return
        c = 0
        while used + c * sizes[species] <= xi * (1.0 + _XI_SLACK):
            counts[species] = c
            grow(species + 1, used + c * sizes[species])
            c += 1
        counts[species] = 0

    grow(0, 0.0)
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
        t_count = len(self.types)
        self.index = {comp: i for i, comp in enumerate(self.types)}
        comp_mat = np.array(self.types, dtype=float)
        self.coords = comp_mat @ species  # type data rows, pi0 included
        self.sizes = self.coords[:, 1 : 1 + sys.n].sum(axis=1)
        self.phi_vec = self.coords[:, 0] + self.sizes
        # initial densities: each species starts as its own singleton type
        dens0 = np.zeros(t_count)
        for a_idx, w in enumerate(measure.weight_array):
            comp = tuple(1 if j == a_idx else 0 for j in range(len(measure)))
            dens0[self.index[comp]] += w
        self.initial_densities = dens0
        self._build_pairs(max_pairs)
        # sol plus gel data is conserved, so each type's total merge rate
        # against it is fixed by the initial densities
        rate = self.coords[:, 1:]
        self._loss = rate @ (sys.block @ (dens0 @ rate))
        self.clamped = 0.0

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
        type_of_rank = np.empty(len(rank), dtype=np.intp)
        type_of_rank[rank] = np.arange(len(rank))
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
        self._ix = np.concatenate(ix)
        self._iy = np.concatenate(iy)
        self._iz = np.concatenate(iz)
        kv = pair_rates(self.sys, rate[self._ix], rate[self._iy])[0]
        coeff = np.where(self._ix == self._iy, 0.5, 1.0)
        self._pair_rate = coeff * kv

    def _rhs(self, t: float, n: np.ndarray) -> np.ndarray:
        flux = n[self._ix]
        flux *= n[self._iy]
        flux *= self._pair_rate
        gain = np.bincount(self._iz, weights=flux, minlength=len(n))
        return gain - n * self._loss

    def _accept(self, t: float, n: np.ndarray):
        low = float(n.min())
        if low >= 0.0:
            return None
        scale = max(1.0, float(n.max()))
        if low < -1e-6 * scale:
            raise ToleranceFailure(
                f"density {low} fell far below zero at t={t}"
            )
        negative = n < 0.0
        self.clamped -= float(n[negative].sum())
        n[negative] = 0.0
        return n

    def _state(self, t: float, n: np.ndarray) -> TruncatedState:
        g = (self.initial_densities - n) @ self.coords
        # M and E of what was lost are nonnegative; P is signed
        np.maximum(g[: 1 + self.sys.n], 0.0, out=g[: 1 + self.sys.n])
        return TruncatedState(
            t=t, densities=n, gel=GelData(g), phi_sol=float(n @ self.phi_vec)
        )

    def integrate(self, t_end: float, outputs=None) -> list[TruncatedState]:
        """Trajectory from t=0; returns states at ``outputs`` (default: only
        ``t_end``)."""
        out = sorted(set(check_times([t_end, *([] if outputs is None else outputs)])))
        traj = _rk.integrate(
            self._rhs,
            0.0,
            self.initial_densities,
            t_end,
            rtol=1e-10,
            atol=1e-14,
            outputs=out,
            accept_cb=self._accept,
            max_steps=200_000,
        )
        return [self._state(t, y) for t, y in zip(traj.ts, traj.ys)]

    def conserved_total(self, state: TruncatedState) -> float:
        """phi of everything, resolved or not; constant in time."""
        g = state.gel.g
        return state.phi_sol + float(g[0] + g[1 : 1 + self.sys.n].sum())

    def density_map(self, state: TruncatedState) -> dict[tuple[int, ...], float]:
        return {
            comp: float(state.densities[i]) for comp, i in self.index.items()
        }


def integrate_truncated(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    xi: float,
    t_end: float,
    outputs=None,
) -> list[TruncatedState]:
    """One-call convenience wrapper around :class:`TruncatedFlory`."""
    return TruncatedFlory(sys, measure, xi).integrate(t_end, outputs=outputs)
