"""Core model: bilinear coagulation systems, particle types, atomic measures.

A system carries a symmetric block matrix ``diag(A_plus, A_par)`` acting on
particle data vectors.  A particle's data is

* ``pi0`` -- the number of initial particles it has absorbed (a positive
  integer; every initial particle starts with ``pi0 = 1``),
* ``plus`` -- ``n`` nonnegative conserved coordinates (mass, energy, ...),
* ``par`` -- ``m`` sign-odd coordinates (momentum, ...), negated by
  reflection.

The total merge rate of two particles is the bilinear form

    rate(x, y) = plus(x) . A_plus plus(y) + par(x) . A_par par(y)

which must be nonnegative wherever the dynamics can reach.  ``pi0`` does not
enter the rate; it is bookkeeping that the limit theory and all gel
observables are expressed in.

Array convention used across the package: particles as rows of shape
``(1 + n + m,)`` with column 0 = ``pi0``, columns ``1..n`` = ``plus``,
columns ``n+1..n+m`` = ``par``.  Merging two particles adds their rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NegativeRate, SchemaError

#: default tolerance for comparing floating coordinates
COORD_TOL = 1e-9

_SYMMETRY_TOL = 1e-12
# the least eigenvalue ratio of a nondegenerate correlation matrix
_GRAM_TOL = 1e-9

_FLOAT_MAX = float(np.finfo(float).max)

# pair rates check_hypotheses evaluates at once
_RATE_BLOCK = 1 << 16


def _as_matrix(a, size: int, name: str) -> np.ndarray:
    mat = np.asarray(a, dtype=float)
    if size == 0 and mat.size == 0:
        mat = mat.reshape(0, 0)  # accept [] as the empty matrix
    if mat.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    # halves: their difference and their sum cannot overflow near the double range
    half = mat / 2.0
    if mat.size and float(np.abs(half - half.T).max()) > _SYMMETRY_TOL * scale / 2.0:
        raise ValueError(f"{name} is not symmetric within {_SYMMETRY_TOL}")
    mat = half + half.T
    if not np.isfinite(mat).all():
        raise ValueError(f"{name} must be finite")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class BilinearSystem:
    """Interaction matrix and coordinate layout of a coagulation model.

    ``a_plus`` (``n x n``) couples the nonnegative conserved coordinates and
    must be entrywise nonnegative; ``a_par`` (``m x m``) couples the sign-odd
    coordinates.  No row of the block matrix may vanish.
    """

    n: int
    m: int
    a_plus: np.ndarray
    a_par: np.ndarray
    coordinate_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one conserved coordinate (n >= 1)")
        if self.m < 0:
            raise ValueError("m must be nonnegative")
        object.__setattr__(self, "a_plus", _as_matrix(self.a_plus, self.n, "a_plus"))
        object.__setattr__(self, "a_par", _as_matrix(self.a_par, self.m, "a_par"))
        if self.a_plus.min() < 0:
            raise ValueError("a_plus must be entrywise nonnegative")
        row_max = [np.abs(self.a_plus[i]).max() for i in range(self.n)]
        row_max += [np.abs(self.a_par[i]).max() for i in range(self.m)]
        if min(row_max) == 0.0:
            raise ValueError("no row of diag(a_plus, a_par) may be entirely zero")
        if not self.coordinate_names:
            names = ["absorbed"]
            names += [f"plus{i}" for i in range(1, self.n + 1)]
            names += [f"par{j}" for j in range(1, self.m + 1)]
            object.__setattr__(self, "coordinate_names", tuple(names))
        elif len(self.coordinate_names) != 1 + self.n + self.m:
            raise ValueError(
                f"coordinate_names must have length {1 + self.n + self.m}"
            )

    @property
    def dim(self) -> int:
        """Number of rate-carrying coordinates (n + m)."""
        return self.n + self.m

    def scaled(self, factor) -> "BilinearSystem":
        """The system with every merge rate multiplied by ``factor``: both
        blocks times the factor, the coordinate names kept.  Every time of
        the limit theory divides by the factor.  ValueError unless the
        factor is positive and finite, compared before it is converted, and
        unless the scaled blocks stay finite with no row rounded to 0."""
        if not 0 < factor <= _FLOAT_MAX:
            raise ValueError(f"rate factor {factor} must be positive and finite")
        with np.errstate(over="ignore"):
            a_plus, a_par = self.a_plus * float(factor), self.a_par * float(factor)
            if not (np.isfinite(a_plus).all() and np.isfinite(a_par).all()):
                raise ValueError(f"rate factor {factor} overflows the merge rates")
            return BilinearSystem(self.n, self.m, a_plus, a_par, self.coordinate_names)

    @cached_property
    def block(self) -> np.ndarray:
        """The full symmetric matrix diag(a_plus, a_par)."""
        a = np.zeros((self.dim, self.dim))
        a[: self.n, : self.n] = self.a_plus
        a[self.n :, self.n :] = self.a_par
        a.setflags(write=False)
        return a

    @cached_property
    def block_abs(self) -> np.ndarray:
        """Entrywise absolute value of :attr:`block`; the envelope matrix."""
        a = np.abs(self.block)
        a.setflags(write=False)
        return a


def pair_rates(
    sys: BilinearSystem, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge rates ``kbar`` and envelope rates ``khat`` of particle pairs.

    ``x`` and ``y`` hold rate coordinates, ``(..., n+m)`` (rows without
    ``pi0``), paired row by row; leading axes broadcast, so ``x[:, None]``
    against ``y[None]`` gives every pair.  ``khat = |x| . |A| |y|`` bounds
    ``kbar`` and its rounding error, so the one negative-rate rule is
    relative with no scale constant: :class:`NegativeRate` wherever
    ``kbar < -COORD_TOL * khat``.  The returned ``kbar`` is clipped at 0.
    """
    kbar = np.einsum("...j,...j->...", x @ sys.block, y)
    khat = np.einsum("...j,...j->...", np.abs(x) @ sys.block_abs, np.abs(y))
    bad = kbar < -COORD_TOL * khat
    if bad.any():
        raise NegativeRate(
            f"merge rate {kbar[bad].min():.6g} is below -{COORD_TOL} times its "
            "envelope rate: the kernel is not nonnegative on this support"
        )
    return np.maximum(kbar, 0.0), khat


def _is_time_array(values) -> bool:
    return (
        isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iuf"
    )


def time_array(values, start: float = 0.0, end: float = math.inf) -> np.ndarray:
    """The times as a float array in their given order, by the rule of
    :func:`check_times`.  A 1-d integer or float array is decided as a
    whole, in a few array passes, and returned as doubles without a sort."""
    if not _is_time_array(values):
        values = list(values)
        check_times(values, start, end)
        return np.array(values, dtype=float)
    x = values.astype(float, copy=False)
    ok = (start <= x) & (x <= min(end, _FLOAT_MAX))  # NaN fails both comparisons
    if not ok.all():
        v = values[np.argmin(ok)]
        raise ValueError(
            f"t = {v} must be finite, not before {start} and not after {end}"
        )
    return x


def check_times(values, start: float = 0.0, end: float = math.inf) -> list[float]:
    """The times as sorted floats; ValueError unless each is finite and lies in
    ``[start, end]``.  A Python integer is compared before it is converted,
    so one past the double range is refused, not an OverflowError; any other
    value is compared as the double it converts to, so a float32 value is not
    checked against bounds rounded to float32.  A 1-d integer or float array
    is decided by the same rule, as a whole (:func:`time_array`)."""
    if _is_time_array(values):
        return np.sort(time_array(values, start, end), kind="stable").tolist()
    high = min(end, _FLOAT_MAX)
    values = list(values)
    for v in values:
        x = float(v) if isinstance(v, np.floating) else v
        if not start <= x <= high:  # NaN fails both comparisons
            raise ValueError(
                f"t = {v} must be finite, not before {start} and not after {end}"
            )
    return sorted(map(float, values))


def _same_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise: equal ``pi0`` and every other coordinate within
    :data:`COORD_TOL` of the pair's larger ``|x|``, relative with no floor."""
    scale = np.maximum(np.abs(a[:, 1:]), np.abs(b[:, 1:]))
    close = np.abs(a[:, 1:] - b[:, 1:]) <= COORD_TOL * scale
    return (a[:, 0] == b[:, 0]) & close.all(axis=1)


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A finite weighted collection of particle types.

    ``coords`` holds one atom per row in the array convention, ``weight_array``
    its strictly positive weights, and ``n`` the number of conserved
    coordinates.  Rows must be distinct: two rows with equal ``pi0`` whose
    other coordinates agree within :data:`COORD_TOL`, relative to the
    larger ``|x|`` of the pair, are one atom, in any unit of each column.  The
    check sorts the rows and compares neighbours, so it is exact for rows
    that are equal or farther apart than the tolerance.
    """

    coords: np.ndarray
    weight_array: np.ndarray
    n: int

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        w = np.array(self.weight_array, dtype=float)
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        if coords.ndim != 2 or coords.shape[1] < 1 + self.n:
            raise ValueError(f"coords must be a (k, 1+n+m) array with n = {self.n}")
        if w.shape != (len(coords),):
            raise ValueError("coords and weights must have equal length")
        if not (np.isfinite(coords).all() and np.isfinite(w).all()):
            raise ValueError("coordinates and weights must be finite")
        if (w <= 0.0).any():
            raise ValueError("weights must be strictly positive")
        # beyond 2**53 the float row would not hold pi0 exactly
        pi0 = coords[:, 0]
        if not ((pi0 >= 1.0) & (pi0 <= 2.0**53) & (pi0 == np.floor(pi0))).all():
            raise ValueError("pi0 must be a positive integer of at most 2**53")
        if (coords[:, 1 : 1 + self.n] < 0.0).any():
            raise ValueError("plus coordinates must be nonnegative")
        order = np.lexsort(coords.T[::-1])  # column 0 (pi0) the primary key
        same = _same_rows(coords[order[1:]], coords[order[:-1]])
        if same.any():
            i = int(np.argmax(same))
            a, b = sorted(order[i : i + 2])
            raise ValueError(f"atoms must be pairwise distinct: rows {a} and {b}")
        coords.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weight_array", w)

    def __len__(self) -> int:
        return len(self.weight_array)

    @property
    def m(self) -> int:
        """Number of sign-odd coordinates."""
        return self.coords.shape[1] - 1 - self.n

    @property
    def total_mass(self) -> float:
        # summed left to right: seeded population sizes depend on every bit
        return float(sum(self.weight_array.tolist()))

    @cached_property
    def _gram_plus(self) -> np.ndarray:
        # kept: the gelation check and the moment flow of one tilt both read it
        idx = range(1, self.n + 1)
        q = moment_matrix(self, idx, idx)
        q.setflags(write=False)
        return q

    @cached_property
    def mirror_symmetric(self) -> bool:
        """Hypothesis A1: negating the sign-odd coordinates of any atom gives
        an atom of the measure, one atom under the distinctness rule, whose
        weight is within ``COORD_TOL`` times the larger of the two weights of
        its own.  True when there are no sign-odd coordinates.

        Sorted together with the atoms, a reflection lands next to the atom
        that matches it unless noise below the tolerance sorts them apart;
        the reflections that no neighbour matches are compared with every
        atom in a slab around them, so the check is exact."""
        k = len(self)
        mirror = self.coords.copy()
        mirror[:, 1 + self.n :] *= -1.0
        rows = np.vstack([mirror, self.coords])  # reflections first
        w = np.tile(self.weight_array, 2)

        def match(a, b):  # reflections a against atoms b
            close = np.abs(w[b] - w[a]) <= COORD_TOL * np.maximum(w[a], w[b])
            return close & _same_rows(rows[a], rows[b])

        order = np.lexsort(rows.T[::-1])
        a = np.minimum(order[:-1], order[1:])
        b = np.maximum(order[:-1], order[1:])
        matched = np.zeros(k, dtype=bool)
        matched[a[(a < k) & (b >= k) & match(a, b)]] = True
        rest = np.flatnonzero(~matched)
        if not rest.size:
            return True
        # every atom that matches a reflection lies in its slab on the
        # coordinate of widest spread, twice the tolerance wide against rounding
        j = int(np.argmax(np.ptp(self.coords, axis=0)))
        radius = 2.0 * COORD_TOL * np.abs(rows[rest, j])
        by = np.argsort(self.coords[:, j], kind="stable")
        key = self.coords[by, j]
        lo = np.searchsorted(key, rows[rest, j] - radius, side="left")
        hi = np.searchsorted(key, rows[rest, j] + radius, side="right")
        return all(
            match(np.full(stop - start, i), k + by[start:stop]).any()
            for i, start, stop in zip(rest, lo, hi)
        )

    def scaled(self, factors) -> "AtomicMeasure":
        """New measure with weights multiplied by ``factors`` (scalar or
        per-atom array); atoms whose new weight is not positive are dropped.
        Only the new weights are checked: the atoms kept are valid and
        distinct already."""
        w = self.weight_array * np.asarray(factors, dtype=float)
        if w.shape != self.weight_array.shape:
            raise ValueError("factors must be a scalar or one per atom")
        keep = w > 0.0
        w = w[keep]
        if not np.isfinite(w).all():
            raise ValueError("coordinates and weights must be finite")
        coords = self.coords[keep]
        coords.setflags(write=False)
        w.setflags(write=False)
        out = object.__new__(AtomicMeasure)
        for name, value in (("coords", coords), ("weight_array", w), ("n", self.n)):
            object.__setattr__(out, name, value)
        return out

    def _tilted(self, rho: np.ndarray) -> "AtomicMeasure":
        """:meth:`scaled` by ``1 - rho`` for survival probabilities ``rho``
        in [0, 1], which depend on the plus coordinates alone.  An atom and
        its reflection then share a factor of at most 1, so when no atom is
        dropped a mirror-symmetric measure stays so: a true A1 verdict is
        carried, not checked again."""
        tilted = self.scaled(1.0 - rho)
        if len(tilted) == len(self) and self.__dict__.get("mirror_symmetric"):
            tilted.__dict__["mirror_symmetric"] = True
        return tilted


@dataclass(frozen=True)
class GelData:
    """Gel observables: the data vector the macroscopic particle carries.

    ``g`` has length ``1 + n + m``; component 0 is the gel mass ``M`` (the
    per-capita number of absorbed initial particles), components ``1..n``
    the conserved coordinates ``E`` lost to the gel, components ``n+1..``
    the sign-odd coordinates ``P`` (zero under mirror-symmetric data).
    """

    g: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.g, dtype=float).copy()
        if vec.ndim != 1 or vec.size < 1:
            raise ValueError("gel data must be a nonempty vector")
        if vec[0] < -COORD_TOL:
            raise ValueError(f"gel mass must be nonnegative, got {vec[0]}")
        vec.setflags(write=False)
        object.__setattr__(self, "g", vec)

    @property
    def mass(self) -> float:
        return float(self.g[0])

    def conserved(self, n: int) -> np.ndarray:
        return self.g[1 : 1 + n]

    def odd(self, n: int) -> np.ndarray:
        return self.g[1 + n :]


def moment_matrix(
    measure: AtomicMeasure, i_set: Sequence[int], j_set: Sequence[int]
) -> np.ndarray:
    """Mixed second moments ``<coord_i coord_j>`` over the measure.

    Indices address the array convention: 0 is ``pi0``, ``1..n`` the
    conserved block, ``n+1..`` the sign-odd block.  An empty measure has
    all moments zero.
    """
    c = measure.coords
    w = measure.weight_array
    ci = c[:, list(i_set)]
    cj = c[:, list(j_set)]
    return (ci * w[:, None]).T @ cj


def gram_plus(measure: AtomicMeasure) -> np.ndarray:
    """Second-moment matrix of the conserved coordinates (n x n), read-only
    and built once per measure."""
    return measure._gram_plus


def _correlation_ratio(q: np.ndarray) -> float:
    """Least over largest eigenvalue of the correlation matrix of the Gram
    matrix ``q``, free of units; 0 where a diagonal entry of ``q`` is 0."""
    d = np.sqrt(q.diagonal())
    eigs = np.linalg.eigvalsh(q / np.outer(d, d)) if d.all() else np.zeros(1)
    return float(eigs[0] / eigs[-1]) if eigs[-1] > 0.0 else 0.0


def first_moments(measure: AtomicMeasure) -> np.ndarray:
    """Vector of first moments ``<coord_i>`` for all 1+n+m coordinates."""
    return measure.weight_array @ measure.coords


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the admissibility checks on an initial condition."""

    mirror_symmetric: bool  # A1: reflected atom present with equal weight
    third_moments_finite: bool  # A2: always true for atomic data; reported
    gram_nondegenerate: bool  # A3: conserved coordinates independent in L2
    irreducible: bool  # A4: one component under positive merge rates
    unit_absorbed_count: bool  # A5: pi0 == 1 everywhere
    point_mass: bool
    gram_eigenvalue_ratio: float  # of the correlation matrix, free of units
    max_third_moment: float
    components: int

    @property
    def all_pass(self) -> bool:
        return (
            self.mirror_symmetric
            and self.third_moments_finite
            and self.gram_nondegenerate
            and self.irreducible
            and self.unit_absorbed_count
        )


def check_hypotheses(sys: BilinearSystem, measure: AtomicMeasure) -> HypothesisReport:
    """Diagnostic report on the standard admissibility hypotheses.

    Mirror symmetry (:attr:`AtomicMeasure.mirror_symmetric`) asks that
    reflecting the measure leaves it unchanged; nondegeneracy that the
    conserved coordinates are linearly independent in L2 of the measure;
    irreducibility that the atoms form one connected component under
    strictly positive merge rates.  A single atom counts as
    irreducible when its self-rate is positive (the dynamics are then
    nondegenerate even though the measure is a point mass; the point-mass
    flag is reported separately).  No verdict reads the units: A3 is the
    correlation test of :func:`gelation`, and A4 cuts rates at
    :data:`COORD_TOL` times the largest.
    """
    k = len(measure)
    if k == 0:
        raise ValueError("cannot check hypotheses of an empty measure")

    # A2: third moments; finite by construction for atomic measures.
    c = np.abs(measure.coords[:, 1:])
    max_third = float((measure.weight_array @ c**3).max()) if c.size else 0.0

    # A3: Gram matrix of the conserved coordinates nondegenerate, as gelation tests it
    ratio = _correlation_ratio(gram_plus(measure))

    # A4: connectivity under positive merge rates, a block of rows at a
    # time against the rows from the block's first on: one pass for the
    # largest rate, one joining the positive pairs
    from .particles import contract  # particles imports this module

    # column-major, so the kernel's einsum loops along the rows, not along
    # each row's few coordinates: about 4x faster on 8,000 atoms
    x = np.asfortranarray(measure.coords[:, 1:])
    step = max(1, _RATE_BLOCK // k)
    starts = range(0, k, step)

    def rates(a: int) -> np.ndarray:
        return pair_rates(sys, x[a : a + step, None], x[None, a:])[0]

    top = max(float(rates(a).max()) for a in starts)
    cut = COORD_TOL * top
    labels, components = np.arange(k), k
    for a in starts:
        if components == 1:
            break  # joining more pairs cannot split a component
        rows, cols = np.nonzero(rates(a) > cut)
        labels, components = contract(labels, components, rows + a, cols + a)
    point_mass = k == 1
    irreducible = components == 1 and (not point_mass or top > cut)

    return HypothesisReport(
        mirror_symmetric=measure.mirror_symmetric,
        third_moments_finite=True,
        gram_nondegenerate=ratio > _GRAM_TOL,
        irreducible=irreducible,
        unit_absorbed_count=bool((measure.coords[:, 0] == 1.0).all()),
        point_mass=point_mass,
        gram_eigenvalue_ratio=ratio,
        max_third_moment=max_third,
        components=components,
    )


def sample_atoms(
    measure: AtomicMeasure, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` i.i.d. particle rows drawn from the normalized measure."""
    w = measure.weight_array
    idx = rng.choice(len(w), size=count, p=w / w.sum())
    return measure.coords[idx].copy()


# ---------------------------------------------------------------------------
# JSON interface
#
# {"n": 1, "m": 0, "A_plus": [[1.0]], "A_par": [],
#  "atoms": [{"pi0": 1, "plus": [1.0], "par": [], "w": 1.0}]}
# ---------------------------------------------------------------------------


def _number(val, pointer) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SchemaError(pointer, "expected a number")
    if not -_FLOAT_MAX <= val <= _FLOAT_MAX:  # NaN, Infinity, 1e999, 10**400
        raise SchemaError(pointer, "expected a finite number")
    return float(val)


def _integer(val, pointer) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise SchemaError(pointer, "expected an integer")
    return val


def _expect(obj, key, kind, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required key")
    val = obj[key]
    if kind is float:
        return _number(val, f"{pointer}/{key}")
    if kind is int:
        return _integer(val, f"{pointer}/{key}")
    if kind is list:
        if not isinstance(val, list):
            raise SchemaError(f"{pointer}/{key}", "expected an array")
        return val
    raise AssertionError(kind)


def _number_list(val, pointer) -> list[float]:
    if not isinstance(val, list):
        raise SchemaError(pointer, "expected an array")
    return [_number(v, f"{pointer}/{i}") for i, v in enumerate(val)]


def system_measure_from_json(
    obj: dict, pointer: str = ""
) -> tuple[BilinearSystem, AtomicMeasure]:
    """Build a system and its initial measure from a parsed JSON document."""
    if not isinstance(obj, dict):
        raise SchemaError(pointer or "/", "expected an object")
    n = _expect(obj, "n", int, pointer)
    m = _expect(obj, "m", int, pointer)
    a_plus = [
        _number_list(row, f"{pointer}/A_plus/{i}")
        for i, row in enumerate(_expect(obj, "A_plus", list, pointer))
    ]
    a_par = [
        _number_list(row, f"{pointer}/A_par/{i}")
        for i, row in enumerate(_expect(obj, "A_par", list, pointer))
    ]
    try:
        sys = BilinearSystem(
            n,
            m,
            np.array(a_plus, dtype=float).reshape(n, n),
            np.array(a_par, dtype=float).reshape(m, m),
        )
    except ValueError as exc:
        raise SchemaError(pointer or "/", str(exc)) from exc
    rows, weights = [], []
    for i, entry in enumerate(_expect(obj, "atoms", list, pointer)):
        p = f"{pointer}/atoms/{i}"
        if not isinstance(entry, dict):
            raise SchemaError(p, "expected an object")
        pi0 = _expect(entry, "pi0", int, p)
        plus = _number_list(_expect(entry, "plus", list, p), f"{p}/plus")
        par = _number_list(entry.get("par", []), f"{p}/par")
        wgt = _expect(entry, "w", float, p)
        if len(plus) != n:
            raise SchemaError(f"{p}/plus", f"expected {n} entries")
        if len(par) != m:
            raise SchemaError(f"{p}/par", f"expected {m} entries")
        # checked here as well as in AtomicMeasure, for the atom's pointer
        # and because 2**53 + 1 rounds to 2**53 as a float
        if not 1 <= pi0 <= 2**53:
            raise SchemaError(p, "pi0 must be a positive integer of at most 2**53")
        if min(plus, default=0.0) < 0.0:
            raise SchemaError(p, "plus coordinates must be nonnegative")
        rows.append([pi0, *plus, *par])
        weights.append(wgt)
    if not rows:
        raise SchemaError(f"{pointer}/atoms", "expected at least one atom")
    try:
        measure = AtomicMeasure(rows, weights, n)
    except ValueError as exc:
        raise SchemaError(f"{pointer}/atoms", str(exc)) from exc
    return sys, measure


def system_measure_to_json(sys: BilinearSystem, measure: AtomicMeasure) -> dict:
    """Inverse of :func:`system_measure_from_json`."""
    return {
        "n": sys.n,
        "m": sys.m,
        "A_plus": sys.a_plus.tolist(),
        "A_par": sys.a_par.tolist(),
        "atoms": [
            {"pi0": int(r[0]), "plus": r[1 : 1 + sys.n], "par": r[1 + sys.n :], "w": w}
            for r, w in zip(measure.coords.tolist(), measure.weight_array.tolist())
        ],
    }


def read_json(path, what: str):
    """The parsed UTF-8 JSON document in file ``path``.  A file that cannot
    be read (pointer ``""``) or parsed (pointer ``"/"``) is a
    :class:`SchemaError` naming ``what``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise SchemaError("", f"cannot read {what}: {exc}") from None
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError("/", f"{what} is not UTF-8: {exc}") from None
    # ValueError also covers integers past the interpreter's digit limit,
    # RecursionError arrays nested thousands deep
    except (ValueError, RecursionError) as exc:
        raise SchemaError("/", f"{what} is not valid JSON: {exc}") from None


def load_system(path) -> tuple[BilinearSystem, AtomicMeasure]:
    """Read a system/measure JSON document from a file."""
    return system_measure_from_json(read_json(path, "system file"))
