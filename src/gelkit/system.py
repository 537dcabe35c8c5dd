"""Core model: bilinear coagulation systems, particle types, atomic measures.

A system carries a symmetric block matrix ``diag(A_plus, A_par)`` acting on
particle data vectors.  A particle's data is

* ``pi0`` -- the number of initial particles it has absorbed (a positive
  integer; every initial particle starts with ``pi0 = 1``),
* ``plus`` -- ``n`` nonnegative conserved coordinates (mass, energy, ...),
* ``par`` -- ``m`` sign-odd coordinates (momentum, ...), negated by
  :func:`reflect`.

The total merge rate of two particles is the bilinear form

    merge_rate(x, y) = plus(x) . A_plus plus(y) + par(x) . A_par par(y)

which must be nonnegative wherever the dynamics can reach.  ``pi0`` does not
enter the rate; it is bookkeeping that the limit theory and all gel
observables are expressed in.

Array convention used across the package: particles as rows of shape
``(1 + n + m,)`` with column 0 = ``pi0``, columns ``1..n`` = ``plus``,
columns ``n+1..n+m`` = ``par``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import NegativeRate, SchemaError

#: default tolerance for comparing floating coordinates
COORD_TOL = 1e-9

_SYMMETRY_TOL = 1e-12

_FLOAT_MAX = float(np.finfo(float).max)


def _as_matrix(a, size: int, name: str) -> np.ndarray:
    mat = np.asarray(a, dtype=float)
    if size == 0 and mat.size == 0:
        mat = mat.reshape(0, 0)  # accept [] as the empty matrix
    if mat.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}, got shape {mat.shape}")
    scale = max(1.0, float(np.abs(mat).max()) if mat.size else 0.0)
    if mat.size and float(np.abs(mat - mat.T).max()) > _SYMMETRY_TOL * scale:
        raise ValueError(f"{name} is not symmetric within {_SYMMETRY_TOL}")
    mat = (mat + mat.T) / 2.0
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


@dataclass(frozen=True)
class TypeVector:
    """Immutable particle data: absorbed count plus conserved coordinates."""

    pi0: int
    plus: tuple[float, ...]
    par: tuple[float, ...] = ()

    def __post_init__(self):
        # beyond 2**53 the float coordinate row would not hold pi0 exactly
        if not isinstance(self.pi0, int) or not 1 <= self.pi0 <= 2**53:
            raise ValueError("pi0 must be a positive integer of at most 2**53")
        object.__setattr__(self, "plus", tuple(float(v) for v in self.plus))
        object.__setattr__(self, "par", tuple(float(v) for v in self.par))
        if any(v < 0 for v in self.plus):
            raise ValueError("plus coordinates must be nonnegative")

    @property
    def total_size(self) -> float:
        """pi0 plus the sum of the conserved coordinates."""
        return self.pi0 + sum(self.plus)

    def as_array(self) -> np.ndarray:
        """Row vector (pi0, plus..., par...)."""
        return np.array((self.pi0, *self.plus, *self.par), dtype=float)


def merge(x: TypeVector, y: TypeVector) -> TypeVector:
    """Data of the particle formed when ``x`` and ``y`` coalesce: the
    componentwise sum, including the absorbed count."""
    if len(x.plus) != len(y.plus) or len(x.par) != len(y.par):
        raise ValueError("cannot merge particles of different coordinate layout")
    return TypeVector(
        x.pi0 + y.pi0,
        tuple(a + b for a, b in zip(x.plus, y.plus)),
        tuple(a + b for a, b in zip(x.par, y.par)),
    )


def reflect(x: TypeVector) -> TypeVector:
    """Mirror image of a particle: sign-odd coordinates negated, everything
    else unchanged.  An involution."""
    return TypeVector(x.pi0, x.plus, tuple(-v for v in x.par))


def _pair_form(a: np.ndarray, u: Sequence[float], v: Sequence[float]) -> float:
    # Accumulate over i <= j with the off-diagonal terms symmetrized as
    # u_i v_j + u_j v_i.  This makes the result bitwise invariant under
    # swapping u and v and under jointly negating both vectors.
    total = 0.0
    k = len(u)
    for i in range(k):
        row = a[i]
        ui, vi = u[i], v[i]
        if row[i] != 0.0:
            total += row[i] * (ui * vi)
        for j in range(i + 1, k):
            if row[j] != 0.0:
                total += row[j] * (ui * v[j] + u[j] * vi)
    return total


def merge_rate(sys: BilinearSystem, x: TypeVector, y: TypeVector) -> float:
    """Total merge rate of the pair ``(x, y)``.

    Exactly symmetric in its arguments and invariant under reflecting both,
    bit for bit.  Raises :class:`NegativeRate` if the form evaluates negative
    beyond tolerance, which means the system/measure pair is invalid.
    """
    if len(x.plus) != sys.n or len(x.par) != sys.m:
        raise ValueError("x does not match the system's coordinate layout")
    if len(y.plus) != sys.n or len(y.par) != sys.m:
        raise ValueError("y does not match the system's coordinate layout")
    rate = _pair_form(sys.a_plus, x.plus, y.plus) + _pair_form(
        sys.a_par, x.par, y.par
    )
    if rate < 0.0:
        envelope = _pair_form(
            sys.block_abs,
            tuple(map(abs, x.plus + x.par)),
            tuple(map(abs, y.plus + y.par)),
        )
        if rate < -COORD_TOL * (1.0 + envelope):
            raise NegativeRate(
                f"merge rate {rate} < 0; kernel is not nonnegative on this pair"
            )
        rate = 0.0
    return rate


def merge_rate_matrix(
    sys: BilinearSystem, coords_a: np.ndarray, coords_b: np.ndarray
) -> np.ndarray:
    """Merge rates between two stacks of particle rows (vectorized).

    ``coords_a`` is ``(p, 1+n+m)`` and ``coords_b`` is ``(q, 1+n+m)``;
    returns the ``(p, q)`` rate matrix.  Mathematically symmetric but makes
    no bit-level guarantees; use :func:`merge_rate` for those.
    """
    rates = coords_a[:, 1:] @ sys.block @ coords_b[:, 1:].T
    low = rates.min() if rates.size else 0.0
    if low < 0.0:
        scale = float(
            np.abs(coords_a[:, 1:]).max() * np.abs(coords_b[:, 1:]).max()
        ) * max(1.0, float(sys.block_abs.max()))
        if low < -COORD_TOL * (1.0 + scale):
            raise NegativeRate(
                f"merge rate {low} < 0; kernel is not nonnegative on this support"
            )
        np.clip(rates, 0.0, None, out=rates)
    return rates


@dataclass(frozen=True)
class AtomicMeasure:
    """A finite weighted collection of particle types.

    With ``initial=True`` the measure is usable as time-zero data: every atom
    must then have ``pi0 == 1``.  Atoms must be pairwise distinct (within
    :data:`COORD_TOL`) and weights strictly positive.
    """

    atoms: tuple[TypeVector, ...]
    weights: tuple[float, ...]
    initial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(
            self, "weights", tuple(float(w) for w in self.weights)
        )
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if self.atoms:
            n, m = len(self.atoms[0].plus), len(self.atoms[0].par)
            for a in self.atoms:
                if len(a.plus) != n or len(a.par) != m:
                    raise ValueError(
                        "all atoms must share one coordinate layout"
                    )
        if self.initial and any(a.pi0 != 1 for a in self.atoms):
            raise ValueError("initial measures must have pi0 == 1 on every atom")
        for i, a in enumerate(self.atoms):
            for b in self.atoms[i + 1 :]:
                if a.pi0 == b.pi0 and _close(a, b):
                    raise ValueError(f"atoms must be pairwise distinct: {a} ~ {b}")

    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def total_mass(self) -> float:
        return float(sum(self.weights))

    def items(self) -> Iterable[tuple[TypeVector, float]]:
        return zip(self.atoms, self.weights)

    @cached_property
    def coords(self) -> np.ndarray:
        """Atoms stacked as rows ``(k, 1+n+m)``."""
        if not self.atoms:
            raise ValueError("empty measure has no coordinate layout")
        rows = np.stack([a.as_array() for a in self.atoms])
        rows.setflags(write=False)
        return rows

    @cached_property
    def weight_array(self) -> np.ndarray:
        w = np.array(self.weights, dtype=float)
        w.setflags(write=False)
        return w

    def scaled(self, factors) -> "AtomicMeasure":
        """New measure with weights multiplied by ``factors`` (scalar or
        per-atom array); atoms with factor 0 are dropped."""
        f = np.broadcast_to(np.asarray(factors, dtype=float), (len(self.atoms),))
        keep = f > 0.0
        return AtomicMeasure(
            tuple(a for a, k in zip(self.atoms, keep) if k),
            tuple(w * fi for w, fi, k in zip(self.weights, f, keep) if k),
            initial=self.initial,
        )


def _close(a: TypeVector, b: TypeVector, tol: float = COORD_TOL) -> bool:
    return all(
        abs(p - q) <= tol * max(1.0, abs(p), abs(q))
        for p, q in zip(a.plus + a.par, b.plus + b.par)
    )


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


def total_size(x: TypeVector) -> float:
    """``pi0`` plus the sum of conserved coordinates; additive under merge."""
    return x.total_size


def moment_matrix(
    measure: AtomicMeasure, i_set: Sequence[int], j_set: Sequence[int]
) -> np.ndarray:
    """Mixed second moments ``<coord_i coord_j>`` over the measure.

    Indices address the array convention: 0 is ``pi0``, ``1..n`` the
    conserved block, ``n+1..`` the sign-odd block.  An empty measure has
    all moments zero.
    """
    if not measure.atoms:
        return np.zeros((len(list(i_set)), len(list(j_set))))
    c = measure.coords
    w = measure.weight_array
    ci = c[:, list(i_set)]
    cj = c[:, list(j_set)]
    return (ci * w[:, None]).T @ cj


def gram_plus(measure: AtomicMeasure) -> np.ndarray:
    """Second-moment matrix of the conserved coordinates (n x n)."""
    if not measure.atoms:
        raise ValueError("empty measure has no coordinate layout")
    n = len(measure.atoms[0].plus)
    idx = range(1, n + 1)
    return moment_matrix(measure, idx, idx)


def first_moments(measure: AtomicMeasure) -> np.ndarray:
    """Vector of first moments ``<coord_i>`` for all 1+n+m coordinates."""
    return measure.weight_array @ measure.coords


def par_bound_constant(measure: AtomicMeasure) -> float:
    """Smallest C with ``sum(par^2) <= C * total_size^2`` on every atom."""
    best = 0.0
    for a in measure.atoms:
        s = a.total_size
        best = max(best, sum(v * v for v in a.par) / (s * s))
    return best


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the admissibility checks on an initial condition."""

    mirror_symmetric: bool  # A1: reflected atom present with equal weight
    third_moments_finite: bool  # A2: always true for atomic data; reported
    gram_nondegenerate: bool  # A3: conserved coordinates independent in L2
    irreducible: bool  # A4: one component under positive merge rates
    unit_absorbed_count: bool  # A5: pi0 == 1 everywhere
    point_mass: bool
    gram_eigenvalue_ratio: float
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


def check_hypotheses(
    sys: BilinearSystem,
    measure: AtomicMeasure,
    tol: float = COORD_TOL,
) -> HypothesisReport:
    """Diagnostic report on the standard admissibility hypotheses.

    Mirror symmetry asks that reflecting the measure leaves it unchanged;
    nondegeneracy that the conserved coordinates are linearly independent in
    L2 of the measure; irreducibility that the atoms form one connected
    component under strictly positive merge rates.  A single atom counts as
    irreducible when its self-rate is positive (the dynamics are then
    nondegenerate even though the measure is a point mass; the point-mass
    flag is reported separately).
    """
    atoms, w = measure.atoms, measure.weights
    k = len(atoms)
    if k == 0:
        raise ValueError("cannot check hypotheses of an empty measure")

    # A1: each atom's mirror image present, with matching weight.
    mirror_ok = True
    for a, wa in measure.items():
        ra = reflect(a)
        match = None
        for b, wb in measure.items():
            if a.pi0 == b.pi0 and _close(ra, b, tol):
                match = wb
                break
        if match is None or abs(match - wa) > tol * max(1.0, wa):
            mirror_ok = False
            break

    # A2: third moments; finite by construction for atomic measures.
    c = np.abs(measure.coords[:, 1:])
    max_third = float((measure.weight_array @ c**3).max()) if c.size else 0.0

    # A3: Gram matrix of the conserved coordinates nondegenerate.
    q = gram_plus(measure)
    eigs = np.linalg.eigvalsh(q)
    ratio = float(eigs[0] / eigs[-1]) if eigs[-1] > 0 else 0.0
    gram_ok = ratio > tol

    # A4: connectivity under positive merge rates.
    rates = merge_rate_matrix(sys, measure.coords, measure.coords)
    scale = max(1.0, float(rates.max()))
    adj = rates > tol * scale
    components = int(connected_components(adj, directed=False)[0])
    point_mass = k == 1
    irreducible = components == 1 and (not point_mass or adj[0, 0])

    a5 = all(a.pi0 == 1 for a in atoms)
    return HypothesisReport(
        mirror_symmetric=mirror_ok,
        third_moments_finite=True,
        gram_nondegenerate=gram_ok,
        irreducible=irreducible,
        unit_absorbed_count=a5,
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


def _expect(obj, key, kind, pointer):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing required key")
    val = obj[key]
    if kind is float:
        return _number(val, f"{pointer}/{key}")
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise SchemaError(f"{pointer}/{key}", "expected an integer")
        return val
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
    atoms, weights = [], []
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
        try:
            atoms.append(TypeVector(pi0, tuple(plus), tuple(par)))
        except ValueError as exc:
            raise SchemaError(p, str(exc)) from exc
        weights.append(wgt)
    if not atoms:
        raise SchemaError(f"{pointer}/atoms", "expected at least one atom")
    try:
        measure = AtomicMeasure(
            tuple(atoms), tuple(weights), initial=all(a.pi0 == 1 for a in atoms)
        )
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
            {"pi0": a.pi0, "plus": list(a.plus), "par": list(a.par), "w": w}
            for a, w in measure.items()
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
