"""Invariants that must hold for arbitrary inputs, not just the presets."""

import copy
import dataclasses
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.stats import ks_2samp

import gelkit as gk
from gelkit import cli, particles, system
from gelkit.errors import NegativeRate, SchemaError


def _rate_or_none(sys_, x, y):
    try:
        return float(gk.pair_rates(sys_, x[:, 1:], y[:, 1:])[0][0])
    except NegativeRate:
        return None


def _resolution(sys_, x, y) -> float:
    # the kernel's own tolerance: what it clips to 0 without raising
    khat = np.abs(x[0, 1:]) @ sys_.block_abs @ np.abs(y[0, 1:])
    return system.COORD_TOL * float(khat)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def system_and_pair(draw):
    """Any valid system plus two layout-compatible particle rows."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    a_plus = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a_plus[i, j] = a_plus[j, i] = draw(
                st.floats(min_value=0.05, max_value=4.0)
            )
    a_par = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            a_par[i, j] = a_par[j, i] = draw(
                st.floats(min_value=-4.0, max_value=4.0)
            )
    # a vanishing sign-odd row would make the system invalid
    for i in range(m):
        if not a_par[i].any():
            a_par[i, i] = 1.0
    sys_ = gk.BilinearSystem(n, m, a_plus, a_par)

    def vector():
        return np.array(
            [[draw(st.integers(1, 5))]
             + [draw(st.floats(min_value=0.0, max_value=1e3)) for _ in range(n)]
             + [draw(finite) for _ in range(m)]]
        )

    return sys_, vector(), vector()


@st.composite
def plus_measure(draw):
    """Random conserved-only model with a valid initial measure.

    One diagonally dominant atom per coordinate keeps the measure's Gram
    matrix full rank, which the gelation solvers require.
    """
    n = draw(st.integers(1, 2))
    a_plus = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            a_plus[i, j] = a_plus[j, i] = draw(
                st.floats(min_value=0.1, max_value=2.0)
            )
    sys_ = gk.BilinearSystem(n, 0, a_plus, [])
    rows, weights = [], []
    for i in range(n):
        plus = [
            draw(st.floats(min_value=0.0, max_value=0.2)) for _ in range(n)
        ]
        plus[i] += 1.0
        rows.append([1.0, *plus])
        weights.append(draw(st.floats(min_value=0.1, max_value=2.0)))
    measure = gk.AtomicMeasure(rows, weights, n)
    return sys_, measure


class TestKernelInvariance:
    """Properties of ``pair_rates``, up to its own resolution."""

    @given(system_and_pair())
    def test_symmetric_in_arguments(self, case):
        sys_, x, y = case
        a = _rate_or_none(sys_, x, y)
        b = _rate_or_none(sys_, y, x)
        if a is None:
            assert b is None
        else:
            assert abs(a - b) <= _resolution(sys_, x, y)

    @given(system_and_pair())
    def test_joint_reflection_invariant(self, case):
        sys_, x, y = case
        sign = np.ones(x.shape[1])
        sign[1 + sys_.n :] = -1.0
        a = _rate_or_none(sys_, x, y)
        b = _rate_or_none(sys_, x * sign, y * sign)
        if a is None:
            assert b is None
        else:
            assert abs(a - b) <= _resolution(sys_, x, y)

    @given(system_and_pair())
    def test_rate_nonnegative_when_defined(self, case):
        sys_, x, y = case
        r = _rate_or_none(sys_, x, y)
        if r is not None:
            assert r >= 0.0


@st.composite
def grid_measure(draw):
    """Layout, rows and weights on a coarse grid: rows are equal or differ
    by far more than COORD_TOL, and about half the draws add each row's
    reflection with the same weight, its first plus coordinate moved by a
    shift of 1e-13 where the reflection is a new row, which is below the
    tolerance unless that coordinate is 0."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(0, 2))
    k = draw(st.integers(1, 5))
    rows = [
        [draw(st.integers(1, 2))]
        + [draw(st.sampled_from([0.0, 0.5, 2.0])) for _ in range(n)]
        + [draw(st.sampled_from([-1.0, 0.0, 3.0])) for _ in range(m)]
        for _ in range(k)
    ]
    weights = [draw(st.sampled_from([0.25, 1.0])) for _ in range(k)]
    if draw(st.booleans()):
        shift = draw(st.sampled_from([0.0, 1e-13]))
        rows += [
            [r[0], r[1] + (shift if any(r[1 + n :]) else 0.0), *r[2 : 1 + n]]
            + [-v for v in r[1 + n :]]
            for r in rows
        ]
        weights += weights
    return n, np.array(rows), np.array(weights)


def _close_pair(a, b) -> bool:
    """The pairwise rule: equal pi0, other coordinates within COORD_TOL of
    the pair's larger magnitude, with no floor."""
    return a[0] == b[0] and all(
        abs(p - q) <= 1e-9 * max(abs(p), abs(q)) for p, q in zip(a[1:], b[1:])
    )


def _near_mirror(rng):
    """Layout, rows and weights: 1 to 5 atoms with nonzero sign-odd
    coordinates, and each atom's partner, its reflection with the weight
    and every coordinate but pi0 moved by up to one relative noise scale
    in [1e-11, 1e-7], the first plus coordinate upward.  Sorted, the atom
    then lies between its reflection and its partner, so the neighbour
    pass of the A1 check leaves a reflection unmatched."""
    n, m = (int(v) for v in rng.integers(1, 3, size=2))
    k = int(rng.integers(1, 6))
    atoms = rng.integers(1, 4, size=(k, 1 + n + m)).astype(float)
    atoms[:, 0] = rng.integers(1, 3, size=k)
    atoms[:, 1 + n :] *= rng.choice([-1.0, 1.0], size=(k, m))
    weights = rng.integers(1, 5, size=k) * 0.25
    scale = 10.0 ** rng.uniform(-11.0, -7.0)
    noise = scale * rng.uniform(-1.0, 1.0, size=(k, 1 + n + m))
    noise[:, 1] = np.abs(noise[:, 1])
    partners = atoms.copy()
    partners[:, 1 + n :] *= -1.0
    partners[:, 1:] *= 1.0 + noise[:, 1:]
    rows = np.vstack([atoms, partners])
    return n, rows, np.concatenate([weights, weights * (1.0 + noise[:, 0])])


class TestMeasureChecks:
    @given(grid_measure())
    def test_checks_match_pairwise(self, case):
        n, rows, weights = case
        k = len(rows)
        distinct = not any(
            _close_pair(rows[i], rows[j]) for i in range(k) for j in range(i + 1, k)
        )
        if not distinct:
            with pytest.raises(ValueError, match="distinct"):
                gk.AtomicMeasure(rows, weights, n)
            # keep the first of each group of equal rows
            _, first = np.unique(rows, axis=0, return_index=True)
            first.sort()
            rows, weights = rows[first], weights[first]
        meas = gk.AtomicMeasure(rows, weights, n)
        mirror = rows.copy()
        mirror[:, 1 + n :] *= -1.0
        symmetric = all(
            any(
                _close_pair(mirror[i], rows[j])
                and abs(weights[j] - weights[i]) <= 1e-9 * max(weights[i], weights[j])
                for j in range(len(rows))
            )
            for i in range(len(rows))
        )
        assert meas.mirror_symmetric == symmetric

    def test_noisy_mirrors_match_pairwise(self):
        # the reflections the neighbour pass leaves unmatched are searched
        # in a slab; the verdict must still be the pairwise one
        rng = np.random.default_rng(28)
        verdicts = []
        while len(verdicts) < 200:
            n, rows, weights = _near_mirror(rng)
            try:
                meas = gk.AtomicMeasure(rows, weights, n)
            except ValueError:  # two atoms within the tolerance
                continue
            mirror = rows.copy()
            mirror[:, 1 + n :] *= -1.0
            symmetric = all(
                any(
                    _close_pair(mirror[i], rows[j])
                    and abs(weights[j] - weights[i]) <= 1e-9 * max(weights[i], weights[j])
                    for j in range(len(rows))
                )
                for i in range(len(rows))
            )
            assert meas.mirror_symmetric == symmetric
            verdicts.append(symmetric)
        assert 50 < sum(verdicts) < 150

    @given(grid_measure(), st.lists(st.floats(0.0, 1e3), min_size=2, max_size=2))
    def test_tilt_carries_a1_verdict(self, case, c):
        # the tilt factor depends on the plus coordinates alone, so the
        # tilted measure equals a freshly checked one, verdict included
        n, rows, weights = case
        _, first = np.unique(rows, axis=0, return_index=True)
        try:
            meas = gk.AtomicMeasure(rows[first], weights[first], n)
        except ValueError:  # two rows within the tolerance: not one measure
            assume(False)
        symmetric = meas.mirror_symmetric
        rho = -np.expm1(-(meas.coords[:, 1 : 1 + n] @ np.array(c[:n])))
        tilted = meas._tilted(rho)
        w = meas.weight_array * (1.0 - rho)
        fresh = gk.AtomicMeasure(meas.coords[w > 0.0], w[w > 0.0], n)
        carried = "mirror_symmetric" in vars(tilted)
        assert carried == (symmetric and len(fresh) == len(meas))
        assert tilted.mirror_symmetric == fresh.mirror_symmetric
        assert np.array_equal(tilted.coords, fresh.coords)
        assert np.array_equal(tilted.weight_array, fresh.weight_array)
        assert tilted.n == fresh.n
        for factors in (np.inf, np.where(np.arange(len(meas)) == 0, np.inf, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                meas.scaled(factors)


@st.composite
def split_measure(draw):
    """Conserved-only systems whose positive-rate graph often splits:
    plus coordinates on {0, 1, 2} and an A+ with zero entries."""
    n = draw(st.integers(1, 3))
    a_plus = np.diag([draw(st.sampled_from([0.5, 2.0])) for _ in range(n)])
    for i in range(n):
        for j in range(i + 1, n):
            a_plus[i, j] = a_plus[j, i] = draw(st.sampled_from([0.0, 1.0]))
    k = draw(st.integers(1, 9))
    rows = np.unique(
        [[1.0] + [draw(st.sampled_from([0.0, 1.0, 2.0])) for _ in range(n)]
         for _ in range(k)],
        axis=0,
    )
    measure = gk.AtomicMeasure(rows, np.ones(len(rows)), n)
    return gk.BilinearSystem(n, 0, a_plus, []), measure


class TestIrreducibility:
    @given(split_measure(), st.integers(1, 12))
    def test_blocks_match_dense_matrix(self, case, block):
        sys_, meas = case
        x = meas.coords[:, 1:]
        rates = x @ sys_.block @ x.T
        adj = rates > 1e-9 * float(rates.max())
        components = int(connected_components(adj, directed=False)[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(system, "_RATE_BLOCK", block)
            rep = gk.check_hypotheses(sys_, meas)
        assert rep.components == components
        assert rep.irreducible == (components == 1 and (len(meas) > 1 or adj[0, 0]))


def _joined(labels, clusters, p, q):
    """The oracle of contract: scipy's components of the cluster graph,
    which it numbers by their lowest node."""
    a, b = labels[p], labels[q]
    graph = csr_matrix((np.ones(a.size), (a, b)), shape=(clusters, clusters))
    count, comp = connected_components(graph, directed=False)
    return comp[labels], count


def _check_contract(labels, clusters, p, q):
    want, count = _joined(labels, clusters, p, q)
    got, got_count = particles.contract(labels, clusters, p, q)
    assert got_count == count
    np.testing.assert_array_equal(got, want)
    return got, got_count


@st.composite
def edge_batches(draw):
    """Vertex count and a few batches of edges, self pairs and repeats
    included."""
    n = draw(st.integers(1, 30))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(st.lists(pair, max_size=40), min_size=1, max_size=4))


class TestContract:
    @settings(max_examples=40)
    @given(edge_batches(), st.sampled_from([np.int32, np.intp]))
    def test_running_labels_match_components(self, case, dtype):
        n, batches = case
        labels, clusters = np.arange(n, dtype=dtype), n
        for batch in batches:
            p, q = np.array(batch, dtype=np.intp).reshape(-1, 2).T
            labels, clusters = _check_contract(labels, clusters, p, q)

    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    def test_degenerate_edges(self, dtype):
        labels = np.array([0, 1, 1, 2, 3, 4], dtype=dtype)
        none = np.array([], dtype=np.intp)
        _check_contract(labels, 5, none, none)
        _check_contract(labels, 5, np.array([0, 3, 1]), np.array([0, 3, 2]))
        _check_contract(labels, 5, np.array([5, 1, 5, 3, 0]), np.array([1, 5, 1, 5, 4]))

    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    @pytest.mark.parametrize("shape", ["sorted", "reversed", "zigzag", "random"])
    def test_long_paths(self, shape, dtype):
        # a sorted path hooks into one chain of 10^5 pointers; without
        # pointer doubling the roots take minutes to find
        n = 10**5
        low, high = np.arange(n // 2), np.arange(n - 1, n // 2 - 1, -1)
        order = {
            "sorted": np.arange(n),
            "reversed": np.arange(n)[::-1],
            "zigzag": np.stack([low, high], 1).ravel(),  # 0, n-1, 1, n-2, ...
            "random": np.random.default_rng(5).permutation(n),
        }[shape]
        labels = np.arange(n, dtype=dtype)
        # the path through the vertices in that order
        assert _check_contract(labels, n, order[:-1], order[1:])[1] == 1

    @pytest.mark.parametrize("dtype", [np.int32, np.intp])
    def test_star_centred_on_the_highest_id(self, dtype):
        n = 1000
        first, rest = np.arange(n // 2), np.arange(n // 2, n - 1)
        centre = np.full(n // 2, n - 1)
        # half the leaves first, then the rest onto the joined cluster
        labels, clusters = _check_contract(np.arange(n, dtype=dtype), n, centre, first)
        _check_contract(labels, clusters, rest, centre[: rest.size])


class TestMomentInvariants:
    @settings(max_examples=25)
    @given(plus_measure(), st.floats(min_value=0.1, max_value=0.9))
    def test_second_moments_stay_cauchy_schwarz(self, case, frac):
        sys_, meas = case
        t_g = gk.gelation_time(sys_, meas)
        state, phase = gk.moments_at(sys_, meas, frac * t_g)
        assert phase == "sol-subcritical"
        q = state.q
        assert np.allclose(q, q.T, rtol=1e-9)
        for i in range(sys_.n):
            assert q[i, i] > 0
            for j in range(sys_.n):
                assert q[i, j] ** 2 <= q[i, i] * q[j, j] * (1 + 1e-9)

    @settings(max_examples=25)
    @given(plus_measure())
    def test_second_moments_grow(self, case):
        # merging only ever adds coordinates, so every second moment is
        # nondecreasing before the blowup
        sys_, meas = case
        t_g = gk.gelation_time(sys_, meas)
        s0 = gk.moments_at(sys_, meas, 0.1 * t_g)[0]
        s1 = gk.moments_at(sys_, meas, 0.6 * t_g)[0]
        assert np.all(s1.q >= s0.q * (1 - 1e-9))
        assert np.all(s1.z >= s0.z * (1 - 1e-9))


class TestRestrictedConservation:
    @settings(max_examples=15)
    @given(plus_measure(), st.floats(min_value=0.2, max_value=1.5))
    def test_phi_total_constant(self, case, t_frac):
        sys_, meas = case
        t = t_frac * gk.gelation_time(sys_, meas)
        model = gk.TruncatedFlory(sys_, meas, 4)
        s0, s1 = model.integrate(t, outputs=[0.0, t])
        assert model.conserved_total(s1) == pytest.approx(
            model.conserved_total(s0), rel=1e-8
        )
        assert all(v >= -1e-12 for v in s1.densities)


class TestSimulatorAgreement:
    def test_direct_snapshot_matches_particle_snapshot(self, kac):
        # both samplers reduce their particle table with the same function
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 40, np.random.default_rng(5))
        ds = gk.DirectPairSimulator(sys_, rows, 40, np.random.default_rng(6))
        direct = ds.run([0.4])[0]
        assert direct.n_particles < 40
        ps = gk.ParticleSystem(
            sys_, ds.coords, 40, np.random.default_rng(7), t=ds.t
        )
        particle = ps.snapshot()
        for field in dataclasses.fields(direct):
            a, b = getattr(direct, field.name), getattr(particle, field.name)
            if isinstance(a, gk.GelData):
                a, b = a.g, b.g
            assert np.array_equal(a, b), field.name

    def test_envelope_matches_direct_pairs(self, kac):
        # same generator construction, disjoint seeds; both runs are exact
        # samplers of the same process so final counts must agree in law
        sys_, meas = kac
        t, pop, reps = 0.4, 40, 120
        batched, direct = [], []
        for r in range(reps):
            rows = gk.sample_atoms(
                meas, pop, np.random.default_rng(gk.child_seed(100, r, 0))
            )
            ps = gk.ParticleSystem(
                sys_, rows.copy(), pop,
                np.random.default_rng(gk.child_seed(100, r, 1)),
            )
            ps.run([t])
            batched.append(ps.n_particles)
            ds = gk.DirectPairSimulator(
                sys_, rows.copy(), pop,
                np.random.default_rng(gk.child_seed(100, r, 2)),
            )
            ds.run([t])
            direct.append(ds.n_particles)
        res = ks_2samp(batched, direct, method="asymp")
        assert res.pvalue > 1e-3


class _FixedUniforms:
    """Stands in for a generator whose next uniforms are given."""

    def __init__(self, u: np.ndarray):
        self.u = u

    def random(self, size: int) -> np.ndarray:
        assert size == self.u.size
        return self.u


@st.composite
def guided_draws(draw):
    """Cumulative |x_k| rows with zeros, ties, a 1e-12..1e12 spread or a
    single row, and (coordinate, uniform) draws on them: 0, the largest
    uniform below 1, random ones, the guide's bucket edges j / P, and ones
    whose key is a cumulative entry (exactly so where the weights are small
    integers and each total is a power of two)."""
    d = draw(st.integers(1, 3))
    size = draw(st.integers(1, 30))
    if draw(st.booleans()):
        weights = draw(arrays(float, (d, size), elements=st.sampled_from([0.0, 1.0, 3.0])))
        # a last row that fills each total up to a power of two
        top = 2.0 ** np.ceil(np.log2(np.maximum(weights.sum(axis=1), 1.0)))
        weights = np.column_stack((weights, top - weights.sum(axis=1)))
    else:
        element = st.one_of(
            st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
            st.floats(min_value=1e-12, max_value=1e12),
        )
        weights = draw(arrays(float, (d, size), elements=element))
    cum = np.cumsum(weights, axis=1)
    below_one = np.nextafter(1.0, 0.0)
    coord = [draw(st.integers(0, d - 1)) for _ in range(2)]
    u = [0.0, below_one]
    for _ in range(draw(st.integers(0, 20))):
        coord.append(draw(st.integers(0, d - 1)))
        # what Generator.random returns: a multiple of 2**-53 below 1
        u.append(draw(st.integers(0, 2**53 - 1)) * 2.0**-53)
    edges = np.arange(cum.shape[1]) / cum.shape[1]
    for k in range(d):
        coord += [k] * edges.size
        u += list(edges)
        if cum[k, -1] > 0.0:
            onto = np.minimum(cum[k] / cum[k, -1], below_one)
            coord += [k] * onto.size
            u += list(onto)
    return cum, np.array(coord, dtype=np.intp), np.array(u)


class TestGuidedDraws:
    @given(guided_draws())
    def test_lookup_matches_searchsorted(self, case):
        cum, coord, u = case
        with np.errstate(all="raise"):
            guide = particles._guide(cum)
            rows = particles._draw_rows(_FixedUniforms(u), cum, guide, coord)
        last = cum.shape[1] - 1
        want = [
            min(np.searchsorted(cum[k], v * cum[k, -1], side="right"), last)
            for k, v in zip(coord, u)
        ]
        assert rows.dtype == np.intp
        assert rows.tolist() == want
        assert guide.dtype == np.int32 and guide.shape == (cum.shape[0], last + 2)
        assert guide.min() >= 0 and guide.max() <= last

    def test_keys_onto_entries(self):
        # total 8: each u = cum / 8 is exact, so every key is a cumulative
        # entry, and the zero rows tie it with the entry before
        cum = np.cumsum([[1.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0]], axis=1)
        u = np.append(cum[0, :-1] / 8.0, [0.0, np.nextafter(1.0, 0.0)])
        assert (u[:-2] * 8.0 == cum[0, :-1]).all()
        rows = particles._draw_rows(
            _FixedUniforms(u), cum, particles._guide(cum), np.zeros(u.size, np.intp)
        )
        assert rows.tolist() == [3, 3, 3, 4, 6, 6, 0, 6]

    def test_start_past_the_row(self):
        # u = 1/2 is the edge of bucket 3 of 6; the key 0.5 * 3.6 rounds
        # below cum[1] = 1.8000000000000003, while cum[1] * (6 / 3.6)
        # rounds onto 3.0, so the guide starts one row past the answer
        cum = np.cumsum([[0.7, 1.1, 0.1, 0.7, 0.7, 0.3]], axis=1)
        guide = particles._guide(cum)
        u = np.array([0.5])
        assert guide[0, 3] == 2
        assert np.searchsorted(cum[0], u * cum[0, -1], side="right").tolist() == [1]
        rows = particles._draw_rows(
            _FixedUniforms(u), cum, guide, np.zeros(1, np.intp)
        )
        assert rows.tolist() == [1]


def _outcome(values, start, end):
    """What check_times does: its times, each by repr so -0.0 shows, or
    the text of its ValueError."""
    try:
        return [repr(v) for v in system.check_times(values, start, end)]
    except ValueError as exc:
        return str(exc)


_EDGE_TIMES = [
    -0.0, 0.0, 1.0, 2.0, np.nextafter(2.0, 3.0), -1.0, np.nan, np.inf, -np.inf,
    float(np.finfo(float).max),
]


@st.composite
def time_arrays(draw):
    """A 1-d float64 array with NaN, +-inf, -0.0 and values either side of
    the bounds, or an integer array over its dtype's whole range."""
    size = draw(st.integers(0, 12))
    if draw(st.booleans()):
        element = st.one_of(st.sampled_from(_EDGE_TIMES), st.floats())
        return draw(arrays(np.float64, size, elements=element))
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64]))
    return draw(arrays(dtype, size))


class TestCheckTimesArrays:
    @given(
        time_arrays(),
        st.sampled_from([0.0, -0.0, 1.0, -3.0]),
        st.sampled_from([math.inf, 2.0, 100.0]),
    )
    def test_array_matches_loop(self, values, start, end):
        # list() hands the loop the array's own scalars
        assert _outcome(values, start, end) == _outcome(list(values), start, end)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_floats_bounds_not_rounded(self, dtype):
        # numpy compares a float32 scalar with the bounds rounded to float32:
        # as inf <= inf past float max, and as 1 <= 1 below 1 + 1e-10; an
        # array and a list of its scalars are both decided as doubles
        for value, start in ((np.inf, 0.0), (1.0, 1.0 + 1e-10)):
            array = np.array([value], dtype=dtype)
            for values in (array, list(array)):
                with pytest.raises(ValueError, match="t = "):
                    system.check_times(values, start)


def _dump_bytes(
    sys_, rows, n_scale=300.0, t=0.5, rate_scale=1.0, version=2, n=None, m=None
):
    """A particle dump in the documented layout, fields overridable."""
    n = sys_.n if n is None else n
    m = sys_.m if m is None else m
    header = struct.pack(
        "<BII d d d Q", version, n, m, n_scale, t, rate_scale, len(rows)
    )
    return b"GELK1" + header + np.asarray(rows, dtype="<f8").tobytes()


class TestDumpFuzz:
    """Every malformed particle dump is a schema error naming the file."""

    @pytest.fixture(scope="class")
    def dump_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("dumps") / "state.bin"

    @staticmethod
    def _rejects(sys_, path, blob):
        path.write_bytes(blob)
        with pytest.raises(SchemaError) as info:
            gk.load_state(sys_, path, 1)
        assert info.value.pointer == str(path)

    @given(blob=st.binary(max_size=300), magic=st.booleans())
    def test_random_bytes(self, kac, dump_path, blob, magic):
        self._rejects(kac[0], dump_path, (b"GELK1" if magic else b"") + blob)

    def test_truncated_at_every_offset(self, kac, dump_path):
        sys_, meas = kac
        blob = _dump_bytes(sys_, gk.sample_atoms(meas, 3, np.random.default_rng(0)))
        dump_path.write_bytes(blob)
        assert gk.load_state(sys_, dump_path, 1).n_particles == 3
        for size in range(len(blob)):
            self._rejects(sys_, dump_path, blob[:size])
        self._rejects(sys_, dump_path, blob + b"\0")

    @given(version=st.integers(0, 255).filter(lambda v: v not in (1, 2)))
    def test_bad_version(self, kac, dump_path, version):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 2, np.random.default_rng(1))
        self._rejects(sys_, dump_path, _dump_bytes(sys_, rows, version=version))

    @given(n=st.integers(0, 2**32 - 1), m=st.integers(0, 2**32 - 1))
    def test_mismatched_layout(self, kac, dump_path, n, m):
        sys_, meas = kac
        if (n, m) == (sys_.n, sys_.m):
            n += 1
        rows = gk.sample_atoms(meas, 2, np.random.default_rng(2))
        self._rejects(sys_, dump_path, _dump_bytes(sys_, rows, n=n, m=m))

    @given(
        n_scale=st.floats(allow_nan=True, allow_infinity=True),
        t=st.floats(allow_nan=True, allow_infinity=True),
        rate_scale=st.floats(allow_nan=True, allow_infinity=True),
        cell=st.tuples(st.integers(0, 1), st.integers(0, 5)),
        value=st.floats(allow_nan=True, allow_infinity=True),
    )
    def test_header_and_row_values(
        self, kac, dump_path, n_scale, t, rate_scale, cell, value
    ):
        # a dump either loads as written or is a schema error, never a crash;
        # the rate factor slot scales kinetic-gas's blocks, whose largest
        # entry is 2, and a system averages A and A^T, so a positive factor
        # is valid up to a quarter of the double range
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 2, np.random.default_rng(3))
        rows[cell] = value
        dump_path.write_bytes(_dump_bytes(sys_, rows, n_scale, t, rate_scale))
        valid = (
            np.isfinite([n_scale, t, rate_scale]).all()
            and n_scale > 0 and t >= 0 and 0 < 4.0 * rate_scale < np.inf
            and np.isfinite(rows).all() and (rows[:, 1 : 1 + sys_.n] >= 0).all()
        )
        if valid:
            ps = gk.load_state(sys_, dump_path, 1)
            assert (ps.n_scale, ps.t) == (n_scale, t)
            assert np.array_equal(ps.sys.block, sys_.block * rate_scale)
            assert np.array_equal(ps.coords, rows)
        else:
            self._rejects(sys_, dump_path, dump_path.read_bytes())


# any JSON value json.loads can return, including the NaN/Infinity literals
# and integers past the float range
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4)
    | st.integers() | st.sampled_from([10**400, -(10**400), 2**53 + 1])
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    """Every location inside a JSON value, as key/index tuples."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, val in items:
        yield prefix + (key,)
        yield from _paths(val, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one location replaced by any JSON value, or deleted."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return doc


_KAC_DOC = gk.system_measure_to_json(*gk.kinetic_gas())
_CONFIGS = (
    {"kind": "tg", "system": _KAC_DOC, "rate_scale": 1.0, "output": "t.json"},
    {
        "kind": "gel-curve", "system": "kac.json", "doubled_rates": True,
        "params": {"t_max": 2.0, "points": 5}, "seed": 1,
    },
)


class TestJsonFuzz:
    """Every malformed system document or run config is a schema error,
    never a bare exception or a non-finite number let through."""

    @staticmethod
    def _system_or_schema_error(obj):
        try:
            sys_, meas = gk.system_measure_from_json(obj)
        except SchemaError:
            return
        assert np.isfinite(sys_.block).all()
        assert np.isfinite(meas.coords).all()
        assert (meas.weight_array > 0.0).all() and np.isfinite(meas.weight_array).all()

    @given(doc=mutated(_KAC_DOC))
    def test_system_one_field(self, doc):
        self._system_or_schema_error(doc)

    @given(doc=json_values)
    def test_system_any_value(self, doc):
        self._system_or_schema_error(doc)

    @pytest.fixture(scope="class")
    def config_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("configs")
        (path / "kac.json").write_text(json.dumps(_KAC_DOC))
        return path

    @staticmethod
    def _config_or_schema_error(path, text):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        try:
            kind, model, meas, rate_scale, seed, params, out = cli._read_config(str(path))
            cli._resolve(kind, params)
        except SchemaError:
            return
        # its sign and size are the rule of BilinearSystem.scaled
        assert isinstance(rate_scale, float) and np.isfinite(rate_scale)

    @given(cfg=st.sampled_from(_CONFIGS).flatmap(mutated))
    def test_config_one_field(self, config_dir, cfg):
        self._config_or_schema_error(config_dir / "exp.json", json.dumps(cfg))

    @given(blob=st.binary(max_size=200))
    def test_config_random_bytes(self, config_dir, blob):
        self._config_or_schema_error(config_dir / "exp.json", blob)

    def test_deep_nesting(self, config_dir):
        path = config_dir / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(SchemaError):
            gk.load_system(path)
        with pytest.raises(SchemaError):
            cli._read_config(str(path))
