import math

import numpy as np
import pytest

import gelkit as gk
from gelkit.errors import BudgetExceeded


class TestEnumeration:
    def test_multiplicative_xi3(self, mult):
        _, meas = mult
        types = gk.enumerate_types(meas, 3)
        assert types == [(1,), (2,), (3,)]

    def test_bidisperse_xi3(self, bidi):
        _, meas = bidi
        types = gk.enumerate_types(meas, 3)
        # compositions (a light, b heavy) with a + 2b <= 3, sorted by size
        assert types == [(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)]

    def test_budget(self, bidi):
        _, meas = bidi
        with pytest.raises(BudgetExceeded):
            gk.enumerate_types(meas, 40, max_types=10)

    def test_type_space_follows_the_coordinate_unit(self, bidi):
        # an absolute 1e-12 slack over xi lost the two types of size exactly
        # xi at this scale: 286 types, not 288
        _, meas = bidi
        s = 1495.620878447425
        coords = np.array(meas.coords)
        coords[:, 1:] *= s
        scaled = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        types = gk.enumerate_types(meas, 32)
        assert len(types) == 288
        assert sorted(gk.enumerate_types(scaled, 32 * s)) == sorted(types)
        sys_ = bidi[0]
        assert len(gk.TruncatedFlory(sys_, scaled, 32 * s)._ix) == len(
            gk.TruncatedFlory(sys_, meas, 32)._ix
        )

    def test_type_order_follows_the_coordinate_unit(self, bidi):
        # equal sizes were once ordered by the rounding of their summed
        # sizes, which at this scale swapped types of equal size
        _, meas = bidi
        coords = np.array(meas.coords)
        coords[:, 1:] *= 1e-4
        scaled = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        assert gk.enumerate_types(scaled, 8e-4) == gk.enumerate_types(meas, 8)

    def test_zero_size_species(self, mult):
        # a species of plus-size 0 fits below any xi any number of times
        sys_, _ = mult
        meas = gk.AtomicMeasure([[1, 0], [1, 1]], [1.0, 1.0], 1)
        with pytest.raises(BudgetExceeded, match="zero conserved size"):
            gk.enumerate_types(meas, 3)
        with pytest.raises(BudgetExceeded, match="zero conserved size"):
            gk.TruncatedFlory(sys_, meas, 3)


class TestTruncatedDynamics:
    def test_monomer_decay_xi1(self, mult):
        sys_, meas = mult
        states = gk.integrate_truncated(sys_, meas, 1, 1.0, outputs=[0.5, 1.0])
        for st in states:
            assert st.densities[0] == pytest.approx(
                np.exp(-st.t), abs=1e-10
            )

    def test_monomer_decay_is_xi_independent(self, mult):
        sys_, meas = mult
        for xi in (2, 5):
            st = gk.integrate_truncated(sys_, meas, xi, 1.0, outputs=[1.0])[0]
            assert st.densities[0] == pytest.approx(np.exp(-1.0), abs=1e-9)

    def test_conservation(self, bidi):
        sys_, meas = bidi
        model = gk.TruncatedFlory(sys_, meas, 4)
        states = model.integrate(2.0, outputs=[0.0, 0.5, 1.0, 2.0])
        totals = [model.conserved_total(st) for st in states]
        for tot in totals:
            assert tot == pytest.approx(totals[0], abs=1e-9)

    def test_gel_monotone_in_xi(self, mult):
        sys_, meas = mult
        masses = []
        for xi in (1, 2, 4, 8):
            st = gk.integrate_truncated(sys_, meas, xi, 1.5, outputs=[1.5])[0]
            masses.append(st.gel.mass)
        assert all(a > b for a, b in zip(masses, masses[1:]))

    def test_approaches_fixed_point(self, mult):
        sys_, meas = mult
        st = gk.integrate_truncated(sys_, meas, 16, 2.0, outputs=[2.0])[0]
        limit = gk.gel_data(sys_, meas, 2.0).mass
        assert st.gel.mass > limit
        assert st.gel.mass - limit < 0.05

    def test_densities_nonnegative(self, bidi):
        sys_, meas = bidi
        st = gk.integrate_truncated(sys_, meas, 5, 2.0, outputs=[2.0])[0]
        assert np.all(st.densities >= 0.0)

    def test_density_map_keys(self, bidi):
        sys_, meas = bidi
        model = gk.TruncatedFlory(sys_, meas, 3)
        st = model.integrate(0.5, outputs=[0.5])[0]
        dm = model.density_map(st)
        assert set(dm) == {(1, 0), (0, 1), (2, 0), (1, 1), (3, 0)}
        assert dm[(1, 0)] == pytest.approx(
            0.5 * np.exp(-0.5 * 1.5), rel=1e-6
        )  # light monomer decays at its own collision pressure

    def test_initial_measure_required(self, mult):
        sys_, _ = mult
        meas = gk.AtomicMeasure([[2.0, 1.0]], [1.0], 1)
        with pytest.raises(ValueError):
            gk.TruncatedFlory(sys_, meas, 3)

    def test_xi_below_species_size(self, bidi):
        sys_, meas = bidi
        with pytest.raises(ValueError):
            gk.TruncatedFlory(sys_, meas, 1)  # heavy species has size 2

    def test_kinetic_truncation_runs(self, kac):
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        states = gk.integrate_truncated(
            sys_, meas, 12.0, 2.0 * t_g, outputs=[2.0 * t_g]
        )
        st = states[0]
        assert st.gel.mass > 0.0
        assert st.phi_sol > 0.0

    def test_array_outputs(self, mult):
        sys_, meas = mult
        states = gk.TruncatedFlory(sys_, meas, 4).integrate(
            1.0, outputs=np.array([0.5, 1.0])
        )
        assert [st.t for st in states] == [0.5, 1.0]

    @pytest.mark.parametrize("rate", [1e14, 1e16])
    def test_rate_scale_divides_time(self, mult, rate):
        # a span of 2e-16 once ended at the first step with no gel at all
        sys_, meas = mult
        ref = gk.TruncatedFlory(sys_, meas, 16).integrate(2.0)[-1]
        st = gk.TruncatedFlory(sys_.scaled(rate), meas, 16).integrate(2.0 / rate)[-1]
        assert st.t == 2.0 / rate
        assert st.gel.mass == pytest.approx(ref.gel.mass, rel=1e-9)
        np.testing.assert_allclose(st.densities, ref.densities, rtol=1e-9, atol=1e-15)


def _rhs_oracle(model, n):
    """dn and the gel's intake by a double loop over every pair of types.

    The gel is explicit: it holds the data the densities have lost, takes
    every merge product that is not a type, and absorbs each type at the
    rate ``x . A g``, one term per type's lost data.  Each ``dn`` entry is
    a correctly rounded sum of its terms, since gain and loss may cancel to
    a small fraction of either.
    """
    rate = model.coords[:, 1:]
    a = model.sys.block
    lost = model.initial_densities - n
    comps = [np.array(c) for c in model.types]
    terms = [[] for _ in n]
    dgel = np.zeros(model.coords.shape[1])
    for i in range(len(n)):
        for j in range(i, len(n)):
            flux = (0.5 if i == j else 1.0) * (rate[i] @ a @ rate[j]) * n[i] * n[j]
            terms[i].append(-flux)
            terms[j].append(-flux)
            merged = model.index.get(tuple(int(v) for v in comps[i] + comps[j]))
            if merged is None:
                dgel += flux * (model.coords[i] + model.coords[j])
            else:
                terms[merged].append(flux)
        absorbed = [n[i] * (rate[i] @ a @ rate[j]) * lost[j] for j in range(len(n))]
        terms[i] += [-x for x in absorbed]
        dgel += math.fsum(absorbed) * model.coords[i]
    return np.array([math.fsum(t) for t in terms]), dgel


class TestRightHandSide:
    @pytest.mark.parametrize("preset, xi", [("mult", 8), ("bidi", 8), ("kac", 14)])
    def test_matches_pair_loop(self, preset, xi, request):
        sys_, meas = request.getfixturevalue(preset)
        model = gk.TruncatedFlory(sys_.scaled(2.5), meas, xi)
        rng = np.random.default_rng(21)
        for _ in range(3):
            n = rng.random(len(model.types)) * model.initial_densities.max()
            dn, dgel = _rhs_oracle(model, n)
            got = model._rhs(0.0, n)
            np.testing.assert_allclose(got, dn, rtol=1e-12)
            # the gel read off by conservation takes what the densities lose
            np.testing.assert_allclose(-got @ model.coords, dgel, rtol=1e-12)


def _pair_oracle(model):
    """The pair table by a double loop with a dict lookup per pair."""
    ix, iy, iz, coeff = [], [], [], []
    skipped = 0
    comps = [np.array(c) for c in model.types]
    for i in range(len(model.types)):
        for j in range(i, len(model.types)):
            if model.sizes[i] + model.sizes[j] > model.xi * (1.0 + 1e-12):
                continue
            merged = model.index.get(tuple(int(v) for v in comps[i] + comps[j]))
            if merged is None:
                skipped += 1  # float edge: product fell out of range
                continue
            ix.append(i)
            iy.append(j)
            iz.append(merged)
            coeff.append(0.5 if i == j else 1.0)
    ix, iy = np.array(ix, dtype=np.intp), np.array(iy, dtype=np.intp)
    rate = model.coords[:, 1:]
    kv = np.einsum("ij,ij->i", rate[ix] @ model.sys.block, rate[iy])
    return ix, iy, np.array(iz, dtype=np.intp), np.array(coeff) * kv, skipped


def _assert_pairs_match(model):
    ix, iy, iz, rate, skipped = _pair_oracle(model)
    tables = (model._ix, model._iy, model._iz, model._pair_rate)
    for got, want in zip(tables, (ix, iy, iz, rate)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    return skipped


class TestPairTable:
    def test_bidisperse_matches_loop(self, bidi):
        assert _assert_pairs_match(gk.TruncatedFlory(*bidi, 32)) == 0

    @pytest.mark.parametrize("xi", [0.3, 0.6, 0.9, 1.2])
    def test_sums_at_the_edge(self, xi):
        # 0.1 + 0.2 rounds to just above 0.3, inside the 1e-12 xi slack
        sys_ = gk.BilinearSystem(1, 0, [[1.0]], [])
        meas = gk.AtomicMeasure([[1, 0.1], [1, 0.2], [1, 0.3]], [1.0] * 3, 1)
        _assert_pairs_match(gk.TruncatedFlory(sys_, meas, xi))

    @pytest.mark.parametrize(
        "sizes, xi, skipped",
        [
            ([1777.0081569735837, 3954.4060515743363, 6891.500372007032],
             12839.446836429413, 3),
            # here the count of a species runs past its largest value
            ([181.3710551353201, 121.971713306028, 178.62364920315505],
             893.118246014882, 1),
        ],
    )
    def test_product_out_of_range_skipped(self, sizes, xi, skipped):
        # xi sits on the rounding edge of the slack, where the pair sums and
        # the enumeration round apart, so in-range pairs can merge to no type
        sys_ = gk.BilinearSystem(1, 0, [[1.0]], [])
        meas = gk.AtomicMeasure([[1, s] for s in sizes], [1.0] * 3, 1)
        assert _assert_pairs_match(gk.TruncatedFlory(sys_, meas, xi)) == skipped

    def test_many_species(self):
        # 11 species that pair, then 64 that pair with nothing: a plain
        # mixed-radix key would weigh the first 11 by a multiple of 2**64
        sys_ = gk.BilinearSystem(1, 0, [[1.0]], [])
        sizes = [1.0 + 0.01 * s for s in range(11)]
        sizes += [1.5 + 0.001 * s for s in range(64)]
        meas = gk.AtomicMeasure([[1, s] for s in sizes], [1.0] * 75, 1)
        model = gk.TruncatedFlory(sys_, meas, 2.2)
        assert _assert_pairs_match(model) == 0
        assert len(model._ix) == 66

    def test_pair_budget(self, bidi):
        pairs = len(gk.TruncatedFlory(*bidi, 32)._ix)
        gk.TruncatedFlory(*bidi, 32, max_pairs=pairs)
        with pytest.raises(BudgetExceeded, match="in-range pairs"):
            gk.TruncatedFlory(*bidi, 32, max_pairs=pairs - 1)
