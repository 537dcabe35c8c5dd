import math
import warnings

import numpy as np
import pytest

import gelkit as gk
from gelkit import _rk
from gelkit.errors import BudgetExceeded, NegativeRate


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

    @pytest.mark.parametrize("xi", [2.5, 3.0])
    def test_negative_rate_on_any_species_pair(self, xi):
        # K = 4 and 7 within a species, 2 - 3 across: the cross pair counts
        # whether or not it fits below xi (size 3), since the loss rates
        # read it either way
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[3.0]])
        meas = gk.AtomicMeasure([[1, 1, 1], [1, 2, -1]], [0.5, 0.5], 1)
        with pytest.raises(NegativeRate):
            gk.TruncatedFlory(sys_, meas, xi)

    def test_negative_rate_where_no_pair_fits(self):
        # K = -6, -4 and -1 over sizes 2 and 3: no pair fits below xi = 3.5,
        # yet the loss rates read them all; unchecked, the sol grew past
        # 1e11 against a conserved 3.5
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-10.0]])
        meas = gk.AtomicMeasure([[1, 2, 1], [1, 3, 1]], [0.5, 0.5], 1)
        with pytest.raises(NegativeRate):
            gk.TruncatedFlory(sys_, meas, 3.5)

    def test_rate_within_tolerance_clips_in_the_loss(self):
        # K = -1e-12 clips to 0 in the weights and in the loss rate alike,
        # so the monomer neither grows nor overflows at late times
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-(1.0 + 1e-12)]])
        meas = gk.AtomicMeasure([[1.0, 1.0, 1.0]], [1.0], 1)
        model = gk.TruncatedFlory(sys_, meas, 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = model.integrate(1e15, outputs=[1.0, 1e12, 1e15])
        for st in states:
            assert st.densities[model.index[(1,)]] == 1.0
            assert st.densities[model.index[(2,)]] == 0.0

    def test_kinetic_truncation_runs(self, kac):
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        states = gk.integrate_truncated(
            sys_, meas, 12.0, 2.0 * t_g, outputs=[2.0 * t_g]
        )
        st = states[0]
        assert st.gel.mass > 0.0
        assert st.phi_sol > 0.0

    @pytest.mark.parametrize("xi", [8.0, 10.0, 12.0])
    def test_mirror_symmetric_gel_has_no_odd_part(self, kac, xi):
        # the sign-odd gel block is exactly 0, not the rounding residue of
        # a sum of mirrored types (such as -2.5e-17 at xi = 8)
        sys_, meas = kac
        assert meas.mirror_symmetric
        states = gk.TruncatedFlory(sys_, meas, xi).integrate(
            0.3, outputs=[0.07, 0.2, 0.3]
        )
        for st in states:
            odd = st.gel.odd(sys_.n)
            assert odd.size == sys_.m and not odd.any()
            assert st.gel.mass > 0.0

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


# below the normal range a double has no relative precision
_TINY = np.finfo(float).tiny
_PRESETS = pytest.mark.parametrize("preset, xi", [("mult", 16), ("bidi", 8), ("kac", 14)])


def _flory_stockmayer(model, t):
    """``n_k = k^(k-2) t^(k-1) e^(-kt) / k!`` for the one-species types."""
    k = np.array([c[0] for c in model.types], dtype=float)
    log_fact = np.array([math.lgamma(v + 1.0) for v in k])
    return np.exp((k - 2.0) * np.log(k) + (k - 1.0) * np.log(t) - k * t - log_fact)


def _pair_oracle(model):
    """Every in-range pair (i, j >= i) of types that merges to a type, with
    the type it makes and its rate, by a double loop with a dict lookup per
    pair."""
    ix, iy, iz, coeff = [], [], [], []
    comps = [np.array(c) for c in model.types]
    for i in range(len(model.types)):
        for j in range(i, len(model.types)):
            if model.sizes[i] + model.sizes[j] > model.xi * (1.0 + 1e-12):
                continue
            merged = model.index.get(tuple(int(v) for v in comps[i] + comps[j]))
            if merged is None:
                continue  # float edge: product fell out of range
            ix.append(i)
            iy.append(j)
            iz.append(merged)
            coeff.append(0.5 if i == j else 1.0)
    ix, iy = np.array(ix, dtype=np.intp), np.array(iy, dtype=np.intp)
    rate = model.coords[:, 1:]
    kv = np.einsum("ij,ij->i", rate[ix] @ model.sys.block, rate[iy])
    return ix, iy, np.array(iz, dtype=np.intp), np.array(coeff) * kv


def _generator(model):
    """The right-hand side of the truncated equation, on the pair table of
    :func:`_pair_oracle`: merge gains less the constant loss rates."""
    ix, iy, iz, rate = _pair_oracle(model)

    def rhs(t, n):
        gain = np.bincount(iz, weights=n[ix] * n[iy] * rate, minlength=len(n))
        return gain - n * model._loss

    return rhs


class TestClosedForm:
    """The densities are the spanning-tree closed form: Flory-Stockmayer on
    one species, a tight integration of the generator on every preset, and
    finite at any time."""

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_flory_stockmayer(self, mult, t):
        model = gk.TruncatedFlory(*mult, 64)
        got = model.integrate(t)[-1].densities
        np.testing.assert_allclose(got, _flory_stockmayer(model, t), rtol=1e-12, atol=_TINY)

    @pytest.mark.parametrize(
        "tau, xi",
        [(0.5, 2.0), (2.0, 2.0), (10.0, 2.0), (2.0, 8.0)],
        ids=["0.5", "2.0", "10.0", "2.0-xi8"],
    )
    def test_flory_stockmayer_small_species(self, mult, tau, xi):
        # xi / x types of up to xi / x particles of size x, at x^2 t = tau;
        # the 4000 types of xi = 8 make 4 million pairs of compositions,
        # which a budget on a table of such pairs once refused
        x = 2e-3
        model = gk.TruncatedFlory(mult[0], gk.AtomicMeasure([[1.0, x]], [1.0], 1), xi)
        assert len(model.types) == round(xi / x)
        got = model.integrate(tau / x**2)[-1].densities
        np.testing.assert_allclose(got, _flory_stockmayer(model, tau), rtol=1e-10, atol=_TINY)

    @_PRESETS
    def test_matches_tight_integration(self, preset, xi, request):
        sys_, meas = request.getfixturevalue(preset)
        model = gk.TruncatedFlory(sys_, meas, xi)
        t_end = 2.0 * gk.gelation_time(sys_, meas)
        times = [0.5 * t_end, t_end]
        ref = _rk.integrate(
            _generator(model), 0.0, model.initial_densities, t_end, rtol=1e-13,
            atol=1e-24, outputs=times,
        )
        for st, want in zip(model.integrate(t_end, outputs=times), ref.ys, strict=True):
            big = want > 1e-12 * want.max()
            np.testing.assert_allclose(st.densities[big], want[big], rtol=1e-10)

    @_PRESETS
    def test_derivative_is_the_generator(self, preset, xi, request):
        # absolute in the largest loss flux: kinetic-gas's same-atom types
        # are about 1e-24, with rates that are rounding
        sys_, meas = request.getfixturevalue(preset)
        model = gk.TruncatedFlory(sys_, meas, xi)
        edges = np.array(model.types).sum(axis=1) - 1.0
        rhs = _generator(model)
        t_g = gk.gelation_time(sys_, meas)
        for t in (0.1 * t_g, 0.5 * t_g, t_g, 3.0 * t_g):
            n = model.integrate(t)[-1].densities
            dn = n * (edges / t - model._loss)
            tol = 1e-12 * (model._loss * n).max()
            np.testing.assert_allclose(dn, rhs(t, n), rtol=0, atol=tol)

    def test_zero_rates_keep_the_initial_densities(self):
        sys_ = gk.BilinearSystem(2, 0, [[0.0, 1.0], [1.0, 0.0]], [])
        meas = gk.AtomicMeasure([[1, 1, 0], [1, 2, 0]], [0.25, 0.75], 2)
        model = gk.TruncatedFlory(sys_, meas, 4)
        got = model.integrate(3.0)[-1].densities
        np.testing.assert_allclose(got, model.initial_densities, rtol=1e-15, atol=0)

    @_PRESETS
    def test_late_times(self, preset, xi, request):
        sys_, meas = request.getfixturevalue(preset)
        model = gk.TruncatedFlory(sys_, meas, xi)
        t_late = 1e12 * gk.gelation_time(sys_, meas)
        for st in model.integrate(t_late, outputs=[1e5]):
            assert np.isfinite(st.densities).all()
            assert (st.densities >= 0.0).all()


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
        rhs = _generator(model)
        rng = np.random.default_rng(21)
        for _ in range(3):
            n = rng.random(len(model.types)) * model.initial_densities.max()
            dn, dgel = _rhs_oracle(model, n)
            got = rhs(0.0, n)
            np.testing.assert_allclose(got, dn, rtol=1e-12)
            # the gel read off by conservation takes what the densities lose
            np.testing.assert_allclose(-got @ model.coords, dgel, rtol=1e-12)

