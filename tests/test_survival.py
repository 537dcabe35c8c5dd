import mpmath
import numpy as np
import pytest

import gelkit as gk
from gelkit import survival
from gelkit.errors import SlowConvergence

PRESETS = ("multiplicative", "bidisperse", "kinetic-gas")


def bisect_gel_mass(t: float, lo=1e-12, hi=1.0 - 1e-15) -> float:
    """Independent oracle: root of M = 1 - exp(-t M) on (0, 1)."""
    f = lambda m: 1.0 - np.exp(-t * m) - m
    assert f(lo) > 0.0 and f(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFixedPoint:
    def test_zero_at_and_below_critical(self, mult):
        sys_, meas = mult
        for t in (0.0, 0.5, 1.0, 1.0 + 1e-13):
            sol = gk.solve_fixed_point(sys_, meas, t)
            assert sol.is_zero
            assert np.all(sol.c == 0.0)

    def test_gel_mass_against_bisection(self, mult):
        sys_, meas = mult
        for t in (1.2, 1.5, 2.0, 3.0):
            got = gk.gel_data(sys_, meas, t).mass
            assert got == pytest.approx(bisect_gel_mass(t), abs=1e-11)

    def test_survival_coefficient_value(self, mult):
        sys_, meas = mult
        sol = gk.solve_fixed_point(sys_, meas, 2.0)
        # c solves c = 2(1 - e^{-c}); equals twice the gel mass here
        assert sol.c[0] == pytest.approx(2.0 * bisect_gel_mass(2.0), abs=1e-10)

    def test_fixed_point_residual_is_small(self, mult):
        sys_, meas = mult
        sol = gk.solve_fixed_point(sys_, meas, 1.7)
        mapped = gk.fixed_point_map(sys_, meas, sol.c)
        assert np.abs(sol.c - 1.7 * mapped).max() < 1e-10

    def test_negative_time_rejected(self, mult):
        sys_, meas = mult
        with pytest.raises(ValueError):
            gk.solve_fixed_point(sys_, meas, -0.1)

    def test_maximality_on_bidisperse(self, bidi):
        sys_, meas = bidi
        sol = gk.solve_fixed_point(sys_, meas, 1.0)
        assert not sol.is_zero
        # iterating the map once from above the solution comes back down to it
        up = 1.0 * gk.fixed_point_map(sys_, meas, sol.c * 1.01)
        assert np.all(up <= sol.c * 1.01 + 1e-12)

    def test_rate_scale_is_time_change(self, mult):
        sys_, meas = mult
        a = gk.solve_fixed_point(sys_.scaled(2.0), meas, 1.5)
        b = gk.solve_fixed_point(sys_, meas, 3.0)
        assert np.allclose(a.c, b.c, atol=1e-11)


class TestNearCritical:
    """The maximal root at t = t_g (1 + 10^-k), where the Jacobian of
    c - t F(c) is singular to O(10^-k) and rounding is amplified by 10^k."""

    @pytest.mark.parametrize("k", range(3, 12))
    @pytest.mark.parametrize("name", PRESETS)
    def test_ladder(self, name, k):
        sys_, meas = gk.from_name(name)
        t_g = gk.gelation_time(sys_, meas)
        t = t_g * (1.0 + 10.0**-k)
        sol = gk.solve_fixed_point(sys_, meas, t)
        mapped = t * gk.fixed_point_map(sys_, meas, sol.c)
        assert np.abs(sol.c - mapped).max() <= 1e-14 * np.abs(sol.c).max()
        # first-order critical expansion; the next term is O(10^-k) relative
        c_prime, _ = gk.critical_slope(sys_, meas)
        dev = np.abs(sol.c / (c_prime * (t - t_g)) - 1.0).max()
        assert dev <= 10.0 ** (1 - k) + 1e-15 * 10.0**k
        if name == "multiplicative":
            with mpmath.workdps(60):
                tt = mpmath.mpf(t)
                root = mpmath.findroot(
                    lambda c: c - tt * -mpmath.expm1(-c), 2 * (tt - 1)
                )
                rel = float(abs(sol.c[0] / root - 1))
            assert rel <= max(1e-12, 1e-15 * 10.0**k)

    @pytest.mark.parametrize("name", PRESETS)
    def test_gel_curve_rows_match_pointwise(self, name):
        sys_, meas = gk.from_name(name)
        t_g = gk.gelation_time(sys_, meas)
        times = np.sort(np.concatenate((
            np.linspace(0.0, 2.5 * t_g, 40), t_g * (1.0 + 10.0 ** -np.arange(3, 12))
        )))
        rows = gk.gel_curve(sys_, meas, times)
        n = sys_.n
        for t, row in zip(times, rows):
            sol = gk.solve_fixed_point(sys_, meas, t)
            g = gk.gel_data(sys_, meas, t).g
            want = np.concatenate(([t], sol.c, g[: 1 + n]))
            np.testing.assert_allclose(row, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_newton_stack_rows_equal_one_row_solves(self, name):
        # gel_curve and gel_growth_ode solve many times as one stack and
        # rely on each row being its one-row solve, bit for bit
        sys_, meas = gk.from_name(name)
        t_g = gk.gelation_time(sys_, meas)
        scales = t_g * np.concatenate((1.0 + 10.0 ** -np.arange(2, 7), [1.5, 10.0]))
        stack = survival._newton(sys_, meas, scales)
        for scale, row in zip(scales, stack):
            assert np.array_equal(row, survival._newton(sys_, meas, np.array([scale]))[0])
        assert np.array_equal(survival._newton(sys_, meas, scales[::-1])[::-1], stack)

    def test_iteration_cap(self, kac, monkeypatch):
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        monkeypatch.setattr(survival, "_MAX_NEWTON", 1)
        # far above t_g the first step is already below the tolerance
        assert not gk.solve_fixed_point(sys_, meas, 100.0 * t_g).is_zero
        monkeypatch.setattr(survival, "_MAX_NEWTON", 5)
        with pytest.raises(SlowConvergence):
            gk.solve_fixed_point(sys_, meas, t_g * (1.0 + 1e-6))
        with pytest.raises(SlowConvergence):
            gk.gel_curve(sys_, meas, [0.5 * t_g, t_g * (1.0 + 1e-6)])


class TestGelData:
    def test_conserved_equals_mass_for_unit_atoms(self, mult):
        sys_, meas = mult
        g = gk.gel_data(sys_, meas, 2.0)
        assert g.conserved(1)[0] == pytest.approx(g.mass, abs=1e-12)

    def test_kinetic_gel_momentum_is_zero(self, kac):
        sys_, meas = kac
        g = gk.gel_data(sys_, meas, 0.3)
        assert g.mass > 0.0
        assert np.abs(g.odd(2)).max() < 1e-12

    def test_gel_curve_layout(self, mult):
        sys_, meas = mult
        rows = gk.gel_curve(sys_, meas, [0.5, 1.5, 2.0])
        assert rows.shape == (3, 4)
        assert rows[0, 2] == 0.0  # subcritical: no gel
        assert rows[2, 2] == pytest.approx(bisect_gel_mass(2.0), abs=1e-10)
        # for unit atoms, extracted count equals extracted mass
        assert rows[2, 3] == pytest.approx(rows[2, 2], abs=1e-12)

    def test_tilted_measure_first_moment_identity(self, mult):
        sys_, meas = mult
        for t in (1.3, 2.0):
            tilted = gk.tilted_measure(sys_, meas, t)
            g = gk.gel_data(sys_, meas, t)
            lhs = gk.first_moments(tilted)
            rhs = gk.first_moments(meas) - g.g[:2]
            assert np.abs(lhs - rhs).max() < 1e-14

    def test_tilted_measure_is_subcritical(self, mult):
        sys_, meas = mult
        tilted = gk.tilted_measure(sys_, meas, 2.0)
        assert gk.gelation_time(sys_, tilted) > 2.0


class TestCriticalSlope:
    def test_multiplicative_values(self, mult):
        sys_, meas = mult
        c_prime, g_prime = gk.critical_slope(sys_, meas)
        assert c_prime[0] == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(g_prime, [2.0, 2.0], atol=1e-12)

    def test_doubled_rates_rescale(self, mult):
        sys_, meas = mult
        c_prime, g_prime = gk.critical_slope(sys_.scaled(2.0), meas)
        # t_g halves and the slope in t doubles twice over
        assert c_prime[0] == pytest.approx(4.0, abs=1e-12)
        assert g_prime[0] == pytest.approx(4.0, abs=1e-12)

    def test_slope_positive_on_presets(self, bidi, kac):
        for sys_, meas in (bidi, kac):
            c_prime, g_prime = gk.critical_slope(sys_, meas)
            assert np.all(c_prime > 0.0)
            assert np.all(g_prime > 0.0)

    @pytest.mark.parametrize("name", PRESETS)
    def test_small_coordinate_scale(self, name):
        # the degeneracy floor once grew like s^3 against a term growing like
        # s^2, with max(1, .) on top, so every preset failed at s = 1e-8
        sys_, meas = gk.from_name(name)
        s = 1e-8
        coords = np.array(meas.coords)
        coords[:, 1:] *= s
        small = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        c_ref, g_ref = gk.critical_slope(sys_, meas)
        c_prime, g_prime = gk.critical_slope(sys_, small)
        np.testing.assert_allclose(c_prime, c_ref * s, rtol=1e-12)
        np.testing.assert_allclose(g_prime[0], g_ref[0] * s * s, rtol=1e-12)
        np.testing.assert_allclose(g_prime[1:], g_ref[1:] * s**3, rtol=1e-12)

    def test_finite_difference_agreement_bidisperse(self, bidi):
        sys_, meas = bidi
        c_prime, _ = gk.critical_slope(sys_, meas)
        t_g = gk.gelation_time(sys_, meas)
        h = 4e-3
        s1 = gk.solve_fixed_point(sys_, meas, t_g + h).c / h
        s2 = gk.solve_fixed_point(sys_, meas, t_g + h / 2).c / (h / 2)
        extrap = 2.0 * s2 - s1
        assert np.abs(extrap - c_prime).max() < 0.02 * np.abs(c_prime).max()


class TestSizeBias:
    def test_monodisperse_equality(self, mult):
        sys_, meas = mult
        rep = gk.size_bias_check(sys_, meas)
        assert abs(rep.lhs - rep.rhs) < 1e-10
        assert not rep.strict

    def test_bidisperse_strict(self, bidi):
        sys_, meas = bidi
        rep = gk.size_bias_check(sys_, meas)
        assert rep.strict
        assert rep.margin > 0.1
        # frozen values: theta = (1,), lhs = sum of both channels
        assert rep.lhs == pytest.approx(125.0 / 18.0, abs=1e-9)
        assert rep.rhs == pytest.approx(6.25, abs=1e-9)

    def test_gaussian_kinetic_strict(self):
        sys_, meas = gk.kinetic_gas_sample(8, seed=1)
        rep = gk.size_bias_check(sys_, meas)
        assert rep.strict
        assert rep.margin > 0.0
