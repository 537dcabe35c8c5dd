import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import gelkit as gk
from gelkit import _rk, moments, spectral, survival, system
from gelkit.errors import (
    DualNotSubcritical,
    ExplosionReached,
    GelkitError,
    NoConvergence,
    NumericError,
    SlowConvergence,
)


def resolvent_oracle(q0: np.ndarray, a_plus: np.ndarray, t: float, rs=1.0):
    """Closed form for the pre-gel second-moment flow; TEST ORACLE ONLY."""
    n = q0.shape[0]
    return q0 @ np.linalg.inv(np.eye(n) - t * rs * (a_plus @ q0))


def bordered(t, q, z):
    """The MomentState whose ``Y`` is ``Q`` bordered by ``z``."""
    q, z = np.asarray(q, dtype=float), np.asarray(z, dtype=float)
    return gk.MomentState(t, np.vstack((z, np.column_stack((z[1:], q)))))


def dop853_flow(sys_, state0, times):
    """``Y`` at ``times`` by a DOP853 integration of moment_rhs from
    ``state0``; TEST ORACLE ONLY, independent of the closed form."""
    n = state0.n

    def rhs(t, y):
        state = bordered(t, y[: n * n].reshape(n, n), y[n * n :])
        dq, dz = gk.moment_rhs(sys_, state)
        return np.concatenate((dq.ravel(), dz))

    sol = solve_ivp(
        rhs, (state0.t, times[-1]), np.concatenate((state0.q.ravel(), state0.z)),
        method="DOP853", rtol=1e-12, atol=1e-14, t_eval=times,
    )
    return [bordered(t, y[: n * n].reshape(n, n), y[n * n :]) for t, y in zip(times, sol.y.T)]


class TestSubcritical:
    def test_multiplicative_anchor(self, mult):
        sys_, meas = mult
        st = gk.integrate_subcritical(sys_, gk.initial_state(meas), 0.5)
        assert st.q[0, 0] == pytest.approx(2.0, rel=1e-9, abs=0.0)
        assert st.z[0] == pytest.approx(2.0, rel=1e-9, abs=0.0)
        assert st.z[1] == pytest.approx(2.0, rel=1e-9, abs=0.0)
        assert st.total_second_moment == pytest.approx(8.0, rel=1e-9, abs=0.0)

    def test_against_resolvent_oracle(self, kac):
        sys_, meas = kac
        q0 = gk.gram_plus(meas)
        for t in (0.05, 0.1, 0.14):
            st = gk.integrate_subcritical(sys_, gk.initial_state(meas), t)
            oracle = resolvent_oracle(q0, sys_.a_plus, t)
            assert np.allclose(st.q, oracle, rtol=1e-7)

    def test_oracle_with_rate_scale(self, bidi):
        sys_, meas = bidi
        q0 = gk.gram_plus(meas)
        st = gk.integrate_subcritical(sys_.scaled(2.0), gk.initial_state(meas), 0.15)
        oracle = resolvent_oracle(q0, sys_.a_plus, 0.15, rs=2.0)
        assert np.allclose(st.q, oracle, rtol=1e-8)

    def test_outputs_grid(self, mult):
        sys_, meas = mult
        states = gk.integrate_subcritical(
            sys_, gk.initial_state(meas), 0.8, outputs=[0.2, 0.5, 0.8]
        )
        assert [s.t for s in states] == [0.2, 0.5, 0.8]
        qs = [s.q[0, 0] for s in states]
        assert qs == sorted(qs)

    def test_rate_scale_is_time_change(self, kac):
        sys_, meas = kac
        a = gk.integrate_subcritical(sys_.scaled(2.0), gk.initial_state(meas), 0.06)
        b = gk.integrate_subcritical(sys_, gk.initial_state(meas), 0.12)
        assert np.allclose(a.q, b.q, rtol=1e-8)
        assert np.allclose(a.z, b.z, rtol=1e-8)

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_against_dop853_integration(self, preset, request):
        # the closed form against an independent integration of moment_rhs,
        # which checks z as well as Q
        sys_, meas = request.getfixturevalue(preset)
        s0 = gk.initial_state(meas)
        t_g = gk.gelation_time(sys_, meas)
        times = [0.3 * t_g, 0.6 * t_g, 0.9 * t_g]
        states = gk.integrate_subcritical(sys_, s0, times[-1], outputs=times)
        for st, ref in zip(states, dop853_flow(sys_, s0, times), strict=True):
            assert np.allclose(st.q, ref.q, rtol=1e-8, atol=0)
            assert np.allclose(st.z, ref.z, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("preset", ["bidi", "kac"])
    def test_near_pole_against_mpmath(self, preset, request):
        # the resolvent loses only the digits of 1 - t / t_g
        mpmath = pytest.importorskip("mpmath")
        sys_, meas = request.getfixturevalue(preset)
        s0 = gk.initial_state(meas)
        t_g = gk.gelation_time(sys_, meas)
        with mpmath.workdps(60):
            q0, a = mpmath.matrix(s0.q.tolist()), mpmath.matrix(sys_.a_plus.tolist())
            for f in (0.5, 0.99, 1 - 1e-6, 1 - 1e-9):
                exact = (q0**-1 - mpmath.mpf(t_g * f) * a) ** -1
                q = gk.integrate_subcritical(sys_, s0, t_g * f).q
                err = max(
                    abs(mpmath.mpf(q[i, j]) / exact[i, j] - 1)
                    for i in range(s0.n) for j in range(s0.n)
                )
                assert err < 10 * 2.2e-16 / (1 - f)

    def test_past_gelation_raises(self, mult):
        # the message prints plain floats, not np.float64(1.0)
        sys_, meas = mult
        with pytest.raises(ExplosionReached, match=r"at t=1\.0, not after requested t=1\.5$"):
            gk.integrate_subcritical(sys_, gk.initial_state(meas), np.float64(1.5))


class TestExplosionTime:
    def test_matches_spectral_multiplicative(self, mult):
        sys_, meas = mult
        zeta = gk.explosion_time(sys_, gk.initial_state(meas))
        assert abs(zeta - 1.0) < 1e-6

    def test_matches_spectral_kinetic(self, kac):
        sys_, meas = kac
        zeta = gk.explosion_time(sys_, gk.initial_state(meas))
        t_g = gk.gelation_time(sys_, meas)
        assert abs(zeta - t_g) / t_g < 1e-6

    def test_rate_scale(self, mult):
        sys_, meas = mult
        zeta = gk.explosion_time(sys_.scaled(2.0), gk.initial_state(meas))
        assert abs(zeta - 0.5) < 1e-6

    @pytest.mark.parametrize("rate", [1.0, 1.7])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_within_1e11_of_spectral(self, preset, rate, request):
        sys_, meas = request.getfixturevalue(preset)
        sys_ = sys_.scaled(rate)
        t_g = gk.gelation_time(sys_, meas)
        zeta = gk.explosion_time(sys_, gk.initial_state(meas))
        assert abs(zeta - t_g) / t_g < 1e-11

    def test_coarse_tolerance_still_finds_the_pole(self, mult):
        # a retried step used to start from a rejected trial's last slope,
        # which at rtol 1e-2 stalled the run at the step budget
        sys_, meas = mult
        start = time.perf_counter()
        zeta = gk.explosion_time(sys_, gk.initial_state(meas), rtol=1e-2)
        assert abs(zeta - 1.0) < 1e-4
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "preset, q, z",
        [
            ("kac", [[1.0, 2.0], [2.0, 1.0]], [1.0, 0.5, 0.5]),  # in Q
            ("mult", [[1.0]], [1.0, 2.0]),  # in z
            # in z, where the flow [[1 + t, 1], [1, 0]] is a polynomial
            ("mult", [[0.0]], [1.0, 1.0]),
        ],
    )
    def test_cauchy_schwarz_violation_raises(self, preset, q, z, request):
        sys_, _ = request.getfixturevalue(preset)
        with pytest.raises(NumericError, match="Cauchy-Schwarz"):
            gk.explosion_time(sys_, bordered(0.0, q, z))

    def test_nan_state_fails_fast(self, mult):
        sys_, _ = mult
        start = time.perf_counter()
        with pytest.raises(GelkitError):
            gk.explosion_time(sys_, bordered(0.0, [[np.nan]], [1.0, 1.0]))
        assert time.perf_counter() - start < 1.0

    def test_zero_state_refused(self, mult):
        # a zero start has no scale to grow from
        sys_, _ = mult
        with pytest.raises(NumericError, match="no pole"):
            gk.explosion_time(sys_, bordered(0.0, [[0.0]], [0.0, 0.0]))

    @pytest.mark.parametrize("s", [1e-3, 1e3, 1e4, 1e6, 1e75, 1e150])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_coordinate_scale_covariance(self, preset, s, request):
        # t_g falls as 1 / s^2; an absolute stop at 1e12 lost kinetic-gas's
        # pole at s = 1e4 and every preset's at s = 1e6, and integrating Y
        # itself, not Y / max|Y0|, overflowed its right-hand side at 1e75
        sys_, meas = request.getfixturevalue(preset)
        coords = np.array(meas.coords)
        coords[:, 1:] *= s
        meas = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        t_g = gk.gelation_time(sys_, meas)
        zeta = gk.explosion_time(sys_, gk.initial_state(meas))
        assert abs(zeta - t_g) / t_g < 1e-11

    @pytest.mark.parametrize("k", [1e20, 1e60, 1e100, 1e150])
    def test_per_coordinate_units(self, kac, k):
        # mass times k and energy over k leave every rate and t_g as they
        # are; normalising by max|Y0| underflowed the energy block from 1e60
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        coords = np.array(meas.coords)
        coords[:, 1] *= k
        coords[:, 2] /= k
        meas = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        assert abs(gk.gelation_time(sys_, meas) - t_g) / t_g < 1e-11
        assert abs(gk.explosion_time(sys_, gk.initial_state(meas)) - t_g) / t_g < 1e-11

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_stops_six_decades_in(self, preset, request, monkeypatch):
        # a second-order fit lets the run stop at a 1e6 growth, and each
        # series step covers a quarter of the way to the pole: 49 steps
        sys_, meas = request.getfixturevalue(preset)
        steps, step = [], moments._series_step

        def counting(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(moments, "_series_step", counting)
        gk.explosion_time(sys_, gk.initial_state(meas))
        assert len(steps) <= 60

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_independent_of_the_spectral_route(self, preset, request, monkeypatch):
        sys_, meas = request.getfixturevalue(preset)
        t_g = gk.gelation_time(sys_, meas)
        state0 = gk.initial_state(meas)

        def refused(*args, **kwargs):
            raise AssertionError("the pole oracle used the spectral route")

        monkeypatch.setattr(spectral, "_gelation", refused)
        monkeypatch.setattr(moments, "_gelation", refused)
        monkeypatch.setattr(moments, "_flow", refused)
        for name in ("eigh", "eigvalsh", "cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refused)
        zeta = gk.explosion_time(sys_, state0)
        assert abs(zeta - t_g) / t_g < 1e-11

    def test_flow_at_rest_refused(self):
        # Q = e1 e1^T and A+ with a zero diagonal: Y A_hat Y = 0, so the
        # series never grows
        sys_ = gk.BilinearSystem(2, 0, [[0.0, 1.0], [1.0, 0.0]], [])
        state0 = bordered(0.0, [[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0, 0.0])
        with pytest.raises(NumericError, match="no blowup"):
            gk.explosion_time(sys_, state0)

    def test_step_budget_raises(self, mult, monkeypatch):
        sys_, meas = mult
        monkeypatch.setattr(moments, "_SERIES_STEPS", 10)
        with pytest.raises(NumericError, match="no blowup"):
            gk.explosion_time(sys_, gk.initial_state(meas))

    def test_pole_fit_without_a_real_root_raises(self, mult, monkeypatch):
        sys_, meas = mult
        monkeypatch.setattr(np, "polyfit", lambda x, y, deg: np.array([1.0, 0.0, 1.0]))
        with pytest.raises(NumericError, match="no real root"):
            gk.explosion_time(sys_, gk.initial_state(meas))


class TestPackedRhs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_moment_rhs_bitwise(self, n):
        # the Riccati kernel Y A_hat Y on the bordered Y: bit for bit up to
        # n = 3; beyond, BLAS may sum the bordered products in another order
        rtol = 0.0 if n <= 3 else 1e-13
        rng = np.random.default_rng(n)
        b = rng.uniform(0.1, 1.0, (n, n))
        sys_ = gk.BilinearSystem(n, 0, b + b.T, [])
        a = sys_.a_plus
        for _ in range(20):
            x = rng.normal(size=(n, n))
            q = x @ x.T + n * np.eye(n)
            z = rng.uniform(0.1, 2.0, n + 1)
            state = bordered(0.0, q, z)
            y = state.y
            assert np.array_equal(y, y.T)
            dq, dz = gk.moment_rhs(sys_, state)
            # the formula, in its evaluation order
            zp = z[1:]
            np.testing.assert_allclose(dq, q @ a @ q, rtol=rtol, atol=0)
            np.testing.assert_allclose(dz[1:], zp @ a @ q, rtol=rtol, atol=0)
            np.testing.assert_allclose(dz[0], float(zp @ a @ zp), rtol=rtol, atol=0)


class TestSupercritical:
    def test_dual_builds_the_tilted_gram_once(self, kac, monkeypatch):
        # the tilted margin check and the tilted flow share one Gram matrix
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        c = gk.solve_fixed_point(sys_, meas, 1.5 * t_g).c
        grams, moment_matrix = [], system.moment_matrix

        def counted(m, i_set, j_set):
            grams.append(list(i_set) == list(j_set) == list(range(1, m.n + 1)))
            return moment_matrix(m, i_set, j_set)

        monkeypatch.setattr(system, "moment_matrix", counted)
        moments._dual(sys_, meas, 1.5 * t_g, c, t_g)
        assert grams.count(True) == 1

    @pytest.mark.parametrize("f", [1.2, 2.0])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_against_dop853_integration(self, preset, f, request):
        # the closed form against an independent integration of moment_rhs
        # from the tilted initial state
        sys_, meas = request.getfixturevalue(preset)
        t = f * gk.gelation_time(sys_, meas)
        s0 = gk.initial_state(gk.tilted_measure(sys_, meas, t))
        (ref,) = dop853_flow(sys_, s0, [t])
        st = gk.supercritical_moments(sys_, meas, t)
        np.testing.assert_allclose(st.y, ref.y, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_no_eigenproblem_given_the_spectral_result(self, preset, request, monkeypatch):
        # the tilted margin is a Cholesky factor, not a tilted gelation
        sys_, meas = request.getfixturevalue(preset)
        given = gk.gelation(sys_, meas)
        calls, eigh = [], np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(None)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        gk.supercritical_moments(sys_, meas, 1.5 * given.t_g, spectral=given)
        assert calls == []

    def test_dual_anchor(self, mult):
        sys_, meas = mult
        st = gk.supercritical_moments(sys_, meas, 2.0)
        # oracle: the tilted system is again scalar, so the resolvent applies
        tilted_mass = 1.0 - gk.gel_data(sys_, meas, 2.0).mass
        oracle = tilted_mass / (1.0 - 2.0 * tilted_mass)
        assert st.q[0, 0] == pytest.approx(oracle, rel=1e-8, abs=0.0)
        assert st.q[0, 0] == pytest.approx(0.342283635738, rel=1e-9, abs=0.0)

    def test_subcritical_time_rejected(self, mult):
        sys_, meas = mult
        with pytest.raises(ValueError):
            gk.supercritical_moments(sys_, meas, 0.5)

    def test_moments_at_phase_labels(self, mult):
        sys_, meas = mult
        _, phase = gk.moments_at(sys_, meas, 0.5)
        assert phase == "sol-subcritical"
        _, phase = gk.moments_at(sys_, meas, 1.5)
        assert phase == "supercritical-dual"

    @pytest.mark.parametrize("k", [9, 10])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_near_critical(self, preset, k, request):
        # the tilted gap is about t - t_g, so t_g (1 + 1e-k) stays subcritical
        # for the dual; Q grows like 1 / (t - t_g)
        sys_, meas = request.getfixturevalue(preset)
        t_g = gk.gelation_time(sys_, meas)
        st = gk.supercritical_moments(sys_, meas, t_g * (1.0 + 10.0**-k))
        assert np.all(np.isfinite(st.q))
        assert 1e-3 * 10.0**k < st.q.max() < 1e3 * 10.0**k

    def test_near_critical_blowup(self, request):
        # one blowup rule, 1 - t r <= 1e-12 with r the spectral radius, on
        # every preset: the sol a decade closer past t_g stays finite, and so
        # does the flow a decade closer below it, but not within 5e-13 of t_g
        for preset in ("mult", "bidi", "kac"):
            sys_, meas = request.getfixturevalue(preset)
            t_g = gk.gelation_time(sys_, meas)
            st = gk.supercritical_moments(sys_, meas, t_g * (1.0 + 1e-11))
            assert np.all(np.isfinite(st.q))
            s0 = gk.initial_state(meas)
            st = gk.integrate_subcritical(sys_, s0, t_g * (1.0 - 1e-11))
            assert np.all(np.isfinite(st.y))
            with pytest.raises(ExplosionReached):
                gk.integrate_subcritical(sys_, s0, t_g * (1.0 - 5e-13))

    def test_dual_of_a_gelling_tilt_raises(self, mult):
        # c = 0 tilts nothing, so the "tilted" measure gels at t_g = 1 < t
        sys_, meas = mult
        with pytest.raises(DualNotSubcritical):
            moments._dual(sys_, meas, 1.5, np.zeros(1), 1.0)

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_given_spectral_result_changes_nothing(self, preset, request):
        sys_, meas = request.getfixturevalue(preset)
        spectral = gk.gelation(sys_, meas)
        t = 1.5 * spectral.t_g
        with_it = gk.supercritical_moments(sys_, meas, t, spectral=spectral)
        without = gk.supercritical_moments(sys_, meas, t)
        assert np.array_equal(with_it.q, without.q)
        assert np.array_equal(with_it.z, without.z)

    def test_dual_moments_decrease_in_time(self, mult):
        sys_, meas = mult
        qs = [
            gk.supercritical_moments(sys_, meas, t).q[0, 0]
            for t in (1.5, 2.0, 3.0)
        ]
        assert qs == sorted(qs, reverse=True)


@pytest.fixture(scope="module")
def mult_growth(mult):
    sys_, meas = mult
    return gk.gel_growth_ode(sys_, meas, 2.01, outputs=[1.5, 2.0, 2.01])


class TestGelGrowth:
    def test_matches_fixed_point_curve(self, mult, mult_growth):
        sys_, meas = mult
        for t, g in mult_growth[:2]:
            ref = gk.gel_data(sys_, meas, t)
            assert np.abs(g.g[:2] - ref.g[:2]).max() < 1e-10 * np.abs(ref.g[:2]).max()

    @pytest.mark.parametrize("rate", [1.0, 1e-8, 1e16])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_within_1e10_of_gel_data(self, preset, rate, request):
        # the Runge-Kutta route was 7.2e-8 to 8.7e-8 off at 2 t_g
        sys_, meas = request.getfixturevalue(preset)
        sys_ = sys_.scaled(rate)
        t = 2.0 * gk.gelation_time(sys_, meas)
        got = gk.gel_growth_ode(sys_, meas, t)[-1][1].g
        want = gk.gel_data(sys_, meas, t).g
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10 * np.abs(want).max())

    def test_multiplicative_growth_slope_identity(self, mult_growth):
        # dM/dt = M(1-M)/(1 - t(1-M)) for this kernel; check via small step
        m = mult_growth[1][1].mass
        m2 = mult_growth[2][1].mass
        slope = (m2 - m) / 0.01
        expect = m * (1.0 - m) / (1.0 - 2.0 * (1.0 - m))
        assert slope == pytest.approx(expect, rel=2e-2, abs=0.0)

    def test_kinetic_gel_growth_positive(self, kac):
        sys_, meas = kac
        t_g = gk.gelation_time(sys_, meas)
        pts = gk.gel_growth_ode(sys_, meas, 2.0 * t_g, outputs=[2.0 * t_g])
        g = pts[-1][1]
        assert g.mass > 0.0
        assert np.all(g.conserved(2) > 0.0)

    def test_array_outputs(self, mult):
        sys_, meas = mult
        pts = gk.gel_growth_ode(sys_, meas, 2.0, outputs=np.array([1.5, 2.0]))
        assert [t for t, _ in pts] == [1.5, 2.0]

    @pytest.mark.parametrize("rate", [1e14, 1e16])
    def test_rate_scale_divides_time(self, mult, rate):
        # a span of 2e-16 once ended at the first step on the starting gel
        sys_, meas = mult
        ref = gk.gel_growth_ode(sys_, meas, 2.0)[-1][1]
        t, g = gk.gel_growth_ode(sys_.scaled(rate), meas, 2.0 / rate)[-1]
        assert t == 2.0 / rate
        np.testing.assert_allclose(g.g, ref.g, rtol=1e-9)

    def test_one_spectral_solve_of_the_measure(self, mult, monkeypatch):
        sys_, meas = mult
        own = []

        def counted(s, m, *args, **kwargs):
            own.append(m is meas)
            return gk.gelation(s, m, *args, **kwargs)

        monkeypatch.setattr(moments, "gelation", counted)
        monkeypatch.setattr(survival, "gelation", counted)
        gk.gel_growth_ode(sys_, meas, 2.0)
        assert own.count(True) == 1
        assert own.count(False) == 0  # no tilted measure is solved

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_one_fixed_point_solve(self, preset, request, monkeypatch):
        # the right-hand side reads the fixed point off the gel itself, so
        # the starting gel is the only Newton solve
        sys_, meas = request.getfixturevalue(preset)
        t_g = gk.gelation_time(sys_, meas)
        rows, newton = [], survival._newton

        def counted(s, m, times):
            rows.append(len(times))
            return newton(s, m, times)

        monkeypatch.setattr(survival, "_newton", counted)
        gk.gel_growth_ode(sys_, meas, 2.0 * t_g, outputs=[1.2 * t_g, 1.5 * t_g])
        assert rows == [1]

    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_start_in_the_critical_band_raises(self, preset, request):
        # the start t_g (1 + 7.5e-13) is inside the critical band, so it is
        # the zero gel, and the untilted measure is not subcritical past t_g
        sys_, meas = request.getfixturevalue(preset)
        t_g = gk.gelation_time(sys_, meas)
        with pytest.raises(DualNotSubcritical):
            gk.gel_growth_ode(sys_, meas, t_g * (1.0 + 1.5e-12))

    def test_slow_stage_solve_raises(self, kac, monkeypatch):
        # the starting gel just past t_g needs more Newton steps than this
        sys_, meas = kac
        monkeypatch.setattr(survival, "_MAX_NEWTON", 5)
        with pytest.raises(SlowConvergence):
            gk.gel_growth_ode(sys_, meas, 2.0 * gk.gelation_time(sys_, meas))


def _decay(t, y):
    """``y' = -y``: its coefficients in ``t + u s`` are ``y (-u)^k / k!``."""
    return -y, lambda u: np.array(
        [y * (-u) ** k / math.factorial(k) for k in range(_rk.ORDER + 1)]
    )


class TestTaylorIntegrate:
    def test_outputs_land_on_their_times(self):
        # each output from the polynomial of the step that covers it, so the
        # steps do not depend on the outputs
        times = [0.0, 0.1, 1.0 / 3.0, 0.7, 2.5]
        traj = _rk.integrate(_decay, 0.0, np.ones(1), 2.5, 0.15, 1e-16, outputs=times)
        bare = _rk.integrate(_decay, 0.0, np.ones(1), 2.5, 0.15, 1e-16)
        assert traj.ts == times
        np.testing.assert_allclose(np.ravel(traj.ys), np.exp(-np.array(times)), rtol=1e-14)
        assert traj.n_accepted == bare.n_accepted > 1 and traj.n_rejected == 0

    def test_exhausted_step_budget_raises(self):
        with pytest.raises(NoConvergence, match="exceeded 3 steps"):
            _rk.integrate(_decay, 0.0, np.ones(1), 100.0, 0.15, 1e-16, max_steps=3)

    @pytest.mark.parametrize("where", ["slope", "coefficient"])
    def test_non_finite_series_raises(self, where):
        # at the first step, before its state is used
        calls = []

        def taylor(t, y):
            calls.append(t)
            dy, series = _decay(t, y)
            if where == "slope":
                return np.full_like(y, np.inf), series
            return dy, lambda u: np.vstack((series(u)[:-1], [np.nan]))

        with pytest.raises(NumericError, match="not finite"):
            _rk.integrate(taylor, 0.0, np.ones(1), 1.0, 0.15, 1e-16)
        assert calls == [0.0]
