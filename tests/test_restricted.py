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
