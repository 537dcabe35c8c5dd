import numpy as np
import pytest

import gelkit as gk
from gelkit import spectral
from gelkit.errors import DegenerateMeasure, NoConvergence, NumericError


class TestGelation:
    def test_multiplicative_exact(self, mult):
        sys_, meas = mult
        assert gk.gelation_time(sys_, meas) == 1.0

    def test_bidisperse(self, bidi):
        sys_, meas = bidi
        # <m^2> = (1 + 4)/2 = 2.5, so the critical time is 1/2.5
        assert gk.gelation_time(sys_, meas) == pytest.approx(0.4, abs=1e-14)

    def test_kinetic(self, kac):
        sys_, meas = kac
        expect = 1.0 / (3.0 + np.sqrt(15.0))
        assert gk.gelation_time(sys_, meas) == pytest.approx(expect, abs=1e-13)

    def test_kinetic_before_mean_free_time(self, kac):
        sys_, meas = kac
        # mean pair rate is <m><e> + <e><m> = 6, so typical first merges
        # happen around 1/6; gelation beats that
        assert gk.gelation_time(sys_, meas) < 1.0 / 6.0

    def test_rate_scale_halves_time(self, kac):
        sys_, meas = kac
        t1 = gk.gelation_time(sys_, meas)
        t2 = gk.gelation_time(sys_.scaled(2.0), meas)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-14, abs=0.0)

    def test_criticality_matrix_kinetic(self, kac):
        sys_, meas = kac
        lam = gk.criticality_matrix(sys_, meas)
        assert np.allclose(lam, [[3.0, 15.0], [1.0, 3.0]], atol=1e-12)

    def test_psi_normalization_and_positivity(self, kac):
        sys_, meas = kac
        spec = gk.gelation(sys_, meas)
        q = gk.gram_plus(meas)
        assert float(spec.psi @ q @ spec.psi) == pytest.approx(1.0, abs=1e-12)
        assert np.all(spec.psi > 0.0)

    def test_power_iteration_agrees_with_dense_solver(self, kac):
        sys_, meas = kac
        spec = gk.gelation(sys_, meas)
        lam = gk.criticality_matrix(sys_, meas)
        radius, vector = gk.spectral_radius(lam)
        assert radius == pytest.approx(spec.radius, rel=1e-8, abs=0.0)
        assert np.all(vector > 0.0)

    def test_power_iteration_scalar(self):
        radius, vector = gk.spectral_radius(np.array([[2.5]]))
        assert radius == 2.5 and vector[0] == 1.0

    def test_power_iteration_no_convergence(self):
        # dominant eigenvalues +-sqrt(2): the iterate cycles and never settles
        mat = np.array([[0.0, 2.0], [1.0, 0.0]])
        with pytest.raises(NoConvergence):
            gk.spectral_radius(mat, max_iter=50)

    def test_degenerate_measure_raises(self):
        sys_ = gk.BilinearSystem(2, 0, [[1.0, 0.5], [0.5, 1.0]], [])
        meas = gk.AtomicMeasure([[1.0, 1.0, 1.0], [1.0, 2.0, 2.0]], [0.5, 0.5], 2)
        with pytest.raises(DegenerateMeasure):
            gk.gelation(sys_, meas)

    @pytest.mark.parametrize(
        "preset, rate", [("mult", 1e8), ("mult", 1e16), ("bidi", 1e8), ("bidi", 1e16)]
    )
    def test_overflowing_units_raise_numeric_error(self, preset, rate, request):
        # every coordinate but pi0 times 1e150: the radius overflows, which
        # once gave t_g = 0 (mult at 1e8) or a bare AssertionError on a nan
        # eigenpair residual
        sys_, meas = request.getfixturevalue(preset)
        coords = np.array(meas.coords)
        coords[:, 1:] *= 1e150
        meas = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="normal doubles"):
            gk.gelation_time(sys_.scaled(rate), meas)

    def test_eigenpair_residual_raises_numeric_error(self, kac, monkeypatch):
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", -1.0)
        with pytest.raises(NumericError, match="eigenpair residual"):
            gk.gelation(*kac)

    def test_gaussian_sample_spectral_sanity(self):
        sys_, meas = gk.kinetic_gas_sample(16, seed=7)
        spec = gk.gelation(sys_, meas)
        assert 0.0 < spec.t_g < 1.0
        assert np.all(spec.psi > 0.0)
