import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gelkit as gk
from gelkit import _rk, graphs
from gelkit.errors import GelkitError, NegativeRate, SchemaError
from gelkit.system import check_times, time_array


def rows(*atoms):
    return np.array(atoms, dtype=float)


def rate_matrix(sys_, a, b):
    """Every pair's rate between two stacks of particle rows, (p, q)."""
    return gk.pair_rates(sys_, a[:, None, 1:], b[None, :, 1:])[0]


class TestKernel:
    """Anchors of ``pair_rates``, the one rate kernel."""

    def test_multiplicative_masses(self, mult):
        sys_, _ = mult
        rate = rate_matrix(sys_, rows([2, 2.0]), rows([3, 3.0]))
        assert rate.tolist() == [[6.0]]

    def test_kinetic_same_velocity_is_zero(self, kac):
        sys_, _ = kac
        v = (0.3, -0.2, 0.9)
        e = sum(c * c for c in v)
        x = rows([1, 1.0, e, *v])
        assert rate_matrix(sys_, x, x)[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_kinetic_opposite_unit_speed(self, kac):
        sys_, _ = kac
        x = rows([1, 1.0, 1.0, 1.0, 0.0, 0.0])
        y = rows([1, 1.0, 1.0, -1.0, 0.0, 0.0])
        assert rate_matrix(sys_, x, y).tolist() == [[4.0]]

    def test_rate_matrix_matches_scalar(self, kac):
        sys_, meas = kac
        coords = meas.coords
        mat = rate_matrix(sys_, coords, coords)
        for i, x in enumerate(coords[:, 1:]):
            for j, y in enumerate(coords[:, 1:]):
                form = sum(
                    x[a] * sys_.block[a, b] * y[b]
                    for a in range(sys_.dim)
                    for b in range(sys_.dim)
                )
                assert mat[i, j] == pytest.approx(max(form, 0.0), abs=1e-12)

    def test_negative_rate_raises(self):
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-4.0]])
        x = rows([1, 1.0, 1.0])
        with pytest.raises(NegativeRate):
            rate_matrix(sys_, x, x)


# Each entry point below runs on two particles [1, s, s] (or a measure of
# that one atom) and returns what a nonzero rate there would show: the rate
# itself, merges, edges, or an irreducible report.  The systems of
# TestNegativeRateRule give the pair the rate -tail s^2 against an envelope
# rate of about 2 s^2.  The engine and the direct oracle run to t = 10 with
# the rates times 1e3 / s^2, so that the pair is proposed.


def _kernel(sys_, s):
    return float(gk.pair_rates(sys_, rows([s, s]), rows([s, s]))[0][0])


def _engine(sys_, s):
    rows = np.tile([1.0, s, s], (2, 1))
    ps = gk.ParticleSystem(sys_.scaled(1e3 / s**2), rows, 2, np.random.default_rng(0))
    ps.run([10.0])
    assert ps.events > 100
    return ps.merges


def _direct(sys_, s):
    rows = np.tile([1.0, s, s], (2, 1))
    ps = gk.DirectPairSimulator(
        sys_.scaled(1e3 / s**2), rows, 2, np.random.default_rng(0)
    )
    ps.run([10.0])
    return 2 - ps.n_particles


def _blocks(sys_, s):
    from gelkit.graphs import _sample_graph_blocks

    g = _sample_graph_blocks(sys_, np.tile([1.0, s, s], (2, 1)), 2, 10.0, seed=1)
    return g.edge_t.size


def _restricted(sys_, s):
    # the density of the two-particle type, 0 where its rate clips
    meas = gk.AtomicMeasure([[1.0, s, s]], [1.0], 1)
    model = gk.TruncatedFlory(sys_, meas, 2.0)
    return float(model.integrate(1.0)[-1].densities[model.index[(2,)]])


def _hypotheses(sys_, s):
    rep = gk.check_hypotheses(sys_, gk.AtomicMeasure([[1.0, s, s]], [1.0], 1))
    return int(rep.irreducible)


class TestNegativeRateRule:
    """One rule at every entry point: NegativeRate where kbar < -1e-9 khat,
    kbar clipped to 0 above that, at any coordinate scale."""

    entries = pytest.mark.parametrize(
        "entry",
        [_kernel, _engine, _direct, _blocks, _restricted, _hypotheses],
        ids=["pair_rates", "particles", "direct", "blocks", "restricted",
             "hypotheses"],
    )
    scales = pytest.mark.parametrize("s", [1.0, 1e-3])

    @entries
    @scales
    def test_negative_beyond_tolerance_raises(self, entry, s):
        with pytest.raises(NegativeRate):
            entry(gk.BilinearSystem(1, 1, [[1.0]], [[-(1.0 + 1e-6)]]), s)

    @entries
    @scales
    def test_negative_within_tolerance_clips(self, entry, s):
        assert entry(gk.BilinearSystem(1, 1, [[1.0]], [[-(1.0 + 1e-12)]]), s) == 0


class TestSystemValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            gk.BilinearSystem(2, 0, [[1.0, 0.5], [0.2, 1.0]], [])

    def test_negative_plus_entry_rejected(self):
        with pytest.raises(ValueError):
            gk.BilinearSystem(1, 0, [[-1.0]], [])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            gk.BilinearSystem(2, 0, [[1.0, 0.0], [0.0, 0.0]], [])
        with pytest.raises(ValueError):
            gk.BilinearSystem(1, 1, [[1.0]], [[0.0]])

    def test_entries_near_the_double_range_accepted(self, kac):
        # symmetrising by (A + A^T) / 2 overflowed above half the double range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = gk.BilinearSystem(1, 0, [[1e308]], [])
            scaled = kac[0].scaled(5e307)
        assert big.a_plus[0, 0] == 1e308
        assert np.array_equal(scaled.a_plus, kac[0].a_plus * 5e307)
        assert np.array_equal(scaled.a_par, kac[0].a_par * 5e307)

    def test_asymmetry_near_the_double_range_refused(self):
        # the symmetry test subtracted A^T from A, which overflowed here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric"):
                gk.BilinearSystem(2, 0, [[1.0, 1e308], [-1e308, 1.0]], [])

    def test_block_layout(self, kac):
        sys_, _ = kac
        assert sys_.block.shape == (5, 5)
        assert np.array_equal(sys_.block[:2, :2], sys_.a_plus)
        assert np.array_equal(sys_.block[2:, 2:], sys_.a_par)
        assert np.all(sys_.block[:2, 2:] == 0.0)

    def test_default_coordinate_names(self):
        sys_ = gk.BilinearSystem(2, 1, [[0.0, 1.0], [1.0, 0.0]], [[-1.0]])
        assert sys_.coordinate_names[0] == "absorbed"
        assert len(sys_.coordinate_names) == 4


class TestAtomicMeasure:
    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            gk.AtomicMeasure(rows([1, 1.0], [1, 1.0]), [0.5, 0.5], 1)

    def test_atoms_within_tolerance_rejected(self):
        # equal pi0, coordinates 1e-10 apart: one atom under COORD_TOL
        with pytest.raises(ValueError, match="rows 0 and 2"):
            gk.AtomicMeasure(
                rows([1, 1.0, 0.5], [1, 2.0, 0.5], [1, 1.0, 0.5 + 1e-10]),
                [0.25, 0.5, 0.25],
                1,
            )

    def test_atoms_differing_only_in_pi0_accepted(self):
        meas = gk.AtomicMeasure(rows([1, 1.0], [2, 1.0]), [0.5, 0.5], 1)
        assert len(meas) == 2

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            gk.AtomicMeasure(rows([1, 1.0]), [0.0], 1)

    @pytest.mark.parametrize(
        "coords, weights",
        [
            pytest.param([1.0, 1.0], [1.0], id="one-dim"),
            pytest.param([[1.0, 1.0]], [1.0, 1.0], id="length-mismatch"),
            pytest.param([[1.0]], [1.0], id="no-plus-column"),
            pytest.param([[1.0, np.nan]], [1.0], id="nan-coord"),
            pytest.param([[1.0, 1.0]], [np.inf], id="inf-weight"),
            pytest.param([[0.0, 1.0]], [1.0], id="pi0-zero"),
            pytest.param([[1.5, 1.0]], [1.0], id="pi0-fraction"),
            pytest.param([[2.0**53 + 2, 1.0]], [1.0], id="pi0-past-2**53"),
            pytest.param([[1.0, -0.5]], [1.0], id="negative-plus"),
        ],
    )
    def test_invalid_rows_rejected(self, coords, weights):
        with pytest.raises(ValueError):
            gk.AtomicMeasure(coords, weights, 1)

    def test_coords_layout(self):
        meas = gk.AtomicMeasure(rows([2, 1.0, 3.0, -0.5]), [1.0], 2)
        assert np.array_equal(meas.coords, [[2.0, 1.0, 3.0, -0.5]])
        assert (meas.n, meas.m) == (2, 1)
        assert not meas.coords.flags.writeable
        assert not meas.weight_array.flags.writeable

    def test_empty_measure_moments_are_zero(self):
        empty = gk.AtomicMeasure(np.zeros((0, 2)), [], 1)
        assert empty.total_mass == 0.0
        assert gk.moment_matrix(empty, [0], [0]) == np.zeros((1, 1))

    def test_empty_measure_keeps_its_layout(self):
        empty = gk.AtomicMeasure(np.zeros((0, 4)), [], 2)
        assert empty.coords.shape == (0, 4)
        assert np.array_equal(gk.gram_plus(empty), np.zeros((2, 2)))

    def test_scaled_drops_zeroed_atoms(self, bidi):
        _, meas = bidi
        thinned = meas.scaled([1.0, 0.0])
        assert len(thinned) == 1
        assert thinned.total_mass == pytest.approx(0.5)

    def test_mirror_weights_compared_within_tolerance(self, kac):
        # relative to the larger weight of the pair: the weights are 0.25
        _, meas = kac
        assert meas.mirror_symmetric
        w = meas.weight_array.copy()
        w[0] += 0.5e-9 * 0.25
        assert gk.AtomicMeasure(meas.coords, w, 2).mirror_symmetric
        w[0] += 1e-9 * 0.25
        assert not gk.AtomicMeasure(meas.coords, w, 2).mirror_symmetric

    def test_reflection_matched_within_tolerance(self):
        # the partners differ by noise in a plus coordinate and by sign in
        # par, so sorting the rows and their reflections apart pairs them
        # wrongly; the pairwise rule calls this measure symmetric
        coords = rows([1, 1, 3.0000000000001, 0.5], [1, 1, 3.0, -0.5])
        assert gk.AtomicMeasure(coords, [0.5, 0.5], 2).mirror_symmetric
        assert not gk.AtomicMeasure(coords, [0.5, 0.6], 2).mirror_symmetric
        coords[0, 2] = 3.00001
        assert not gk.AtomicMeasure(coords, [0.5, 0.5], 2).mirror_symmetric

    def test_missing_reflection_detected(self, kac):
        _, meas = kac
        half = gk.AtomicMeasure(meas.coords[::2], meas.weight_array[::2], 2)
        assert not half.mirror_symmetric
        assert gk.AtomicMeasure(rows([1, 1.0]), [1.0], 1).mirror_symmetric

    def test_atoms_distinct_across_decades(self):
        # each entry is compared with its partner only, so a large atom in
        # the column does not merge the small ones
        meas = gk.AtomicMeasure(rows([1, 1.0], [1, 2.0], [1, 1e10]), [1, 1, 1], 1)
        assert len(meas) == 3
        grid = np.logspace(0.0, 8.0, 1500)
        sizes = gk.AtomicMeasure(np.column_stack([np.ones(1500), grid]), np.ones(1500), 1)
        assert len(sizes) == 1500

    def test_small_par_is_not_its_own_reflection(self):
        coords = rows([1, 1, 1e-3], [1, 2, 1e7], [1, 2, -1e7])
        assert not gk.AtomicMeasure(coords, [1, 1, 1], 1).mirror_symmetric
        whole = np.vstack([coords, [1, 1, -1e-3]])
        assert gk.AtomicMeasure(whole, [1, 1, 1, 1], 1).mirror_symmetric

    def test_moment_anchors(self, mult):
        _, meas = mult
        assert gk.gram_plus(meas) == np.ones((1, 1))
        assert np.array_equal(gk.first_moments(meas), [1.0, 1.0])

    def test_kinetic_gram(self, kac):
        _, meas = kac
        q = gk.gram_plus(meas)
        # energy moments of the two-speed quadrature: <e> = 3, <e^2> = 15
        assert np.allclose(q, [[1.0, 3.0], [3.0, 15.0]], atol=1e-12)

    def test_gram_built_once_and_read_only(self, bidi):
        # shared by every reader of the measure, so no reader may write it
        _, meas = bidi
        q = gk.gram_plus(meas)
        assert gk.gram_plus(meas) is q and not q.flags.writeable
        assert gk.gram_plus(meas.scaled(2.0)) is not q


class TestHypotheses:
    def test_kinetic_passes_all(self, kac):
        sys_, meas = kac
        rep = gk.check_hypotheses(sys_, meas)
        assert rep.all_pass
        assert not rep.point_mass
        assert rep.components == 1

    def test_monodisperse_passes_with_point_mass_flag(self, mult):
        sys_, meas = mult
        rep = gk.check_hypotheses(sys_, meas)
        assert rep.all_pass
        assert rep.point_mass

    def test_mirror_asymmetry_detected(self):
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-0.5]])
        meas = gk.AtomicMeasure(rows([1, 1.0, 0.7]), [1.0], 1)
        rep = gk.check_hypotheses(sys_, meas)
        assert not rep.mirror_symmetric
        assert not rep.all_pass

    def test_absorbed_count_above_one_detected(self):
        sys_ = gk.BilinearSystem(1, 0, [[1.0]], [])
        meas = gk.AtomicMeasure(rows([1, 1.0], [2, 2.0]), [0.5, 0.5], 1)
        rep = gk.check_hypotheses(sys_, meas)
        assert not rep.unit_absorbed_count

    def test_disconnected_support_detected(self):
        sys_ = gk.BilinearSystem(2, 0, [[1.0, 0.0], [0.0, 1.0]], [])
        meas = gk.AtomicMeasure(rows([1, 1.0, 0.0], [1, 0.0, 1.0]), [0.5, 0.5], 2)
        rep = gk.check_hypotheses(sys_, meas)
        assert rep.components == 2
        assert not rep.irreducible

    def test_degenerate_gram_detected(self):
        sys_ = gk.BilinearSystem(2, 0, [[1.0, 1.0], [1.0, 1.0]], [])
        meas = gk.AtomicMeasure(rows([1, 1.0, 1.0], [1, 2.0, 2.0]), [0.5, 0.5], 2)
        rep = gk.check_hypotheses(sys_, meas)
        assert not rep.gram_nondegenerate

    def test_empty_measure_rejected(self, mult):
        sys_, _ = mult
        with pytest.raises(ValueError):
            gk.check_hypotheses(sys_, gk.AtomicMeasure(np.zeros((0, 2)), [], 1))


class TestJson:
    def test_round_trip(self, kac):
        sys_, meas = kac
        doc = gk.system_measure_to_json(sys_, meas)
        sys2, meas2 = gk.system_measure_from_json(doc)
        assert sys2.n == sys_.n and sys2.m == sys_.m
        assert np.array_equal(sys2.block, sys_.block)
        assert np.array_equal(meas2.coords, meas.coords)
        assert np.array_equal(meas2.weight_array, meas.weight_array)

    @pytest.mark.parametrize("pi0", [0, 2**53 + 1], ids=["zero", "past-2**53"])
    def test_pi0_out_of_range_pointer(self, pi0):
        doc = {
            "n": 1,
            "m": 0,
            "A_plus": [[1.0]],
            "A_par": [],
            "atoms": [{"pi0": pi0, "plus": [1.0], "par": [], "w": 1.0}],
        }
        with pytest.raises(SchemaError) as err:
            gk.system_measure_from_json(doc)
        assert err.value.pointer == "/atoms/0"
        doc["atoms"][0]["pi0"] = 2**53
        atom = gk.system_measure_to_json(*gk.system_measure_from_json(doc))["atoms"][0]
        assert atom["pi0"] == 2**53 and type(atom["pi0"]) is int

    def test_duplicate_atoms_pointer(self):
        atom = {"pi0": 1, "plus": [1.0], "par": [], "w": 0.5}
        doc = {"n": 1, "m": 0, "A_plus": [[1.0]], "A_par": [], "atoms": [atom, atom]}
        with pytest.raises(SchemaError) as err:
            gk.system_measure_from_json(doc)
        assert err.value.pointer == "/atoms"

    def test_missing_key_pointer(self):
        with pytest.raises(SchemaError) as err:
            gk.system_measure_from_json({"n": 1})
        assert err.value.pointer == "/m"

    def test_atom_pointer(self):
        doc = {
            "n": 1,
            "m": 0,
            "A_plus": [[1.0]],
            "A_par": [],
            "atoms": [{"pi0": 1, "plus": [1.0], "par": [], "w": 1.0},
                      {"pi0": "x", "plus": [2.0], "par": [], "w": 1.0}],
        }
        with pytest.raises(SchemaError) as err:
            gk.system_measure_from_json(doc)
        assert err.value.pointer.startswith("/atoms/1")

    def test_bad_number_pointer(self):
        doc = {"n": 1, "m": 0, "A_plus": [["x"]], "A_par": [], "atoms": []}
        with pytest.raises(SchemaError) as err:
            gk.system_measure_from_json(doc)
        assert "/A_plus" in err.value.pointer

    def test_load_system_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            gk.load_system(tmp_path / "nope.json")

    def test_load_system_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            gk.load_system(path)

    def test_bundled_configs_load(self):
        from gelkit.configs import path_for

        for name in ("multiplicative", "bidisperse", "kac"):
            sys_, meas = gk.load_system(path_for(name))
            assert meas.total_mass > 0.0
        with pytest.raises(FileNotFoundError):
            path_for("missing")


class TestPresets:
    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError):
            gk.from_name("nope")

    def test_kinetic_sample_is_mirrored(self):
        sys_, meas = gk.kinetic_gas_sample(6, seed=3)
        rep = gk.check_hypotheses(sys_, meas)
        assert rep.mirror_symmetric
        assert len(meas) == 12

    def test_sample_atoms_shape(self, bidi):
        _, meas = bidi
        rows = gk.sample_atoms(meas, 17, np.random.default_rng(0))
        assert rows.shape == (17, 2)
        assert set(rows[:, 1]) <= {1.0, 2.0}


class TestCheckTimes:
    def test_sorted_floats(self):
        assert check_times([2, 0.5, 1]) == [0.5, 1.0, 2.0]
        assert check_times([]) == []

    def test_bounds_are_exact(self):
        assert check_times([1.0, 2.0], 1.0, 2.0) == [1.0, 2.0]
        for bad in (np.nextafter(1.0, 0.0), np.nextafter(2.0, 3.0)):
            with pytest.raises(ValueError, match="t = "):
                check_times([bad], 1.0, 2.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, -(10**400)])
    def test_non_finite_refused_before_conversion(self, value):
        with pytest.raises(ValueError, match="finite"):
            check_times([value])

    def test_before_start_refused(self):
        with pytest.raises(ValueError, match="before"):
            check_times([0.5], 1.0)

    def test_time_array_keeps_order(self):
        for values in ([2, 0.5, 1], np.array([2.0, 0.5, 1.0]), np.array([2, 0, 1])):
            x = time_array(values)
            assert x.dtype == np.float64
            assert x.tolist() == [float(v) for v in values]
        for bad in ([0.5, np.nan], np.array([0.5, -1.0]), [10**400]):
            with pytest.raises(ValueError) as refused:
                time_array(bad)
            with pytest.raises(ValueError) as listed:
                check_times(list(bad))
            assert str(refused.value) == str(listed.value)


def _sim(c, cls):
    return cls(c.sys, c.table, 20, np.random.default_rng(1))


def _decay(t, y):
    """``y' = -y``: its coefficients in ``t + u s`` are ``y (-u)^k / k!``."""
    return -y, lambda u: np.array(
        [y * (-u) ** k / math.factorial(k) for k in range(_rk.ORDER + 1)]
    )


# every public entry point that takes a time, as a function of the context
# below and that time
TIME_ENTRIES = {
    "ParticleSystem(t=)": lambda c, t: gk.ParticleSystem(
        c.sys, c.table, 20, np.random.default_rng(1), t=t
    ),
    "ParticleSystem.run": lambda c, t: _sim(c, gk.ParticleSystem).run([t]),
    "DirectPairSimulator.run": lambda c, t: _sim(c, gk.DirectPairSimulator).run([t]),
    "sample_graph": lambda c, t: gk.sample_graph(c.sys, c.table, 20, t, seed=1),
    "_sample_graph_blocks":
        lambda c, t: graphs._sample_graph_blocks(c.sys, c.table, 20, t, seed=1),
    "trajectory": lambda c, t: gk.trajectory(c.graph, [t]),
    "coupling_test": lambda c, t: gk.coupling_test(c.sys, c.meas, 20, t, 2, seed=1),
    "solve_fixed_point": lambda c, t: gk.solve_fixed_point(c.sys, c.meas, t),
    "gel_data": lambda c, t: gk.gel_data(c.sys, c.meas, t),
    "tilted_measure": lambda c, t: gk.tilted_measure(c.sys, c.meas, t),
    "supercritical_moments": lambda c, t: gk.supercritical_moments(c.sys, c.meas, t),
    "moments_at": lambda c, t: gk.moments_at(c.sys, c.meas, t),
    "gel_curve": lambda c, t: gk.gel_curve(c.sys, c.meas, [0.5, t]),
    "integrate_subcritical":
        lambda c, t: gk.integrate_subcritical(c.sys, gk.initial_state(c.meas), t),
    "integrate_subcritical(outputs=)": lambda c, t: gk.integrate_subcritical(
        c.sys, gk.initial_state(c.meas), 0.5, outputs=[t]
    ),
    "gel_growth_ode": lambda c, t: gk.gel_growth_ode(c.sys, c.meas, t),
    "gel_growth_ode(outputs=)":
        lambda c, t: gk.gel_growth_ode(c.sys, c.meas, 2.0, outputs=[t]),
    "TruncatedFlory.integrate":
        lambda c, t: gk.TruncatedFlory(c.sys, c.meas, 4).integrate(t),
    "TruncatedFlory.integrate(outputs=)":
        lambda c, t: gk.TruncatedFlory(c.sys, c.meas, 4).integrate(1.0, outputs=[t]),
    "_rk.integrate": lambda c, t: _rk.integrate(_decay, 0.0, np.ones(1), t, 0.15, 1e-16),
}


class TestTimeRule:
    """One rule, ``check_times``: every entry point that takes a time refuses
    NaN, infinity and a time before its start with a ValueError, never a
    solver error, a wrong number or an empty result."""

    @pytest.fixture(scope="class")
    def ctx(self, mult):
        sys_, meas = mult
        table = gk.sample_atoms(meas, 20, np.random.default_rng(0))
        graph = gk.sample_graph(sys_, table, 20, 1.0, seed=1)
        return SimpleNamespace(sys=sys_, meas=meas, table=table, graph=graph)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0], ids=["nan", "inf", "before"])
    @pytest.mark.parametrize("entry", list(TIME_ENTRIES))
    def test_bad_time_raises(self, ctx, entry, t):
        with pytest.raises(ValueError):
            TIME_ENTRIES[entry](ctx, t)


# the entry points of the limit theory, each a function of the system, the
# measure, a time unit u, the rate r and the coordinate scale k.  On
# sys.scaled(r) with every coordinate but pi0 times k and u = t_g / (r k^2),
# each returns what it returns on sys with u = t_g, once brought back to
# r = k = 1: time is divided by r k^2, a conserved or sign-odd coordinate is
# k times larger and the fixed point c is k times smaller
COVARIANT = {
    "gelation": lambda s, m, u, r, k: _spectral(gk.gelation(s, m), r, k),
    "solve_fixed_point":
        lambda s, m, u, r, k: [gk.solve_fixed_point(s, m, 1.5 * u).c * k],
    "gel_data": lambda s, m, u, r, k: [_unit(gk.gel_data(s, m, 1.5 * u).g, k)],
    "gel_curve": lambda s, m, u, r, k: _curve(
        gk.gel_curve(s, m, [0.5 * u, 1.2 * u, 2 * u]), s.n, k
    ),
    "moments_at(sub)": lambda s, m, u, r, k: _moments(gk.moments_at(s, m, 0.7 * u), k),
    "moments_at(super)":
        lambda s, m, u, r, k: _moments(gk.moments_at(s, m, 1.5 * u), k),
    "supercritical_moments": lambda s, m, u, r, k: _moments(
        (gk.supercritical_moments(s, m, 1.2 * u), "supercritical-dual"), k
    ),
    "explosion_time":
        lambda s, m, u, r, k: [gk.explosion_time(s, gk.initial_state(m)) * r * k * k],
    "critical_slope": lambda s, m, u, r, k: _slope(gk.critical_slope(s, m), r, k),
    "gel_growth_ode":
        lambda s, m, u, r, k: [_unit(gk.gel_growth_ode(s, m, 2 * u)[-1][1].g, k)],
    "TruncatedFlory":
        lambda s, m, u, r, k: _flory(gk.TruncatedFlory(s, m, 8 * k), 1.5 * u, k),
}
# relative tolerance of the scale suite: the closed forms and Newton roots at
# 1e-12, the ODE pole and the truncated Flory curve at their methods' scale,
# and the Taylor-stepped gel ODE at the smallest power of ten at least ten
# times its worst of 1690 scales drawn over the suite's ranges (1.3e-15)
COVARIANT_TOL = {"explosion_time": 1e-9, "gel_growth_ode": 1e-13, "TruncatedFlory": 1e-10}


def _unit(g, k):
    """Gel data ``(M, E, P)`` with ``E`` and ``P`` brought back to k = 1."""
    g = np.array(g, dtype=float)
    g[..., 1:] /= k
    return g


def _spectral(res, r, k):
    return [np.array([res.t_g * r * k * k]), res.psi * k]


def _curve(rows, n, k):
    return [rows[:, 1 : 1 + n] * k, _unit(rows[:, 1 + n :], k)]


def _moments(result, k):
    state, phase = result
    d = np.concatenate(([1.0], np.full(state.n, k)))
    return [state.y / np.outer(d, d), np.array([phase == "sol-subcritical"])]


def _slope(slopes, r, k):
    dc, dg = slopes
    return [dc / (r * k), _unit(dg / (r * k * k), k)]


def _flory(model, t, k):
    state = model.integrate(t)[-1]
    return [np.array(model.types), state.densities, _unit(state.gel.g, k)]


def _scaled_measure(meas, k):
    coords = np.array(meas.coords)
    coords[:, 1:] *= k
    return gk.AtomicMeasure(coords, meas.weight_array, meas.n)


def _assert_covariant(got, want, rtol):
    # relative to each array's largest entry: kinetic-gas's sign-odd gel
    # coordinates are 0 up to rounding noise of 1e-17
    for a, b in zip(got, want, strict=True):
        np.testing.assert_allclose(a, b, rtol=0, atol=rtol * np.abs(b).max())


class TestRateScaleRule:
    """A rate factor reaches the limit solvers and the samplers only through
    ``BilinearSystem.scaled``: it multiplies both blocks, refuses a factor
    that is not positive and finite or that overflows the rates, and every
    limit entry point on ``sys.scaled(r)`` at ``t / r`` gives its rate-1
    answer at ``t``."""

    @pytest.mark.parametrize("rate_scale", [0.0, -1.0, np.nan, np.inf, 10**400])
    @pytest.mark.parametrize(
        "entry",
        ["gelation", "integrate_subcritical", "explosion_time", "TruncatedFlory"],
    )
    def test_bad_rate_scale_raises(self, mult, entry, rate_scale):
        sys_, meas = mult
        call = {
            "gelation": lambda s: gk.gelation(s, meas),
            "integrate_subcritical":
                lambda s: gk.integrate_subcritical(s, gk.initial_state(meas), 0.5),
            "explosion_time": lambda s: gk.explosion_time(s, gk.initial_state(meas)),
            "TruncatedFlory": lambda s: gk.TruncatedFlory(s, meas, 4),
        }[entry]
        with pytest.raises(ValueError, match="rate factor"):
            call(sys_.scaled(rate_scale))

    @pytest.mark.parametrize("a_plus, a_par", [(1e10, 1.0), (1.0, -1e10)])
    def test_overflowing_product_raises(self, a_plus, a_par):
        sys_ = gk.BilinearSystem(1, 1, [[a_plus]], [[a_par]])
        with pytest.raises(ValueError, match="overflows"):
            sys_.scaled(1e300)

    def test_vanishing_row_raises(self):
        with pytest.raises(ValueError, match="entirely zero"):
            gk.BilinearSystem(1, 0, [[1e-300]], []).scaled(1e-30)

    def test_scaled_blocks_and_names(self, kac):
        sys_ = gk.BilinearSystem(2, 1, [[0, 1], [1, 0]], [[-3.0]], ("a", "b", "c", "d"))
        for factor in (2, 1.7, 1e16):
            out = sys_.scaled(factor)
            assert (out.n, out.m, out.coordinate_names) == (2, 1, sys_.coordinate_names)
            assert np.array_equal(out.a_plus, sys_.a_plus * float(factor))
            assert np.array_equal(out.a_par, sys_.a_par * float(factor))
        assert kac[0].scaled(1.0).coordinate_names == kac[0].coordinate_names

    @pytest.mark.parametrize("r", [2.0, 1.7, 1e14, 1e16])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    @pytest.mark.parametrize("entry", list(COVARIANT))
    def test_rate_covariance(self, entry, preset, r, request):
        # 1e14 and 1e16 put the spans near 1e-16, where an absolute time
        # floor in the integrator once ended a run at its first step
        sys_, meas = request.getfixturevalue(preset)
        t_g = gk.gelation_time(sys_, meas)
        want = COVARIANT[entry](sys_, meas, t_g, 1.0, 1.0)
        got = COVARIANT[entry](sys_.scaled(r), meas, t_g / r, r, 1.0)
        _assert_covariant(got, want, 1e-12)


class TestScaleCovariance:
    """Every limit entry point follows a change of time unit (the rate as
    ``sys.scaled(r)``) and of coordinate unit (every coordinate but pi0
    times k) from 1e-8 to 1e16 and 1e-8 to 1e8: it returns the rescaled
    answer of r = k = 1, or raises the GelkitError that r = k = 1 raises.
    No absolute constant of the solvers may read the units."""

    @pytest.fixture(scope="class")
    def unscaled(self, mult, bidi, kac):
        out = {}
        for preset, (sys_, meas) in zip(("mult", "bidi", "kac"), (mult, bidi, kac)):
            t_g = gk.gelation_time(sys_, meas)
            for entry, call in COVARIANT.items():
                try:
                    out[preset, entry] = call(sys_, meas, t_g, 1.0, 1.0)
                except GelkitError as exc:
                    out[preset, entry] = type(exc)
        return out

    @settings(max_examples=12)
    @given(
        log_r=st.floats(-8.0, 16.0, allow_nan=False),
        log_k=st.floats(-8.0, 8.0, allow_nan=False),
    )
    @example(log_r=-8.0, log_k=8.0)
    @example(log_r=16.0, log_k=-8.0)
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_rate_and_coordinate_scale(self, preset, unscaled, request, log_r, log_k):
        sys_, meas = request.getfixturevalue(preset)
        r, k = 10.0**log_r, 10.0**log_k
        t_g = gk.gelation_time(sys_, meas)
        scaled, scaled_meas = sys_.scaled(r), _scaled_measure(meas, k)
        for entry, call in COVARIANT.items():
            want = unscaled[preset, entry]
            if isinstance(want, type):
                with pytest.raises(want):
                    call(scaled, scaled_meas, t_g / (r * k * k), r, k)
                continue
            got = call(scaled, scaled_meas, t_g / (r * k * k), r, k)
            _assert_covariant(got, want, COVARIANT_TOL.get(entry, 1e-12))

    def test_unequal_units_per_conserved_coordinate(self, kac):
        # A+ -> D^-1 A+ D^-1 with plus -> D plus leaves every rate, t_g and M
        # as they are, and Q becomes D Q D
        sys_, meas = kac
        d = np.array([1e-6, 3e5])
        coords = np.array(meas.coords)
        coords[:, 1:3] *= d
        unit = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        a_plus = sys_.a_plus / np.outer(d, d)
        unit_sys = gk.BilinearSystem(2, sys_.m, a_plus, sys_.a_par)
        t_g = gk.gelation_time(sys_, meas)
        assert gk.gelation_time(unit_sys, unit) == pytest.approx(t_g, rel=1e-12, abs=0.0)
        for t in (0.7 * t_g, 1.5 * t_g):
            st0, _ = gk.moments_at(sys_, meas, t)
            st1, _ = gk.moments_at(unit_sys, unit, t)
            np.testing.assert_allclose(st1.q, st0.q * np.outer(d, d), rtol=1e-12)
            m0 = gk.gel_data(sys_, meas, t).mass
            assert gk.gel_data(unit_sys, unit, t).mass == pytest.approx(m0, rel=1e-12, abs=0.0)


class TestUnitFreeVerdicts:
    """A verdict or a stopping rule read against a tolerance holds in any
    coordinate unit: each is relative to its own scale, with no floor."""

    @pytest.mark.parametrize("k", [1e-3, 1e3])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_size_bias_strict(self, preset, k, request):
        sys_, meas = request.getfixturevalue(preset)
        want = gk.size_bias_check(sys_, meas).strict
        assert gk.size_bias_check(sys_, _scaled_measure(meas, k)).strict == want

    @pytest.mark.parametrize("k", [1e-4, 1.0, 1e4])
    def test_power_iteration_radius(self, kac, k):
        sys_, meas = kac
        scaled = _scaled_measure(meas, k)
        radius, _ = gk.spectral_radius(gk.criticality_matrix(sys_, scaled))
        want = gk.gelation(sys_, scaled).radius
        assert radius == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1e-5, 1e-150])
    @pytest.mark.parametrize("preset", ["mult", "bidi", "kac"])
    def test_small_units_keep_every_verdict(self, preset, k, request):
        # a floor of 1 made the atoms of bidisperse one atom at 1e-9 and
        # every preset reducible at 1e-5
        sys_, meas = request.getfixturevalue(preset)
        scaled = _scaled_measure(meas, k)
        assert len(scaled) == len(meas) and scaled.mirror_symmetric
        want, got = gk.check_hypotheses(sys_, meas), gk.check_hypotheses(sys_, scaled)
        assert got.all_pass and got.irreducible and got.components == want.components
        assert got.gram_eigenvalue_ratio == pytest.approx(want.gram_eigenvalue_ratio, rel=1e-12, abs=0.0)

    def test_gram_verdict_per_coordinate_units(self, kac):
        # the eigenvalues of Q itself put this measure at a ratio of 6e-12,
        # while gelation_time holds
        sys_, meas = kac
        coords = np.array(meas.coords)
        coords[:, 1] *= 1e3
        coords[:, 2] *= 1e-3
        scaled = gk.AtomicMeasure(coords, meas.weight_array, meas.n)
        want, got = gk.check_hypotheses(sys_, meas), gk.check_hypotheses(sys_, scaled)
        assert got.gram_nondegenerate and got.all_pass
        assert got.gram_eigenvalue_ratio == pytest.approx(want.gram_eigenvalue_ratio, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("unit", [1.0, 1e-6, 1e-12])
    def test_mirror_weights_relative(self, unit):
        # weights w and 2 w are no mirror pair in any unit; against a floor of
        # 1 they were one at 1e-12
        meas = gk.AtomicMeasure([[1, 1, 1], [1, 1, -1]], [unit, 2.0 * unit], 1)
        assert not meas.mirror_symmetric
        assert gk.AtomicMeasure(meas.coords, [unit, unit], 1).mirror_symmetric
