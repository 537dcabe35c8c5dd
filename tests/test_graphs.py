import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

import gelkit as gk
from gelkit.errors import BudgetExceeded, NegativeRate, WindowInvalid
from gelkit.graphs import (
    GraphRealization,
    _block_hits,
    _histogram_distance,
    _ks_equal,
    _sample_graph_blocks,
    _unrank_pairs,
)


class TestHandBuiltGraph:
    @staticmethod
    def _graph(edges, times):
        # rows (pi0, x): six vertices with distinct masses 1, 2, 4, ..., 32
        rows = np.column_stack([np.ones(6), 2.0 ** np.arange(6)])
        u, v = np.array(edges).T
        return GraphRealization(
            vertices=rows, n_scale=6.0, t_max=1.0,
            edge_u=u, edge_v=v, edge_t=np.array(times),
        )

    def test_components_at_checkpoints(self):
        g = self._graph(
            [(0, 1), (4, 5), (1, 2), (0, 2), (3, 5)], [0.1, 0.2, 0.3, 0.4, 0.5]
        )
        early, mid, late = gk.trajectory(g, [0.15, 0.35, 1.0], xi=2)
        assert [tr.n_components for tr in (early, mid, late)] == [5, 3, 2]
        # at 0.15 only {0, 1} is joined
        assert early.c1_vertices == 2
        assert np.allclose(early.pi_c1, [2.0 / 6, 3.0 / 6])
        assert list(early.size_values) == [1, 2]
        assert list(early.size_counts) == [4, 1]
        # at 0.35 {0, 1, 2} is the largest; {4, 5} is mesoscopic for xi = 2
        assert mid.c1_vertices == 3
        assert np.allclose(mid.pi_c1, [3.0 / 6, 7.0 / 6])
        assert mid.meso_fraction == pytest.approx(2.0 / 6)
        # the repeated (0, 2) joins nothing; at the end two triples tie
        # and the one holding vertex 0 counts as the largest
        assert list(late.size_values) == [3]
        assert list(late.size_counts) == [2]
        assert np.allclose(late.pi_c1, [3.0 / 6, 7.0 / 6])
        assert late.meso_fraction == pytest.approx(3.0 / 6)

    def test_no_edges(self):
        g = self._graph(np.zeros((0, 2), dtype=int), np.zeros(0))
        (tr,) = gk.trajectory(g, [1.0])
        assert tr.n_components == 6 and tr.c1_vertices == 1
        assert np.allclose(tr.pi_c1, [1.0 / 6, 1.0 / 6])


class TestSampling:
    def test_erdos_renyi_edge_count(self, mult):
        sys_, meas = mult
        # all-monomer start: kbar = 1 on every pair, so edges by time t
        # number about N*t/2
        n = 2_000
        rows = np.tile([1.0, 1.0], (n, 1))
        g = gk.sample_graph(sys_, rows, n, 1.0, seed=4)
        expect = n / 2.0
        assert abs(g.edge_t.size - expect) < 5.0 * np.sqrt(expect)

    def test_edges_sorted_and_bounded(self, kac):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 400, np.random.default_rng(2))
        g = gk.sample_graph(sys_, rows, 400, 0.3, seed=5)
        assert np.all(np.diff(g.edge_t) >= 0)
        assert g.edge_t.size == 0 or g.edge_t[-1] <= 0.3
        assert np.all(g.edge_u < g.edge_v)  # no self loops, no dupes flipped

    def test_rate_scale_doubles_edges(self, mult):
        sys_, _ = mult
        n = 3_000
        rows = np.tile([1.0, 1.0], (n, 1))
        g1 = gk.sample_graph(sys_, rows, n, 0.5, seed=6)
        g2 = gk.sample_graph(sys_.scaled(2.0), rows, n, 0.5, seed=6)
        ratio = g2.edge_t.size / g1.edge_t.size
        assert 1.7 < ratio < 2.3

    def test_proposal_budget(self, mult):
        sys_, _ = mult
        # all-monomer rows propose at rate N/2: N * t / 2 = 1.5e7 expected
        rows = np.tile([1.0, 1.0], (30_000, 1))
        with pytest.raises(BudgetExceeded):
            gk.sample_graph(sys_, rows, 30_000, 1_000.0, seed=1)

    def test_vertex_budget(self, mult):
        sys_, meas = mult
        with pytest.raises(BudgetExceeded):
            gk.graph_from_measure(sys_, meas, 10**7 + 1, 0.1, seed=1)

    def test_negative_rate_detected(self):
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-4.0]])
        rows = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(NegativeRate):
            gk.sample_graph(sys_, rows, 2, 1.0, seed=1)

    def test_from_measure_fixed_count(self, kac):
        sys_, meas = kac
        g = gk.graph_from_measure(sys_, meas, 250, 0.1, seed=3)
        assert g.vertices.shape[0] == 250


class TestBlockOracle:
    """The coupling oracle: Bernoulli edges by geometric skipping per block."""

    def test_unrank_is_a_bijection(self):
        for n in range(61):
            i, j = _unrank_pairs(np.arange(n * (n - 1) // 2))
            assert np.all((0 <= j) & (j < i) & (i < n))
            assert len(set(zip(i.tolist(), j.tolist()))) == n * (n - 1) // 2

    def test_unrank_large_positions(self):
        pos = np.array([10**13, 5 * 10**13 - 1, 2**52])
        i, j = _unrank_pairs(pos)
        assert np.all((0 <= j) & (j < i))
        assert np.array_equal(i * (i - 1) // 2 + j, pos)

    def test_block_hits_continue_past_the_first_batch(self):
        # uniforms of 0 make every gap 0, so every position from the first
        # hit on is a success, more than the first batch holds
        class Zeros:
            def __init__(self):
                self.sizes = []

            def random(self, size):
                self.sizes.append(size)
                return np.zeros(size)

        rng = Zeros()
        hits = _block_hits(rng, 3.0, np.log(0.5), 100.0)
        assert np.array_equal(hits, np.arange(3, 100))
        assert len(rng.sizes) == 2

    def test_edges_well_formed(self, kac):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 400, np.random.default_rng(2))
        g = _sample_graph_blocks(sys_, rows, 400, 0.3, seed=5)
        assert g.edge_t.size > 0
        assert np.all(g.edge_u < g.edge_v)
        assert np.unique(np.column_stack([g.edge_u, g.edge_v]), axis=0).shape[0] == (
            g.edge_u.size
        )
        assert np.all(np.diff(g.edge_t) >= 0)
        assert np.all((g.edge_t >= 0) & (g.edge_t <= 0.3))

    def test_edge_count_matches_expectation(self, kac):
        sys_, meas = kac
        n, t = 2_000, 0.2
        rows = gk.sample_atoms(meas, n, np.random.default_rng(3))
        rate = np.clip(rows[:, 1:] @ sys_.block @ rows[:, 1:].T, 0.0, None) / n
        prob = -np.expm1(-rate * t)
        expect = float(np.triu(prob, 1).sum())
        g = _sample_graph_blocks(sys_, rows, n, t, seed=6)
        assert abs(g.edge_t.size - expect) < 5.0 * np.sqrt(expect)

    def test_equal_kinetic_gas_rows_edgeless(self, kac):
        # each atom's rate with itself is a rounding residue of about 1e-16,
        # of either sign
        sys_, meas = kac
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for atom in meas.coords:
                rows = np.tile(atom, (500, 1))
                g = _sample_graph_blocks(sys_, rows, 500, 100.0, seed=1)
                assert g.edge_t.size == 0

    def test_huge_rate_gives_complete_graph(self, mult):
        sys_, _ = mult
        rows = np.tile([1.0, 1.0], (50, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = _sample_graph_blocks(sys_, rows, 50, 1.0, seed=1, rate_scale=1e6)
        assert g.edge_t.size == 50 * 49 // 2
        assert np.unique(g.edge_u * 50 + g.edge_v).size == 50 * 49 // 2

    def test_zero_rate_is_edgeless(self, mult):
        sys_, _ = mult
        rows = np.tile([1.0, 1.0], (50, 1))
        g = _sample_graph_blocks(sys_, rows, 50, 1.0, seed=1, rate_scale=0.0)
        assert g.edge_t.size == 0
        with pytest.raises(ValueError):
            _sample_graph_blocks(sys_, rows, 50, 1.0, seed=1, rate_scale=-1.0)

    def test_negative_rate_detected(self):
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[-4.0]])
        rows = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        with pytest.raises(NegativeRate):
            _sample_graph_blocks(sys_, rows, 2, 1.0, seed=1)

    def test_type_pair_budget(self, mult):
        sys_, _ = mult
        # 4,500 distinct rows give about 1.01e7 type pairs
        rows = np.column_stack([np.ones(4_500), np.arange(1.0, 4_501.0)])
        with pytest.raises(BudgetExceeded):
            _sample_graph_blocks(sys_, rows, 4_500, 0.1, seed=1)

    def test_edge_budget(self, mult):
        sys_, _ = mult
        # all-monomer rows: about N^2 / 2 = 4.5e8 expected edges
        rows = np.tile([1.0, 1.0], (30_000, 1))
        with pytest.raises(BudgetExceeded):
            _sample_graph_blocks(sys_, rows, 30_000, 1_000.0, seed=1)


class TestTrajectory:
    def test_c1_monotone(self, mult):
        sys_, meas = mult
        g = gk.graph_from_measure(sys_, meas, 4_000, 2.0, seed=7)
        times = np.linspace(0.1, 2.0, 12)
        tracks = gk.trajectory(g, times)
        c1 = [tr.c1_over_n for tr in tracks]
        assert all(b >= a for a, b in zip(c1, c1[1:]))
        assert c1[-1] > 0.5  # deep supercritical, giant dominates

    def test_meso_excludes_largest(self, mult):
        sys_, meas = mult
        g = gk.graph_from_measure(sys_, meas, 2_000, 1.5, seed=8)
        tr = gk.trajectory(g, [1.5], xi=2)[0]
        # everything >= 2 vertices minus the giant, normalized
        total = (tr.size_values * tr.size_counts)[tr.size_values >= 2].sum()
        assert tr.meso_fraction == pytest.approx(
            (total - tr.c1_vertices) / 2_000
        )

    def test_checkpoint_beyond_horizon(self, mult):
        sys_, meas = mult
        g = gk.graph_from_measure(sys_, meas, 100, 0.5, seed=9)
        with pytest.raises(ValueError):
            gk.trajectory(g, [1.0])

    def test_component_count_decreases(self, mult):
        sys_, meas = mult
        g = gk.graph_from_measure(sys_, meas, 1_000, 1.0, seed=10)
        tracks = gk.trajectory(g, [0.2, 0.6, 1.0])
        counts = [tr.n_components for tr in tracks]
        assert counts[0] > counts[1] > counts[2]


class TestCoupling:
    def test_matches_particle_system(self, mult):
        sys_, meas = mult
        rep = gk.coupling_test(sys_, meas, 500, 1.5, n_replicas=40, seed=11)
        assert rep.passed
        assert rep.p_largest > 1e-3 and rep.p_count > 1e-3

    def test_detects_rate_mismatch(self, mult):
        sys_, meas = mult
        rep = gk.coupling_test(
            sys_, meas, 500, 1.5, n_replicas=40, seed=11,
            graph_rate_factor=2.0,
        )
        assert not rep.passed

    def test_largest_by_the_snapshot_rule(self, monkeypatch):
        # two species that never merge across, each pair joined almost
        # surely by t = 100: two components of two vertices each, phi 4
        # and 6.  The lighter holds vertex 0, so the rule of the lowest
        # vertex reported phi 4 where the particle side reports 6
        sys_ = gk.BilinearSystem(2, 0, np.eye(2), [])
        meas = gk.AtomicMeasure([[1, 1, 0], [1, 0, 2]], [0.5, 0.5], 2)
        rows = np.array([[1.0, 1.0, 0.0]] * 2 + [[1.0, 0.0, 2.0]] * 2)
        monkeypatch.setattr(gk.graphs, "sample_atoms", lambda *a: rows.copy())
        rep = gk.coupling_test(sys_, meas, 4, 100.0, n_replicas=5, seed=1)
        assert list(rep.graph_counts) == [2] * 5
        assert list(rep.graph_largest) == [1.5] * 5
        assert list(rep.particle_largest) == [1.5] * 5

    def test_replica_count_checked(self, mult):
        sys_, meas = mult
        with pytest.raises(ValueError, match="n_replicas"):
            gk.coupling_test(sys_, meas, 100, 1.5, n_replicas=0, seed=1)


def _ks_draws():
    # equal samples (D = 0), disjoint ones (D = 1), then seeded equal-size
    # pairs at sizes 1 to 1e4, continuous and with ties
    yield np.arange(5.0), np.arange(5.0)[::-1]
    yield np.zeros(3), np.ones(3)
    rng = np.random.default_rng(28)
    for n in (1, 2, 3, 5, 8, 13, 20, 50, 200, 1_000, 10_000):
        for shift in (0.0, 0.1, 0.5):
            yield rng.normal(size=n), rng.normal(shift, size=n)
            ties = np.floor(rng.normal(1.5 + shift, 1.0, n))
            yield rng.integers(0, 4, n) * 1.0, ties


class TestExactKS:
    """The equal-size Kolmogorov-Smirnov null against scipy's exact method."""

    def test_matches_scipy_exact(self):
        compared = 0
        for a, b in _ks_draws():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    ref = ks_2samp(a, b, method="exact").pvalue
                except RuntimeWarning:  # scipy fell back to asymp
                    continue
            assert _ks_equal(a, b) == pytest.approx(ref, rel=1e-9, abs=0.0)
            compared += 1
        assert compared >= 50


class TestDuality:
    def test_window_validation(self, mult):
        sys_, meas = mult
        with pytest.raises(WindowInvalid):
            gk.duality_experiment(sys_, meas, 500, 0.5, 1.5, seed=1)
        with pytest.raises(WindowInvalid):
            gk.duality_experiment(sys_, meas, 500, 1.5, 1.2, seed=1)
        with pytest.raises(WindowInvalid):
            # tilted system gels again near 2.4 for t_minus=1.5
            gk.duality_experiment(sys_, meas, 500, 1.5, 50.0, seed=1)

    def test_survivors_look_subcritical(self, mult):
        sys_, meas = mult
        rep = gk.duality_experiment(sys_, meas, 4_000, 1.5, 2.0, seed=12)
        assert abs(rep.survivor_fraction - rep.expected_sol_fraction) < 0.05
        # both stay mesoscopic (t_plus is inside the tilted subcritical
        # window) and resemble each other
        assert rep.dual_c1_over_n < 0.05
        assert rep.fresh_c1_over_n < 0.05
        assert rep.histogram_distance < 0.1

    def test_one_spectral_and_one_fixed_point_solve(self, mult, monkeypatch):
        from gelkit import graphs, survival

        sys_, meas = mult
        own, fixed = [], []

        def counted(s, m, *args, **kwargs):
            own.append(m is meas)
            return gk.gelation(s, m, *args, **kwargs)

        def counted_fixed(*args, **kwargs):
            fixed.append(args[1] is meas)
            return gk.solve_fixed_point(*args, **kwargs)

        monkeypatch.setattr(graphs, "gelation", counted)
        monkeypatch.setattr(survival, "gelation", counted)
        monkeypatch.setattr(graphs, "solve_fixed_point", counted_fixed)
        monkeypatch.setattr(survival, "solve_fixed_point", counted_fixed)
        gk.duality_experiment(sys_, meas, 500, 1.5, 2.0, seed=12)
        assert own == [True, False]  # the measure, then the tilted measure
        assert fixed == [True]

    def test_histogram_distance_bounds(self):
        a = np.array([1, 1, 2, 3])
        assert _histogram_distance(a, a.copy()) == 0.0
        assert _histogram_distance(a, np.array([], dtype=int)) == 1.0
        d = _histogram_distance(a, np.array([4, 4]))
        assert 0.0 < d <= 1.0
