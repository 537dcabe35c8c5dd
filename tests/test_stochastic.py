import dataclasses
import math
import struct

import numpy as np
import pytest

import gelkit as gk
from gelkit import graphs, particles
from gelkit.errors import (
    NegativeRate,
    RateUnderflow,
    SchemaError,
)
from gelkit.system import check_times


def small_system(mult, n_scale=200, seed=0):
    sys_, meas = mult
    return gk.init_poisson(sys_, meas, n_scale, seed)


class TestSeeding:
    def test_child_seed_deterministic(self):
        a = np.random.default_rng(gk.child_seed(7, 1, 2)).random(4)
        b = np.random.default_rng(gk.child_seed(7, 1, 2)).random(4)
        assert np.array_equal(a, b)

    def test_child_seed_distinct(self):
        a = np.random.default_rng(gk.child_seed(7, 1)).random(4)
        b = np.random.default_rng(gk.child_seed(7, 2)).random(4)
        assert not np.array_equal(a, b)


# n_scale values that every sampler refuses
BAD_SCALES = [0.0, -1.0, np.nan, np.inf, 10**400]


class TestInit:
    def test_poisson_count_scale(self, mult):
        sys_, meas = mult
        counts = [
            gk.init_poisson(sys_, meas, 10_000, s).n_particles
            for s in range(5)
        ]
        # Poisson(10000): five draws stay within 5 sigma of the mean
        assert all(abs(c - 10_000) < 500 for c in counts)

    def test_zero_scale_rejected(self, mult):
        sys_, meas = mult
        with pytest.raises(ValueError):
            gk.init_poisson(sys_, meas, 0, 1)

    @pytest.mark.parametrize("entry", ["particles", "direct", "graph", "blocks"])
    def test_bad_scales_rejected(self, kac, entry):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 10, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        make = {
            "particles": lambda n: gk.ParticleSystem(sys_, rows, n, rng),
            "direct": lambda n: gk.DirectPairSimulator(sys_, rows, n, rng),
            "graph": lambda n: gk.sample_graph(sys_, rows, n, 1.0, rng),
            "blocks": lambda n: graphs._sample_graph_blocks(sys_, rows, n, 1.0, rng),
        }[entry]
        for n_scale in BAD_SCALES:
            with pytest.raises(ValueError, match="n_scale"):
                make(n_scale)

    @pytest.mark.parametrize(
        "cls",
        [
            gk.ParticleSystem,
            gk.DirectPairSimulator,
            lambda sys_, rows, n, rng: gk.sample_graph(sys_, rows, n, 1.0, rng),
            lambda sys_, rows, n, rng: graphs._sample_graph_blocks(sys_, rows, n, 1.0, rng),
        ],
        ids=["particles", "direct", "graph", "blocks"],
    )
    def test_bad_rows_rejected(self, kac, cls):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 3, np.random.default_rng(0))
        # a NaN, an infinite sign-odd coordinate, a negative conserved one
        for cell, value in [((0, 0), np.nan), ((1, -1), np.inf), ((2, 1), -1.0)]:
            bad = rows.copy()
            bad[cell] = value
            with pytest.raises(ValueError, match="finite"):
                cls(sys_, bad, 10, np.random.default_rng(1))
        # a 1-D table and a table one column too wide
        for bad in (rows[:, 0], np.hstack([rows, rows[:, :1]])):
            with pytest.raises(ValueError, match=r"\(P, 1\+n\+m\)"):
                cls(sys_, bad, 10, np.random.default_rng(1))

    def test_bad_time_rejected(self, kac):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 3, np.random.default_rng(0))
        for t in (-1.0, np.nan, np.inf, 10**400):
            with pytest.raises(ValueError, match="t = "):
                gk.ParticleSystem(sys_, rows, 10, np.random.default_rng(1), t=t)

    def test_bad_coords_shape(self, mult):
        sys_, _ = mult
        with pytest.raises(ValueError):
            gk.ParticleSystem(
                sys_, np.ones((4, 3)), 4, np.random.default_rng(0)
            )


class TestDynamics:
    def test_deterministic_given_seed(self, mult):
        runs = []
        for _ in range(2):
            ps = small_system(mult, seed=5)
            snaps = ps.run([0.5, 1.0])
            # the total of pi0 is conserved: the final table gives both
            first = gk.table_moments(ps.sys, ps.coords, ps.n_scale).first
            runs.append(
                [(s.n_particles, s.gel_largest.mass, first[0]) for s in snaps]
            )
        assert runs[0] == runs[1]

    def test_total_coordinates_conserved(self, mult):
        ps = small_system(mult, seed=3)
        before = ps.coords.sum(axis=0)
        ps.run([1.5])
        after = ps.coords.sum(axis=0)
        assert np.allclose(before, after, rtol=1e-12)

    def test_particle_count_drops_by_merges(self, mult):
        ps = small_system(mult, seed=9)
        p0 = ps.n_particles
        ps.run([1.0])
        assert ps.n_particles == p0 - ps.merges

    def test_rate_underflow_nonfinite_envelope(self, mult):
        # the envelope rate squares the coordinate totals, 4e400 here
        sys_, _ = mult
        coords = np.array([[1.0, 1e200]] * 2)
        ps = gk.ParticleSystem(sys_, coords, 2, np.random.default_rng(0))
        with pytest.raises(RateUnderflow), np.errstate(over="ignore"):
            ps.run([1.0])

    def test_run_freezes_when_absorbing(self, mult):
        sys_, _ = mult
        coords = np.array([[1.0, 1.0], [1.0, 1.0]])
        ps = gk.ParticleSystem(sys_, coords, 2, np.random.default_rng(0))
        snaps = ps.run([5.0, 10.0, 20.0])
        assert [s.t for s in snaps] == [5.0, 10.0, 20.0]
        assert snaps[-1].n_particles == 1

    @pytest.mark.parametrize(
        "cls", [gk.ParticleSystem, gk.DirectPairSimulator], ids=["particles", "direct"]
    )
    def test_bad_checkpoints_rejected(self, kac, cls):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 30, np.random.default_rng(0))
        sim = cls(sys_, rows, 30, np.random.default_rng(1))
        for bad in ([np.nan], [np.inf], [0.5, np.nan]):
            with pytest.raises(ValueError, match="finite"):
                sim.run(bad)
        assert (sim.t, sim.n_particles) == (0.0, 30)
        sim.run([1.0])
        with pytest.raises(ValueError, match="before"):
            sim.run([0.5])
        assert sim.t == 1.0

    def test_kinetic_momentum_stays_small(self, kac):
        sys_, meas = kac
        n = 10_000
        ps = gk.init_poisson(sys_, meas, n, 21)
        ps.run([0.25])
        first = gk.table_moments(sys_, ps.coords, ps.n_scale).first
        # mirror symmetry of the data forces mean sign-odd coordinates to
        # vanish like 1/sqrt(N)
        assert np.abs(first[3:]).max() < 5.0 / np.sqrt(n)

    def test_snapshot_largest_tiebreak(self, mult):
        sys_, _ = mult
        coords = np.array(
            [[2.0, 1.0], [2.0, 5.0], [1.0, 1.0]]
        )
        ps = gk.ParticleSystem(sys_, coords, 10, np.random.default_rng(0))
        snap = ps.snapshot(xi=2)
        assert snap.gel_largest.g[1] == pytest.approx(0.5)  # row 1 wins on phi
        # threshold sums both pi0 >= 2 rows
        assert snap.gel_threshold.g[0] == pytest.approx(0.4)

    def test_snapshot_sol_moments_exclude_largest(self, mult):
        sys_, _ = mult
        coords = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        ps = gk.ParticleSystem(sys_, coords, 10, np.random.default_rng(0))
        mom = gk.table_moments(sys_, ps.coords, ps.n_scale)
        assert mom.q[0, 0] == pytest.approx(2.7)  # includes the big row
        assert mom.q_sol[0, 0] == pytest.approx(0.2)
        assert mom.z_sol[0] == pytest.approx(0.2)

    def test_sol_moments_drop_the_named_row_at_ties(self, kac):
        # rows 1-3 tie on pi0; rows 2 and 3 also tie on phi = 11, so row 2
        sys_, _ = kac
        coords = np.array([
            [1.0, 1.0, 2.0, 0.5, 0.0, 0.0],
            [3.0, 3.0, 4.0, 1.0, 0.0, 0.0],
            [3.0, 3.0, 5.0, -1.0, 0.0, 0.0],
            [3.0, 2.0, 6.0, 0.0, 1.0, 0.0],
            [2.0, 2.0, 3.0, 0.0, -1.0, 0.0],
        ])
        ps = gk.ParticleSystem(sys_, coords, 10, np.random.default_rng(0))
        snap = ps.snapshot()
        named = np.flatnonzero((ps.coords * 0.1 == snap.gel_largest.g).all(axis=1))
        assert named.tolist() == [2]
        mom = gk.table_moments(sys_, ps.coords, ps.n_scale)
        rest = gk.table_moments(sys_, np.delete(ps.coords, 2, axis=0), ps.n_scale)
        assert np.array_equal(mom.q_sol, rest.q) and np.array_equal(mom.z_sol, rest.z)
        assert int(mom.size_counts.sum()) == snap.n_particles == 5

    @pytest.mark.parametrize("size", [0, 1])
    def test_reduction_of_tiny_tables(self, kac, size):
        sys_, _ = kac
        coords = np.array([[2.0, 2.0, 4.0, 1.0, 0.0, 0.0]])[:size]
        ps = gk.ParticleSystem(sys_, coords, 10, np.random.default_rng(0))
        snap = ps.snapshot(xi=100)
        assert snap.n_particles == size
        assert np.array_equal(snap.gel_largest.g, coords.sum(axis=0) * 0.1)
        assert not snap.gel_threshold.g.any()
        mom = gk.table_moments(sys_, ps.coords, 10)
        assert np.array_equal(mom.first, coords.sum(axis=0) * 0.1)
        # no particle is left beside the largest
        assert not mom.q_sol.any() and not mom.z_sol.any()
        assert mom.size_values.tolist() == [2] * size
        assert mom.size_counts.tolist() == [1] * size

    def test_size_histogram(self, mult):
        ps = small_system(mult, seed=13)
        snap = ps.run([1.0])[0]
        mom = gk.table_moments(ps.sys, ps.coords, ps.n_scale)
        assert int(mom.size_counts.sum()) == snap.n_particles
        assert mom.size_values[0] == 1  # monomers survive at t=1


class TestBatchedState:
    """A run leaves the state that later runs, snapshots and dumps expect."""

    def test_runs_chain(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 32)
        first = ps.run([0.05])[0]
        merges, events = ps.merges, ps.events
        second = ps.run([0.1])[0]
        assert (first.t, second.t, ps.t) == (0.05, 0.1, 0.1)
        assert second.n_particles == ps.n_particles <= first.n_particles
        assert ps.merges - merges == first.n_particles - second.n_particles
        assert ps.events > events
        with pytest.raises(ValueError):
            ps.run([0.05])

    def test_dump_load_resumes(self, kac, tmp_path):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 33)
        ps.run([0.05])
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        resumed = gk.load_state(sys_, path, 2)
        assert resumed.n_particles == ps.n_particles
        snap = resumed.run([0.15])[0]
        assert snap.t == resumed.t == 0.15
        assert snap.n_particles < ps.n_particles
        assert np.allclose(
            resumed.coords.sum(axis=0),
            ps.coords.sum(axis=0),
            rtol=1e-12,
        )

    def test_live_rows_keep_totals(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 500, 34)
        start = ps.coords.sum(axis=0)
        p0 = ps.n_particles
        snaps = ps.run([0.02, 0.05, 0.1])
        assert [s.n_particles for s in snaps] == sorted(
            (s.n_particles for s in snaps), reverse=True
        )
        assert ps.n_particles == p0 - ps.merges
        assert np.allclose(ps.coords.sum(axis=0), start, rtol=1e-12)

    @pytest.mark.parametrize(
        "cls", [gk.ParticleSystem, gk.DirectPairSimulator], ids=["particles", "direct"]
    )
    def test_table_keeps_lowest_row_order(self, mult, cls):
        # the zero-mass rows 0 and 2 never merge; rows 1 and 3 do, into row 1
        rows = [[1.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        ps = cls(mult[0], rows, 1, np.random.default_rng(0))
        ps.run([50.0])
        assert ps.coords.tolist() == [[1.0, 0.0], [2.0, 2.0], [1.0, 0.0]]
        assert ps.n_particles == 3

    def test_negative_rate_mid_run_keeps_last_checkpoint(self, monkeypatch):
        # kbar is 1 - 100 on the pair of rows with par = +-10 and positive
        # elsewhere; seed 0 draws that pair in the second interval, chunks
        # after the first checkpoint
        monkeypatch.setattr(particles, "_CHUNK", 8)
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[1.0]])
        coords = np.array(
            [[1.0, 1.0, 0.0]] * 98 + [[1.0, 1.0, 10.0], [1.0, 1.0, -10.0]]
        )
        first = gk.ParticleSystem(sys_, coords, 100, np.random.default_rng(0))
        first.run([0.2])
        ps = gk.ParticleSystem(sys_, coords, 100, np.random.default_rng(0))
        with pytest.raises(NegativeRate):
            ps.run([0.2, 3.0])
        assert ps.t == 0.2
        assert ps.merges > first.merges and ps.events > first.events
        assert ps.n_particles == 100 - ps.merges
        assert np.array_equal(ps.coords.sum(axis=0), coords.sum(axis=0))

    def test_largest_without_positive_pi0(self, mult):
        # the joined-away row 1 is zero, above the cluster's pi0 of -2: the
        # cluster is still the largest, and its negative mass is refused
        rows = [[-1.0, 1.0], [-1.0, 1.0]]
        ps = gk.ParticleSystem(mult[0], rows, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="gel mass"):
            ps.run([50.0])
        assert ps.coords.tolist() == [[-2.0, 2.0]]

    def test_negative_pair_rate_raises(self):
        # kbar(x, y) = x+ y+ + x_par y_par is -1 on the cross pair below
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[1.0]])
        coords = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
        for cls in (gk.ParticleSystem, gk.DirectPairSimulator):
            ps = cls(sys_, coords, 2, np.random.default_rng(0))
            with pytest.raises(NegativeRate):
                ps.run([10.0])


def _draw_rows_searchsorted(rng, cum, coord):
    """The row draw without a guide table: one binary search per draw."""
    u = rng.random(coord.size)
    out = np.empty(coord.size, dtype=np.intp)
    for k in range(cum.shape[0]):
        sel = coord == k
        if sel.any():
            out[sel] = np.searchsorted(cum[k], u[sel] * cum[k, -1], side="right")
    # a draw that rounds onto the total picks the last row, as find does
    return np.minimum(out, cum.shape[1] - 1, out=out)


def _same(a, b) -> bool:
    """Equal arrays of equal dtype, through tuples, lists and dataclasses."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _relabelled_run(ps, times):
    """``ps.run(times)`` with the clusters as labels of the starting rows:
    :func:`particles.contract` relabels every row after each chunk, and a
    ``bincount`` per column sums every row at each checkpoint.  Returns the
    snapshots, the cluster table, ``events``, ``merges`` and the labels."""
    times = check_times(times, ps.t)
    rows = ps.coords
    cum, guide, pair_cum = particles.envelope(ps.sys, rows)
    merge_rate = 0.0
    if rows.shape[0] >= 2:
        merge_rate = 0.5 / ps.n_scale * float(pair_cum[-1])
    labels, clusters = np.arange(rows.shape[0]), rows.shape[0]
    t, events, snaps = ps.t, 0, []
    for target in times:
        if merge_rate > 0.0 and target > t:
            count = int(ps.rng.poisson(merge_rate * (target - t)))
            while count and clusters >= 2:
                size = min(count, particles._CHUNK)
                count -= size
                events += size
                p, q, keep = particles.envelope_proposals(
                    ps.rng, ps.sys, rows, cum, guide, pair_cum, size
                )
                labels, clusters = particles.contract(labels, clusters, p[keep], q[keep])
        t = target
        table = np.stack(
            [np.bincount(labels, weights=col, minlength=clusters) for col in rows.T],
            axis=1,
        )
        snaps.append(particles.snapshot(ps.sys, table, ps.n_scale, t))
    return snaps, table, events, rows.shape[0] - clusters, labels


class TestForest:
    """The engine's root forest gives the partitions, counts and snapshots of
    relabelling every row after each chunk; only the order in which a
    cluster's rows are added changes."""

    @pytest.mark.parametrize("chunk", [None, 300], ids=["chunk", "small-chunks"])
    @pytest.mark.parametrize(
        "preset, times",
        [("multiplicative", [0.1, 0.5, 1.0, 2.0]), ("bidisperse", [0.1, 0.3, 0.5, 0.8])],
    )
    def test_integer_coordinates_bit_for_bit(self, monkeypatch, preset, times, chunk):
        # integer coordinates add up exactly in any order
        sys_, meas = gk.presets.from_name(preset)
        if chunk:
            monkeypatch.setattr(particles, "_CHUNK", chunk)
        ps = gk.init_poisson(sys_, meas, 3000, 51)
        snaps = ps.run(times)
        ref = gk.init_poisson(sys_, meas, 3000, 51)
        want = _relabelled_run(ref, times)[:4]
        assert want[3] > 1000 and snaps[-1].gel_largest.mass > 0.3
        assert _same((snaps, ps.coords, ps.events, ps.merges), want)

    def test_kinetic_sums_near_fsum(self, kac):
        # each cluster's sum against the correctly rounded sum of its rows,
        # relative to the sum of their absolute values; adding a giant's
        # parts one at a time, as bincount or np.add.at does, ends 100 to
        # 300 eps off here
        sys_, meas = kac
        times = [0.1, 0.2, 0.3]
        ps = gk.init_poisson(sys_, meas, 20_000, 52)
        rows = ps.coords
        ps.run(times)
        labels = _relabelled_run(gk.init_poisson(sys_, meas, 20_000, 52), times)[4]
        order = np.argsort(labels, kind="stable")
        members = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        assert len(members) == ps.n_particles
        assert max(map(len, members)) > 10_000  # a giant cluster
        for row, idx in zip(ps.coords, members):
            for j, col in enumerate(rows[idx].T):
                bound = 64 * np.finfo(float).eps * math.fsum(np.abs(col))
                assert abs(row[j] - math.fsum(col)) <= bound


class TestGuidedDraws:
    """The guide table changes what a row draw costs, never the row."""

    @staticmethod
    def _guided_and_plain(monkeypatch, go):
        guided = go()
        with monkeypatch.context() as patch:
            patch.setattr(
                particles,
                "_draw_rows",
                lambda rng, cum, guide, coord: _draw_rows_searchsorted(rng, cum, coord),
            )
            plain = go()
        return guided, plain

    @pytest.mark.parametrize("chunk", [None, 300], ids=["chunk", "small-chunks"])
    @pytest.mark.parametrize("preset", ["multiplicative", "kinetic-gas"])
    def test_run_matches_searchsorted(self, monkeypatch, preset, chunk):
        sys_, meas = gk.presets.from_name(preset)
        if chunk:  # one guide table serves every chunk of the run
            monkeypatch.setattr(particles, "_CHUNK", chunk)

        def go():
            ps = gk.init_poisson(sys_, meas, 3000, 41)
            snaps = ps.run([0.1, 0.3, 0.6, 1.2])
            return snaps, ps.coords, ps.events, ps.merges

        guided, plain = self._guided_and_plain(monkeypatch, go)
        assert guided[2] > 1000 and guided[3] > 0
        assert _same(guided, plain)

    @pytest.mark.parametrize("chunk", [None, 300], ids=["chunk", "small-chunks"])
    @pytest.mark.parametrize("preset", ["multiplicative", "kinetic-gas"])
    def test_graph_edges_match_searchsorted(self, monkeypatch, preset, chunk):
        sys_, meas = gk.presets.from_name(preset)
        if chunk:
            monkeypatch.setattr(graphs, "_CHUNK", chunk)
        rows = gk.sample_atoms(meas, 2000, np.random.default_rng(42))

        def go():
            g = gk.sample_graph(sys_, rows, 2000, 1.2, 43)
            return g.edge_u, g.edge_v, g.edge_t

        guided, plain = self._guided_and_plain(monkeypatch, go)
        assert guided[0].size > 500
        assert _same(guided, plain)

    def test_zero_coordinate_total(self, kac):
        # the third sign-odd coordinate of kinetic-gas is 0 on every atom,
        # so its total is 0 in every run: no division by it, anywhere
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 500, 44)
        with np.errstate(all="raise"):
            cum, guide, _ = particles.envelope(sys_, ps.coords)
            assert cum[-1, -1] == 0.0 and not guide[-1].any()
            ps.run([0.2, 0.5])
            gk.sample_graph(sys_, ps.coords, 500, 0.5, 45)
            rep = gk.coupling_test(sys_, meas, 300, 0.5, n_replicas=2, seed=46)
        assert ps.merges > 0 and rep.n_replicas == 2

    @pytest.mark.parametrize("count", [0, 1])
    def test_tables_below_two_rows(self, kac, tmp_path, count):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, count, np.random.default_rng(47))
        cum, guide, _ = particles.envelope(sys_, rows)
        assert cum.shape == (sys_.dim, count)
        assert guide.shape == (sys_.dim, count + 1) and not guide.any()
        ps = gk.ParticleSystem(sys_, rows, 10, np.random.default_rng(48))
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        for state in (ps, gk.load_state(sys_, path, 49)):
            snaps = state.run([0.5, 1.0])
            assert [s.n_particles for s in snaps] == [count, count]
            assert state.events == 0
            assert state.coords.shape == rows.shape and state.coords.dtype == float
        edges = gk.sample_graph(sys_, rows, 10, 1.0, 50).edge_u
        assert edges.size == 0

    @pytest.mark.parametrize("count", [2, 3])
    def test_overflowing_total_raises_rate_underflow(self, mult, count):
        # the mass total overflows to inf, and with three rows so does an
        # entry before it; the guide skips the coordinate without a NaN
        coords = np.array([[1.0, 1e308]] * count)
        ps = gk.ParticleSystem(mult[0], coords, count, np.random.default_rng(0))
        with pytest.raises(RateUnderflow), np.errstate(over="ignore", invalid="raise"):
            ps.run([1.0])


class TestPersistence:
    def test_round_trip(self, kac, tmp_path):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 9)
        ps.run([0.05])
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        # the rates are the system's, so the rate factor slot holds 1
        assert struct.unpack_from("<d", path.read_bytes(), 30) == (1.0,)
        ps2 = gk.load_state(sys_, path, 1)
        assert ps2.t == ps.t
        assert ps2.sys is sys_
        assert np.array_equal(ps2.coords, ps.coords)

    def test_fractional_scale_round_trip(self, kac, tmp_path):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 50, np.random.default_rng(3))
        ps = gk.ParticleSystem(sys_, rows, 1000.5, np.random.default_rng(4))
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        assert gk.load_state(sys_, path, 1).n_scale == 1000.5

    @staticmethod
    def _dump(sys_, path, version, slot):
        # header: magic, then version, n, m, n_scale (an integer in v1), t,
        # the rate factor slot and the row count
        rows = np.arange(2.0 * (1 + sys_.dim)).reshape(2, 1 + sys_.dim)
        fmt = {1: "<BII Q d d Q", 2: "<BII d d d Q"}[version]
        path.write_bytes(
            b"GELK1"
            + struct.pack(fmt, version, sys_.n, sys_.m, 1000, 0.25, slot, 2)
            + rows.astype("<f8").tobytes()
        )
        return rows

    def test_version_one_dump_loads(self, kac, tmp_path):
        # a slot of 2 runs the dump on the system with doubled rates
        sys_, _ = kac
        rows = self._dump(sys_, tmp_path / "v1.bin", 1, 2.0)
        ps = gk.load_state(sys_, tmp_path / "v1.bin", 1)
        assert (ps.n_scale, ps.t) == (1000.0, 0.25)
        assert np.array_equal(ps.sys.block, 2.0 * sys_.block)
        assert np.array_equal(ps.coords, rows)

    def test_version_two_rate_factor_slot(self, kac, tmp_path):
        sys_, _ = kac
        self._dump(sys_, tmp_path / "v2.bin", 2, 2.0)
        ps = gk.load_state(sys_, tmp_path / "v2.bin", 1)
        assert np.array_equal(ps.sys.block, 2.0 * sys_.block)
        assert ps.sys.coordinate_names == sys_.coordinate_names

    @pytest.mark.parametrize("slot", [0.0, -1.0, np.nan])
    def test_bad_rate_factor_slot_refused(self, kac, tmp_path, slot):
        path = tmp_path / "dump.bin"
        self._dump(kac[0], path, 2, slot)
        with pytest.raises(SchemaError, match="rate factor") as info:
            gk.load_state(kac[0], path, 1)
        assert info.value.pointer == str(path)

    def test_wrong_system_rejected(self, kac, mult, tmp_path):
        sys_k, meas_k = kac
        ps = gk.init_poisson(sys_k, meas_k, 50, 1)
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        sys_m, _ = mult
        with pytest.raises(SchemaError):
            gk.load_state(sys_m, path, 1)

    def test_bad_magic_rejected(self, mult, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE!123")
        sys_, _ = mult
        with pytest.raises(SchemaError):
            gk.load_state(sys_, path, 1)
