import struct

import numpy as np
import pytest

import gelkit as gk
from gelkit.errors import (
    HookViolatesConservation,
    NegativeRate,
    RateUnderflow,
    SchemaError,
)


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
            runs.append(
                [(s.n_particles, s.gel_largest.mass, s.first[0]) for s in snaps]
            )
        assert runs[0] == runs[1]

    def test_total_coordinates_conserved(self, mult):
        ps = small_system(mult, seed=3)
        before = ps.coords[ps.alive].sum(axis=0)
        ps.run([1.5])
        after = ps.coords[ps.alive].sum(axis=0)
        assert np.allclose(before, after, rtol=1e-12)

    def test_particle_count_drops_by_merges(self, mult):
        ps = small_system(mult, seed=9)
        p0 = ps.n_particles
        ps.run([1.0])
        assert ps.n_particles == p0 - ps.merges

    def test_step_records(self, mult):
        ps = small_system(mult, seed=2)
        rec = ps.step()
        assert rec.kind == "merge"
        assert rec.t == ps.t
        assert isinstance(rec.accepted, bool)

    def test_rate_underflow_single_particle(self, mult):
        sys_, _ = mult
        coords = np.array([[1.0, 1.0]])
        ps = gk.ParticleSystem(sys_, coords, 1, np.random.default_rng(0))
        with pytest.raises(RateUnderflow):
            ps.step()

    def test_run_freezes_when_absorbing(self, mult):
        sys_, _ = mult
        coords = np.array([[1.0, 1.0], [1.0, 1.0]])
        ps = gk.ParticleSystem(sys_, coords, 2, np.random.default_rng(0))
        snaps = ps.run([5.0, 10.0, 20.0])
        assert [s.t for s in snaps] == [5.0, 10.0, 20.0]
        assert snaps[-1].n_particles == 1

    def test_resync_path_clean(self, mult, monkeypatch):
        # only the sequential loop resyncs; a zero-rate hook selects it
        sys_, meas = mult
        ps = gk.init_poisson(sys_, meas, 500, 11)
        ps.set_hook(lambda t, row: row, 0.0)
        ps.resync_interval = 64
        resyncs = []
        resync = ps._resync
        monkeypatch.setattr(
            ps, "_resync", lambda: resyncs.append(ps.events) or resync()
        )
        ps.run([1.5])
        assert ps.events > 64
        assert resyncs and resyncs[0] == 64  # the check actually fired

    def test_kinetic_momentum_stays_small(self, kac):
        sys_, meas = kac
        n = 10_000
        ps = gk.init_poisson(sys_, meas, n, 21)
        snap = ps.run([0.25])[0]
        # mirror symmetry of the data forces mean sign-odd coordinates to
        # vanish like 1/sqrt(N)
        assert np.abs(snap.first[3:]).max() < 5.0 / np.sqrt(n)

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
        snap = ps.snapshot(xi=100)
        assert snap.q[0, 0] == pytest.approx(2.7)  # includes the big row
        assert snap.q_sol[0, 0] == pytest.approx(0.2)
        assert snap.z_sol[0] == pytest.approx(0.2)

    def test_size_histogram(self, mult):
        ps = small_system(mult, seed=13)
        snap = ps.run([1.0])[0]
        assert int(snap.size_counts.sum()) == snap.n_particles
        assert snap.size_values[0] == 1  # monomers survive at t=1


class TestBatchedState:
    """A hook-free run leaves the state the sequential loop and dumps expect."""

    def test_step_after_run(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 31)
        ps.step()  # builds the sequential index, which the run makes stale
        ps.run([0.05])
        assert ps.trees is None
        live = ps.coords[ps.alive]
        assert ps.s_hat == pytest.approx(np.abs(live[:, 1:]).sum(axis=0), rel=1e-12)
        t0, events = ps.t, ps.events
        rec = ps.step()
        assert rec.t > t0 and ps.events == events + 1
        assert len(ps.trees) == sys_.dim
        for k, tree in enumerate(ps.trees):
            assert tree.total == pytest.approx(ps.s_hat[k], rel=1e-12, abs=1e-12)

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
            resumed.coords[resumed.alive].sum(axis=0),
            ps.coords[ps.alive].sum(axis=0),
            rtol=1e-12,
        )

    def test_live_rows_keep_totals(self, kac, mult):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 500, 34)
        start = ps.coords.sum(axis=0)
        p0 = ps.n_particles
        snaps = ps.run([0.02, 0.05, 0.1])
        assert [s.n_particles for s in snaps] == sorted(
            (s.n_particles for s in snaps), reverse=True
        )
        assert ps.n_particles == int(ps.alive.sum()) == p0 - ps.merges
        assert not ps.coords[~ps.alive].any()  # merged-away slots are empty
        assert np.allclose(ps.coords[ps.alive].sum(axis=0), start, rtol=1e-12)
        # a cluster keeps its lowest starting slot
        trio = gk.ParticleSystem(mult[0], np.ones((3, 2)), 3, np.random.default_rng(0))
        trio.run([50.0])
        assert trio.alive.tolist() == [True, False, False]
        assert trio.coords.tolist() == [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]]

    def test_negative_pair_rate_raises(self):
        # kbar(x, y) = x+ y+ + x_par y_par is -1 on the cross pair below
        sys_ = gk.BilinearSystem(1, 1, [[1.0]], [[1.0]])
        coords = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -2.0]])
        ps = gk.ParticleSystem(sys_, coords, 2, np.random.default_rng(0))
        with pytest.raises(NegativeRate):
            ps.run([10.0])


class TestHook:
    @staticmethod
    def _speed_shuffle(rng):
        def hook(t, row):
            speed = np.sqrt(max(row[2], 0.0))
            v = rng.standard_normal(3)
            v *= speed / max(np.linalg.norm(v), 1e-300)
            row[3:] = v
            return row

        return hook

    def test_hook_runs_and_conserves(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 400, 5)
        before = ps.coords[ps.alive][:, :3].sum(axis=0)
        ps.set_hook(self._speed_shuffle(np.random.default_rng(1)), 2.0)
        ps.run([0.05])
        after = ps.coords[ps.alive][:, :3].sum(axis=0)
        assert np.allclose(before, after, rtol=1e-12)

    def test_violating_hook_raises(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 200, 6)

        def bad(t, row):
            row[1] += 1.0
            return row

        ps.set_hook(bad, 2.0)
        with pytest.raises(HookViolatesConservation):
            ps.run([0.5])

    def test_thinned_hook_rate(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 7)
        calls = []

        def hook(t, row):
            calls.append(t)
            return row

        # actual rate is half the bound: thinning keeps roughly half
        ps.set_hook(hook, 2.0, rate_fn=lambda row: 1.0 * (row[0] + row[1]))
        ps.run([0.05])
        assert calls  # some jumps happened

    def test_step_matches_run(self, kac):
        # run() and step() share one proposal body, so stepping a twin
        # system through run()'s event count lands on the same state
        sys_, meas = kac
        twins = [gk.init_poisson(sys_, meas, 300, 4) for _ in range(2)]
        for ps in twins:
            ps.set_hook(self._speed_shuffle(np.random.default_rng(1)), 2.0)
        ran, stepped = twins
        ran.run([0.1])
        assert ran.merges > 0 and ran.events > ran.merges
        for _ in range(ran.events):
            stepped.step()
        assert stepped.coords.tobytes() == ran.coords.tobytes()
        assert stepped.alive.tobytes() == ran.alive.tobytes()
        assert stepped.merges == ran.merges

    def test_hook_rate_fn_above_bound_raises(self, kac):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 200, 8)
        ps.set_hook(lambda t, row: row, 1.0, rate_fn=lambda row: 1e6)
        with pytest.raises(HookViolatesConservation):
            ps.run([0.5])


class TestPersistence:
    def test_round_trip(self, kac, tmp_path):
        sys_, meas = kac
        ps = gk.init_poisson(sys_, meas, 300, 9)
        ps.run([0.05])
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        ps2 = gk.load_state(sys_, path, 1)
        assert ps2.t == ps.t
        assert ps2.rate_scale == ps.rate_scale
        assert np.array_equal(ps2.coords[ps2.alive], ps.coords[ps.alive])

    def test_fractional_scale_round_trip(self, kac, tmp_path):
        sys_, meas = kac
        rows = gk.sample_atoms(meas, 50, np.random.default_rng(3))
        ps = gk.ParticleSystem(sys_, rows, 1000.5, np.random.default_rng(4))
        path = tmp_path / "state.bin"
        ps.dump_state(path)
        assert gk.load_state(sys_, path, 1).n_scale == 1000.5

    def test_version_one_dump_loads(self, kac, tmp_path):
        # v1 header: magic, then version, n, m, integer n_scale, t,
        # rate_scale and the row count
        sys_, _ = kac
        rows = np.arange(2.0 * (1 + sys_.dim)).reshape(2, 1 + sys_.dim)
        path = tmp_path / "v1.bin"
        path.write_bytes(
            b"GELK1"
            + struct.pack("<BII Q d d Q", 1, sys_.n, sys_.m, 1000, 0.25, 2.0, 2)
            + rows.astype("<f8").tobytes()
        )
        ps = gk.load_state(sys_, path, 1)
        assert (ps.n_scale, ps.t, ps.rate_scale) == (1000.0, 0.25, 2.0)
        assert np.array_equal(ps.coords, rows)

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
