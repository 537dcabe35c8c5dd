"""End-to-end acceptance gate.

Every test prints one ``criterion NN: PASS/FAIL`` line (collected by the
terminal summary hook in conftest) before asserting, so a red run still
reports the full scoreboard.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gelkit as gk
from gelkit.configs import path_for
from gelkit.moments import initial_state

RESULTS: list[str] = []

ROOT = Path(__file__).resolve().parent.parent


def _record(num: int, ok: bool, detail: str) -> bool:
    RESULTS.append(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _bisect_gel_mass(t: float) -> float:
    # independent oracle: root of M = 1 - exp(-t M) by plain bisection
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - (1.0 - np.exp(-t * mid)) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def mult():
    return gk.from_name("multiplicative")


def test_criterion_01_multiplicative_gelation_time(mult):
    sys_, meas = mult
    gk.gelation_time(sys_, meas)  # warm path
    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        t_g = gk.gelation_time(sys_, meas)
        best = min(best, time.perf_counter() - t0)
    err = abs(t_g - 1.0)
    ok = err <= 1e-12 and best < 1e-3
    assert _record(
        1, ok, f"t_g={t_g!r} err={err:.2e} (tol 1e-12), {best * 1e6:.0f}us (<1ms)"
    )


def test_criterion_02_gel_curve_oracle(mult):
    sys_, meas = mult
    m2 = gk.gel_data(sys_, meas, 2.0).mass
    err = abs(m2 - _bisect_gel_mass(2.0))
    t0 = time.perf_counter()
    curve = gk.gel_curve(sys_, meas, np.linspace(0.0, 2.5, 100))
    wall = time.perf_counter() - t0
    ok = err <= 1e-9 and curve.shape[0] == 100 and wall < 1.0
    assert _record(
        2, ok, f"M(2)={m2:.12f} err={err:.2e} (tol 1e-9), 100-pt curve {wall:.2f}s (<1s)"
    )


def test_criterion_03_critical_slope(mult):
    sys_, meas = mult
    _, g_prime = gk.critical_slope(sys_, meas)
    analytic_err = abs(g_prime[0] - 2.0)
    # finite differences of the fixed-point solver, Richardson extrapolated
    h = 4e-3
    s1 = gk.gel_data(sys_, meas, 1.0 + h).mass / h
    s2 = gk.gel_data(sys_, meas, 1.0 + h / 2).mass / (h / 2)
    fd = 2.0 * s2 - s1
    fd_rel = abs(fd - 2.0) / 2.0
    ok = analytic_err <= 1e-9 and fd_rel < 0.02
    assert _record(
        3, ok,
        f"M'(t_g+)={g_prime[0]:.12f} err={analytic_err:.2e} (tol 1e-9), "
        f"FD extrap {fd:.5f} rel={fd_rel:.4f} (<2%)",
    )


def test_criterion_04_explosion_matches_gelation():
    details, ok = [], True
    for name, exact in (("multiplicative", 1.0), (("kac"), 1.0 / (3.0 + np.sqrt(15.0)))):
        sys_, meas = gk.load_system(path_for(name))
        t0 = time.perf_counter()
        t_spec = gk.gelation_time(sys_, meas)
        t_ode = gk.explosion_time(sys_, initial_state(meas))
        wall = time.perf_counter() - t0
        rel = abs(t_ode - t_spec) / t_spec
        ok = ok and rel <= 1e-3 and wall < 5.0 and abs(t_spec - exact) < 1e-9
        details.append(f"{name}: spectral={t_spec:.10f} ode={t_ode:.10f} "
                       f"rel={rel:.1e} {wall:.1f}s")
    assert _record(4, ok, "; ".join(details) + " (tol 1e-3 rel, <5s each)")


def test_criterion_05_supercritical_duality(mult):
    sys_, meas = mult
    t0 = time.perf_counter()
    tilted = gk.tilted_measure(sys_, meas, 2.0)
    gel = gk.gel_data(sys_, meas, 2.0)
    identity_err = float(np.abs(
        gk.first_moments(tilted) - (gk.first_moments(meas) - gel.g)
    ).max())

    dual_q = gk.supercritical_moments(sys_, meas, 2.0).q[0, 0]
    samples = []
    for seed in range(50):
        ps = gk.init_poisson(sys_, meas, 100_000, gk.child_seed(501, seed))
        ps.run([2.0])
        samples.append(gk.table_moments(sys_, ps.coords, ps.n_scale).q_sol[0, 0])
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / np.sqrt(len(samples)))
    dev = abs(mean - dual_q)
    wall = time.perf_counter() - t0
    ok = identity_err <= 1e-8 and dev <= 3.0 * se and wall < 300.0
    assert _record(
        5, ok,
        f"first-moment identity err={identity_err:.1e} (tol 1e-8); "
        f"dual Q={dual_q:.6f} empirical={mean:.6f}+-{se:.6f} "
        f"dev={dev / se if se else 0.0:.2f} SE (<=3), {wall:.0f}s (<300s)",
    )


def test_criterion_06_hydrodynamic_convergence(mult):
    sys_, meas = mult
    times = np.linspace(0.2, 2.0, 10)
    limits = np.stack([gk.gel_data(sys_, meas, t).g[:2] for t in times])
    t0 = time.perf_counter()
    medians = {}
    for size_idx, n in enumerate((1_000, 10_000, 100_000)):
        errs = []
        for rep in range(50):
            ps = gk.init_poisson(sys_, meas, n, gk.child_seed(601, size_idx, rep))
            snaps = ps.run(list(times))
            emp = np.stack([s.gel_largest.g[:2] for s in snaps])
            errs.append(float(np.abs(emp - limits).max()))
        medians[n] = float(np.median(errs))
    wall = time.perf_counter() - t0
    vals = list(medians.values())
    ok = vals[0] > vals[1] > vals[2] and vals[2] < 0.02 and wall < 600.0
    assert _record(
        6, ok,
        "median max-err " + " ".join(f"N={n}: {v:.4f}" for n, v in medians.items())
        + f" (decreasing, last <0.02), {wall:.0f}s (<600s)",
    )


def test_criterion_07_largest_particle_transition(mult):
    sys_, meas = mult
    ps = gk.init_poisson(sys_, meas, 100_000, gk.child_seed(701))
    sub, sup = ps.run([0.5, 2.0], xi=int(np.ceil(np.sqrt(100_000))))
    g_sub = sub.gel_largest.g[0]
    g_sup = sup.gel_largest.g[0]
    thr = sup.gel_threshold.g[0]
    ok = (
        g_sub < 1e-3
        and abs(g_sup - 0.796812) <= 0.02
        and abs(thr - g_sup) <= 0.01
    )
    assert _record(
        7, ok,
        f"g_N(0.5)={g_sub:.5f} (<1e-3), g_N(2)={g_sup:.5f} "
        f"(|.-0.796812|<=0.02), |thr-g_N|={abs(thr - g_sup):.5f} (<=0.01)",
    )


def test_criterion_08_coupling_in_law(mult):
    sys_, meas = mult
    good = gk.coupling_test(sys_, meas, 2_000, 1.5, n_replicas=200, seed=801)
    bugged = gk.coupling_test(
        sys_, meas, 2_000, 1.5, n_replicas=200, seed=801, graph_rate_factor=2.0
    )
    ok = good.passed and not bugged.passed
    assert _record(
        8, ok,
        f"aligned p=({good.p_largest:.3f},{good.p_count:.3f}) pass; "
        f"factor-2 p=({bugged.p_largest:.1e},{bugged.p_count:.1e}) fail "
        "(significance 1e-3)",
    )


def test_criterion_09_mesoscopic_clusters(mult):
    sys_, meas = mult
    graph = gk.graph_from_measure(sys_, meas, 10_000, 2.0, seed=901)
    tracks = gk.trajectory(graph, [0.5, 1.0, 1.5, 2.0], xi=100)
    worst = max(tr.meso_fraction for tr in tracks)
    ok = worst < 0.05
    assert _record(
        9, ok,
        "meso " + " ".join(f"t={tr.t:g}: {tr.meso_fraction:.4f}" for tr in tracks)
        + " (all <0.05)",
    )


def test_criterion_10_truncated_flory(mult):
    sys_, meas = mult
    model = gk.TruncatedFlory(sys_, meas, 1)
    state = model.integrate(1.0, outputs=[1.0])[0]
    monomer_err = abs(model.density_map(state)[(1,)] - np.exp(-1.0))

    checkpoints = [0.5, 1.0, 1.5, 2.0]
    masses = {}
    for xi in (1, 2, 4, 8, 16, 32, 64):
        states = gk.integrate_truncated(sys_, meas, xi, 2.0, outputs=checkpoints)
        masses[xi] = [st.gel.mass for st in states]
    # coarser cutoffs count the whole unresolved tail as gel, so the
    # truncated mass decreases in xi toward the fixed point
    xs = sorted(masses)
    monotone = all(
        masses[a][k] >= masses[b][k] - 1e-12
        for a, b in zip(xs, xs[1:])
        for k in range(len(checkpoints))
    )
    limit = gk.gel_data(sys_, meas, 2.0).mass
    conv_err = abs(masses[64][-1] - limit)
    ok = monomer_err <= 1e-8 and monotone and conv_err <= 5e-3
    assert _record(
        10, ok,
        f"monomer err={monomer_err:.1e} (tol 1e-8); monotone in xi: {monotone}; "
        f"|M_64(2)-M|={conv_err:.1e} (tol 5e-3)",
    )


def test_criterion_11_invariant_suites(property_reports):
    # read from this session when it ran the property file (criterion 11 is
    # ordered after it), otherwise from a run of the file in a subprocess
    if property_reports is not None:
        reports = [r for rs in property_reports.values() for r in rs]
        failed = sum(r.failed for r in reports)
        ran = sum(bool(rs) for rs in property_reports.values())
        wall = sum(r.duration for r in reports)
        ok = failed == 0 and ran == len(property_reports) and wall < 120.0
        tail = f"{ran} of {len(property_reports)} ran in this session, {failed} failed"
    else:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "tests/test_properties.py",
             "-q", "-p", "no:cacheprovider"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        ok = proc.returncode == 0 and wall < 120.0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    assert _record(11, ok, f"property suite: {tail}, {wall:.0f}s (<120s)")


def test_criterion_12_size_biasing():
    reports = {}
    for name in ("multiplicative", "bidisperse", "kinetic-gas"):
        sys_, meas = gk.from_name(name)
        reports[name] = gk.size_bias_check(sys_, meas)
    mono = reports["multiplicative"]
    ok = abs(mono.margin) <= 1e-10 and not mono.strict
    details = [f"multiplicative margin={mono.margin:.1e} (|.|<=1e-10)"]
    for name in ("bidisperse", "kinetic-gas"):
        rep = reports[name]
        ok = ok and rep.strict and rep.margin > 0
        details.append(f"{name} margin={rep.margin:.4f} (>0)")
    assert _record(12, ok, "; ".join(details))
