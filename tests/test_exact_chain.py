"""Every finite-N sampler against the exact law of the merge chain at N = 5."""

import numpy as np
import pytest
from exact_chain import cluster_statistic, statistic_law, statistic_of_rows
from scipy.stats import chi2

import gelkit as gk
from gelkit.graphs import _sample_graph_blocks

N = 5
REPLICAS = 1_000
LEVEL = 1e-3
# starting rows: kinetic-gas mixes all four velocity atoms, so the largest
# block's coordinate sum tells apart most block compositions
ROWS = {"multiplicative": [0] * N, "kinetic-gas": [0, 1, 2, 3, 0]}


def _particles(cls):
    def run(sys_, rows, t, rng):
        ps = cls(sys_, rows, N, rng)
        ps.run([t])
        return statistic_of_rows(ps.coords)

    return run


def _graph(sampler):
    # sampled past t, so that the law at t depends on the edge times
    def run(sys_, rows, t, rng):
        graph = sampler(sys_, rows, N, 2.0 * t, rng)
        (track,) = gk.trajectory(graph, [t])
        sizes = np.repeat(track.size_values, track.size_counts)
        return cluster_statistic(sizes, track.pi_c1 * N)

    return run


SAMPLERS = {
    "batched": _particles(gk.ParticleSystem),
    "direct": _particles(gk.DirectPairSimulator),
    "graph": _graph(gk.sample_graph),
    "graph-blocks": _graph(_sample_graph_blocks),
}
# each sampler's fixed seed key, so that adding or dropping one re-seeds none
SEED_KEY = {"batched": 0, "direct": 2, "graph": 3, "graph-blocks": 4}


def chi2_pvalue(preset, sampler, seed, rate=1.0):
    """p-value of the sampled statistic against the exact law at rate 1,
    with the sampler run on the system with its rates times ``rate``."""
    sys_, meas = gk.from_name(preset)
    rows = meas.coords[ROWS[preset]]
    t = 1.5 * gk.gelation_time(sys_, meas)
    law = statistic_law(sys_, rows, N, t)
    rng = np.random.default_rng(seed)
    counts: dict = {}
    for _ in range(REPLICAS):
        stat = SAMPLERS[sampler](sys_.scaled(rate), rows, t, rng)
        counts[stat] = counts.get(stat, 0) + 1
    # classes expected fewer than 5 times, and any unknown one, are pooled,
    # into a bin of their own if it is expected 5 times, else into the last
    big = [s for s, p in law.items() if p * REPLICAS >= 5]
    obs = np.array([counts.pop(s, 0) for s in big], dtype=float)
    exp = np.array([law[s] * REPLICAS for s in big])
    rest_obs, rest_exp = sum(counts.values()), REPLICAS - exp.sum()
    if rest_exp >= 5:
        obs, exp = np.append(obs, rest_obs), np.append(exp, rest_exp)
    else:
        obs[-1] += rest_obs
        exp[-1] += rest_exp
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(chi2.sf(stat, obs.size - 1))


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("preset", list(ROWS))
def test_exact_law(preset, sampler):
    seed = gk.child_seed(2027, list(ROWS).index(preset), SEED_KEY[sampler])
    assert chi2_pvalue(preset, sampler, seed) > LEVEL


@pytest.mark.parametrize("preset", list(ROWS))
def test_doubled_rate_detected(preset):
    # calibration control: the same test must reject a sampler at rate 2
    assert chi2_pvalue(preset, "batched", gk.child_seed(2027, 9), 2.0) < LEVEL
