"""Exact finite-N law of the pair-merge process; TEST ORACLE ONLY.

On N starting rows the merge process is a Markov chain on the set
partitions of {0..N-1} (Bell(5) = 52 of them at N = 5).  Two blocks A and
B merge at rate ``rate_scale * kbar(x_A, x_B) / n_scale``, where x_A is the
coordinate sum of A; by bilinearity that is the summed ``kbar`` of the
member pairs.  The law at time t is the singletons' row of
``expm(Q t)``.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm


def set_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every set partition of range(n); blocks sorted, ordered by first element."""

    def grow(i, blocks):
        if i == n:
            yield tuple(map(tuple, blocks))
            return
        for block in blocks:
            block.append(i)
            yield from grow(i + 1, blocks)
            block.pop()
        blocks.append([i])
        yield from grow(i + 1, blocks)
        blocks.pop()

    return list(grow(0, []))


def partition_law(sys, rows, n_scale, t, rate_scale=1.0) -> dict:
    """{partition: probability at time t}, started from all singletons."""
    parts = set_partitions(len(rows))
    index = {part: i for i, part in enumerate(parts)}
    gen = np.zeros((len(parts), len(parts)))
    for i, part in enumerate(parts):
        sums = [rows[list(block), 1:].sum(axis=0) for block in part]
        for a, b in itertools.combinations(range(len(part)), 2):
            rate = rate_scale / n_scale * float(sums[a] @ sys.block @ sums[b])
            rest = [blk for k, blk in enumerate(part) if k not in (a, b)]
            merged = tuple(sorted(rest + [tuple(sorted(part[a] + part[b]))]))
            gen[i, index[merged]] += rate
            gen[i, i] -= rate
    law = expm(gen * t)[index[parts[-1]]]  # the last partition is singletons
    return dict(zip(parts, law))


def cluster_statistic(sizes, largest) -> tuple:
    """Sorted block sizes, plus the largest block's coordinate sum if unique.

    ``largest`` is that coordinate sum (any value when the largest size is
    tied); it is rounded so that sums taken in different orders agree.
    """
    sizes = tuple(sorted(int(s) for s in sizes))
    unique = len(sizes) == 1 or sizes[-1] > sizes[-2]
    key = tuple(np.round(np.asarray(largest, dtype=float), 6)) if unique else None
    return sizes, key


def statistic_of_rows(clusters: np.ndarray) -> tuple:
    """:func:`cluster_statistic` of a table of cluster rows (pi0 = size)."""
    return cluster_statistic(clusters[:, 0], clusters[np.argmax(clusters[:, 0])])


def statistic_law(sys, rows, n_scale, t, rate_scale=1.0) -> dict:
    """The exact law of :func:`statistic_of_rows` at time t."""
    out: dict = {}
    for part, prob in partition_law(sys, rows, n_scale, t, rate_scale).items():
        clusters = np.array([rows[list(block)].sum(axis=0) for block in part])
        stat = statistic_of_rows(clusters)
        out[stat] = out.get(stat, 0.0) + prob
    return out
