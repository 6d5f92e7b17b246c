"""Shared fixtures: the golden instances and matrices used across modules.

k3: three receivers in a triangle, everyone owns the other two messages.
ring5: five messages in a ring, each receiver owns the next three.
pentagon: five messages, each receiver owns its two cyclic neighbours.
c5bar: each receiver owns everything but itself and its two neighbours.

The graph view at the end is the oracle for
generalized_independence_number on one-receiver-per-message instances.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from indexcode.errors import InvalidInstance
from indexcode.fields import make_field
from indexcode.instances import (
    make_instance,
    odd_cycle_complement_instance,
    odd_cycle_instance,
)


@pytest.fixture(scope="session")
def F2():
    return make_field(2)


@pytest.fixture(scope="session")
def F3():
    return make_field(3)


@pytest.fixture(scope="session")
def F7():
    return make_field(7)


@pytest.fixture(scope="session")
def k3():
    return make_instance(3, (0, 1, 2),
                         ({1, 2}, {0, 2}, {0, 1}))


@pytest.fixture(scope="session")
def k3_L():
    # 3x4 single-error-correcting code for k3
    return np.array([[1, 1, 1, 0],
                     [1, 1, 0, 1],
                     [1, 0, 1, 1]], dtype=np.int64)


@pytest.fixture(scope="session")
def ring5():
    return make_instance(
        5, range(5),
        [{(i + 1) % 5, (i + 2) % 5, (i + 3) % 5} for i in range(5)])


@pytest.fixture(scope="session")
def pentagon():
    return odd_cycle_instance(2)


@pytest.fixture(scope="session")
def pentagon_L9():
    # known 5x9 double-error-correcting code for the pentagon
    return np.array([
        [1, 1, 1, 1, 1, 0, 0, 0, 0],
        [0, 1, 0, 1, 1, 0, 1, 1, 0],
        [1, 1, 0, 0, 0, 1, 1, 1, 0],
        [0, 1, 1, 0, 0, 1, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 0, 1, 1]], dtype=np.int64)


@pytest.fixture(scope="session")
def c5bar():
    return odd_cycle_complement_instance(2)


def random_instance(rng, n_lo=2, n_hi=4, m_hi=None):
    """Seeded random valid instance with n in [n_lo, n_hi]."""
    n = int(rng.integers(n_lo, n_hi + 1))
    m = int(rng.integers(1, (m_hi or n + 2)))
    f = [int(rng.integers(0, n)) for _ in range(m)]
    X = []
    for i in range(m):
        others = [v for v in range(n) if v != f[i]]
        keep = rng.random(len(others)) < 0.5
        X.append({v for v, k in zip(others, keep) if k})
    return make_instance(n, f, X)


def random_symmetric_instance(rng, n_lo=2, n_hi=7):
    """m = n, f identity, ownership relation symmetric."""
    n = int(rng.integers(n_lo, n_hi + 1))
    X = [set() for _ in range(n)]
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < 0.5:
                X[u].add(w)
                X[w].add(u)
    return make_instance(n, range(n), X)


# ---------------------------------------------------------------------------
# graph view (one receiver per message)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Directed graph on message vertices; succ[u] = vertices u points to."""
    n: int
    succ: tuple


def side_info_graph(inst):
    """Vertex u points to every message its receiver owns.

    Requires one receiver per message (m = n, f a bijection).
    """
    if inst.m != inst.n or sorted(inst.f) != list(range(inst.n)):
        raise InvalidInstance("graph view needs m = n and f a bijection")
    owner = {inst.f[i]: i for i in range(inst.m)}
    succ = tuple(frozenset(inst.X[owner[u]]) for u in range(inst.n))
    return Graph(inst.n, succ)


def is_symmetric(G):
    return all(u in G.succ[w] for u in range(G.n) for w in G.succ[u])


def graph_alpha(G):
    """Maximum independent set size of the symmetric closure."""
    adj = [set() for _ in range(G.n)]
    for u in range(G.n):
        for w in G.succ[u]:
            adj[u].add(w)
            adj[w].add(u)

    best = [0]

    def extend(size, cands):
        if size > best[0]:
            best[0] = size
        for idx, v in enumerate(cands):
            if size + len(cands) - idx <= best[0]:
                return
            extend(size + 1, [w for w in cands[idx + 1:] if w not in adj[v]])

    extend(0, list(range(G.n)))
    return best[0]
