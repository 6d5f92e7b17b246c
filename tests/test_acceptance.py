"""Acceptance gate: the end-to-end behaviors this package promises.

Each test freezes a complete user-visible capability with explicit
tolerances and wall-clock budgets.  Everything here runs in the default
suite; the two marked slow are still well inside their budgets on a
laptop-class machine.
"""

import gc
import itertools
import time

import numpy as np
import pytest

from indexcode.bounds import bound_report, nq_kd
from indexcode.codes import (
    check_certificate,
    construct_concat,
    construct_lift,
    min_rank,
    search_certificate,
    search_min_length,
    verify,
)
from indexcode.decoding import Decoder, transmit
from indexcode.errors import BudgetExceeded
from indexcode.fields import make_field, weight
from indexcode.instances import generalized_independence_number
from indexcode.static_codes import (
    canonical_instance,
    find_parity_check,
    gv_greedy,
    gv_inequality,
    static_bounds,
    verify_rho_delta,
    weak_resilience_check,
)

from conftest import (graph_alpha, random_instance, random_symmetric_instance,
                      side_info_graph)


def _light_errors(q, N, delta):
    yield np.zeros(N, dtype=np.int64)
    for w in range(1, delta + 1):
        for sup in itertools.combinations(range(N), w):
            for vals in itertools.product(range(1, q), repeat=w):
                e = np.zeros(N, dtype=np.int64)
                e[list(sup)] = vals
                yield e


def test_triangle_verification_goldens(F2, k3, k3_L):
    t0 = time.time()
    rep = verify(k3, F2, k3_L, 1)
    assert rep.ok
    rep = verify(k3, F2, k3_L, 2)
    assert not rep.ok
    units = [tuple(r) for r in np.eye(3, dtype=np.int64)]
    assert tuple(rep.witness) in units
    assert verify(k3, F2, np.ones((3, 3), dtype=np.int64), 1).ok
    assert time.time() - t0 < 1.0


def test_ring_lift_meets_its_lower_bound(F2, ring5):
    t0 = time.time()
    alpha, _ = generalized_independence_number(ring5)
    assert alpha == 2
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    L, entry = construct_lift(ring5, F2, 2, B)
    assert L.shape == (5, 8) and entry.N == 8
    assert verify(ring5, F2, L, 2).ok
    rep = bound_report(ring5, F2, 2)
    # the alpha-side bound equals the achieved length: 8 is optimal
    assert rep.alpha_entry.N == 8 == L.shape[1]
    assert time.time() - t0 < 1.0


@pytest.mark.slow
def test_pentagon_nine_is_optimal(F2, pentagon, pentagon_L9):
    t0 = time.time()
    alpha, _ = generalized_independence_number(pentagon)
    assert alpha == 2
    w = min_rank(pentagon, F2)
    assert w.kappa == 3 and w.certified
    rep = verify(pentagon, F2, pentagon_L9, 2)
    assert rep.ok and rep.min_weight >= 5

    search = search_min_length(pentagon, F2, 2, 9, workers=1)
    refute_time = time.time() - t0
    assert search.n_opt == 9 and search.certified
    assert verify(pentagon, F2, search.L, 2).ok
    # length 8 was refuted by exhausting the whole column-multiset space
    assert search.refuted[8] > 0
    cert = search_certificate(pentagon, F2, search)
    doc = check_certificate(pentagon, F2, cert, delta=2)
    assert doc["N"] == 9 and doc["certified"]
    assert "8" in doc["refuted_lengths"]
    assert refute_time < 600.0
    assert time.time() - t0 < 1800.0


def test_decoding_exhaustive_on_all_goldens(F2, k3, k3_L, ring5, pentagon,
                                            pentagon_L9):
    t0 = time.time()
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    ring5_L, _ = construct_lift(ring5, F2, 2, B)
    cases = 0
    for inst, L, delta in [(k3, k3_L, 1), (ring5, ring5_L, 2),
                           (pentagon, pentagon_L9, 2)]:
        dec = Decoder(inst, F2, L, delta)
        N = L.shape[1]
        for x in itertools.product(range(2), repeat=inst.n):
            x = np.array(x, dtype=np.int64)
            for e in _light_errors(2, N, delta):
                for i in range(inst.m):
                    view = transmit(inst, F2, L, x, e, i)
                    assert dec.decode(view).x_hat == x[inst.f[i]]
                    cases += 1
    assert cases == 120 + 5920 + 7360
    assert time.time() - t0 < 10.0


def test_shortest_length_table_rederived_by_search():
    t0 = time.time()
    F2 = make_field(2)

    e = nq_kd(2, 2, 5, mode="search")
    assert e.N == 8
    assert set(e.refuted) == {5, 6, 7}
    ws = [weight(F2.matmul(np.array(c)[None, :], e.generator)[0])
          for c in itertools.product(range(2), repeat=2) if any(c)]
    assert min(ws) >= 5

    e = nq_kd(2, 3, 5, mode="search")
    assert e.N == 10
    assert set(e.refuted) == {5, 6, 7, 8, 9}
    ws = [weight(F2.matmul(np.array(c)[None, :], e.generator)[0])
          for c in itertools.product(range(2), repeat=3) if any(c)]
    assert min(ws) >= 5

    assert time.time() - t0 < 120.0


@pytest.mark.slow
def test_min_rank_over_gf7_pentagon_complement(F7, c5bar):
    t0 = time.time()
    w = min_rank(c5bar, F7)
    assert w.kappa == 3 and w.certified
    assert time.time() - t0 < 900.0


def test_sandwich_and_singleton_on_seeded_instances(F2):
    rng = np.random.default_rng(7)
    for _ in range(50):
        inst = random_instance(rng, n_lo=2, n_hi=4)
        delta = int(rng.integers(0, 2))
        alpha, _ = generalized_independence_number(inst)
        w = min_rank(inst, F2)
        assert w.certified
        lo = nq_kd(2, alpha, 2 * delta + 1)
        hi = nq_kd(2, w.kappa, 2 * delta + 1)
        rep = search_min_length(inst, F2, delta, hi.N)
        assert rep.n_opt is not None and rep.certified
        assert lo.N <= rep.n_opt <= hi.N
        assert rep.n_opt >= w.kappa + 2 * delta


def test_mds_exactness_on_large_fields():
    rng = np.random.default_rng(8)
    for _ in range(20):
        inst = random_instance(rng, n_lo=2, n_hi=3)
        delta = int(rng.integers(1, 3))
        q = int(rng.choice([7, 8, 9]))
        field = make_field(q)
        w = min_rank(inst, field)
        assert q >= w.kappa + 2 * delta - 1   # the exactness premise
        L, wit, entry = construct_concat(inst, field, delta)
        assert entry.provenance in ("mds", "repetition", "trivial")
        assert L.shape[1] == w.kappa + 2 * delta
        assert verify(inst, field, L, delta).ok
        shorter = search_min_length(inst, field, delta, L.shape[1] - 1)
        assert shorter.n_opt is None and shorter.certified


def test_static_family_suite(F2):
    t0 = time.time()

    # the weight property is exactly "serves the canonical instance"
    rng = np.random.default_rng(9)
    samples = 0
    while samples < 100:
        n = int(rng.integers(2, 6))
        rho = int(rng.integers(1, min(n, 3) + 1))
        delta = int(rng.integers(0, 2))
        N = int(rng.integers(1, 7))
        L = rng.integers(0, 2, size=(n, N))
        a, _ = verify_rho_delta(F2, L, rho, delta)
        b = verify(canonical_instance(n, rho), F2, L, delta).ok
        assert a == b
        samples += 1

    # the greedy construction finishes whenever counting says it must,
    # in lexicographic order and in 20 seeded shuffles
    for n in range(2, 7):
        for rho in range(1, min(n, 3) + 1):
            for delta in (0, 1):
                for N in range(1, 9):
                    if not gv_inequality(n, rho, delta, 2, N):
                        continue
                    rep = gv_greedy(n, rho, delta, 2, N)
                    assert rep.success, (n, rho, delta, N)
                    ok, _ = verify_rho_delta(F2, rep.L, rho, delta)
                    assert ok
    for seed in range(20):
        rep = gv_greedy(5, 2, 1, 2, 8, order="seeded", seed=seed)
        assert rep.success
        ok, _ = verify_rho_delta(F2, rep.L, 2, 1)
        assert ok

    # equal-hitting resilience coincides with the weight property:
    # every binary matrix outright where the shape allows, seeded
    # samples covering every shape up to 4 x 6
    for n, N in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        for bits in itertools.product(range(2), repeat=n * N):
            L = np.array(bits, dtype=np.int64).reshape(n, N)
            for rho in range(1, n + 1):
                for delta in (0, 1):
                    if 2 * delta > N:
                        continue
                    a, _ = weak_resilience_check(L, rho, 2 * delta)
                    b, _ = verify_rho_delta(F2, L, rho, delta)
                    assert a == b
    rng = np.random.default_rng(10)
    for n in range(1, 5):
        for N in range(1, 7):
            for _ in range(4):
                L = rng.integers(0, 2, size=(n, N))
                rho = int(rng.integers(1, min(3, n) + 1))
                delta = int(rng.integers(0, min(1, N // 2) + 1))
                a, _ = weak_resilience_check(L, rho, 2 * delta)
                b, _ = verify_rho_delta(F2, L, rho, delta)
                assert a == b

    # the published large-family bracket, proved: rho* by the dual route,
    # both shortest lengths by Hamming's bound
    rep = static_bounds(20, 10, 1, 2)
    assert (rep.lower_alpha, rep.lower_singleton, rep.upper) == (14, 19, 22)
    assert rep.rho_star == 17 and rep.rho_star_provenance == "dual"

    assert time.time() - t0 < 300.0


def test_alpha_equals_graph_independence_when_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = random_symmetric_instance(rng, n_lo=2, n_hi=7)
        alpha, wit = generalized_independence_number(inst)
        assert alpha == graph_alpha(side_info_graph(inst))
        assert len(wit) == alpha


def _budget_stop(call):
    try:
        call()
    except BudgetExceeded:
        pass


# every recursive exact search, on a full run and on a budget stop
EXACT_SEARCHES = {
    "min_rank": lambda F2, pent: min_rank(pent, F2),
    "min_rank_budget_stop": lambda F2, pent: min_rank(pent, F2,
                                                      node_budget=5),
    "generalized_independence_number":
        lambda F2, pent: generalized_independence_number(pent),
    "min_length_search": lambda F2, pent: nq_kd(2, 3, 3, mode="search"),
    "min_length_search_budget_stop": lambda F2, pent: _budget_stop(
        lambda: nq_kd(2, 4, 5, mode="search", budget=100)),
    "find_parity_check": lambda F2, pent: find_parity_check(F2, 5, 3, 6),
    "find_parity_check_none": lambda F2, pent: find_parity_check(F2, 6, 3, 3),
    "find_parity_check_budget_stop": lambda F2, pent: _budget_stop(
        lambda: find_parity_check(F2, 6, 3, 4, budget=10)),
}


@pytest.mark.parametrize("name", sorted(EXACT_SEARCHES))
def test_exact_searches_leave_no_cyclic_garbage(F2, pentagon, name):
    # a search that leaves a reference cycle keeps its memo tables alive
    # until the next full collection, so memory grows with the queries run
    gc.collect()
    gc.disable()
    try:
        EXACT_SEARCHES[name](F2, pentagon)
        assert gc.collect() == 0
    finally:
        gc.enable()
