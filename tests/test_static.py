"""Side-information families, the row-combination weight property, rho*,
greedy construction, and weak resilience."""

import itertools

import numpy as np
import pytest

from indexcode.codes import min_rank, verify
from indexcode.errors import BudgetExceeded
from indexcode.fields import make_field, rank, weight
from indexcode.instances import iter_J, make_instance
from indexcode.static_codes import (
    StaticFamily,
    canonical_instance,
    find_parity_check,
    gv_greedy,
    gv_inequality,
    max_resiliency,
    rho_star,
    static_bounds,
    verify_rho_delta,
    weak_resilience_check,
)


# ---------------------------------------------------------------------------
# families and canonical instances
# ---------------------------------------------------------------------------


def test_family_membership(pentagon, ring5):
    # pentagon receivers own 2 of 5 messages: in Gamma(5,3), not Gamma(5,2)
    assert StaticFamily(5, 3).contains(pentagon)
    assert not StaticFamily(5, 2).contains(pentagon)
    assert StaticFamily(5, 2).contains(ring5)
    # the ownership floor scales with the family cap, not the instance size
    assert StaticFamily(6, 4).contains(pentagon)
    assert not StaticFamily(6, 3).contains(pentagon)


def test_family_validation():
    with pytest.raises(ValueError):
        StaticFamily(3, 0)
    with pytest.raises(ValueError):
        StaticFamily(3, 4)
    with pytest.raises(ValueError):
        canonical_instance(3, 4)


def test_canonical_instance_receiver_counts():
    assert canonical_instance(2, 1).m == 2
    assert canonical_instance(3, 2).m == 6
    assert canonical_instance(5, 3).m == 5 + 10 + 10


def test_canonical_instance_structure():
    inst = canonical_instance(3, 2)
    fam = StaticFamily(3, 2)
    assert fam.contains(inst)
    assert fam.canonical_instance() == inst
    # each receiver demands the least element of its uncached set
    for i in range(inst.m):
        K = set(range(3)) - inst.X[i]
        assert inst.f[i] == min(K)


def test_canonical_instance_J_is_all_small_subsets():
    for n in range(1, 7):
        for rho in range(1, min(n, 3) + 1):
            inst = canonical_instance(n, rho)
            want = [K for s in range(1, rho + 1)
                    for K in itertools.combinations(range(n), s)]
            assert sorted(iter_J(inst)) == sorted(want)
    # rho = n gives the full nonempty power set
    assert sorted(iter_J(canonical_instance(2, 2))) == [(0,), (0, 1), (1,)]


def test_canonical_instance_cap():
    with pytest.raises(BudgetExceeded):
        canonical_instance(30, 10, cap=100)


# ---------------------------------------------------------------------------
# the row-combination weight property
# ---------------------------------------------------------------------------


def test_verify_rho_delta_identity(F2):
    ok, wit = verify_rho_delta(F2, np.eye(3, dtype=np.int64), 3, 0)
    assert ok and wit is None


def test_verify_rho_delta_weight_two_pair(F2):
    L = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.int64)
    ok, wit = verify_rho_delta(F2, L, 2, 1)
    assert not ok
    coeffs, combo = wit
    assert any(coeffs) and weight(combo) < 3
    assert np.array_equal(combo, F2.matmul(np.array(coeffs)[None, :], L)[0])
    # the second row alone already fails at rho = 1
    ok, _ = verify_rho_delta(F2, L, 1, 1)
    assert not ok


def test_verify_rho_delta_distance_three_pair(F2):
    L = np.array([[1, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int64)
    ok, _ = verify_rho_delta(F2, L, 1, 1)
    assert ok                                   # rows weigh 3 each
    ok, wit = verify_rho_delta(F2, L, 2, 1)
    assert not ok and weight(wit[1]) == 2       # their sum weighs 2


def test_verify_rho_delta_full_rho_is_code_distance(F3):
    rng = np.random.default_rng(41)
    for _ in range(10):
        n, N = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        L = rng.integers(0, 3, size=(n, N))
        dist = min(weight(F3.matmul(np.array(c)[None, :], L)[0])
                   for c in itertools.product(range(3), repeat=n) if any(c))
        for delta in range(3):
            ok, _ = verify_rho_delta(F3, L, n, delta)
            assert ok == (dist >= 2 * delta + 1)


def test_verify_rho_delta_witness_is_always_a_violation(F2, F3):
    rng = np.random.default_rng(42)
    fails = 0
    for _ in range(60):
        field = F2 if rng.random() < 0.5 else F3
        n, N = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        L = rng.integers(0, field.q, size=(n, N))
        rho = int(rng.integers(1, n + 1))
        delta = int(rng.integers(0, 2))
        ok, wit = verify_rho_delta(field, L, rho, delta)
        if ok:
            assert wit is None
            continue
        fails += 1
        coeffs, combo = wit
        assert sum(1 for c in coeffs if c) <= rho and any(coeffs)
        assert weight(combo) < 2 * delta + 1
        assert np.array_equal(
            combo, field.matmul(np.array(coeffs)[None, :], L)[0])
    assert fails > 10


def test_verify_rho_delta_budget(F2):
    with pytest.raises(BudgetExceeded):
        verify_rho_delta(F2, np.eye(8, dtype=np.int64), 4, 0, budget=10)


def test_property_equals_serving_the_canonical_instance(F2):
    # the load-bearing equivalence: a matrix has the (rho, delta) property
    # exactly when it is a delta-correcting code for the canonical instance
    rng = np.random.default_rng(43)
    agree_false = 0
    for _ in range(80):
        n = int(rng.integers(2, 5))
        rho = int(rng.integers(1, min(n, 3) + 1))
        delta = int(rng.integers(0, 2))
        N = int(rng.integers(1, 7))
        L = rng.integers(0, 2, size=(n, N))
        inst = canonical_instance(n, rho)
        a, _ = verify_rho_delta(F2, L, rho, delta)
        b = verify(inst, F2, L, delta).ok
        assert a == b
        agree_false += not a
    assert 5 < agree_false < 80


def test_property_holders_serve_every_family_member(F2):
    rng = np.random.default_rng(44)
    L = gv_greedy(4, 2, 1, 2, 7).L
    fam = StaticFamily(4, 2)
    for _ in range(10):
        # random member: every receiver owns at least n - rho messages
        m = int(rng.integers(1, 5))
        f, X = [], []
        for _ in range(m):
            fi = int(rng.integers(0, 4))
            others = [j for j in range(4) if j != fi]
            rng.shuffle(others)
            drop = int(rng.integers(0, 2))     # forget at most rho - 1 more
            X.append(set(others[:len(others) - drop]))
            f.append(fi)
        inst = make_instance(4, f, X)
        assert fam.contains(inst)
        assert verify(inst, F2, L, 1).ok


# ---------------------------------------------------------------------------
# rho*
# ---------------------------------------------------------------------------


def test_rho_star_goldens():
    assert rho_star(20, 10, 2) == 17           # table value
    assert rho_star(5, 3, 7) == 3              # q >= n-1: floor is reached
    assert rho_star(4, 2, 2) == 3              # binary gap above the floor
    assert rho_star(4, 4, 2) == 4
    assert rho_star(4, 1, 2) == 1
    assert rho_star(5, 2, 2) == 3


def test_rho_star_modes():
    with pytest.raises(KeyError):
        rho_star(4, 2, 2, mode="table")
    assert rho_star(20, 10, 2, mode="table") == 17
    # the large-field closed form agrees with explicit search
    assert rho_star(4, 2, 5, mode="search") == 2
    assert rho_star(4, 3, 5, mode="search") == 3


def test_rho_star_bounds_and_degenerate_top():
    for n in range(1, 6):
        for rho in range(1, n + 1):
            v = rho_star(n, rho, 2)
            assert rho <= v <= n
            if rho == n:
                assert v == n


def test_rho_star_equals_min_rank_of_canonical(F2, F3):
    for n in range(2, 6):
        for rho in range(1, min(n, 3) + 1):
            inst = canonical_instance(n, rho)
            assert rho_star(n, rho, 2) == min_rank(inst, F2).kappa
    for n in range(2, 5):
        for rho in range(1, 3):
            inst = canonical_instance(n, rho)
            assert rho_star(n, rho, 3) == min_rank(inst, F3).kappa


def test_find_parity_check_threshold(F2):
    assert find_parity_check(F2, 4, 2, 2) is None
    H = find_parity_check(F2, 4, 2, 3)
    assert H is not None and H.shape == (3, 4)
    for pair in itertools.combinations(range(4), 2):
        assert rank(F2, H[:, pair].T) == 2


@pytest.mark.parametrize("q, n, rho, N, want", [
    (3, 6, 3, 4, [[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0],
                  [0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 0, 1]]),
    (4, 6, 3, 3, [[0, 0, 1, 1, 1, 1], [0, 1, 0, 1, 2, 3],
                  [1, 0, 0, 1, 3, 2]]),
])
def test_find_parity_check_pinned(q, n, rho, N, want):
    field = make_field(q)
    H = find_parity_check(field, n, rho, N)
    assert H.tolist() == want
    for s in range(1, rho + 1):
        for cols in itertools.combinations(range(n), s):
            assert rank(field, H[:, cols].T) == s


# ---------------------------------------------------------------------------
# length brackets
# ---------------------------------------------------------------------------


def test_static_bounds_large_binary_family():
    rep = static_bounds(20, 10, 1, 2)
    assert rep.rho_star == 17 and rep.rho_star_provenance == "table"
    assert rep.lower_alpha == 14
    assert rep.lower_singleton == 19
    assert rep.upper == 22
    assert rep.exact is None
    assert rep.alpha_entry.provenance == "table"
    assert rep.upper_entry.provenance == "table"


def test_static_bounds_exact_on_large_field():
    rep = static_bounds(4, 2, 1, 7)
    assert rep.exact == 4
    assert rep.lower_alpha == rep.upper == 4
    assert rep.rho_star == 2 and rep.rho_star_provenance == "mds"


def test_static_bounds_zero_delta_collapses():
    rep = static_bounds(4, 2, 0, 2)
    assert rep.rho_star == 3
    assert rep.lower_singleton == rep.upper == 3
    assert rep.exact is None       # q = 2 < n - 1


def test_static_bounds_never_inverts():
    for n in range(2, 7):
        for rho in range(1, min(n, 3) + 1):
            for delta in (0, 1):
                for q in (2, 3):
                    rep = static_bounds(n, rho, delta, q)
                    if rep.upper is not None:
                        assert max(rep.lower_alpha,
                                   rep.lower_singleton) <= rep.upper
                    if rep.exact is not None:
                        assert rep.exact == rep.upper


# ---------------------------------------------------------------------------
# greedy construction
# ---------------------------------------------------------------------------


def test_gv_inequality_goldens():
    assert gv_inequality(4, 2, 1, 2, 7)        # 4 * 29 = 116 < 128
    assert not gv_inequality(4, 2, 1, 2, 4)    # 4 * 11 = 44 >= 16


def test_gv_greedy_succeeds_and_verifies(F2):
    rep = gv_greedy(4, 2, 1, 2, 7)
    assert rep.success and rep.inequality_holds
    assert rep.L.shape == (4, 7) and rep.rows_built == 4
    ok, _ = verify_rho_delta(F2, rep.L, 2, 1)
    assert ok


def test_gv_greedy_dead_end_is_honest(F2):
    rep = gv_greedy(4, 2, 1, 2, 4)
    assert not rep.success and not rep.inequality_holds
    assert rep.L is None and rep.rows_built < 4
    # cross-check: no 4 rows over F_2^4 can work at all, so the dead end
    # is a fact about the parameters, not about the greedy order
    good = [np.array(v) for v in itertools.product(range(2), repeat=4)
            if sum(v) >= 3]
    assert len(good) == 5
    for quad in itertools.combinations(good, 4):
        assert any(weight(F2.add_arr(a, b)) < 3
                   for a, b in itertools.combinations(quad, 2))


def test_gv_greedy_rho_one_duplicates_rows(F2):
    rep = gv_greedy(3, 1, 1, 2, 3)
    assert rep.success
    assert np.array_equal(rep.L, np.ones((3, 3), dtype=np.int64))


def test_gv_greedy_seeded_orders_all_succeed(F2):
    for seed in range(5):
        rep = gv_greedy(4, 2, 1, 2, 7, order="seeded", seed=seed)
        assert rep.success
        ok, _ = verify_rho_delta(F2, rep.L, 2, 1)
        assert ok


def test_gv_greedy_guarantee_sweep(F2):
    # whenever the counting inequality holds, the greedy must finish
    for n in range(2, 6):
        for rho in range(1, min(n, 3) + 1):
            for delta in (0, 1):
                for N in range(1, 8):
                    if not gv_inequality(n, rho, delta, 2, N):
                        continue
                    rep = gv_greedy(n, rho, delta, 2, N)
                    assert rep.success, (n, rho, delta, N)


def test_gv_greedy_validation():
    with pytest.raises(ValueError):
        gv_greedy(3, 0, 1, 2, 4)
    with pytest.raises(ValueError):
        gv_greedy(3, 2, 1, 2, 4, order="sorted")


# ---------------------------------------------------------------------------
# weak resilience
# ---------------------------------------------------------------------------


def test_weak_resilience_identity():
    ok, wit = weak_resilience_check(np.eye(3, dtype=np.int64), 1, 0)
    assert ok and wit is None


def test_weak_resilience_distance_two_pair():
    L = np.array([[1, 1, 1, 0], [1, 1, 0, 1]], dtype=np.int64)
    ok, wit = weak_resilience_check(L, 2, 2)
    assert not ok
    assert wit.outputs == (0, 1) and wit.fixed_inputs == (2, 3)
    assert wit.fixing == (0, 0)
    assert wit.counts == (2, 0, 0, 2)   # only 00 and 11 ever appear
    ok, _ = weak_resilience_check(L, 2, 1)
    assert ok


def test_weak_resilience_budget():
    with pytest.raises(BudgetExceeded):
        weak_resilience_check(np.eye(4, dtype=np.int64), 2, 1, budget=10)


def test_weak_resilience_validation():
    L = np.eye(3, dtype=np.int64)
    with pytest.raises(ValueError):
        weak_resilience_check(L, 0, 1)
    with pytest.raises(ValueError):
        weak_resilience_check(L, 1, 4)


def test_resilience_equals_weight_property(F2):
    # rho-weakly 2delta-resilient == the (rho, delta) property, tested on
    # every binary matrix small enough to sweep outright
    for n, N in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        for bits in itertools.product(range(2), repeat=n * N):
            L = np.array(bits, dtype=np.int64).reshape(n, N)
            for rho in range(1, n + 1):
                for delta in (0, 1):
                    if 2 * delta > N:
                        continue
                    a, _ = weak_resilience_check(L, rho, 2 * delta)
                    b, _ = verify_rho_delta(F2, L, rho, delta)
                    assert a == b, (L, rho, delta)


def test_max_resiliency_goldens():
    assert max_resiliency(np.array([[1, 1, 1, 0], [1, 1, 0, 1]])) == 1
    assert max_resiliency(np.eye(3, dtype=np.int64)) == 0
    assert max_resiliency(np.ones((1, 5), dtype=np.int64)) == 4
    # dependent rows: the map is not onto, resiliency is undefined
    assert max_resiliency(np.array([[1, 0], [1, 0]])) == -1


def test_max_resiliency_matches_definition(F2):
    rng = np.random.default_rng(45)
    done = 0
    while done < 12:
        n, N = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        L = rng.integers(0, 2, size=(n, N))
        if rank(F2, L) < n:
            assert max_resiliency(L) == -1
            continue
        t_best = -1
        for t in range(N + 1):
            ok, _ = weak_resilience_check(L, n, t)
            if not ok:
                break
            t_best = t
        assert max_resiliency(L) == t_best
        done += 1
