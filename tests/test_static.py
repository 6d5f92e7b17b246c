"""Side-information families, the row-combination weight property, rho*,
greedy construction, and weak resilience."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from indexcode import fields
from indexcode.codes import min_rank, verify
from indexcode.errors import BudgetExceeded
from indexcode.fields import make_field, rank, sphere_volume, weight
from indexcode.instances import iter_J, make_instance
from indexcode.static_codes import (
    PARITY_NODE_BUDGET,
    _dual_rho_star,
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


def test_family_membership():
    # the family of (n, rho): every receiver owns at least n - rho of the n
    # messages.  The canonical instance is a member, and its receivers own
    # every count from n - rho up, so it is in no family of a smaller rho
    for n in range(1, 7):
        for rho in range(1, n + 1):
            inst = canonical_instance(n, rho)
            assert inst.n == n
            assert {len(x) for x in inst.X} == set(range(n - rho, n))


def test_family_validation():
    for rho in (0, 4):
        with pytest.raises(ValueError, match="need 1 <= rho <= n"):
            canonical_instance(3, rho)


def test_canonical_instance_receiver_counts():
    assert canonical_instance(2, 1).m == 2
    assert canonical_instance(3, 2).m == 6
    assert canonical_instance(5, 3).m == 5 + 10 + 10


def test_canonical_instance_structure():
    inst = canonical_instance(3, 2)
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


def _first_failing_combination(field, L, rho, need):
    """Brute force in (size, lex, leading coefficient 1, last position
    fastest) order."""
    n = L.shape[0]
    for size in range(1, rho + 1):
        for supp in itertools.combinations(range(n), size):
            for tail in itertools.product(range(1, field.q), repeat=size - 1):
                z = np.zeros(n, dtype=np.int64)
                z[list(supp)] = (1,) + tail
                c = np.array([field.dot(z, col) for col in L.T],
                             dtype=np.int64)
                if weight(c) < need:
                    return z, c
    return None


def test_verify_rho_delta_witness_is_the_first_failing_vector():
    rng = np.random.default_rng(17)
    outcomes = set()
    for q in (2, 3, 4):
        field = make_field(q)
        for _ in range(40):
            n, N = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            L = rng.integers(0, q, size=(n, N))
            rho, delta = int(rng.integers(1, n + 1)), int(rng.integers(0, 3))
            ok, wit = verify_rho_delta(field, L, rho, delta)
            want = _first_failing_combination(field, L, rho, 2 * delta + 1)
            outcomes.add((q, ok))
            if want is None:
                assert ok and wit is None
            else:
                assert not ok
                assert np.array_equal(wit[0], want[0])
                assert np.array_equal(wit[1], want[1])
    assert len(outcomes) == 6   # both outcomes on every field


def test_verify_rho_delta_budget_counts_scanned_vectors():
    # over GF(4) the scan fixes the leading coefficient to 1: of the
    # sphere_volume(4, 5, 2) - 1 = 105 nonzero coefficient vectors of
    # weight <= 2 it inspects 5 + 10 * 3 = 35
    F4 = make_field(4)
    L = np.random.default_rng(43).integers(0, 4, size=(5, 6))
    ok, wit = verify_rho_delta(F4, L, 2, 0, budget=35)
    assert ok and wit is None
    with pytest.raises(BudgetExceeded):
        verify_rho_delta(F4, L, 2, 0, budget=34)


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
        assert min(len(x) for x in inst.X) >= 4 - 2   # in the family
        assert verify(inst, F2, L, 1).ok


# ---------------------------------------------------------------------------
# rho*
# ---------------------------------------------------------------------------


def test_rho_star_goldens():
    assert rho_star(20, 10, 2) == 17           # by the dual route
    assert rho_star(5, 3, 7) == 3              # q >= n-1: floor is reached
    assert rho_star(4, 2, 2) == 3              # binary gap above the floor
    assert rho_star(4, 4, 2) == 4
    assert rho_star(4, 1, 2) == 1
    assert rho_star(5, 2, 2) == 3


def test_rho_star_mds_agrees_with_parity_search():
    # the large-field closed form agrees with explicit search
    F5 = make_field(5)
    assert rho_star(4, 2, 5) == 2
    assert find_parity_check(F5, 4, 2, 1) is None
    assert find_parity_check(F5, 4, 2, 2) is not None
    assert rho_star(4, 3, 5) == 3
    assert find_parity_check(F5, 4, 3, 2) is None
    assert find_parity_check(F5, 4, 3, 3) is not None


def _parity_rho_star(field, n, rho):
    return next(N for N in range(rho, n + 1)
                if find_parity_check(field, n, rho, N) is not None)


@pytest.mark.parametrize("q, n_top", [(2, 6), (3, 5)])
def test_dual_rho_star_agrees_with_parity_search(q, n_top):
    field = make_field(q)
    for n in range(1, n_top + 1):
        for rho in range(1, n + 1):
            assert _dual_rho_star(n, rho, q, PARITY_NODE_BUDGET) == \
                _parity_rho_star(field, n, rho), (n, rho)


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


def _batch_cases(rng, count):
    """Seeded (field, n, rho, N) over GF(2)..GF(9) with at most 60
    projective columns."""
    out = []
    while len(out) < count:
        q = (2, 3, 4, 5, 7, 8, 9)[int(rng.integers(7))]
        n = int(rng.integers(1, 7))
        rho, N = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
        if (q ** N - 1) // (q - 1) <= 60:
            out.append((make_field(q), n, rho, N))
    return out


@pytest.mark.parametrize("cells", [1, 300])
def test_parity_search_batches_keep_the_search(monkeypatch, cells):
    """Working out a batch of a frame's columns at once, whatever the
    batch size, gives the matrix, the None and the budget refusals of the
    default batches."""
    cases = _batch_cases(np.random.default_rng(8), 60)

    def run():
        out = []
        for field, n, rho, N in cases:
            for budget in (5, 50, 20_000):
                try:
                    H = find_parity_check(field, n, rho, N, budget=budget)
                    out.append(None if H is None else H.tolist())
                except BudgetExceeded:
                    out.append("budget")
        return out

    whole = run()
    assert {type(r) for r in whole} == {str, list, type(None)}
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    assert run() == whole


def test_parity_search_builds_only_the_depths_it_reaches():
    """A budget of 100 columns stops the search by depth 7, so its memory
    follows that depth and the batch cap, not n: the weight <= 6
    combinations of 23 chosen columns alone would take 26 MiB."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            find_parity_check(make_field(2), 24, 8, 8, budget=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("cells", [1, 300])
def test_verify_rho_delta_blocks_keep_the_witness(monkeypatch, cells):
    """Weighing a block of supports in one product, whatever the block
    size, gives the verdict and the witness of the default blocks."""
    rng = np.random.default_rng(9)
    cases = []
    for field, n, _, N in _batch_cases(rng, 80):
        L = rng.integers(0, field.q, size=(n, N + 1))
        cases.append((field, L, int(rng.integers(1, n + 1)),
                      int(rng.integers(0, 3))))

    def run():
        out = []
        for field, L, rho, delta in cases:
            ok, wit = verify_rho_delta(field, L, rho, delta)
            out.append((ok, None if wit is None
                        else (wit[0].tolist(), wit[1].tolist())))
        return out

    whole = run()
    assert {ok for ok, _ in whole} == {True, False}
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    assert run() == whole


# ---------------------------------------------------------------------------
# length brackets
# ---------------------------------------------------------------------------


def test_static_bounds_large_binary_family():
    rep = static_bounds(20, 10, 1, 2)
    assert rep.rho_star == 17 and rep.rho_star_provenance == "dual"
    assert rep.lower_alpha == 14
    assert rep.lower_singleton == 19
    assert rep.upper == 22
    assert rep.exact is None
    assert rep.alpha_entry.provenance == "hamming"
    assert rep.upper_entry.provenance == "hamming"
    # a budget too small for the dual route's searches leaves rho* open
    rep = static_bounds(20, 10, 1, 2, budget=100)
    assert (rep.rho_star, rep.rho_star_provenance) == (None, "unavailable")
    assert rep.upper is None and rep.lower_alpha == 14


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


@pytest.mark.parametrize("cells", [1, 200])
def test_gv_greedy_slices_keep_the_first_admissible_row(monkeypatch, cells):
    """Scanning the candidates a slice at a time takes the same row at
    every step as one whole scan: successes and dead ends alike."""
    cases = [(4, 2, 1, 2, 7), (4, 2, 1, 2, 4), (3, 1, 1, 2, 3),
             (5, 3, 1, 2, 8), (4, 2, 1, 3, 5), (3, 3, 2, 4, 4),
             (6, 2, 0, 3, 3)]

    def run():
        out = []
        for n, rho, delta, q, N in cases:
            for order, seed in (("lex", None), ("seeded", 1), ("seeded", 2)):
                r = gv_greedy(n, rho, delta, q, N, order=order, seed=seed)
                out.append((r.success, r.rows_built, r.partial.tolist(),
                            None if r.L is None else r.L.tolist()))
        return out

    whole = run()
    assert {ok for ok, *_ in whole} == {True, False}
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    assert run() == whole


def test_gv_greedy_pinned_reports():
    """A digest of the reports over GF(2), GF(3) and GF(4), n = 2..5, every
    rho, delta = 0..2 and N = 1..8 where q^N * |V| * N <= 40,000, lex and
    seeded: successes, dead ends and their partial matrices.  Taken from
    a greedy that built the whole candidate pool before its first step."""
    h = hashlib.sha256()
    count = successes = 0
    for q in (2, 3, 4):
        for n in range(2, 6):
            for rho in range(1, n + 1):
                for delta in range(3):
                    for N in range(1, 9):
                        if q ** N * sphere_volume(q, n - 1, rho - 1) * N \
                                > 40_000:
                            continue
                        for order, seed in (("lex", None), ("seeded", 5)):
                            r = gv_greedy(n, rho, delta, q, N, order=order,
                                          seed=seed)
                            h.update(repr((
                                n, rho, delta, q, N, order, r.success,
                                r.rows_built, r.partial.tolist(),
                                None if r.L is None else r.L.tolist(),
                                r.inequality_holds)).encode())
                            count += 1
                            successes += r.success
    assert (count, successes) == (1518, 658)
    assert h.hexdigest() == ("9b1936bda1f1679eeb833fe58ddc0d98"
                             "3e44976c761ab52df63250c3896aa86f")


def test_gv_greedy_never_holds_the_candidate_pool():
    """Each slice is built from its indices: at N = 16 the whole pool of
    2^16 candidates would take 8 MiB as int64 rows."""
    tracemalloc.start()
    try:
        rep = gv_greedy(4, 2, 1, 2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.success
    assert peak < 4 * 2**20


def test_gv_greedy_validation():
    with pytest.raises(ValueError):
        gv_greedy(3, 0, 1, 2, 4)
    with pytest.raises(ValueError):
        gv_greedy(3, 2, 1, 2, 4, order="sorted")
    with pytest.raises(ValueError, match="needs a seed"):
        gv_greedy(4, 2, 1, 2, 7, order="seeded")


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
