"""Verification, min rank, constructions, and minimum-length search."""

import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from indexcode import codes, fields
from indexcode.bounds import rs_generator
from indexcode.codes import (
    check_certificate,
    construct_concat,
    construct_lift,
    construct_random,
    max_delta,
    min_rank,
    random_existence_condition,
    random_min_length,
    search_certificate,
    search_min_length,
    verify,
)
from indexcode.errors import BudgetExceeded, NotAnIndexCode, SpanCapExceeded
from indexcode.fields import (Field, make_field, matrix_from_text, rank,
                              weight)
from indexcode.instances import (in_J, iter_I, make_instance,
                                 odd_cycle_instance)

from conftest import random_instance


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_k3_delta1(F2, k3, k3_L):
    rep = verify(k3, F2, k3_L, 1)
    assert rep.ok
    assert rep.min_weight == 3
    assert rep.witness is None and rep.receiver is None


def test_verify_k3_delta2_fails_with_unit_witness(F2, k3, k3_L):
    rep = verify(k3, F2, k3_L, 2)
    assert not rep.ok
    assert rep.min_weight == 3 < 5
    # every confusable direction of k3 is a single unit vector
    z = rep.witness
    assert weight(z) == 1 and z[k3.f[rep.receiver]] == 1
    assert weight(F2.matmul(z[None, :], k3_L)[0]) == rep.min_weight


def test_verify_all_ones_k3(F2, k3):
    L = np.ones((3, 3), dtype=np.int64)
    assert verify(k3, F2, L, 1).ok
    assert not verify(k3, F2, L, 2).ok


def test_verify_pentagon_L9(F2, pentagon, pentagon_L9):
    rep = verify(pentagon, F2, pentagon_L9, 2)
    assert rep.ok
    assert rep.min_weight >= 5


def _seeded_verify_cases():
    """40 seeded (instance, field, L, delta) cases over GF(2) and GF(3)."""
    F2, F3 = make_field(2), make_field(3)
    rng = np.random.default_rng(11)
    for _ in range(40):
        field = F2 if rng.random() < 0.5 else F3
        inst = random_instance(rng)
        N = int(rng.integers(1, 6))
        L = rng.integers(0, field.q, size=(inst.n, N))
        delta = int(rng.integers(0, 2))
        yield inst, field, L, delta


def test_verify_methods_agree_seeded():
    for inst, field, L, delta in _seeded_verify_cases():
        a = verify(inst, field, L, delta, method="receiver-span")
        b = verify(inst, field, L, delta, method="stream")
        assert a.ok == b.ok
        assert a.min_weight == b.min_weight


def test_verify_witness_is_confusable_and_violating(F2):
    rng = np.random.default_rng(12)
    seen_fail = 0
    for _ in range(60):
        inst = random_instance(rng)
        N = int(rng.integers(1, 5))
        L = rng.integers(0, 2, size=(inst.n, N))
        delta = int(rng.integers(0, 2))
        rep = verify(inst, F2, L, delta)
        if rep.ok:
            continue
        seen_fail += 1
        z = rep.witness
        assert in_J(inst, tuple(np.nonzero(z)[0]))
        w = weight(F2.matmul(z[None, :], L)[0])
        assert w == rep.min_weight < 2 * delta + 1
    assert seen_fail > 10


def test_verify_min_weight_matches_stream_oracle(F2, k3, k3_L):
    # oracle: brute minimum over every confusable vector
    best = min(weight(F2.matmul(z[None, :], k3_L)[0])
               for z in iter_I(k3, F2))
    assert verify(k3, F2, k3_L, 1).min_weight == best == 3


def test_verify_invariant_under_column_permutation(F2, pentagon, pentagon_L9):
    rng = np.random.default_rng(3)
    perm = rng.permutation(9)
    rep = verify(pentagon, F2, pentagon_L9[:, perm], 2)
    assert rep.ok and rep.min_weight >= 5


def test_verify_rejects_bad_shapes(F2, k3, k3_L):
    with pytest.raises(ValueError):
        verify(k3, F2, k3_L[:2], 1)
    with pytest.raises(ValueError):
        verify(k3, F2, k3_L, -1)
    for method in ("nope", "auto"):
        with pytest.raises(ValueError):
            verify(k3, F2, k3_L, 1, method=method)


def test_verify_span_cap(F2, pentagon, pentagon_L9):
    with pytest.raises(SpanCapExceeded):
        verify(pentagon, F2, pentagon_L9, 2, span_cap=1,
               method="receiver-span")
    # the default method is the span scan: past the cap it refuses
    with pytest.raises(SpanCapExceeded):
        verify(pentagon, F2, pentagon_L9, 2, span_cap=1)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_verify_blocks_keep_the_scan(monkeypatch, block):
    """Weighing each receiver's span a few rows at a time gives the report
    of the one-block scan: the first lightest vector still wins."""
    def run():
        return [(r.ok, r.min_weight, None if r.witness is None
                 else r.witness.tolist(), r.receiver, r.cost)
                for inst, field, L, delta in _seeded_verify_cases()
                for r in [verify(inst, field, L, delta)]]

    whole = run()
    monkeypatch.setattr(codes, "block_rows", lambda width: block)
    assert run() == whole


def test_verify_large_receiver_scans_its_span(F2):
    # one receiver with |Y_0| = 19: 2^19 combinations, a block at a time
    inst = make_instance(20, (0,), ((),))
    L = np.random.default_rng(5).integers(0, 2, size=(20, 24))
    rep = verify(inst, F2, L, 1)
    assert rep.method == "receiver-span" and rep.cost == 2**19
    # pinned from the one-block scan and the stream, which agree here
    assert not rep.ok and rep.min_weight == 1 and rep.receiver == 0
    assert rep.witness.tolist() == [1, 0, 1, 0, 1, 1, 0, 1, 0, 1,
                                    0, 1, 0, 0, 1, 0, 0, 0, 0, 1]
    assert weight(F2.matmul(rep.witness[None, :], L)[0]) == 1


def test_receiver_span_witness_tie_break(F3):
    # Y_0 = {1, 2}; the first Y_0 row's coefficient cycles fastest, so of the
    # two weight-1 combinations the scan meets e_0 + 2 e_1 + e_2 first
    inst = make_instance(3, (0,), ((),))
    L = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    rep = verify(inst, F3, L, 1, method="receiver-span")
    assert rep.witness.tolist() == [1, 2, 1]
    assert rep.receiver == 0 and rep.min_weight == 1 and rep.cost == 9


def test_max_delta_goldens(F2, k3, k3_L, pentagon, pentagon_L9):
    assert max_delta(k3, F2, k3_L) == 1
    assert max_delta(pentagon, F2, pentagon_L9) == 2
    assert max_delta(k3, F2, np.eye(3, dtype=np.int64)) == 0
    # zero matrix serves nobody
    assert max_delta(k3, F2, np.zeros((3, 2), dtype=np.int64)) == -1


# ---------------------------------------------------------------------------
# min rank
# ---------------------------------------------------------------------------


def test_min_rank_goldens(F2, k3, ring5, pentagon):
    w = min_rank(k3, F2)
    assert w.kappa == 1 and w.certified
    assert np.array_equal(w.V, np.ones((3, 3), dtype=np.int64))
    assert min_rank(ring5, F2).kappa == 2
    assert min_rank(pentagon, F2).kappa == 3


def test_min_rank_witness_structure(F2, F3):
    rng = np.random.default_rng(21)
    for _ in range(25):
        field = F2 if rng.random() < 0.5 else F3
        inst = random_instance(rng)
        w = min_rank(inst, field)
        assert w.certified
        assert rank(field, w.V) == w.kappa
        for i in range(inst.m):
            row = w.V[i]
            assert row[inst.f[i]] == 1
            support = set(np.nonzero(row)[0])
            assert support <= inst.X[i] | {inst.f[i]}
        # the packed matrix is an error-free index code of length kappa
        assert w.L.shape == (inst.n, w.kappa)
        assert verify(inst, field, w.L, 0).ok


def _brute_min_rank(inst, field):
    """Enumerate every completion row by row; smallest rank seen."""
    per_receiver = []
    for i in range(inst.m):
        X = sorted(inst.X[i])
        rows = []
        for vals in itertools.product(range(field.q), repeat=len(X)):
            row = np.zeros(inst.n, dtype=np.int64)
            row[inst.f[i]] = 1
            for j, v in zip(X, vals):
                row[j] = v
            rows.append(row)
        per_receiver.append(rows)
    best = inst.n
    for choice in itertools.product(*per_receiver):
        best = min(best, rank(field, np.stack(choice)))
    return best


def test_min_rank_matches_brute_force(F2, F3):
    rng = np.random.default_rng(22)
    done = 0
    while done < 12:
        field = F2 if rng.random() < 0.5 else F3
        inst = random_instance(rng, n_hi=3, m_hi=4)
        if field.q ** sum(len(x) for x in inst.X) > 4000:
            continue
        assert min_rank(inst, field).kappa == _brute_min_rank(inst, field)
        done += 1
    # extension and larger prime fields, where the reduction goes through
    # the multiplication tables; skip completions too few to tell much
    F4, F5 = make_field(4), make_field(5)
    done = 0
    while done < 8:
        field = F4 if rng.random() < 0.5 else F5
        inst = random_instance(rng, n_lo=3, n_hi=4, m_hi=5)
        if not 16 <= field.q ** sum(len(x) for x in inst.X) <= 4000:
            continue
        assert min_rank(inst, field).kappa == _brute_min_rank(inst, field)
        done += 1


def test_min_rank_returns_lex_least_completion(F2, ring5):
    w = min_rank(ring5, F2)
    flat = tuple(int(v) for v in w.V.ravel())
    # each receiver's rows ascend, so the product runs in lex order of the
    # flattened completion and the first one of rank <= kappa is the least
    for choice in itertools.product(*[
            [vals for vals in itertools.product(range(2), repeat=5)
             if vals[i] == 1 and all(vals[j] == 0 for j in range(5)
                                     if j != i and j not in ring5.X[i])]
            for i in range(5)]):
        if rank(F2, np.array(choice)) <= w.kappa:
            assert flat == sum(choice, ())
            break
    else:
        pytest.fail("no completion of rank kappa")


def test_min_rank_pinned_work(F2, F3, F7, c5bar, pentagon, ring5):
    """Node counts and the completion the DFS returns; they move when the
    candidate order, a prune or the memo changes."""
    w = min_rank(c5bar, F7)
    assert (w.kappa, w.certified, w.lower_bound, w.nodes) == (3, True, 3, 3194)
    assert w.V.tolist() == [[1, 0, 0, 0, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 1],
                            [0, 1, 0, 1, 0], [0, 0, 1, 0, 1]]
    for inst, field, nodes in [(pentagon, F2, 52), (ring5, F2, 60),
                               (ring5, F3, 199), (c5bar, make_field(4), 425),
                               (odd_cycle_instance(3), F3, 1398)]:
        assert min_rank(inst, field).nodes == nodes


def test_min_rank_seeded_differential_pin():
    """Certified flag, kappa, lower bound, nodes and V over 200 seeded
    instances on GF(2)..GF(9) at budgets that stop early, midway and
    never.  The digest and totals were taken from a DFS that reduced one
    candidate row at a time."""
    qs = (2, 3, 4, 5, 7, 8, 9)
    rng = np.random.default_rng(1)
    h = hashlib.sha256()
    nodes = certified = 0
    for _ in range(200):
        field = make_field(qs[int(rng.integers(len(qs)))])
        inst = random_instance(rng)
        for budget in (7, 40, 20_000):
            w = min_rank(inst, field, node_budget=budget)
            h.update(repr((w.certified, w.kappa, w.lower_bound, w.nodes,
                           w.V.tolist())).encode())
            nodes += w.nodes
            certified += w.certified
    assert (nodes, certified) == (39416, 451)
    assert h.hexdigest() == ("5dc0862d0117b09cfd55f1dcb664f930"
                             "eb2f98bc75eeed224fd6006fd1c88b31")


def test_min_rank_blocks_keep_the_search(monkeypatch):
    """Reducing the candidates a few rows at a time, the slow coefficients
    fixing each block, gives the search of one block per node."""
    qs = (2, 3, 4, 5)
    rng = np.random.default_rng(3)
    cases = [(random_instance(rng), make_field(qs[int(rng.integers(4))]))
             for _ in range(30)]

    def run():
        return [(w.certified, w.kappa, w.lower_bound, w.nodes, w.V.tolist())
                for inst, field in cases for budget in (40, 20_000)
                for w in [min_rank(inst, field, node_budget=budget)]]

    whole = run()
    monkeypatch.setattr(codes, "block_rows", lambda width: 3)
    assert run() == whole


@pytest.mark.parametrize("cells", [1, 2000])
def test_min_rank_stacks_keep_the_search(monkeypatch, cells):
    """A frame steps its rank-raising children as stacks of projections
    and products; whatever the stack size, down to one child, the search
    visits the same nodes, stops at the same budgets and returns the same
    completion as with the default stacks."""
    qs = (2, 3, 4, 5, 7, 8, 9)
    rng = np.random.default_rng(4)
    cases = [(random_instance(rng), make_field(qs[int(rng.integers(7))]))
             for _ in range(60)]

    def run():
        return [(w.certified, w.kappa, w.lower_bound, w.nodes, w.V.tolist(),
                 w.L.tolist())
                for inst, field in cases for budget in (7, 40, 20_000)
                for w in [min_rank(inst, field, node_budget=budget)]]

    whole = run()
    assert {r[0] for r in whole} == {True, False}
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    assert run() == whole


def test_min_rank_stacks_leave_out_failed_children(monkeypatch):
    """With one child per stack, each stacked product serves one
    rank-raising child.  On C7 over GF(3), 392 of the 1,106 rank-raising
    children visited reach a (depth, P) that has already failed; they
    return at the memo and get no product."""
    field = Field(3)
    matmul = field.matmul
    stacked = []

    def counting(A, B):
        if B.ndim == 3:
            stacked.append(len(B))
        return matmul(A, B)

    field.matmul = counting
    monkeypatch.setattr(fields, "BLOCK_CELLS", 1)
    assert min_rank(odd_cycle_instance(3), field).nodes == 1398
    assert stacked == [1] * 714


def test_min_rank_budget_degrades_to_uncertified(F2, pentagon):
    w = min_rank(pentagon, F2, node_budget=3)
    assert not w.certified
    assert w.kappa >= 1  # identity fallback still an upper bound shape


def test_min_rank_memo_keys_hold_uint16_codes(F7):
    """A budget-stopped search's memory grows with its memo of failed
    states.  Each key holds the projection's field codes as uint16, a
    quarter of their int64 bytes."""
    inst = make_instance(6, range(6), ({2, 3, 4, 5}, {0, 3, 4, 5},
                                       {1, 3, 4, 5}, {0, 1, 2, 5},
                                       {0, 1, 2, 3}, {0, 1, 2, 3}))
    peaks = []
    for budget in (20, 2000):
        tracemalloc.start()
        try:
            w = min_rank(inst, F7, node_budget=budget)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (w.certified, w.nodes, w.lower_bound) == (False, budget + 1, 1)
    # from 20 to 2,000 nodes the peak grows by 0.73-0.83 MiB with int64
    # keys and by 0.32-0.43 MiB with uint16 keys
    assert peaks[1] - peaks[0] < 0.6 * 2**20


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def test_construct_concat_k3(F2, k3):
    L, w, entry = construct_concat(k3, F2, 1)
    assert w.kappa == 1
    assert entry.provenance == "repetition"
    assert np.array_equal(L, np.ones((3, 3), dtype=np.int64))
    assert verify(k3, F2, L, 1).ok


def test_construct_concat_ring5(F2, ring5):
    L, w, entry = construct_concat(ring5, F2, 2)
    assert w.kappa == 2 and entry.N == 8
    assert L.shape == (5, 8)
    assert verify(ring5, F2, L, 2).ok


def test_construct_concat_explicit_outer(F7, k3):
    outer = rs_generator(F7, 1, 3)
    L, w, entry = construct_concat(k3, F7, 1, outer=outer)
    assert entry is None and L.shape == (3, 3)
    assert verify(k3, F7, L, 1).ok


def test_construct_concat_rejects_wrong_outer_rows(F2, ring5):
    with pytest.raises(ValueError):
        construct_concat(ring5, F2, 1, outer=np.ones((3, 5), dtype=np.int64))


def test_construct_lift_ring5(F2, ring5):
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    L, entry = construct_lift(ring5, F2, 2, B)
    assert L.shape == (5, 8) and entry.N == 8
    assert verify(ring5, F2, L, 2).ok
    # rows really are B-combinations of the outer generator
    assert np.array_equal(L, F2.matmul(B, entry.generator))


def test_construct_lift_rejects_bad_core(F2, ring5):
    # receiver 4 has Y = {3}; the zero row 4 leaves z = e_4 with z B = 0
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [0, 0]], dtype=np.int64)
    with pytest.raises(NotAnIndexCode, match=r"z = \[0, 0, 0, 0, 1\]"):
        construct_lift(ring5, F2, 2, B)


def test_negative_radius_is_refused_before_any_work(monkeypatch, F2,
                                                   ring5):
    # random_min_length used to return 1 and the condition held for every
    # N; the constructions and bound_report ran min_rank or the lift's
    # solves first, then failed in nq_kd with "need k >= 1 and d >= 1"
    from indexcode import bounds

    def no_work(*args, **kw):
        raise AssertionError("work done before the radius was checked")

    for module, name in ((codes, "min_rank"), (codes, "solve_one"),
                         (bounds, "min_rank"),
                         (bounds, "generalized_independence_number")):
        monkeypatch.setattr(module, name, no_work)
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    calls = [lambda: random_existence_condition(ring5, F2, -1, 8),
             lambda: random_min_length(ring5, F2, -1),
             lambda: construct_concat(ring5, F2, -1),
             lambda: construct_lift(ring5, F2, -1, B),
             lambda: bounds.bound_report(ring5, F2, -1)]
    for call in calls:
        with pytest.raises(ValueError, match="delta must be >= 0"):
            call()


def test_construct_lift_accepts_dependent_rows_on_a_support(F2):
    # rows 1 and 2 of the core are dependent on the support {1, 2} of J, yet
    # the core is an error-free index code, so its lift corrects delta = 1
    inst = make_instance(3, (0,), ({},))
    B = min_rank(inst, F2).L
    assert np.array_equal(B, [[1], [0], [0]])
    L, entry = construct_lift(inst, F2, 1, B)
    assert verify(inst, F2, L, 1).ok
    assert np.array_equal(L, F2.matmul(B, entry.generator))


def test_construct_lift_accepts_exactly_the_error_free_cores():
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(80):
        q = int(rng.choice([2, 3, 4, 5, 7]))
        field = make_field(q)
        inst = random_instance(rng, n_hi=4)
        B = rng.integers(0, q, size=(inst.n, int(rng.integers(1, 4))))
        outer = np.eye(B.shape[1], dtype=np.int64)
        ok = verify(inst, field, B, 0).ok
        outcomes.add(ok)
        if ok:
            L, _ = construct_lift(inst, field, 0, B, outer)
            assert np.array_equal(L, B)
            continue
        with pytest.raises(NotAnIndexCode) as exc:
            construct_lift(inst, field, 0, B, outer)
        # the named z is confusable for the named receiver and z B = 0
        i, z = re.search(r"receiver (\d+), z = \[(.*)\]",
                         str(exc.value)).groups()
        i, z = int(i), np.array([int(v) for v in z.split(", ")])
        assert z[inst.f[i]] == 1 and not z[sorted(inst.X[i])].any()
        assert not field.matmul(z[None, :], B).any()
    assert outcomes == {True, False}


def test_construct_lift_checks_large_fields_without_enumerating():
    # 255^4 + ... confusable vectors over GF(256), far past every stream
    # cap; the core check is one linear solve per receiver
    F256 = make_field(256)
    inst = make_instance(4, range(4), [set()] * 4)
    L, w, entry = construct_concat(inst, F256, 1)
    assert np.array_equal(w.L, np.eye(4, dtype=np.int64))
    assert L.shape == (4, 6) and entry.N == 6
    lifted, _ = construct_lift(inst, F256, 1, w.L)
    # the identity core lifts to the outer generator itself
    assert np.array_equal(L, lifted) and np.array_equal(L, entry.generator)
    B = np.eye(4, dtype=np.int64)
    B[3] = B[2]      # receiver 2 confuses x_2 with x_3: z = e_2 + e_3
    with pytest.raises(NotAnIndexCode,
                       match=r"receiver 2, z = \[0, 0, 1, 1\]"):
        construct_lift(inst, F256, 1, B)


def test_construct_concat_is_the_lift_of_the_min_rank_core():
    rng = np.random.default_rng(5)
    for _ in range(30):
        q = int(rng.choice([2, 3, 4, 5]))
        field = make_field(q)
        inst = random_instance(rng, n_hi=4)
        delta = int(rng.integers(0, 3))
        L, w, entry = construct_concat(inst, field, delta)
        lifted, lift_entry = construct_lift(inst, field, delta, w.L)
        assert np.array_equal(L, lifted)
        assert (entry.N, entry.provenance) == (lift_entry.N,
                                               lift_entry.provenance)
        assert verify(inst, field, L, delta).ok


def test_construct_random_succeeds_and_is_deterministic(F2, k3):
    a = construct_random(k3, F2, 1, 5, seed=5)
    b = construct_random(k3, F2, 1, 5, seed=5)
    assert a.ok and b.ok
    assert np.array_equal(a.L, b.L) and a.attempts == b.attempts
    assert verify(k3, F2, a.L, 1).ok


def test_construct_random_impossible_below_singleton(F2, k3):
    # kappa = 1, delta = 1: no length-2 code can work
    rep = construct_random(k3, F2, 1, 2, seed=0, max_attempts=64)
    assert not rep.ok and rep.attempts == 64
    assert rep.singleton_bound == 3
    assert not rep.condition_holds


def test_random_min_length_is_the_least_certified_length(F2, F3, ring5,
                                                          pentagon):
    for inst, field, delta in [(ring5, F2, 1), (pentagon, F3, 2),
                               (ring5, F3, 0)]:
        N = random_min_length(inst, field, delta)
        assert random_existence_condition(inst, field, delta, N)
        assert not any(random_existence_condition(inst, field, delta, M)
                       for M in range(1, N))
        rep = construct_random(inst, field, delta, N + 3, seed=0,
                               max_attempts=1)
        assert rep.condition_min_N == N


def test_random_existence_condition_monotone(F2, ring5):
    holds = [random_existence_condition(ring5, F2, 1, N)
             for N in range(1, 16)]
    assert holds == sorted(holds)  # False ... False True ... True
    rep = construct_random(ring5, F2, 1, 12, seed=1)
    assert random_existence_condition(ring5, F2, 1, rep.condition_min_N)
    assert not random_existence_condition(ring5, F2, 1,
                                          rep.condition_min_N - 1)


# ---------------------------------------------------------------------------
# minimum-length search and certificates
# ---------------------------------------------------------------------------


def test_search_k3(F2, k3):
    rep = search_min_length(k3, F2, 1, 4)
    assert rep.n_opt == 3 and rep.certified
    assert verify(k3, F2, rep.L, 1).ok
    # lengths below 2delta+1 are never viable, so the scan starts at 3
    assert rep.refuted == {}


def test_search_ring5_meets_lower_bound(F2, ring5):
    rep = search_min_length(ring5, F2, 1, 5)
    assert rep.n_opt == 5 and rep.certified
    assert verify(ring5, F2, rep.L, 1).ok


def test_search_exhausts_below_optimum(F2, ring5):
    rep = search_min_length(ring5, F2, 1, 4)
    assert rep.n_opt is None and rep.L is None
    assert rep.certified
    assert set(rep.refuted) == {3, 4}


def test_search_budget(F2, ring5):
    with pytest.raises(BudgetExceeded):
        search_min_length(ring5, F2, 2, 8, budget=5)


def test_search_is_one_process(F2, pentagon):
    assert search_min_length(pentagon, F2, 1, 6, workers=1).n_opt == 6
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            search_min_length(pentagon, F2, 1, 6, workers=workers)


def test_certificate_roundtrip(F2, k3):
    rep = search_min_length(k3, F2, 1, 4)
    text = search_certificate(k3, F2, rep)
    doc = check_certificate(k3, F2, text, delta=1)
    assert doc["N"] == 3 and doc["certified"]
    L, q = matrix_from_text(doc["matrix"])
    assert q == 2 and verify(k3, F2, L, 1).ok


def test_certificate_rejects_wrong_instance(F2, k3, ring5):
    text = search_certificate(k3, F2, search_min_length(k3, F2, 1, 4))
    with pytest.raises(ValueError):
        check_certificate(ring5, F2, text)


def test_certificate_rejects_tampering(F2, k3):
    rep = search_min_length(k3, F2, 1, 4)
    text = search_certificate(k3, F2, rep)
    with pytest.raises(ValueError):
        check_certificate(k3, F2, text, delta=2)
    broken = text.replace("1 1 1", "1 1 0", 1)
    if broken != text:
        with pytest.raises(ValueError):
            check_certificate(k3, F2, broken)
