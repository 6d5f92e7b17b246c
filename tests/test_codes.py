"""Verification, min rank, constructions, and minimum-length search."""

import itertools

import numpy as np
import pytest

from indexcode.bounds import rs_generator
from indexcode.codes import (
    check_certificate,
    check_lift_core,
    construct_concat,
    construct_lift,
    construct_random,
    max_delta,
    min_rank,
    random_existence_condition,
    search_certificate,
    search_min_length,
    verify,
)
from indexcode.errors import BudgetExceeded, NotAnIndexCode, SpanCapExceeded
from indexcode.fields import make_field, matrix_from_text, rank, weight
from indexcode.instances import in_J, iter_I, make_instance

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


def test_verify_methods_agree_seeded(F2, F3):
    rng = np.random.default_rng(11)
    for _ in range(40):
        field = F2 if rng.random() < 0.5 else F3
        inst = random_instance(rng)
        N = int(rng.integers(1, 6))
        L = rng.integers(0, field.q, size=(inst.n, N))
        delta = int(rng.integers(0, 2))
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
    with pytest.raises(ValueError):
        verify(k3, F2, k3_L, 1, method="nope")


def test_verify_span_cap(F2, pentagon, pentagon_L9):
    with pytest.raises(SpanCapExceeded):
        verify(pentagon, F2, pentagon_L9, 2, span_cap=1,
               method="receiver-span")
    # auto mode falls back to streaming instead of failing
    rep = verify(pentagon, F2, pentagon_L9, 2, span_cap=1)
    assert rep.ok and rep.method == "stream"


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


def test_min_rank_returns_lex_least_completion(F2, ring5):
    w = min_rank(ring5, F2)
    flat = tuple(int(v) for v in w.V.ravel())
    best = None
    for choice in itertools.product(*[
            [np.array(vals) for vals in itertools.product(range(2), repeat=5)
             if vals[i] == 1 and all(vals[j] == 0 for j in range(5)
                                     if j != i and j not in ring5.X[i])]
            for i in range(5)]):
        V = np.stack(choice)
        if rank(F2, V) <= w.kappa:
            cand = tuple(int(v) for v in V.ravel())
            if best is None or cand < best:
                best = cand
    assert flat == best


def test_min_rank_budget_degrades_to_uncertified(F2, pentagon):
    w = min_rank(pentagon, F2, node_budget=3)
    assert not w.certified
    assert w.kappa >= 1  # identity fallback still an upper bound shape


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
    assert check_lift_core(ring5, F2, B) is None
    L, entry = construct_lift(ring5, F2, 2, B)
    assert L.shape == (5, 8) and entry.N == 8
    assert verify(ring5, F2, L, 2).ok
    # rows really are B-combinations of the outer generator
    assert np.array_equal(L, F2.matmul(B, entry.generator))


def test_construct_lift_rejects_bad_core(F2, ring5):
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [0, 0]], dtype=np.int64)
    bad = check_lift_core(ring5, F2, B)
    assert bad is not None and 4 in bad
    with pytest.raises(NotAnIndexCode):
        construct_lift(ring5, F2, 2, B)


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


def test_search_workers_agree(F2, pentagon):
    a = search_min_length(pentagon, F2, 1, 6, workers=1)
    b = search_min_length(pentagon, F2, 1, 6, workers=3)
    assert a.n_opt == b.n_opt
    assert np.array_equal(a.L, b.L)


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
