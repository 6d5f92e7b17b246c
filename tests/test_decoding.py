"""Receiver views, syndrome decoding, combiners, and received-word files."""

import itertools

import numpy as np
import pytest

from indexcode.decoding import (
    Decoder,
    code_Ci,
    decode,
    find_combiner,
    load_received,
    make_view,
    min_weight_coset_solution,
    received_from_text,
    received_to_text,
    recover_by_elimination,
    relevant_error_set,
    save_received,
    syndrome,
    transmit,
)
from indexcode.errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from indexcode.fields import make_field, rank, sphere_volume, weight
from indexcode.instances import make_instance, y_set

from conftest import random_instance


# ---------------------------------------------------------------------------
# views and transmission
# ---------------------------------------------------------------------------


def test_make_view_validation(F2, k3):
    with pytest.raises(ValueError):
        make_view(k3, F2, 5, [0, 0, 0, 0], {})
    with pytest.raises(ValueError):
        make_view(k3, F2, 0, [0, 2, 0, 0], {1: 0, 2: 0})  # symbol 2 over F2
    with pytest.raises(ValueError):
        make_view(k3, F2, 0, [0, 0, 0, 0], {1: 0})        # missing side key
    with pytest.raises(ValueError):
        make_view(k3, F2, 0, [0, 0, 0, 0], {1: 0, 2: 3})  # side value range


def test_transmit_golden(F2, k3, k3_L):
    x = np.array([1, 0, 1])
    e = np.array([1, 0, 0, 0])
    view = transmit(k3, F2, k3_L, x, e, 0)
    assert view.i == 0
    assert view.y == (1, 1, 0, 1)   # broadcast (0,1,0,1) plus the error
    assert view.side == ((1, 0), (2, 1))


# ---------------------------------------------------------------------------
# local codes and syndromes
# ---------------------------------------------------------------------------


def test_code_Ci_shapes_and_annihilation(F2, pentagon, pentagon_L9):
    for i in range(5):
        gen, H = code_Ci(pentagon, F2, pentagon_L9, i)
        assert gen.shape == (1 + len(y_set(pentagon, i)), 9)
        assert H.shape[0] == 9 - rank(F2, gen)
        assert not F2.matmul(H, gen.T).any()


def test_syndrome_zero_on_clean_transmission(F2, ring5):
    rng = np.random.default_rng(4)
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    from indexcode.codes import construct_lift
    L, _ = construct_lift(ring5, F2, 2, B)
    for _ in range(10):
        x = rng.integers(0, 2, size=5)
        for i in range(5):
            view = transmit(ring5, F2, L, x, np.zeros(8, dtype=np.int64), i)
            gen, H = code_Ci(ring5, F2, L, i)
            assert not syndrome(ring5, F2, L, H, view).any()


# ---------------------------------------------------------------------------
# coset search
# ---------------------------------------------------------------------------


def test_min_weight_coset_solution_matches_brute_force(F3):
    rng = np.random.default_rng(9)
    for _ in range(20):
        N = int(rng.integers(2, 5))
        r = int(rng.integers(1, N + 1))
        H = rng.integers(0, 3, size=(r, N))
        e_true = rng.integers(0, 3, size=N)
        beta = F3.matvec(H, e_true)
        delta = N  # wide radius: a solution always exists (e_true matches)
        e_hat, cost = min_weight_coset_solution(F3, H, beta, delta)
        brute = min(weight(np.array(e)) for e in
                    itertools.product(range(3), repeat=N)
                    if np.array_equal(F3.matvec(H, np.array(e)), beta))
        assert weight(e_hat) == brute
        assert np.array_equal(F3.matvec(H, e_hat), beta)
        assert cost <= sphere_volume(3, N, delta)


def test_min_weight_coset_solution_radius_exceeded(F2):
    H = np.eye(3, dtype=np.int64)
    with pytest.raises(TooManyErrors):
        min_weight_coset_solution(F2, H, np.array([1, 1, 1]), 1)


def test_min_weight_coset_solution_budget(F2):
    H = np.eye(8, dtype=np.int64)
    with pytest.raises(BudgetExceeded):
        min_weight_coset_solution(F2, H, np.zeros(8, dtype=np.int64), 4,
                                  budget=10)


def test_relevant_error_set_structure(F2, pentagon, pentagon_L9):
    eps = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64)
    for i in range(5):
        rel = relevant_error_set(pentagon, F2, pentagon_L9, i, eps)
        assert rel.shape == (2 ** len(y_set(pentagon, i)), 9)
        assert np.array_equal(rel[0], eps)  # span order starts at zero
        rows = pentagon_L9[sorted(y_set(pentagon, i))]
        for v in rel:
            diff = F2.sub_arr(v, eps)
            # diff must lie in the row space of the unseen-unwanted rows
            assert rank(F2, np.vstack([rows, diff])) == rank(F2, rows)


# ---------------------------------------------------------------------------
# combiners and recovery
# ---------------------------------------------------------------------------


def test_find_combiner_identity(F2, F3):
    rng = np.random.default_rng(14)
    done = 0
    while done < 15:
        field = F2 if rng.random() < 0.5 else F3
        inst = random_instance(rng)
        N = int(rng.integers(1, 6))
        L = rng.integers(0, field.q, size=(inst.n, N))
        for i in range(inst.m):
            try:
                u, v = find_combiner(inst, field, L, i)
            except NotAnIndexCode:
                continue
            lhs = field.matvec(L, u)
            rhs = v.copy()
            rhs[inst.f[i]] = field.add(rhs[inst.f[i]], 1)
            assert np.array_equal(lhs, rhs)
            assert set(np.nonzero(v)[0]) <= inst.X[i]
            done += 1


def test_find_combiner_rejects_useless_matrix(F2, k3):
    with pytest.raises(NotAnIndexCode):
        find_combiner(k3, F2, np.zeros((3, 2), dtype=np.int64), 0)


def test_decode_worked_example(F2, k3, k3_L):
    x = np.array([1, 0, 1])
    e = np.array([1, 0, 0, 0])
    view = transmit(k3, F2, k3_L, x, e, 0)
    res = decode(k3, F2, k3_L, 1, view)
    assert res.x_hat == 1
    assert np.array_equal(res.e_hat, e)
    assert res.weight_searched == 1
    assert res.method == "stream"


def test_decode_all_receivers_all_light_errors(F2, k3, k3_L):
    for x in itertools.product(range(2), repeat=3):
        x = np.array(x)
        for e in itertools.chain([np.zeros(4, dtype=np.int64)],
                                 (np.eye(4, dtype=np.int64)[j]
                                  for j in range(4))):
            for i in range(3):
                view = transmit(k3, F2, k3_L, x, e, i)
                assert decode(k3, F2, k3_L, 1, view).x_hat == x[k3.f[i]]


def test_decode_recovery_paths_agree(F2, ring5):
    from indexcode.codes import construct_lift
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    L, _ = construct_lift(ring5, F2, 2, B)
    rng = np.random.default_rng(15)
    for _ in range(30):
        x = rng.integers(0, 2, size=5)
        e = np.zeros(8, dtype=np.int64)
        e[rng.choice(8, size=2, replace=False)] = 1
        i = int(rng.integers(0, 5))
        view = transmit(ring5, F2, L, x, e, i)
        a = decode(ring5, F2, L, 2, view, recovery="combiner")
        b = decode(ring5, F2, L, 2, view, recovery="eliminate")
        assert a.x_hat == b.x_hat == x[ring5.f[i]]


def test_decode_failure_modes_beyond_radius(F2, k3, k3_L):
    x = np.zeros(3, dtype=np.int64)
    # weight-2 errors hitting the last column leave an unexplainable syndrome
    view = transmit(k3, F2, k3_L, x, np.array([1, 0, 0, 1]), 0)
    with pytest.raises(TooManyErrors):
        decode(k3, F2, k3_L, 1, view)
    # others silently decode to the wrong symbol: the radius was the promise
    view = transmit(k3, F2, k3_L, x, np.array([1, 1, 0, 0]), 0)
    assert decode(k3, F2, k3_L, 1, view).x_hat == 1


def test_recover_by_elimination_rejects_impossible_word(F2):
    # 1 message, 2 broadcast symbols that must both equal x_0
    inst = make_instance(1, (0,), (set(),))
    L = np.array([[1, 1]], dtype=np.int64)
    view = make_view(inst, F2, 0, [1, 0], {})
    with pytest.raises(TooManyErrors):
        recover_by_elimination(inst, F2, L, view,
                               np.zeros(2, dtype=np.int64))


# ---------------------------------------------------------------------------
# table decoder
# ---------------------------------------------------------------------------


def test_decoder_matches_streaming_exhaustively(F2, k3, k3_L):
    table = Decoder(k3, F2, k3_L, 1)
    for x in itertools.product(range(2), repeat=3):
        x = np.array(x)
        for w in range(2):
            for sup in itertools.combinations(range(4), w):
                e = np.zeros(4, dtype=np.int64)
                e[list(sup)] = 1
                for i in range(3):
                    view = transmit(k3, F2, k3_L, x, e, i)
                    a = decode(k3, F2, k3_L, 1, view)
                    b = table.decode(view)
                    assert a.x_hat == b.x_hat
                    assert np.array_equal(a.e_hat, b.e_hat)
                    assert np.array_equal(a.syndrome, b.syndrome)
                    assert b.method == "table" and b.cost == 0


def test_decoder_raises_like_streaming(F2, k3, k3_L):
    table = Decoder(k3, F2, k3_L, 1)
    view = transmit(k3, F2, k3_L, np.zeros(3, dtype=np.int64),
                    np.array([1, 0, 0, 1]), 0)
    with pytest.raises(TooManyErrors):
        table.decode(view)


def test_decoder_budget(F2, pentagon, pentagon_L9):
    with pytest.raises(BudgetExceeded):
        Decoder(pentagon, F2, pentagon_L9, 2, budget=5)


# ---------------------------------------------------------------------------
# received-word files
# ---------------------------------------------------------------------------


def test_received_text_roundtrip(F2, k3, k3_L, tmp_path):
    view = transmit(k3, F2, k3_L, np.array([1, 0, 1]),
                    np.array([1, 0, 0, 0]), 0)
    text = received_to_text(F2, view)
    assert text.splitlines()[0] == "1 4 2"       # receiver printed 1-based
    assert "2:0" in text and "3:1" in text       # side indices 1-based
    i, y, side, q = received_from_text(text)
    assert (i, q) == (0, 2)
    assert np.array_equal(y, np.array(view.y))
    assert side == {1: 0, 2: 1}
    path = tmp_path / "recv.txt"
    save_received(path, F2, view)
    i2, y2, side2, q2 = load_received(path)
    assert (i2, side2, q2) == (i, side, q)
    assert np.array_equal(y2, y)


def test_received_from_text_comments_and_errors():
    i, y, side, q = received_from_text(
        "# a comment\n2 3 5\n1 2 3\n# more\n1:4\n")
    assert i == 1 and q == 5 and list(y) == [1, 2, 3] and side == {0: 4}
    with pytest.raises(ValueError):
        received_from_text("1 4 2\n")                    # missing y line
    with pytest.raises(ValueError):
        received_from_text("1 4\n0 0 0 0\n")             # short header
    with pytest.raises(ValueError):
        received_from_text("0 4 2\n0 0 0 0\n")           # 0-based receiver
    with pytest.raises(ValueError):
        received_from_text("1 4 2\n0 0 0\n")             # wrong count
    with pytest.raises(ValueError):
        received_from_text("1 2 2\n0 0\n1=0\n")          # bad side pair
    with pytest.raises(ValueError):
        received_from_text("1 2 2\n0 0\n0:1\n")          # 0-based side index
