"""Receiver views, syndrome decoding, combiners, and received-word files."""

import itertools

import numpy as np
import pytest

from indexcode import decoding, fields
from indexcode.codes import construct_concat
from indexcode.decoding import (
    Decoder,
    ReceiverView,
    code_Ci,
    decode,
    find_combiner,
    load_received,
    make_view,
    min_weight_coset_solution,
    received_from_text,
    received_to_text,
    recover,
    recover_by_elimination,
    save_received,
    transmit,
)
from indexcode.errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from indexcode.fields import (make_field, product_index, rank, span_matrix,
                              sparse_vectors, sphere_volume, weight)
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


@pytest.mark.parametrize("q", [2, 3, 4])
def test_transmit_rejects_error_entries_outside_the_field(q, k3, k3_L):
    # q + 1 would act as 1 in a prime field and leave GF(4) through XOR
    e = np.array([q + 1, 0, 0, 0])
    with pytest.raises(ValueError, match="^error entries"):
        transmit(k3, make_field(q), k3_L, [1, 0, 1], e, 0)
    with pytest.raises(ValueError, match="^x entries"):
        transmit(k3, make_field(q), k3_L, [1, -1, 1], np.zeros(4), 0)


def test_transmit_rejects_words_of_the_wrong_length(F2, k3, k3_L):
    with pytest.raises(ValueError, match="error must have 4 entries"):
        transmit(k3, F2, k3_L, [1, 0, 1], [1, 0, 0], 0)
    with pytest.raises(ValueError, match="x must have 3 entries"):
        transmit(k3, F2, k3_L, [1, 0], [1, 0, 0, 0], 0)


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
    # H kills the stripped word y - x_X L[X] = x_f(i) L_f(i) + x L[Y_i]
    rng = np.random.default_rng(4)
    B = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    from indexcode.codes import construct_lift
    L, _ = construct_lift(ring5, F2, 2, B)
    table = Decoder(ring5, F2, L, 2)
    for _ in range(10):
        x = rng.integers(0, 2, size=5)
        for i in range(5):
            view = transmit(ring5, F2, L, x, np.zeros(8, dtype=np.int64), i)
            gen, H = code_Ci(ring5, F2, L, i)
            for res in (decode(ring5, F2, L, 2, view), table.decode(view)):
                assert res.syndrome.shape == (len(H),)
                assert not res.syndrome.any()
                assert res.x_hat == x[ring5.f[i]]


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


def test_min_weight_coset_solution_rejects_wrong_syndrome_length(F2):
    # a length-1 syndrome must not be broadcast against all three rows
    with pytest.raises(ValueError):
        min_weight_coset_solution(F2, np.eye(3, dtype=np.int64),
                                  np.array([1]), 3)


def test_min_weight_coset_solution_budget(F2):
    H = np.eye(8, dtype=np.int64)
    with pytest.raises(BudgetExceeded):
        min_weight_coset_solution(F2, H, np.zeros(8, dtype=np.int64), 4,
                                  budget=10)


def test_relevant_error_set_structure(F2, pentagon, pentagon_L9):
    # the patterns receiver i cannot tell from eps: eps + span(L[Y_i]);
    # each one decodes to the same symbol
    eps = np.array([1, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.int64)
    x = np.array([1, 0, 1, 1, 0], dtype=np.int64)
    for i in range(5):
        rows = pentagon_L9[sorted(y_set(pentagon, i))]
        rel = F2.add_arr(span_matrix(F2, rows), eps[None, :])
        assert rel.shape == (2 ** len(y_set(pentagon, i)), 9)
        assert np.array_equal(rel[0], eps)  # span order starts at zero
        symbols = set()
        for v in rel:
            diff = F2.sub_arr(v, eps)
            # diff must lie in the row space of the unseen-unwanted rows
            assert rank(F2, np.vstack([rows, diff])) == rank(F2, rows)
            view = transmit(pentagon, F2, pentagon_L9, x, v, i)
            symbols.add(decode(pentagon, F2, pentagon_L9, 9, view).x_hat)
        assert len(symbols) == 1


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


@pytest.mark.parametrize("recovery", ["combiner", "eliminate"])
def test_decode_checks_the_view_once(monkeypatch, F2, k3, k3_L, recovery):
    # decode recovers through the unchecked step that the public recover
    # and recover_by_elimination share, and gives their symbol
    view = transmit(k3, F2, k3_L, [1, 0, 1], [0, 0, 1, 0], 2)
    calls = []

    def counted(check):
        def run(*args, **kw):
            calls.append(check.__name__)
            return check(*args, **kw)
        return run
    for name in ("_check_view", "_field_array"):
        monkeypatch.setattr(decoding, name, counted(getattr(decoding, name)))
    res = decode(k3, F2, k3_L, 1, view, recovery=recovery)
    assert calls.count("_check_view") == 1
    assert "_field_array" not in calls
    monkeypatch.undo()
    assert res.x_hat == 1
    assert recover(k3, F2, k3_L, view, res.e_hat) == 1
    assert recover_by_elimination(k3, F2, k3_L, view, res.e_hat) == 1


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


def test_received_word_of_the_wrong_length_is_refused(F2, k3):
    """A length-1 word against a 3-column code used to broadcast through the
    side-information strip and decode to x_hat = 0.  Every path that reads
    y against L refuses it, naming both lengths."""
    L = np.array([[1, 1, 1]] * 3, dtype=np.int64)
    view = make_view(k3, F2, 0, [1], {1: 1, 2: 0})
    dec = Decoder(k3, F2, L, 1)
    for call in (lambda: decode(k3, F2, L, 1, view),
                 lambda: decode(k3, F2, L, 1, view, recovery="eliminate"),
                 lambda: dec.decode(view),
                 lambda: recover_by_elimination(k3, F2, L, view,
                                                np.zeros(3, dtype=np.int64))):
        with pytest.raises(ValueError, match="1 symbols.*length 3"):
            call()


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


def _outcome(fn, view):
    try:
        res = fn(view)
    except (TooManyErrors, NotAnIndexCode) as exc:
        return type(exc).__name__
    return (res.x_hat, tuple(res.e_hat), tuple(res.syndrome),
            tuple(res.combiner), res.weight_searched)


def test_decoder_matches_streaming_on_every_view_gf4():
    # every received word and side assignment at every receiver, on seeded
    # random instances; some receivers have no combiner and some words no
    # leader, and the table must raise exactly where decode() raises
    F4 = make_field(4)
    rng = np.random.default_rng(31)
    raised = set()
    for _ in range(6):
        inst = random_instance(rng, 2, 3)
        N = int(rng.integers(2, 4))
        L = rng.integers(0, 4, size=(inst.n, N))
        delta = int(rng.integers(0, 2))
        table = Decoder(inst, F4, L, delta)
        for i in range(inst.m):
            X = sorted(inst.X[i])
            for y in itertools.product(range(4), repeat=N):
                for vals in itertools.product(range(4), repeat=len(X)):
                    view = make_view(inst, F4, i, y, dict(zip(X, vals)))
                    a = _outcome(lambda v: decode(inst, F4, L, delta, v),
                                 view)
                    assert _outcome(table.decode, view) == a
                    if isinstance(a, str):
                        raised.add(a)
    assert raised == {"TooManyErrors", "NotAnIndexCode"}


def test_decoder_keys_beyond_int64():
    # 2 x 40 over GF(4): the local codes have 38 or more parity checks and
    # 4**38 keys overflow int64, so the table keys are Python ints
    F4 = make_field(4)
    inst = make_instance(2, (0, 1), ({1}, set()))
    rng = np.random.default_rng(32)
    L = rng.integers(0, 4, size=(2, 40))
    table = Decoder(inst, F4, L, 1)
    for _ in range(20):
        x = rng.integers(0, 4, size=2)
        e = np.zeros(40, dtype=np.int64)
        e[rng.integers(0, 40, size=int(rng.integers(0, 3)))] = 3
        for i in range(2):
            view = transmit(inst, F4, L, x, e, i)
            assert (_outcome(table.decode, view)
                    == _outcome(lambda v: decode(inst, F4, L, 1, v), view))


def test_negative_radius_is_rejected(F2, k3, k3_L):
    view = transmit(k3, F2, k3_L, np.zeros(3, dtype=np.int64),
                    np.zeros(4, dtype=np.int64), 0)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        decode(k3, F2, k3_L, -1, view)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        Decoder(k3, F2, k3_L, -1)
    _, H = code_Ci(k3, F2, k3_L, 0)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        min_weight_coset_solution(F2, H, np.zeros(len(H), dtype=np.int64),
                                  -1)


@pytest.mark.parametrize("rows", [2, 4])
def test_every_decoder_refuses_a_matrix_with_the_wrong_row_count(F2, k3,
                                                                 k3_L, rows):
    L = np.vstack([k3_L, k3_L])[:rows]
    view = make_view(k3, F2, 0, (1, 1, 0, 1), {1: 0, 2: 1})
    e_hat = np.zeros(4, dtype=np.int64)
    calls = [lambda: Decoder(k3, F2, L, 1),
             lambda: decode(k3, F2, L, 1, view),
             lambda: recover(k3, F2, L, view, e_hat),
             lambda: recover_by_elimination(k3, F2, L, view, e_hat),
             lambda: code_Ci(k3, F2, L, 0),
             lambda: find_combiner(k3, F2, L, 0),
             lambda: transmit(k3, F2, L, [1, 0, 1], e_hat, 0)]
    for call in calls:
        with pytest.raises(ValueError, match="matrix must have 3 rows"):
            call()


def test_decode_block_refuses_blocks_of_the_wrong_width(F2, k3):
    """Length-1 words against a 3-column code used to broadcast through the
    side-information product and decode to [0, 0]; words and side rows of
    the wrong width are refused as decode() refuses a view."""
    L = np.array([[1, 1, 1]] * 3, dtype=np.int64)
    dec = Decoder(k3, F2, L, 1)
    side = np.array([[1, 0], [0, 0]])
    words = r"received words must have 3 entries each, not shape "
    with pytest.raises(ValueError, match=words + r"\(2, 1\)"):
        dec.decode_block(0, np.array([[1], [0]]), side)
    with pytest.raises(ValueError, match=words + r"\(3,\)"):
        dec.decode_block(0, np.array([1, 1, 1]), side)
    with pytest.raises(ValueError, match=r"side rows must have 2 entries "
                                         r"each, not shape \(2, 1\)"):
        dec.decode_block(0, np.ones((2, 3), dtype=np.int64), side[:, :1])
    # one side row used to stand for every word, or to raise IndexError
    with pytest.raises(ValueError, match="1 side rows for 2 received words"):
        dec.decode_block(0, np.ones((2, 3), dtype=np.int64), side[:1])
    # -1 used to decode for the last receiver, and 3 raised IndexError
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"receiver {i} out of range"):
            dec.decode_block(i, np.ones((2, 3), dtype=np.int64), side)
    Y = np.array([[1, 1, 1], [0, 1, 0]])
    views = [make_view(k3, F2, 0, y, {1: s[0], 2: s[1]})
             for y, s in zip(Y, side)]
    assert dec.decode_block(0, Y, side).tolist() == [
        dec.decode(v).x_hat for v in views]


@pytest.mark.parametrize("q, Y, side, name", [
    (4, [[0, 0, 0, -1]], None, "received words"),   # used to decode
    (4, [[0, 9, 0, 0]], None, "received words"),    # used to raise IndexError
    (2, [[5, 0, 0, 0]], None, "received words"),    # used to read as 1
    (2, [[0, 0, 0, 0]], [[7, 0]], "side rows"),     # used to read as 1
])
def test_decode_block_refuses_entries_outside_the_field(k3, k3_L, q, Y, side,
                                                        name):
    dec = Decoder(k3, make_field(q), k3_L, 1)
    match = f"{name} entries must lie in 0..{q - 1}"
    with pytest.raises(ValueError, match=match):
        dec.decode_block(0, Y, side)
    if side is None:
        with pytest.raises(ValueError, match=match):
            dec.decode_all(Y)


@pytest.mark.parametrize("i, y, side, match", [
    (-1, (1, 1, 0, 1), ((0, 1), (1, 0)), "receiver -1 out of range"),
    (3, (1, 1, 0, 1), ((0, 1), (1, 0)), "receiver 3 out of range"),
    (0, (1, 1, 0, 1), ((0, 1), (2, 1)), "cover exactly X_i"),
    (0, (1, 1, 0, 1), ((1, 0), (2, 1), (2, 1)), "cover exactly X_i"),
    (0, (1, 1, 0, 1), ((1, 0),), "cover exactly X_i"),
    (0, (1, 1, 0, 2), ((1, 0), (2, 1)), "received word entries"),
    (0, (1, 1, 0, 1), ((1, 0), (2, 3)), "side values"),
])
def test_hand_built_views_are_refused(F2, k3, k3_L, i, y, side, match):
    """A ReceiverView built by hand skips make_view: receiver -1 used to
    decode as receiver 2, receiver 3 raised IndexError, and side indices
    outside X_i were used.  Every decoder refuses what make_view refuses,
    and decodes the same view once it is mended."""
    table = Decoder(k3, F2, k3_L, 1)
    decoders = [table.decode,
                lambda v: decode(k3, F2, k3_L, 1, v),
                lambda v: decode(k3, F2, k3_L, 1, v, recovery="eliminate")]
    for fn in decoders:
        with pytest.raises(ValueError, match=match):
            fn(ReceiverView(i=i, y=y, side=side))
    if len(dict(side)) == len(side):     # a dict holds no repeated index
        with pytest.raises(ValueError, match=match):
            make_view(k3, F2, i, y, dict(side))
    good = ReceiverView(i=0, y=(1, 1, 0, 1), side=((1, 0), (2, 1)))
    assert {fn(good).x_hat for fn in decoders} == {1}


@pytest.mark.parametrize("view, match", [
    (ReceiverView(-1, (1, 1, 0, 1), ((0, 1), (1, 0))),
     "receiver -1 out of range"),
    (ReceiverView(0, (1, 1, 0, 1), ((1, 0), (2, 5))), "side values"),
    (ReceiverView(0, (1, 1, 0, 1), ((0, 1), (2, 1))), "cover exactly X_i"),
    (ReceiverView(0, (1, 1, 0), ((1, 0), (2, 1))), "has 3 symbols"),
])
def test_recover_refuses_hand_built_views(F2, k3, k3_L, view, match):
    """recover used to take a hand-built view unchecked: receiver -1
    answered as receiver 2, and a side value of 5 was used as it stood."""
    with pytest.raises(ValueError, match=match):
        recover(k3, F2, k3_L, view, np.zeros(4, dtype=np.int64))
    good = ReceiverView(0, (1, 1, 0, 1), ((1, 0), (2, 1)))
    res = decode(k3, F2, k3_L, 1, good)
    assert recover(k3, F2, k3_L, good, res.e_hat) == res.x_hat == 1


@pytest.mark.parametrize("e_hat, match", [
    ([1], "e_hat must have 4 entries"),
    ([1, 0, 0, 0, 0], "e_hat must have 4 entries"),
    ([[1, 0, 0, 0]], "e_hat must have 4 entries"),
    ([1, 0, 0, 7], "e_hat entries must lie in 0..1"),
    ([0, -1, 0, 0], "e_hat entries must lie in 0..1"),
])
def test_recover_refuses_bad_error_patterns(F2, k3, k3_L, e_hat, match):
    """Both recovery paths used to take e_hat unchecked: [1] was broadcast
    over all four symbols, and the 7 of [1, 0, 0, 7] was used as it stood.
    A pattern of N field entries still recovers as decode does."""
    view = make_view(k3, F2, 0, (1, 1, 0, 1), {1: 0, 2: 1})
    for fn in (recover, recover_by_elimination):
        with pytest.raises(ValueError, match=match):
            fn(k3, F2, k3_L, view, e_hat)
    res = decode(k3, F2, k3_L, 1, view)
    for fn in (recover, recover_by_elimination):
        assert fn(k3, F2, k3_L, view, res.e_hat) == res.x_hat
        assert fn(k3, F2, k3_L, view, res.e_hat.tolist()) == res.x_hat


def _error_alone_cases():
    """Seeded (field, instance, L, Decoder, X, E) cases of 60 broadcasts:
    lifted codes, the same with one entry redrawn, and raw random matrices
    over GF(2), GF(3), GF(4)."""
    rng = np.random.default_rng(46)
    for q in (2, 3, 4):
        F = make_field(q)
        for case in range(6):
            inst = random_instance(rng, 2, 4 if q < 4 else 3)
            if case % 3 == 2:
                L = rng.integers(0, q, size=(inst.n, int(rng.integers(2, 6))))
            else:
                L = construct_concat(inst, F, 1)[0].copy()
                if case % 3 == 1:
                    L[rng.integers(L.shape[0]),
                      rng.integers(L.shape[1])] = rng.integers(q)
            T, N = 60, L.shape[1]
            table = Decoder(inst, F, L, int(rng.integers(0, 2)))
            X = rng.integers(0, q, size=(T, inst.n))
            E = rng.integers(0, q, size=(T, N)) * (rng.random((T, N)) < 0.3)
            yield F, inst, L, table, X, E


def test_decode_block_outcome_depends_on_error_alone():
    """The estimate from x L + e is x_f(i) + (e - l(He)) u, so decoding e
    as the broadcast of x = 0 gives the offset every x gets, or -1 (no
    leader, no combiner) for every x alike."""
    seen = set()
    for F, inst, L, table, X, E in _error_alone_cases():
        Y = F.add_arr(F.matmul(X, L), E)
        for i in range(inst.m):
            side = X[:, sorted(inst.X[i])]
            offset = table.decode_block(i, E, np.zeros_like(side))
            want = np.where(offset >= 0, F.add_arr(
                X[:, inst.f[i]], np.maximum(offset, 0)), -1)
            assert table.decode_block(i, Y, side).tolist() == want.tolist()
            if not table._has_combiner[i]:
                seen.add("no combiner")
            else:
                seen |= {("no leader", "right", "wrong")[min(v + 1, 2)]
                         for v in offset.tolist()}
    assert seen == {"no combiner", "no leader", "right", "wrong"}


def test_decode_block_without_side_is_x_zero():
    # side=None decodes as if every x_j on X_i were 0, on any received word
    for F, inst, L, table, X, E in _error_alone_cases():
        Y = F.add_arr(F.matmul(X, L), E)
        for i in range(inst.m):
            zero = np.zeros((len(E), len(inst.X[i])), dtype=np.int64)
            for words in (E, Y):
                assert (table.decode_block(i, words).tolist()
                        == table.decode_block(i, words, zero).tolist())


@pytest.mark.parametrize("cells", [1, 50, fields.BLOCK_CELLS])
def test_decode_all_is_decode_block_at_every_receiver(monkeypatch, cells):
    """decode_all looks a block up at every receiver at once; column i is
    decode_block(i, Y) on the error-alone cases (no combiner, no leader,
    right and wrong answers) and on the table cases (int64 and Python-int
    keys), with tables built a few patterns at a time or in one step."""
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    cases, seen = [], set()
    for F, inst, L, table, X, E in _error_alone_cases():
        cases.append((inst, table, E, F.add_arr(F.matmul(X, L), E)))
    rng = np.random.default_rng(48)
    for F, inst, L, delta in _table_cases(rng):
        N = L.shape[1]
        E = rng.integers(0, F.q, size=(40, N)) * (rng.random((40, N)) < 0.2)
        cases.append((inst, Decoder(inst, F, L, delta), E))
    for inst, table, E, *more in cases:
        for Y in (E, *more):
            got = table.decode_all(Y)
            assert got.shape == (len(Y), inst.m)
            for i in range(inst.m):
                assert got[:, i].tolist() == table.decode_block(i, Y).tolist()
        for i, offsets in enumerate(table.decode_all(E).T.tolist()):
            if not table._has_combiner[i]:
                seen.add("no combiner")
            else:
                seen |= {("no leader", "right", "wrong")[min(v + 1, 2)]
                         for v in offsets}
        seen.add(table._table.dtype)
    assert seen == {"no combiner", "no leader", "right", "wrong",
                    np.dtype(np.int64), np.dtype(object)}


@pytest.mark.parametrize("N, dtype", [(63, np.int64), (64, object)])
def test_decoder_keys_at_the_int64_boundary(N, dtype):
    """Two receivers over GF(2) with N - 1 and N - 2 checks: every
    receiver's own keys are int64, and m q^kmax, one past the largest
    offset key, is 2^63 (int64 keys) or 2^64 (Python ints, so the own keys
    are cast before the offset is added)."""
    F2 = make_field(2)
    inst = make_instance(2, (0, 1), ({1}, set()))
    rng = np.random.default_rng(49)
    L = rng.integers(0, 2, size=(2, N))
    table = Decoder(inst, F2, L, 1)
    assert table._k.tolist() == [N - 1, N - 2]
    assert product_index(2, np.zeros((1, N - 1))).dtype == np.int64
    assert table._table.dtype == dtype
    for i in range(2):
        H, keys, first, _ = _receiver_table(table, i)
        want, want_first = np.unique(product_index(
            2, F2.matmul(table._patterns, H.T)), return_index=True)
        assert keys.tolist() == want.tolist()
        assert first.tolist() == want_first.tolist()
    assert int(table._table[-1]) >= 2 ** (N - 1)   # receiver 1's keys
    E = sparse_vectors(2, N, 2)[::70]
    X = rng.integers(0, 2, size=(len(E), 2))
    Y = F2.add_arr(F2.matmul(X, L), E)
    got = table.decode_all(E)
    for i in range(2):
        assert got[:, i].tolist() == table.decode_block(i, E).tolist()
        for t in range(len(Y)):
            view = make_view(inst, F2, i, Y[t],
                             {j: int(X[t, j]) for j in inst.X[i]})
            assert (_outcome(table.decode, view)
                    == _outcome(lambda v: decode(inst, F2, L, 1, v), view))


def _table_cases(rng):
    """Seeded (field, instance, L, delta) cases in GF(2..4), then an
    instance with X_i empty, X_i all the other messages, two receivers
    with the same (f, X) and a zero demand row of L, and a GF(4) code
    whose local codes have 31 and 32 parity checks, so one receiver's keys
    are int64 and the other's, past 2^63, Python ints."""
    for q in (2, 3, 4):
        F = make_field(q)
        for _ in range(3):
            inst = random_instance(rng, 2, 4)
            N = int(rng.integers(2, 7))
            yield (F, inst, rng.integers(0, q, size=(inst.n, N)),
                   int(rng.integers(0, 3)))
    inst = make_instance(4, (0, 1, 1, 2, 3),
                         ({1, 2, 3}, set(), set(), {0, 1}, {0, 1, 2}))
    L = rng.integers(0, 3, size=(4, 5))
    L[2] = 0
    yield make_field(3), inst, L, 1
    inst = make_instance(2, (0, 1), ({1}, set()))
    yield make_field(4), inst, rng.integers(1, 4, size=(2, 33)), 1


def _receiver_table(table, i):
    """Receiver i's part of the stacked table: its parity check, its own
    keys (the offset taken off), their leaders' rows in the shared
    patterns and the leaders' shares l u of the symbol."""
    owner = np.searchsorted(table._offset, table._table, side="right") - 1
    mine = owner == i
    return (table._check(i), table._table[mine] - table._offset[i],
            table._leaders[mine], table._shares[mine])


def _decoder_tables(seed):
    """Every receiver's keys, leaders and decode_block output on a seeded
    block of light-error broadcasts, over the _table_cases; each
    receiver's H, combiner, keys and leaders are checked against
    code_Ci, find_combiner and a np.unique of its own syndrome keys, and
    the keys' dtype against m q^kmax."""
    rng = np.random.default_rng(seed)
    out, seen = [], set()
    for F, inst, L, delta in _table_cases(rng):
        q, N = F.q, L.shape[1]
        table = Decoder(inst, F, L, delta)
        X = rng.integers(0, q, size=(40, inst.n))
        E = rng.integers(0, q, size=(40, N)) * (rng.random((40, N)) < 0.2)
        Y = F.add_arr(F.matmul(X, L), E)
        kmax = max(len(code_Ci(inst, F, L, i)[1]) for i in range(inst.m))
        assert table._table.dtype == (
            np.int64 if inst.m * q ** kmax <= 2 ** 63 else object)
        seen.add(table._table.dtype)
        for i in range(inst.m):
            H, keys, first, shares = _receiver_table(table, i)
            assert np.array_equal(H, code_Ci(inst, F, L, i)[1])
            u = table._U[i]
            try:
                want_u, _ = find_combiner(inst, F, L, i)
            except NotAnIndexCode:
                assert not table._has_combiner[i] and not u.any()
                seen.add("no combiner")
            else:
                assert table._has_combiner[i]
                assert u.tolist() == want_u.tolist()
            want, want_first = np.unique(product_index(
                q, F.matmul(table._patterns, H.T)), return_index=True)
            assert keys.tolist() == want.tolist()
            assert first.tolist() == want_first.tolist()
            assert shares.tolist() == F.matvec(table._patterns[first],
                                               u).tolist()
            side = X[:, sorted(inst.X[i])]
            out.append((keys.tolist(), table._patterns[first].tolist(),
                        table.decode_block(i, Y, side).tolist()))
    assert seen == {"no combiner", np.dtype(np.int64), np.dtype(object)}
    return out


@pytest.mark.parametrize("cells", [1, 50, fields.BLOCK_CELLS])
def test_decoder_blocks_keep_the_tables(monkeypatch, cells):
    """Receivers eliminated and keyed a few at a time, and keys computed a
    few patterns at a time, give the tables and block decodes of a build
    that does each in one stack."""
    monkeypatch.setattr(fields, "BLOCK_CELLS", 1 << 40)
    whole = _decoder_tables(43)
    assert any(x >= 0 for *_, xs in whole for x in xs)
    assert any(x < 0 for *_, xs in whole for x in xs)
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    assert _decoder_tables(43) == whole


def test_decoder_leader_is_the_first_pattern_of_its_syndrome(F3):
    # brute force: walk sparse_vectors order and keep each syndrome's first
    # pattern; the table must hold exactly those, one per syndrome
    rng = np.random.default_rng(44)
    patterns = sparse_vectors(3, 5, 2)
    for _ in range(4):
        inst = random_instance(rng, 3, 4)
        L = rng.integers(0, 3, size=(inst.n, 5))
        table = Decoder(inst, F3, L, 2)
        for i in range(inst.m):
            H, keys, first, _ = _receiver_table(table, i)
            firsts = {}
            for at, e in enumerate(patterns):
                firsts.setdefault(tuple(F3.matvec(H, e)), at)
            assert len(keys) == len(firsts)
            for at in first:
                assert firsts[tuple(F3.matvec(H, patterns[at]))] == at


def test_decoder_hands_out_copies_of_its_tables(F2, k3, k3_L):
    # writing to a returned combiner changes no later decode, and the
    # table's own arrays refuse writes
    table = Decoder(k3, F2, k3_L, 1)
    view = transmit(k3, F2, k3_L, [1, 0, 1], [0, 0, 0, 0], 0)
    res = table.decode(view)
    assert res.x_hat == 1
    res.combiner[:] = 0
    assert table.decode(view).x_hat == 1
    assert table.decode_block(0, [view.y], [[0, 1]]).tolist() == [1]
    arrays = [A for A in vars(table).values() if isinstance(A, np.ndarray)]
    for A in arrays:
        with pytest.raises(ValueError):
            A[...] = 0


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
