"""Instance structure, J/I enumeration, independence numbers."""

import inspect
import itertools

import numpy as np
import pytest

from indexcode.errors import BudgetExceeded, InvalidInstance
from indexcode.fields import make_field
from indexcode.instances import (
    generalized_independence_number,
    in_J,
    instance_from_json,
    instance_hash,
    instance_to_json,
    iter_I,
    iter_J,
    make_instance,
    odd_cycle_complement_instance,
    odd_cycle_instance,
    validate,
    y_set,
)

from conftest import (graph_alpha, is_symmetric, random_instance,
                      random_symmetric_instance, side_info_graph)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_rejects_owning_own_demand():
    with pytest.raises(InvalidInstance):
        make_instance(3, (0,), ({0, 1},))


def test_validate_rejects_out_of_range():
    with pytest.raises(InvalidInstance):
        make_instance(3, (3,), ({0},))
    with pytest.raises(InvalidInstance):
        make_instance(3, (0,), ({5},))
    with pytest.raises(InvalidInstance):
        make_instance(0, (), ())
    with pytest.raises(InvalidInstance):
        make_instance(2, (), ())  # no receivers


def test_y_set_golden(k3, ring5, pentagon):
    for i in range(3):
        assert y_set(k3, i) == frozenset()
    assert [sorted(y_set(ring5, i)) for i in range(5)] == \
        [[4], [0], [1], [2], [3]]
    assert [sorted(y_set(pentagon, i)) for i in range(5)] == \
        [[2, 3], [3, 4], [0, 4], [0, 1], [1, 2]]


# ---------------------------------------------------------------------------
# J and I enumeration
# ---------------------------------------------------------------------------


def test_iter_J_k3(k3):
    assert iter_J(k3) == [(0,), (1,), (2,)]


def test_iter_J_ring5_golden(ring5):
    assert iter_J(ring5) == [
        (0,), (1,), (2,), (3,), (4,),
        (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


def test_iter_J_pentagon_golden(pentagon):
    # 20 raw supports dedupe to 15
    assert iter_J(pentagon) == [
        (0,), (1,), (2,), (3,), (4,),
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
        (0, 1, 3), (0, 2, 3), (0, 2, 4), (1, 2, 4), (1, 3, 4)]


def test_in_J_agrees_with_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(40):
        inst = random_instance(rng, n_hi=5)
        listed = set(iter_J(inst))
        for r in range(1, inst.n + 1):
            for K in itertools.combinations(range(inst.n), r):
                assert in_J(inst, K) == (K in listed)
        assert not in_J(inst, ())


def _J_by_definition(inst, K):
    """Membership straight from the definition, on frozensets."""
    K = frozenset(K)
    return any(inst.f[i] in K and K - {inst.f[i]} <= y_set(inst, i)
               for i in range(inst.m))


def test_in_J_matches_the_definition_on_any_indices():
    # repeated indices count once; an index outside 0..n-1, negative ones
    # included, keeps K out of J, and so does the empty K
    rng = np.random.default_rng(18)
    for _ in range(100):
        inst = random_instance(rng, n_lo=1, n_hi=8, m_hi=10)
        assert not in_J(inst, ()) and not in_J(inst, [])
        for _ in range(40):
            size = int(rng.integers(1, 6))
            K = tuple(int(v) for v in rng.integers(-3, inst.n + 3, size))
            assert in_J(inst, K) == _J_by_definition(inst, K), K
            inside = tuple(v % inst.n for v in K)
            assert in_J(inst, inside) == _J_by_definition(inst, inside)
        for v in (-1, inst.n):
            assert not in_J(inst, (inst.f[0], v))


def test_iter_J_cap():
    inst = make_instance(24, (0,), (frozenset(),))
    with pytest.raises(BudgetExceeded):
        iter_J(inst, cap=1000)


def test_iter_I_k3_gf2(k3, F2):
    vecs = [tuple(z) for z in iter_I(k3, F2)]
    assert vecs == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_iter_I_supports_and_counts(ring5, pentagon, F2, F3):
    assert sum(1 for _ in iter_I(pentagon, F2)) == 15
    # sum over supports of (q-1)^|K|
    assert sum(1 for _ in iter_I(pentagon, F3)) == 5 * 2 + 5 * 4 + 5 * 8
    for z in iter_I(ring5, F3):
        support = tuple(np.nonzero(z)[0])
        assert in_J(ring5, support)


def test_iter_I_value_order(ring5, F3):
    vecs = [tuple(z) for z in iter_I(ring5, F3)]
    # singletons first, ascending values
    assert vecs[0] == (1, 0, 0, 0, 0)
    assert vecs[1] == (2, 0, 0, 0, 0)
    # first pair support (0,1): odometer with last position fastest
    i = vecs.index((1, 1, 0, 0, 0))
    assert vecs[i:i + 4] == [
        (1, 1, 0, 0, 0), (1, 2, 0, 0, 0), (2, 1, 0, 0, 0), (2, 2, 0, 0, 0)]


def test_iter_I_is_an_odometer_over_iter_J(F2, F3):
    assert inspect.isgeneratorfunction(iter_I)
    rng = np.random.default_rng(21)
    for _ in range(30):
        inst = random_instance(rng, n_hi=5)
        for field in (F2, F3, make_field(4)):
            want = []
            for K in iter_J(inst):
                for vals in itertools.product(range(1, field.q),
                                              repeat=len(K)):
                    z = [0] * inst.n
                    for pos, v in zip(K, vals):
                        z[pos] = v
                    want.append(z)
            assert [z.tolist() for z in iter_I(inst, field)] == want


def test_membership_of_I_characterises_receivers(ring5, F3):
    # z is listed iff some receiver demands a nonzero coordinate and owns
    # no nonzero coordinate -- check the defining property directly
    listed = {tuple(z) for z in iter_I(ring5, F3)}
    for raw in itertools.product(range(3), repeat=5):
        z = np.array(raw)
        expect = any(
            z[ring5.f[i]] != 0 and not any(z[x] for x in ring5.X[i])
            for i in range(ring5.m))
        assert (tuple(raw) in listed) == expect


# ---------------------------------------------------------------------------
# generalized independence number
# ---------------------------------------------------------------------------


def _alpha_oracle(inst):
    best = 0
    for r in range(1, inst.n + 1):
        for H in itertools.combinations(range(inst.n), r):
            if all(in_J(inst, K)
                   for s in range(1, r + 1)
                   for K in itertools.combinations(H, s)):
                best = max(best, r)
    return best


def test_alpha_goldens(k3, ring5, pentagon):
    assert generalized_independence_number(k3) == (1, (0,))
    assert generalized_independence_number(ring5) == (2, (0, 1))
    alpha, wit = generalized_independence_number(pentagon)
    assert alpha == 2 and wit == (0, 2)


def test_alpha_against_oracle_and_hereditary():
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = random_instance(rng, n_hi=6)
        alpha, wit = generalized_independence_number(inst)
        assert alpha == _alpha_oracle(inst)
        assert len(wit) == alpha
        for r in range(1, len(wit) + 1):
            for K in itertools.combinations(wit, r):
                assert in_J(inst, K)


def test_alpha_witness_is_the_lexicographically_least_maximum():
    rng = np.random.default_rng(1818)
    for _ in range(200):
        inst = random_instance(rng, n_lo=1, n_hi=8, m_hi=10)
        n = inst.n
        # good[mask]: every nonempty subset of mask is in J, built up from
        # the masks one element smaller
        good = [True] + [False] * ((1 << n) - 1)
        for mask in range(1, 1 << n):
            H = [v for v in range(n) if mask >> v & 1]
            good[mask] = _J_by_definition(inst, H) and all(
                good[mask & ~(1 << v)] for v in H)
        alpha = max(bin(mask).count("1") for mask in range(1 << n)
                    if good[mask])
        least = next(H for H in itertools.combinations(range(n), alpha)
                     if good[sum(1 << v for v in H)])
        assert generalized_independence_number(inst) == (alpha, least)


def test_alpha_requires_every_subset():
    # the only receiver owns nothing and demands 0; {1} never appears in J,
    # so {0,1} is not a witness even though it is itself in J
    inst = make_instance(2, (0,), (frozenset(),))
    assert iter_J(inst) == [(0,), (0, 1)]
    assert generalized_independence_number(inst) == (1, (0,))


# ---------------------------------------------------------------------------
# graph views
# ---------------------------------------------------------------------------


def test_side_info_graph_requires_bijection():
    inst = make_instance(3, (0, 0), ({1}, {2}))
    with pytest.raises(InvalidInstance):
        side_info_graph(inst)


def test_graph_views_golden(k3, ring5, pentagon):
    gk3 = side_info_graph(k3)
    assert is_symmetric(gk3)
    assert graph_alpha(gk3) == 1

    g5 = side_info_graph(ring5)
    assert not is_symmetric(g5)

    gp = side_info_graph(pentagon)
    assert is_symmetric(gp)
    assert graph_alpha(gp) == 2


def test_odd_cycles():
    for l in (2, 3, 4):
        inst = odd_cycle_instance(l)
        G = side_info_graph(inst)
        assert is_symmetric(G)
        assert graph_alpha(G) == l
        alpha, _ = generalized_independence_number(inst)
        assert alpha == l


def test_odd_cycle_complement_structure():
    inst = odd_cycle_complement_instance(2)
    assert [sorted(x) for x in inst.X] == \
        [[2, 3], [3, 4], [0, 4], [0, 1], [1, 2]]
    G = side_info_graph(inst)
    assert is_symmetric(G)
    assert graph_alpha(G) == 2


def test_symmetric_instances_match_graph_alpha():
    rng = np.random.default_rng(99)
    for _ in range(30):
        inst = random_symmetric_instance(rng, n_hi=6)
        alpha, _ = generalized_independence_number(inst)
        assert alpha == graph_alpha(side_info_graph(inst))


# ---------------------------------------------------------------------------
# JSON round trip and hashing
# ---------------------------------------------------------------------------


def test_json_roundtrip(pentagon, F7):
    text = instance_to_json(pentagon, F7)
    inst, q = instance_from_json(text)
    assert inst == pentagon and q == 7
    text2 = instance_to_json(pentagon)
    inst2, q2 = instance_from_json(text2)
    assert inst2 == pentagon and q2 is None


def test_json_one_based_on_disk(k3):
    import json
    doc = json.loads(instance_to_json(k3))
    assert doc["f"] == [1, 2, 3]
    assert doc["X"][0] == [2, 3]


def test_json_validation():
    import json
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps(
            {"m": 2, "n": 3, "f": [1], "X": [[2]]}))
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps(
            {"n": 3, "f": [1], "X": [[2]], "q": 4, "p": 2, "e": 1}))


@pytest.mark.parametrize("change", [
    {"f": [1.5, 2, 3]}, {"f": [True, 2, 3]}, {"f": ["2", 3, 1]},
    {"f": 1}, {"X": [[2], 3, [1]]}, {"X": [[2.0], [3], [1]]},
    {"X": [[2], [False], [1]]}, {"X": {"1": [2]}}, {"n": 3.0},
    {"n": True}, {"m": "3"}, {"q": "2"}, {"q": 2.0}, {"p": None},
    {"e": [1]},
])
def test_json_entries_must_be_integers(change):
    import json
    doc = {"n": 3, "f": [1, 2, 3], "X": [[2], [3], [1]], "m": 3,
           "q": 2, "p": 2, "e": 1}
    instance_from_json(json.dumps(doc))   # the unchanged document loads
    with pytest.raises(InvalidInstance):
        instance_from_json(json.dumps({**doc, **change}))


@pytest.mark.parametrize("text", ["[1, 2, 3]", "3", '"k3"', "null"])
def test_json_document_must_be_an_object(text):
    with pytest.raises(InvalidInstance):
        instance_from_json(text)


def test_instance_hash_stable_and_field_free(k3):
    h1 = instance_hash(k3)
    assert h1 == instance_hash(make_instance(3, (0, 1, 2),
                                             ({2, 1}, {0, 2}, {0, 1})))
    assert len(h1) == 64
    other = make_instance(3, (0, 1, 2), ({1}, {0, 2}, {0, 1}))
    assert instance_hash(other) != h1


def test_instance_hash_pinned(k3):
    # certificates embed the digest, so it must not move
    assert instance_hash(k3) == ("fc945c44fea19e9674a1c4df769af2dc"
                                 "d18631168e9fd063120a822ded842922")
    assert instance_hash(odd_cycle_instance(2)) == (
        "308b4585e5aceae02af806e83c83a3e4a3f3d549a992062f672471fa42791407")


def test_validate_is_exported_and_passes(k3):
    validate(k3)
