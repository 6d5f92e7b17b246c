"""The column-multiset DFS: pinned golden work and a brute-force oracle."""

import functools
import hashlib
import itertools

import numpy as np
import pytest

from indexcode import search
from indexcode.bounds import nq_kd
from indexcode.codes import min_rank, search_min_length
from indexcode.errors import BudgetExceeded
from indexcode.fields import make_field
from indexcode.instances import make_instance
from indexcode.search import (build_hits, min_length_search,
                              projective_index, projective_reps)
from indexcode.static_codes import static_bounds

SEARCH_DIGEST = ("56bc749ece199fc9ecce0e534f4211131"
                 "be5654d05a77b1b7709cd6f7e0c367b")
SEARCH_STOPS = 36
WIDE_DIGEST = ("e5bfc76fbf3cd6b40574421527dbc74b"
               "7c283c4c5441f6314b347b4acf8beaab")
WIDE_STOPS = 40


# ---------------------------------------------------------------------------
# golden work: the node counts the benchmark baseline records
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_golden_search_work(F2, pentagon, ring5):
    for inst, n_opt, nodes, refuted in (
            (pentagon, 9, 149_103, {5: 0, 6: 31, 7: 31, 8: 10_688}),
            (ring5, 8, 26_693, {5: 0, 6: 31, 7: 31})):
        n_max = nq_kd(2, min_rank(inst, F2).kappa, 5).N
        rep = search_min_length(inst, F2, 2, n_max)
        assert (rep.n_opt, rep.nodes, rep.refuted) == (n_opt, nodes, refuted)


# one permutation for each of the pentagon's 12 distinct relabelings, the
# first in lex order; per relabeling, the pentagon's nodes, the nodes that
# refute N=8 and its solution (N=9), then ring5's nodes and solution (N=8)
RELABELED_WORK = {
    "01234": (149_103, 10_688, (2, 5, 6, 11, 16, 23, 24, 29, 30),
              26_693, (10, 10, 10, 20, 20, 20, 29, 29)),
    "01243": (139_099, 10_609, (2, 4, 6, 11, 17, 23, 25, 28, 30),
              26_788, (10, 10, 10, 20, 20, 20, 29, 29)),
    "01324": (218_595, 10_799, (4, 5, 6, 9, 16, 23, 24, 29, 30),
              25_193, (10, 10, 10, 21, 21, 21, 28, 28)),
    "01342": (138_201, 10_489, (2, 4, 6, 9, 19, 23, 25, 28, 30),
              30_027, (12, 12, 12, 18, 18, 18, 29, 29)),
    "01423": (218_369, 10_758, (4, 5, 6, 8, 17, 23, 24, 29, 30),
              25_343, (10, 10, 10, 20, 20, 20, 29, 29)),
    "01432": (148_046, 10_494, (2, 5, 6, 8, 19, 23, 24, 29, 30),
              30_088, (12, 12, 12, 18, 18, 18, 29, 29)),
    "02134": (131_105, 9_327, (2, 9, 10, 11, 16, 19, 20, 29, 30),
              22_336, (6, 6, 6, 24, 24, 24, 29, 29)),
    "02143": (127_163, 9_253, (2, 8, 10, 11, 17, 19, 21, 28, 30),
              22_390, (6, 6, 6, 24, 24, 24, 29, 29)),
    "02314": (196_520, 9_307, (5, 8, 9, 10, 16, 19, 20, 29, 30),
              21_761, (6, 6, 6, 25, 25, 25, 28, 28)),
    "02413": (175_204, 9_264, (4, 8, 9, 10, 17, 19, 20, 29, 30),
              21_976, (6, 6, 6, 24, 24, 24, 29, 29)),
    "03124": (182_544, 9_475, (4, 9, 11, 12, 16, 17, 18, 29, 30),
              21_744, (6, 6, 6, 24, 24, 24, 29, 29)),
    "03214": (198_565, 9_478, (5, 8, 11, 12, 16, 17, 18, 29, 30),
              21_617, (6, 6, 6, 25, 25, 25, 28, 28)),
}


def _relabel(inst, perm):
    """The same instance with message j renamed perm[j]."""
    return make_instance(inst.n, [perm[f] for f in inst.f],
                         [{perm[j] for j in X} for X in inst.X])


def _check_relabeled_work(F2, pentagon, ring5):
    # the benchmark searches every distinct relabeling of the pentagon, and
    # ring5 under the same permutations; labels change the tree, not N
    first = {}
    for perm in itertools.permutations(range(5)):
        inst = _relabel(pentagon, perm)
        first.setdefault(frozenset(zip(inst.f, inst.X)), perm)
    assert ["".join(map(str, p)) for p in first.values()] == \
        list(RELABELED_WORK)
    for perm, work in zip(first.values(), RELABELED_WORK.values()):
        p_nodes, p_last, p_sol, r_nodes, r_sol = work
        for inst, n_max, nodes, refuted, sol in (
                (pentagon, 10, p_nodes, {5: 0, 6: 31, 7: 31, 8: p_last},
                 p_sol),
                (ring5, 8, r_nodes, {5: 0, 6: 31, 7: 31}, r_sol)):
            rep = search_min_length(_relabel(inst, perm), F2, 2, n_max)
            assert (rep.n_opt, rep.nodes, rep.refuted) == \
                (len(sol), nodes, refuted)
            assert tuple(projective_index(F2, rep.L.T)) == sol


@pytest.mark.slow
def test_relabeled_search_work(F2, pentagon, ring5):
    _check_relabeled_work(F2, pentagon, ring5)


@pytest.mark.slow
def test_golden_table_work():
    e = nq_kd(2, 4, 5, mode="search")
    assert (e.N, e.nodes) == (11, 65_515)
    rep = static_bounds(6, 3, 1, 3)
    assert (rep.alpha_entry.nodes, rep.upper_entry.nodes) == (505, 165_262)


@pytest.mark.slow
def test_budget_counts_the_nodes_of_one_length():
    # N=10 is refuted in exactly 40,236 nodes: a budget of that many passes
    # every length, one node fewer stops at N=10 with N<=9 already refuted
    e = nq_kd(2, 4, 5, mode="search", budget=40_236)
    assert (e.N, e.refuted) == (11, {5: 0, 6: 15, 7: 15, 8: 15, 9: 15,
                                     10: 40_236})
    with pytest.raises(BudgetExceeded, match=r"at length 10") as stop:
        nq_kd(2, 4, 5, mode="search", budget=40_235)
    assert stop.value.refuted == {5: 0, 6: 15, 7: 15, 8: 15, 9: 15}


def test_budget_stop_at_a_one_slot_node(F2, ring5):
    # N=8 takes exactly 26,631 nodes, the last of them a child with one slot
    # left, which the two-slot frame above it solves and counts
    rep = search_min_length(ring5, F2, 2, 8, budget=26_631)
    assert (rep.n_opt, rep.nodes) == (8, 26_693)
    with pytest.raises(BudgetExceeded, match=r"at length 8") as stop:
        search_min_length(ring5, F2, 2, 8, budget=26_630)
    assert stop.value.refuted == {5: 0, 6: 31, 7: 31}


# ---------------------------------------------------------------------------
# seeded digest: the whole search, budget stops included
# ---------------------------------------------------------------------------


def _seeded_search_outcomes():
    """min_length_search on 200 seeded random cases: q in {2,3,4,5}, d in
    1..5, budgets from 5 to 20,000 nodes.  Each outcome is (n_opt, solution,
    nodes, refuted), or for a budget stop its message and refuted map."""
    rng = np.random.default_rng(2026)
    dims = {2: (3, 4, 5), 3: (2, 3), 4: (2, 3), 5: (2, 3)}
    out = []
    for _ in range(200):
        q = int(rng.choice(list(dims)))
        k = int(rng.choice(dims[q]))
        field = make_field(q)
        columns = projective_reps(field, k)
        vectors = list(itertools.product(range(q), repeat=k))[1:]
        size = int(rng.integers(len(vectors) // 2, len(vectors) + 1))
        targets = [vectors[i] for i in sorted(
            rng.choice(len(vectors), size, replace=False))]
        d = int(rng.integers(1, 6))
        n_max = d + int(rng.integers(0, 8))
        budget = int(10 ** rng.uniform(0.5, 4.7))
        try:
            res = min_length_search(field, columns, targets, d, n_max,
                                    budget=budget)
        except BudgetExceeded as exc:
            out.append((str(exc), sorted(exc.refuted.items())))
        else:
            out.append((res.n_opt, res.solution, res.nodes,
                        sorted(res.refuted.items())))
    return out


def _check_seeded_digest():
    # any change to a tree, a solution, a refutation or a stop point moves it
    out = _seeded_search_outcomes()
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    stops = sum(isinstance(o[0], str) for o in out)
    assert (digest, stops) == (SEARCH_DIGEST, SEARCH_STOPS)


def test_seeded_search_digest():
    _check_seeded_digest()


def _seeded_wide_outcomes():
    """min_length_search on 60 seeded cases with 40 to 127 targets, so each
    packed deficit level spans several int digits: GF(2) with k in {6, 7},
    GF(3) with k in {4, 5}, d in 1..6, budgets from 100 to 20,000 nodes.
    Outcomes as in _seeded_search_outcomes."""
    rng = np.random.default_rng(2028)
    dims = ((2, 6), (2, 7), (3, 4), (3, 5))
    out = []
    for _ in range(60):
        q, k = dims[int(rng.integers(len(dims)))]
        field = make_field(q)
        columns = projective_reps(field, k)
        vectors = list(itertools.product(range(q), repeat=k))[1:]
        size = int(rng.integers(40, min(len(vectors), 127) + 1))
        targets = [vectors[i] for i in sorted(
            rng.choice(len(vectors), size, replace=False))]
        d = int(rng.integers(1, 7))
        n_max = d + int(rng.integers(2, 10))
        budget = int(10 ** rng.uniform(2, 4.3))
        try:
            res = min_length_search(field, columns, targets, d, n_max,
                                    budget=budget)
        except BudgetExceeded as exc:
            out.append((str(exc), sorted(exc.refuted.items())))
        else:
            out.append((res.n_opt, res.solution, res.nodes,
                        sorted(res.refuted.items())))
    return out


@pytest.mark.slow
def test_seeded_wide_search_digest():
    # wide target sets: the deficit levels of a node are ints of many digits
    out = _seeded_wide_outcomes()
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    stops = sum(isinstance(o[0], str) for o in out)
    assert (digest, stops) == (WIDE_DIGEST, WIDE_STOPS)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _first_multiset(q, columns, targets, d, n):
    """Lex-least non-decreasing n-tuple of column indices that hits every
    target at least d times, by enumeration (prime q only)."""
    hits = [[sum(a * b for a, b in zip(z, c)) % q != 0 for z in targets]
            for c in columns]
    for combo in itertools.combinations_with_replacement(range(len(columns)),
                                                         n):
        if all(sum(hits[c][j] for c in combo) >= d
               for j in range(len(targets))):
            return combo
    return None


# node count of each random case: a kernel rewrite must keep every tree
BRUTE_FORCE_NODES = {
    (2, 3): [2, 1, 13, 2, 1, 3, 2, 1, 2, 3, 3, 3, 1, 3, 2, 7, 1, 50, 0, 2, 2,
             0, 12, 57, 2],
    (3, 2): [4, 3, 2, 2, 2, 2, 2, 4, 3, 0, 4, 3, 1, 2, 3, 1, 1, 3, 0, 2, 2, 3,
             0, 1, 3],
}


def _check_brute_force(q, k):
    field = make_field(q)
    columns = projective_reps(field, k)
    vectors = list(itertools.product(range(q), repeat=k))[1:]
    rng = np.random.default_rng(10 * q + k)
    nodes = []
    for _ in range(25):
        size = int(rng.integers(1, len(vectors) + 1))
        targets = [vectors[i] for i in sorted(
            rng.choice(len(vectors), size, replace=False))]
        d = int(rng.integers(1, 4))
        n_max = int(rng.integers(d, 7))
        res = min_length_search(field, columns, targets, d, n_max)
        nodes.append(res.nodes)
        stop = n_max + 1 if res.n_opt is None else res.n_opt
        assert set(res.refuted) == set(range(d, stop))
        for n in res.refuted:
            assert _first_multiset(q, columns, targets, d, n) is None
        if res.n_opt is not None:
            assert res.solution == _first_multiset(q, columns, targets, d,
                                                   res.n_opt)
    assert nodes == BRUTE_FORCE_NODES[q, k]


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2)])
def test_min_length_search_matches_brute_force(q, k):
    _check_brute_force(q, k)


@pytest.fixture(params=[0, 8])
def cover_cap(request, monkeypatch):
    """The best-coverage memo capped at 0 entries (every scan misses) or 8
    (it fills in the first few frames and then stops storing)."""
    monkeypatch.setattr(search, "COVER_CAP", request.param)


@pytest.mark.slow
@pytest.mark.usefixtures("cover_cap")
def test_capped_cover_memo_keeps_every_tree(F2, pentagon, ring5):
    # a scan that outgrows the memo's cap stores no more, and its later
    # frames run the full scan: the same trees, solutions and stops
    _check_seeded_digest()
    for q, k in BRUTE_FORCE_NODES:
        _check_brute_force(q, k)
    _check_relabeled_work(F2, pentagon, ring5)


def _random_targets(rng, q, k):
    vectors = list(itertools.product(range(q), repeat=k))[1:]
    size = int(rng.integers(1, len(vectors) + 1))
    return [vectors[i] for i in sorted(
        rng.choice(len(vectors), size, replace=False))]


def _check_budget_boundary(field, columns, targets, d, n_max):
    """Re-run the search at each length's node count c and at c - 1: a
    budget b stops at the first length that takes more than b nodes, with
    the lengths before it refuted as in the full run, and otherwise returns
    the full run's result.  Returns the node count of each length."""
    res = min_length_search(field, columns, targets, d, n_max)
    counts = dict(res.refuted)
    if res.n_opt is not None:
        counts[res.n_opt] = res.nodes - sum(res.refuted.values())
    for c in counts.values():
        for budget in (c, c - 1) if c else (c,):
            stop = next((n for n, c_n in counts.items() if c_n > budget),
                        None)
            if stop is None:
                assert min_length_search(field, columns, targets, d, n_max,
                                         budget=budget) == res
                continue
            with pytest.raises(BudgetExceeded,
                               match=rf"{budget} exhausted at length "
                                     rf"{stop};") as exc:
                min_length_search(field, columns, targets, d, n_max,
                                  budget=budget)
            assert exc.value.refuted == {n: c_n for n, c_n in counts.items()
                                         if n < stop}
    return counts


def test_budget_stops_at_each_length_boundary():
    # the budget is met after every node: a child when it is tested, a
    # solving pair's last column and a failed frame's dead alike
    rng = np.random.default_rng(2027)
    dims = {2: (3, 4, 5), 3: (2, 3), 4: (2, 3), 5: (2, 3)}
    checked = 0
    for _ in range(60):
        q = int(rng.choice(list(dims)))
        k = int(rng.choice(dims[q]))
        field = make_field(q)
        columns = projective_reps(field, k)
        vectors = list(itertools.product(range(q), repeat=k))[1:]
        size = int(rng.integers(len(vectors) // 2, len(vectors) + 1))
        targets = [vectors[i] for i in sorted(
            rng.choice(len(vectors), size, replace=False))]
        d = int(rng.integers(1, 6))
        n_max = d + int(rng.integers(0, 8))
        try:  # keep the case small
            min_length_search(field, columns, targets, d, n_max,
                              budget=20_000)
        except BudgetExceeded:
            continue
        _check_budget_boundary(field, columns, targets, d, n_max)
        checked += 1
    assert checked >= 50


def _last_column_is_dead(field, columns, targets, d, solution):
    """Whether the solution's last type fails the union rule in the frame
    with two slots left: some target still deficient there is hit by no
    type at or after it."""
    masks = build_hits(field, columns, targets)
    hits = [sum(masks[t] >> j & 1 for t in solution[:-2])
            for j in range(len(targets))]
    deficient = sum(1 << j for j, h in enumerate(hits) if h < d)
    reach = functools.reduce(int.__or__, masks[solution[-1]:], 0)
    return deficient & ~reach != 0


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2)])
def test_last_column_may_fail_the_union_rule(q, k):
    """A two-slot frame looks for the last column in its whole pool, the
    types that fail the union rule (its dead) included: a grandchild's
    deficient set can lie inside the reach of such a type.  The sample
    must hold solutions that end on one."""
    field = make_field(q)
    columns = projective_reps(field, k)
    rng = np.random.default_rng(50 + 10 * q + k)
    dead_last = 0
    for _ in range(30):
        targets = _random_targets(rng, q, k)
        d = int(rng.integers(1, 4))
        res = min_length_search(field, columns, targets, d, d + 5)
        for n in res.refuted:
            assert _first_multiset(q, columns, targets, d, n) is None
        if res.n_opt is None:
            continue
        assert res.solution == _first_multiset(q, columns, targets, d,
                                               res.n_opt)
        dead_last += res.n_opt >= 2 and _last_column_is_dead(
            field, columns, targets, d, res.solution)
    assert dead_last >= 2


@pytest.mark.parametrize("q,k,targets,d,n_opt,solution,nodes", [
    # d = 1, length 2: the root is a two-slot frame with no tight set
    (2, 2, [(0, 1), (1, 0), (1, 1)], 1, 2, (0, 1), 2),
    (3, 2, list(itertools.product(range(3), repeat=2))[1:], 1, 2,
     (0, 1), 2),
    # n = d = 2: the root's tight set is every target
    (2, 2, [(1, 0), (1, 1)], 2, 2, (1, 1), 2),
    (2, 2, [(0, 1), (1, 0), (1, 1)], 2, 3, (0, 1, 2), 3),
    # d = 1 with two-slot frames below the root, tight set empty
    (2, 3, list(itertools.product(range(2), repeat=3))[1:], 1, 3,
     (0, 1, 3), 10),
    (2, 4, list(itertools.product(range(2), repeat=4))[1:], 1, 4,
     (0, 1, 3, 7), 133),
])
def test_two_slot_edge_cases(q, k, targets, d, n_opt, solution, nodes):
    field = make_field(q)
    columns = projective_reps(field, k)
    res = min_length_search(field, columns, targets, d, n_opt)
    assert (res.n_opt, res.solution, res.nodes) == (n_opt, solution, nodes)
    assert set(res.refuted) == set(range(d, n_opt))
    for n in res.refuted:
        assert _first_multiset(q, columns, targets, d, n) is None
    assert res.solution == _first_multiset(q, columns, targets, d, n_opt)
    _check_budget_boundary(field, columns, targets, d, n_opt)


def test_search_rejects_bad_counts(F2, pentagon):
    # before, delta = -1 "refuted" every length with a garbage search
    columns = projective_reps(F2, 2)
    with pytest.raises(ValueError):
        min_length_search(F2, columns, columns, 0, 3)
    with pytest.raises(ValueError, match="at least one target"):
        min_length_search(F2, columns, [], 1, 3)
    with pytest.raises(ValueError, match="at least one column"):
        min_length_search(F2, [], columns, 1, 3)
    with pytest.raises(ValueError, match="delta must be >= 0"):
        search_min_length(pentagon, F2, -1, 3)


def test_search_rejects_columns_and_targets_of_different_widths(F2):
    # before, numpy's "shape mismatch" surfaced from inside build_hits
    with pytest.raises(ValueError, match="columns have width 3 but targets "
                                         "width 2"):
        min_length_search(F2, projective_reps(F2, 3), [[1, 0]], 1, 3)
    with pytest.raises(ValueError, match="width 2 but targets width 3"):
        min_length_search(F2, projective_reps(F2, 2), [(1, 0, 1)], 1, 3)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_projective_index_is_the_position_in_projective_reps(q):
    """Every nonzero vector of F_q^k, k <= 4, maps to the rep among its
    nonzero multiples."""
    field = make_field(q)
    for k in range(1, 5):
        position = {}
        for t, rep in enumerate(projective_reps(field, k)):
            for c in range(1, q):
                position[tuple(field.mul_arr(c, np.array(rep)).tolist())] = t
        V = np.array(list(itertools.product(range(q), repeat=k))[1:])
        assert len(position) == len(V)
        assert projective_index(field, V).tolist() == \
            [position[tuple(v)] for v in V.tolist()]


@pytest.mark.parametrize("q,k_max", [(2, 5), (3, 3), (4, 3), (9, 2)])
def test_reps_and_hits_match_their_loop_definitions(q, k_max):
    """The array forms against the tuple loops they replaced: the vectors
    whose first nonzero coordinate is 1, and one bit per nonzero inner
    product, target j at bit j."""
    field = make_field(q)
    for k in range(1, k_max + 1):
        vectors = list(itertools.product(range(q), repeat=k))[1:]
        reps = [v for v in vectors if next(c for c in v if c) == 1]
        assert projective_reps(field, k).tolist() == [list(v) for v in reps]
        hits = build_hits(field, reps, vectors)
        for t, c in enumerate(reps):
            assert hits[t] == sum(
                1 << j for j, z in enumerate(vectors)
                if functools.reduce(field.add, map(field.mul, z, c), 0))
