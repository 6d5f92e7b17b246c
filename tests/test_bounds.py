"""Sphere volumes, shortest-code lengths N_q[k,d], and instance brackets."""

import itertools

import numpy as np
import pytest

from indexcode import bounds, static_codes
from indexcode.bounds import (
    _hamming_entry,
    bound_report,
    griesmer_lower,
    gv_upper,
    nq_kd,
    rs_generator,
    singleton_lower,
    sphere_volume,
)
from indexcode.codes import verify
from indexcode.errors import BudgetExceeded
from indexcode.fields import kernel_basis, make_field, rank, weight
from indexcode.search import projective_index

# shortest lengths quoted from published code tables; the package proves
# each one, by search or by Hamming's bound
CITED_TABLE = {
    (2, 2, 5): 8,
    (2, 3, 5): 10,
    (2, 10, 3): 14,
    (2, 17, 3): 22,
}


# ---------------------------------------------------------------------------
# counting primitives
# ---------------------------------------------------------------------------


def test_sphere_volume_matches_brute_count():
    for q, N, r in [(2, 4, 1), (2, 5, 2), (3, 3, 2), (5, 2, 1), (2, 3, 3)]:
        count = sum(1 for v in itertools.product(range(q), repeat=N)
                    if sum(x != 0 for x in v) <= r)
        assert sphere_volume(q, N, r) == count


def test_sphere_volume_edges():
    assert sphere_volume(3, 4, 0) == 1
    assert sphere_volume(2, 3, 7) == 8   # radius past N is the whole space
    assert sphere_volume(4, 0, 2) == 1


def test_gv_upper_is_tight_against_its_own_condition():
    for q, k, d in [(2, 2, 5), (2, 3, 5), (3, 2, 3), (2, 4, 3)]:
        N = gv_upper(q, k, d)
        assert sphere_volume(q, N - 1, d - 2) < q ** (N - k)
        if N - 1 >= max(k, d):
            assert not sphere_volume(q, N - 2, d - 2) < q ** (N - 1 - k)
    assert gv_upper(2, 2, 5) == 9


def test_singleton_lower():
    assert singleton_lower(2, 5) == 6
    assert singleton_lower(17, 3) == 19


def test_griesmer_lower():
    assert griesmer_lower(2, 2, 5) == 8      # tight: N_2[2,5] = 8
    assert griesmer_lower(2, 3, 5) == 10     # tight: N_2[3,5] = 10
    assert griesmer_lower(2, 4, 11) == 22
    assert griesmer_lower(5, 1, 4) == 4      # repetition
    for q, k, d in [(2, 2, 3), (2, 4, 5), (3, 2, 3), (3, 3, 4), (4, 2, 4)]:
        assert singleton_lower(k, d) <= griesmer_lower(q, k, d) \
            <= nq_kd(q, k, d).N


def test_cited_table_inside_brackets():
    for (q, k, d), N in CITED_TABLE.items():
        assert max(singleton_lower(k, d), griesmer_lower(q, k, d)) <= N \
            <= gv_upper(q, k, d)


# ---------------------------------------------------------------------------
# Reed-Solomon generators
# ---------------------------------------------------------------------------


def _min_distance(field, G):
    best = None
    k = G.shape[0]
    for coeffs in itertools.product(range(field.q), repeat=k):
        if not any(coeffs):
            continue
        w = weight(field.matmul(np.array(coeffs)[None, :], G)[0])
        best = w if best is None else min(best, w)
    return best


def _distance_at_least_3(field, G):
    """G has full rank and no codeword of weight 1 or 2: the columns of a
    parity check are nonzero and pairwise independent."""
    H = kernel_basis(field, G)
    cols = H.T
    return (rank(field, G) == G.shape[0] and cols.any(axis=1).all()
            and len(set(projective_index(field, cols).tolist())) == len(cols))


def test_rs_generator_exhaustive_distance():
    F5 = make_field(5)
    for k, n in [(1, 4), (2, 5), (3, 5), (3, 6), (4, 6)]:
        G = rs_generator(F5, k, n)
        assert G.shape == (k, n)
        assert _min_distance(F5, G) == n - k + 1


def test_rs_generator_validation():
    F5 = make_field(5)
    with pytest.raises(ValueError):
        rs_generator(F5, 3, 2)
    with pytest.raises(ValueError):
        rs_generator(F5, 2, 7)   # beyond q + 1


# ---------------------------------------------------------------------------
# nq_kd
# ---------------------------------------------------------------------------


def test_nqkd_trivial_and_repetition():
    e = nq_kd(3, 4, 1)
    assert (e.N, e.provenance) == (4, "trivial")
    assert np.array_equal(e.generator, np.eye(4, dtype=np.int64))
    e = nq_kd(2, 1, 7)
    assert (e.N, e.provenance) == (7, "repetition")
    assert np.array_equal(e.generator, np.ones((1, 7), dtype=np.int64))


def test_nqkd_auto_proves_cited_values():
    F2 = make_field(2)
    for k, nodes in [(2, 14), (3, 803)]:
        e = nq_kd(2, k, 5)
        assert (e.N, e.provenance, e.nodes) == (CITED_TABLE[(2, k, 5)],
                                                "search", nodes)
        assert e.generator.shape == (k, e.N)
        assert _min_distance(F2, e.generator) >= 5
        assert set(e.refuted) == set(range(5, e.N))
    for k in (10, 17):
        e = nq_kd(2, k, 3)
        assert (e.N, e.provenance) == (CITED_TABLE[(2, k, 3)], "hamming")
        assert e.generator.shape == (k, e.N)
        assert _distance_at_least_3(F2, e.generator)


@pytest.mark.parametrize("q, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                  (3, 4), (4, 2), (4, 3), (5, 2)])
def test_hamming_length_matches_search(q, k):
    # below the point cap the auto mode searches; the closed form agrees
    field = make_field(q)
    e = _hamming_entry(field, k)
    assert e.N == nq_kd(q, k, 3, mode="search").N
    assert e.generator.shape == (k, e.N)
    assert _distance_at_least_3(field, e.generator)


def test_nqkd_mds():
    e = nq_kd(7, 2, 3)
    assert (e.N, e.provenance) == (4, "mds")
    F7 = make_field(7)
    assert _min_distance(F7, e.generator) == 3


def test_nqkd_search_small_binary():
    e = nq_kd(2, 2, 3)
    assert (e.N, e.provenance) == (5, "search")
    F2 = make_field(2)
    assert _min_distance(F2, e.generator) >= 3
    assert set(e.refuted) == {3, 4}


def test_nqkd_search_rederives_table_value():
    e = nq_kd(2, 2, 5, mode="search")
    assert e.N == CITED_TABLE[(2, 2, 5)] == 8
    F2 = make_field(2)
    assert _min_distance(F2, e.generator) >= 5
    assert set(e.refuted) == {5, 6, 7}


def test_nqkd_bracket_fallback():
    e = nq_kd(2, 9, 5)       # 511 projective points: past the search's cap
    assert e.N is None and e.provenance == "bracket"
    assert e.bracket == (13, 19)
    assert e.generator is None


def test_nqkd_length_cap_is_a_search_result():
    # N = 3, 4, 5 are refuted exhaustively, so N >= 6 is proved, and
    # Varshamov guarantees a [6,3,>=3] code: the closed bracket proves N = 6
    # and the entry keeps the search's work (but has no generator)
    e = nq_kd(2, 3, 3, n_max=5)
    assert (e.N, e.provenance, e.bracket) == (6, "search", (6, 6))
    assert (e.nodes, e.refuted, e.generator) == (14, {3: 0, 4: 7, 5: 7}, None)
    e = nq_kd(2, 3, 3, mode="search", n_max=5)
    assert (e.N, e.provenance, e.bracket, e.nodes) == (6, "search",
                                                       (6, 6), 14)
    # a cap one lower leaves the bracket open
    e = nq_kd(2, 3, 3, n_max=4)
    assert (e.N, e.provenance, e.bracket) == (None, "search", (5, 6))
    assert (e.refuted, e.generator) == ({3: 0, 4: 7}, None)


def test_nqkd_budget_stop_is_an_open_bracket():
    # the stop keeps what the search proved: N <= 9 refuted in 60 nodes,
    # and the low end is the larger of 10 and Griesmer's 5 + 3 + 2 + 1
    e = nq_kd(2, 4, 5, budget=100)
    assert (e.N, e.provenance, e.nodes) == (None, "bracket", 60)
    assert e.refuted == {5: 0, 6: 15, 7: 15, 8: 15, 9: 15}
    assert e.bracket == (griesmer_lower(2, 4, 5), gv_upper(2, 4, 5)) \
        == (11, 12)
    with pytest.raises(BudgetExceeded):
        nq_kd(2, 4, 5, mode="search", budget=100)


def test_nqkd_cap_is_checked_before_listing_points(monkeypatch):
    # 2^20 - 1 projective points: the cap must refuse them by count alone
    def refuse(field, k):
        raise AssertionError(f"listed the projective points of F_2^{k}")
    monkeypatch.setattr(bounds, "projective_reps", refuse)
    e = nq_kd(2, 20, 5)
    assert (e.provenance, e.bracket, e.nodes) == ("bracket", (24, 33), 0)


def test_search_callers_take_only_one_worker(F2, ring5):
    assert nq_kd(2, 3, 3, workers=1).N == 6
    assert bound_report(ring5, F2, 0, workers=1).alpha_entry.N == 2
    for workers in (0, 2):
        with pytest.raises(ValueError, match="workers must be 1"):
            nq_kd(2, 3, 3, workers=workers)
        with pytest.raises(ValueError, match="workers must be 1"):
            bound_report(ring5, F2, 0, workers=workers)


def test_nqkd_validation():
    with pytest.raises(ValueError):
        nq_kd(2, 0, 3)
    with pytest.raises(ValueError):
        nq_kd(2, 2, 0)
    with pytest.raises(ValueError):
        nq_kd(2, 2, 3, mode="guess")
    with pytest.raises(ValueError):
        nq_kd(2, 4, 3, mode="table")


# ---------------------------------------------------------------------------
# instance bound reports
# ---------------------------------------------------------------------------


def test_bound_report_ring5(F2, ring5):
    rep = bound_report(ring5, F2, 2)
    assert rep.alpha == 2 and rep.kappa == 2 and rep.kappa_certified
    assert rep.alpha_entry.N == 8 and rep.kappa_entry.N == 8
    assert rep.singleton == 6
    assert rep.mds_exact is None     # q = 2 is below kappa + 2 delta - 1
    assert rep.random_N == 14
    assert rep.alpha_entry.N <= rep.kappa_entry.N


def test_bound_report_k3_large_field(F7, k3):
    rep = bound_report(k3, F7, 1)
    assert rep.alpha == 1 and rep.kappa == 1
    assert rep.alpha_entry.N == 3 and rep.kappa_entry.N == 3
    assert rep.singleton == 3 and rep.mds_exact == 3
    assert rep.random_N == 4


def test_each_dimension_is_searched_once(monkeypatch, F2, ring5):
    # alpha = kappa here, and rho* = rho for static_bounds(4, 4, 1, 2): the
    # second entry is the first one, not a second search for the same N
    calls = []

    def counted(q, k, d, **kw):
        calls.append((q, k, d))
        return nq_kd(q, k, d, **kw)
    monkeypatch.setattr(bounds, "nq_kd", counted)
    monkeypatch.setattr(static_codes, "nq_kd", counted)
    rep = bound_report(ring5, F2, 2)
    assert (rep.alpha, rep.kappa, rep.kappa_entry.N) == (2, 2, 8)
    assert calls == [(2, 2, 5)]
    calls.clear()
    rep = static_codes.static_bounds(4, 4, 1, 2)
    assert (rep.rho_star, rep.lower_alpha, rep.upper) == (4, 7, 7)
    assert calls == [(2, 4, 3)]


def test_bound_report_sandwich_seeded(F2):
    from conftest import random_instance
    rng = np.random.default_rng(31)
    for _ in range(15):
        inst = random_instance(rng)
        rep = bound_report(inst, F2, 1)
        if rep.alpha_entry.N is not None and rep.kappa_entry.N is not None:
            assert rep.alpha_entry.N <= rep.kappa_entry.N
            assert rep.kappa_entry.N >= rep.singleton


# ---------------------------------------------------------------------------
# odd-cycle comparison
# ---------------------------------------------------------------------------


def test_odd_cycle_comparison_pentagon(F2, pentagon):
    # on an odd cycle the alpha bound N_2[l, 2delta+1] beats Singleton's
    # (l+1) + 2delta once delta > 0: no nontrivial binary MDS code exists
    for delta, alpha_bound, singleton in ((2, 8, 7), (1, 5, 5), (0, 2, 3)):
        rep = bound_report(pentagon, F2, delta)
        assert (rep.alpha, rep.kappa, rep.kappa_certified) == (2, 3, True)
        assert rep.alpha_entry.N == alpha_bound
        assert rep.singleton == singleton
        # ties count: the bound is not weaker; at delta 0 Singleton is
        # stronger
        assert (rep.alpha_entry.N >= rep.singleton) == (delta > 0)
