"""Shortest-code lengths N_q[k,d] and length bounds for instances.

N_q[k,d] here is the least length of a linear code over F_q with dimension k
and minimum distance at least d.  Sources, in the order the auto mode tries
them: a small table of published values, closed forms (d = 1, repetition,
the MDS rule N = k + d - 1 valid once q >= k + d - 2), and exhaustive
column-multiset search.  When none applies, the entry degrades to the
bracket [Singleton, Gilbert-Varshamov].

An instance's achievable lengths are then sandwiched: the generalized
independence number alpha gives N >= N_q[alpha, 2delta+1]; the min rank
kappa gives N <= N_q[kappa, 2delta+1]; and N >= kappa + 2delta always
(Singleton-type), with equality at large q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import min_rank, random_existence_condition
from .errors import BudgetExceeded
from .fields import make_field, sphere_volume
from .instances import (
    generalized_independence_number,
    odd_cycle_instance,
)
from .search import min_length_search, projective_reps

# published shortest-length values used at sizes our search cannot reach
CITED_TABLE = {
    (2, 2, 5): 8,
    (2, 3, 5): 10,
    (2, 10, 3): 14,
    (2, 17, 3): 22,
}

SEARCH_POINT_CAP = 400  # projective points allowed in a table search


def gv_upper(q, k, d):
    """Least N the Varshamov condition guarantees an [N,k,>=d]_q code for."""
    N = max(k, d)
    while not sphere_volume(q, N - 1, d - 2) < q ** (N - k):
        N += 1
    return N


def singleton_lower(k, d):
    return k + d - 1


def rs_generator(field, k, n):
    """Generator of a doubly-extended Reed-Solomon [n, k, n-k+1] code.

    Columns are (1, a, a^2, ..., a^(k-1)) for the first n field codes, plus
    the point at infinity (0, ..., 0, 1) when n = q + 1.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if n > field.q + 1:
        raise ValueError(f"length {n} exceeds q+1 = {field.q + 1}")
    cols = []
    for a in range(min(n, field.q)):
        col = [1]
        for _ in range(k - 1):
            col.append(field.mul(col[-1], a))
        cols.append(col)
    if n == field.q + 1:
        cols.append([0] * (k - 1) + [1])
    return np.array(cols, dtype=np.int64).T.copy()


@dataclass
class CodeTableEntry:
    q: int
    k: int
    d: int
    N: int | None
    provenance: str          # table | trivial | repetition | mds | search | bracket
    generator: np.ndarray | None
    bracket: tuple | None    # (singleton, gv) when N is unknown
    nodes: int
    refuted: dict


def _search_nq(field, k, d, n_max, workers, budget):
    columns = projective_reps(field, k)
    if len(columns) > SEARCH_POINT_CAP:
        raise BudgetExceeded(
            f"{len(columns)} projective points exceed search cap")
    res = min_length_search(field, columns, columns, d, n_max,
                            workers=workers, budget=budget)
    if res.n_opt is None:
        raise BudgetExceeded(f"no [N,{k},>={d}] code found up to N={n_max}")
    G = np.array([columns[t] for t in res.solution], dtype=np.int64).T.copy()
    return res.n_opt, G, res.nodes, res.refuted


def nq_kd(q, k, d, mode="auto", need_generator=False,
          n_max=None, workers=1, budget=50_000_000):
    """Shortest linear-code length for (q, k, d); see module docstring."""
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    if mode not in ("auto", "table", "search"):
        raise ValueError(f"unknown mode {mode!r}")
    field = make_field(q)
    if n_max is None:
        n_max = gv_upper(q, k, d)

    if mode == "table":
        N = CITED_TABLE.get((q, k, d))
        if N is None:
            raise KeyError(f"no table entry for {(q, k, d)}")
        entry = CodeTableEntry(q, k, d, N, "table", None, None, 0, {})
        if need_generator:
            n, G, nodes, refuted = _search_nq(field, k, d, n_max, workers, budget)
            if n != N:
                raise RuntimeError(
                    f"search found N={n}, table says {N}: table is wrong")
            entry.generator, entry.nodes, entry.refuted = G, nodes, refuted
        return entry

    if mode == "search":
        n, G, nodes, refuted = _search_nq(field, k, d, n_max, workers, budget)
        return CodeTableEntry(q, k, d, n, "search", G, None, nodes, refuted)

    # auto
    if d == 1:
        return CodeTableEntry(q, k, d, k, "trivial",
                              np.eye(k, dtype=np.int64), None, 0, {})
    if k == 1:
        return CodeTableEntry(q, k, d, d, "repetition",
                              np.ones((1, d), dtype=np.int64), None, 0, {})
    if (q, k, d) in CITED_TABLE:
        entry = CodeTableEntry(q, k, d, CITED_TABLE[(q, k, d)], "table",
                               None, None, 0, {})
        if need_generator:
            try:
                n, G, nodes, refd = _search_nq(field, k, d, n_max,
                                               workers, budget)
            except BudgetExceeded:
                return entry
            if n != entry.N:
                raise RuntimeError(
                    f"search found N={n}, table says {entry.N}: table is wrong")
            entry.generator, entry.nodes, entry.refuted = G, nodes, refd
        return entry
    if q >= k + d - 2:
        N = k + d - 1
        return CodeTableEntry(q, k, d, N, "mds",
                              rs_generator(field, k, N), None, 0, {})
    try:
        n, G, nodes, refuted = _search_nq(field, k, d, n_max, workers, budget)
        return CodeTableEntry(q, k, d, n, "search", G, None, nodes, refuted)
    except BudgetExceeded:
        return CodeTableEntry(q, k, d, None, "bracket", None,
                              (singleton_lower(k, d), gv_upper(q, k, d)),
                              0, {})


# ---------------------------------------------------------------------------
# per-instance bound report
# ---------------------------------------------------------------------------


@dataclass
class BoundReport:
    delta: int
    q: int
    alpha: int
    alpha_witness: tuple
    kappa: int
    kappa_certified: bool
    alpha_entry: CodeTableEntry      # N_q[alpha, 2delta+1], the lower side
    kappa_entry: CodeTableEntry      # N_q[kappa, 2delta+1], the upper side
    singleton: int                   # kappa + 2*delta
    mds_exact: int | None            # equals singleton once q >= kappa+2delta-1
    random_N: int                    # least N the counting bound certifies


def bound_report(inst, field, delta, workers=1, budget=50_000_000):
    alpha, wit = generalized_independence_number(inst)
    w = min_rank(inst, field)
    d = 2 * delta + 1
    alpha_entry = nq_kd(field.q, alpha, d, workers=workers, budget=budget)
    kappa_entry = nq_kd(field.q, w.kappa, d, workers=workers, budget=budget)
    singleton = w.kappa + 2 * delta
    mds_exact = singleton if field.q >= w.kappa + 2 * delta - 1 else None
    N = 1
    while not random_existence_condition(inst, field, delta, N):
        N += 1
    return BoundReport(
        delta=delta, q=field.q, alpha=alpha, alpha_witness=wit,
        kappa=w.kappa, kappa_certified=w.certified,
        alpha_entry=alpha_entry, kappa_entry=kappa_entry,
        singleton=singleton, mds_exact=mds_exact, random_N=N)


@dataclass
class OddCycleComparison:
    l: int
    delta: int
    alpha: int               # equals l
    kappa: int               # equals l + 1
    alpha_bound: int | None  # N_2[l, 2delta+1]
    singleton: int           # (l+1) + 2delta
    alpha_bound_wins: bool | None


def odd_cycle_comparison(l, delta, workers=1, budget=50_000_000):
    """For odd cycles the independence-number bound beats Singleton once
    delta > 0, because no nontrivial binary MDS code exists."""
    inst = odd_cycle_instance(l)
    F2 = make_field(2)
    alpha, _ = generalized_independence_number(inst)
    w = min_rank(inst, F2)
    entry = nq_kd(2, alpha, 2 * delta + 1, workers=workers, budget=budget)
    singleton = w.kappa + 2 * delta
    wins = None if entry.N is None else entry.N >= singleton
    return OddCycleComparison(l=l, delta=delta, alpha=alpha, kappa=w.kappa,
                              alpha_bound=entry.N, singleton=singleton,
                              alpha_bound_wins=wins)
