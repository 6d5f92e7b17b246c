"""Shortest-code lengths N_q[k,d] and length bounds for instances.

N_q[k,d] here is the least length of a linear code over F_q with dimension k
and minimum distance at least d.  Sources, in the order the auto mode tries
them: closed forms (d = 1, repetition, the MDS rule N = k + d - 1 valid once
q >= k + d - 2), Hamming's rule for d = 3 once F_q^k has more projective
points than a search may take as columns, and exhaustive column-multiset
search.  Every source with an N comes with a generator.  When none applies,
the entry degrades to a bracket with provenance "bracket": past the point
cap it is [Singleton, Gilbert-Varshamov]; when the search budget ran out it
keeps what the search proved, the lengths it refuted and their nodes, and
the bracket [max(first unrefuted length, Griesmer), Gilbert-Varshamov].  A
search that refutes every length up to an explicit n_max
instead keeps provenance "search", its nodes and refutations, and the
bracket [max(n_max + 1, Singleton), Gilbert-Varshamov].  A bracket whose
two ends meet proves N, which is then set (with no generator).

An instance's achievable lengths are then sandwiched: the generalized
independence number alpha gives N >= N_q[alpha, 2delta+1]; the min rank
kappa gives N <= N_q[kappa, 2delta+1]; and N >= kappa + 2delta always
(Singleton-type), with equality at large q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import min_rank, random_min_length
from .errors import BudgetExceeded
from .fields import kernel_basis, make_field, sphere_volume
from .instances import generalized_independence_number
from .search import SEARCH_BUDGET, min_length_search, projective_reps

SEARCH_POINT_CAP = 400  # projective points a search may take as columns


def gv_upper(q, k, d):
    """Least N the Varshamov condition guarantees an [N,k,>=d]_q code for."""
    N = max(k, d)
    while not sphere_volume(q, N - 1, d - 2) < q ** (N - k):
        N += 1
    return N


def singleton_lower(k, d):
    return k + d - 1


def griesmer_lower(q, k, d):
    """Griesmer: an [N,k,d]_q code has N >= sum_{i<k} ceil(d / q^i)."""
    return sum(-(-d // q ** i) for i in range(k))


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
    provenance: str          # trivial | repetition | mds | hamming | search | bracket
    generator: np.ndarray | None
    bracket: tuple | None    # (lower, gv) from a bracket or a length cap
    nodes: int
    refuted: dict

    def __post_init__(self):
        if self.N is None and self.bracket[0] == self.bracket[1]:
            self.N = self.bracket[0]   # the two ends meet: N is proved


def _search_entry(field, k, d, n_max, budget):
    """The search's entry; when every length up to n_max is refuted, the
    bracket starts above n_max.  The cap is checked on the count, before
    any point is listed."""
    points = (field.q ** k - 1) // (field.q - 1)
    if points > SEARCH_POINT_CAP:
        raise BudgetExceeded(f"{points} projective points exceed search cap")
    columns = projective_reps(field, k)
    res = min_length_search(field, columns, columns, d, n_max, budget=budget)
    G = None if res.n_opt is None else columns[list(res.solution)].T.copy()
    bracket = None if res.n_opt is not None else (
        max(n_max + 1, singleton_lower(k, d)), gv_upper(field.q, k, d))
    return CodeTableEntry(field.q, k, d, res.n_opt, "search", G, bracket,
                          res.nodes, res.refuted)


def _hamming_entry(field, k):
    """N_q[k,3]: the least N with (q^(N-k) - 1)/(q - 1) >= N (sphere
    packing), met by a shortened Hamming code whose parity check holds the
    first N projective points of F_q^(N-k).  Minimality puts a point with
    first coordinate 1 among them, so the check has full rank."""
    q, N = field.q, k + 1
    while (q ** (N - k) - 1) // (q - 1) < N:
        N += 1
    H = projective_reps(field, N - k)[:N].T
    return CodeTableEntry(q, k, 3, N, "hamming", kernel_basis(field, H),
                          None, 0, {})


def nq_kd(q, k, d, mode="auto", n_max=None, workers=1,
          budget=SEARCH_BUDGET):
    """Shortest linear-code length for (q, k, d); see module docstring."""
    # workers=1 is still accepted only because the benchmark passes it
    if workers != 1:
        raise ValueError("the search runs in one process: workers must be 1")
    if k < 1 or d < 1:
        raise ValueError("need k >= 1 and d >= 1")
    if mode not in ("auto", "search"):
        raise ValueError(f"unknown mode {mode!r}")
    field = make_field(q)
    if n_max is None:
        n_max = gv_upper(q, k, d)

    if mode == "search":
        return _search_entry(field, k, d, n_max, budget)

    # auto
    if d == 1:
        return CodeTableEntry(q, k, d, k, "trivial",
                              np.eye(k, dtype=np.int64), None, 0, {})
    if k == 1:
        return CodeTableEntry(q, k, d, d, "repetition",
                              np.ones((1, d), dtype=np.int64), None, 0, {})
    if q >= k + d - 2:
        N = k + d - 1
        return CodeTableEntry(q, k, d, N, "mds",
                              rs_generator(field, k, N), None, 0, {})
    if d == 3 and (q ** k - 1) // (q - 1) > SEARCH_POINT_CAP:
        return _hamming_entry(field, k)
    try:
        return _search_entry(field, k, d, n_max, budget)
    except BudgetExceeded as exc:
        refuted = getattr(exc, "refuted", None)  # None past the point cap
        if refuted is None:
            refuted, low = {}, singleton_lower(k, d)
        else:
            low = max(d + len(refuted), griesmer_lower(q, k, d))
        return CodeTableEntry(q, k, d, None, "bracket", None,
                              (low, gv_upper(q, k, d)),
                              sum(refuted.values()), refuted)


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


def bound_report(inst, field, delta, workers=1, budget=SEARCH_BUDGET):
    # workers=1 is still accepted only because the benchmark passes it
    if workers != 1:
        raise ValueError("the search runs in one process: workers must be 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    alpha, wit = generalized_independence_number(inst)
    w = min_rank(inst, field)
    d = 2 * delta + 1
    alpha_entry = nq_kd(field.q, alpha, d, budget=budget)
    kappa_entry = alpha_entry if w.kappa == alpha else nq_kd(
        field.q, w.kappa, d, budget=budget)
    singleton = w.kappa + 2 * delta
    mds_exact = singleton if field.q >= w.kappa + 2 * delta - 1 else None
    return BoundReport(
        delta=delta, q=field.q, alpha=alpha, alpha_witness=wit,
        kappa=w.kappa, kappa_certified=w.certified,
        alpha_entry=alpha_entry, kappa_entry=kappa_entry,
        singleton=singleton, mds_exact=mds_exact,
        random_N=random_min_length(inst, field, delta))

