"""Error-correcting index codes over F_q.

An n x N matrix L encodes n messages into N broadcast symbols.  Receiver i
can strip everything it owns from the broadcast, so the only confusable
message-space directions are the vectors z that vanish on X_i and are nonzero
at the demand f(i).  L corrects delta symbol errors for every receiver
exactly when weight(z L) >= 2*delta + 1 for all such z; equivalently, for
each receiver the row L_f(i) stays at Hamming distance >= 2*delta + 1 from
the span of the rows the receiver can neither see nor wants.

This module verifies that criterion, computes the shortest error-free length
(min rank over completions v_i + e_f(i)), and builds codes by concatenation,
by lifting a row-independent core matrix through an outer code, by seeded
random sampling, and by exhaustive minimum-length search with certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotAnIndexCode, SpanCapExceeded
from .fields import (all_combinations, check_matrix, matrix_from_text,
                     matrix_to_text, rank, rref, sphere_volume, weight)
from .instances import instance_hash, iter_I, iter_J, y_set
from .search import min_length_search, normalize_projective, projective_reps

VERIFY_SPAN_CAP = 2**18


@dataclass
class VerificationReport:
    ok: bool
    delta: int
    min_weight: int
    witness: np.ndarray | None   # violating vector, None when ok
    receiver: int | None         # receiver whose constraint the witness breaks
    method: str                  # "receiver-span" or "stream"
    cost: int                    # confusable vectors inspected


def _scan_receiver_spans(inst, field, L, span_cap):
    """Min weight(z L) per receiver over z = e_f(i) + combos on Y_i.

    Enumeration: receivers ascending; within a receiver, all_combinations of
    the sorted Y_i rows, so the first Y_i row's coefficient cycles fastest
    and the lightest combination found first wins.  Scaling z never changes
    the weight, so fixing the f(i) coefficient to 1 loses nothing.
    """
    q = field.q
    minw = None
    witness = None
    wit_rec = None
    cost = 0
    for i in range(inst.m):
        yi = sorted(y_set(inst, i))
        size = q ** len(yi)
        if size > span_cap:
            raise SpanCapExceeded(
                f"receiver {i}: {size} combinations exceed cap {span_cap}")
        vecs = field.add_arr(all_combinations(field, L[yi]),
                             L[inst.f[i]][None, :])
        wts = np.count_nonzero(vecs, axis=1)
        cost += size
        idx = int(np.argmin(wts))
        w = int(wts[idx])
        if minw is None or w < minw:
            minw = w
            z = np.zeros(inst.n, dtype=np.int64)
            z[inst.f[i]] = 1
            for j in yi:  # coefficients are the base-q digits of idx
                idx, z[j] = divmod(idx, q)
            witness = z
            wit_rec = i
    return minw, witness, wit_rec, cost


def verify(inst, field, L, delta, span_cap=VERIFY_SPAN_CAP, method="auto"):
    """Check that L corrects delta errors for every receiver of inst.

    method "auto" uses the per-receiver span scan unless some q^|Y_i|
    exceeds span_cap, in which case it streams all confusable vectors.
    """
    L = check_matrix(field, L)
    if L.shape[0] != inst.n:
        raise ValueError(f"matrix must have {inst.n} rows")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    need = 2 * delta + 1
    if method == "auto":
        big = max(field.q ** len(y_set(inst, i)) for i in range(inst.m))
        method = "receiver-span" if big <= span_cap else "stream"
    if method == "receiver-span":
        minw, wit, rec, cost = _scan_receiver_spans(inst, field, L, span_cap)
    elif method == "stream":
        minw, wit, rec, cost = None, None, None, 0
        for z in iter_I(inst, field):
            w = weight(field.matmul(z[None, :], L)[0])
            cost += 1
            if minw is None or w < minw:
                minw, wit = w, z
        rec = None
    else:
        raise ValueError(f"unknown method {method!r}")
    ok = minw >= need
    return VerificationReport(
        ok=ok, delta=delta, min_weight=minw,
        witness=None if ok else wit,
        receiver=None if ok else rec,
        method=method, cost=cost)


def max_delta(inst, field, L, span_cap=VERIFY_SPAN_CAP):
    """Largest delta the code corrects; -1 if it is not an index code at all."""
    rep = verify(inst, field, L, 0, span_cap=span_cap)
    return (rep.min_weight - 1) // 2


# ---------------------------------------------------------------------------
# min rank: shortest error-free length
# ---------------------------------------------------------------------------


@dataclass
class MinRankWitness:
    kappa: int
    V: np.ndarray            # one row v_i + e_f(i) per receiver
    L: np.ndarray            # n x kappa error-free index code
    certified: bool
    lower_bound: int         # largest rank proved impossible, plus one
    nodes: int


class _Budget(Exception):
    pass


def min_rank(inst, field, node_budget=5_000_000):
    """Minimum rank of {v_i + e_f(i)} with v_i supported on X_i.

    Iterative deepening on the target rank k: receivers are processed in
    descending |X_i| order; a candidate row either lies in the current row
    space (free) or raises the rank (allowed while below k).  Failed
    (depth, row-space) states are memoised per level.  After the first
    feasible k, a second fixed-k pass in natural receiver order returns the
    lexicographically least completion.
    """
    n, m, q = inst.n, inst.m, field.q
    Xs = [sorted(inst.X[i]) for i in range(m)]
    order = sorted(range(m), key=lambda i: (-len(Xs[i]), i))
    nodes = [0]

    def reduce_row(ech, row):
        r = row
        for pc, pr in ech:
            c = int(r[pc])
            if c:
                r = field.sub_arr(r, field.scale(c, pr))
        return r

    def extend_ech(ech, res):
        piv = int(np.nonzero(res)[0][0])
        new_row = field.scale(field.inv(int(res[piv])), res)
        out = []
        for pc, pr in ech:
            c = int(pr[piv])
            if c:
                pr = field.sub_arr(pr, field.scale(c, new_row))
            out.append((pc, pr))
        out.append((piv, new_row))
        out.sort(key=lambda t: t[0])
        return out

    def ech_key(ech):
        return tuple((pc, tuple(int(x) for x in pr)) for pc, pr in ech)

    def decide(k, rec_order):
        """Rows completing rec_order with rank <= k, or None."""
        failed = set()

        def dfs(dpt, ech):
            if dpt == m:
                return []
            nodes[0] += 1
            if nodes[0] > node_budget:
                raise _Budget
            key = (dpt, ech_key(ech))
            if key in failed:
                return None
            i = rec_order[dpt]
            X = Xs[i]
            for code in range(q ** len(X)):
                row = np.zeros(n, dtype=np.int64)
                row[inst.f[i]] = 1
                cc = code
                for t in range(len(X) - 1, -1, -1):
                    row[X[t]] = cc % q
                    cc //= q
                res = reduce_row(ech, row)
                if not res.any():
                    child = ech
                elif len(ech) < k:
                    child = extend_ech(ech, res)
                else:
                    continue
                sub = dfs(dpt + 1, child)
                if sub is not None:
                    return [row] + sub
            failed.add(key)
            return None

        return dfs(0, [])

    natural = list(range(m))
    try:
        for k in range(1, n + 1):
            sol = decide(k, order)
            if sol is not None:
                rows = sol if order == natural else decide(k, natural)
                V = np.stack(rows)
                R, piv = rref(field, V)
                L = R[:len(piv)].T.copy()
                return MinRankWitness(kappa=k, V=V, L=L, certified=True,
                                      lower_bound=k, nodes=nodes[0])
    except _Budget:
        V = np.zeros((m, n), dtype=np.int64)
        for i in range(m):
            V[i, inst.f[i]] = 1
        R, piv = rref(field, V)
        L = R[:len(piv)].T.copy()
        return MinRankWitness(kappa=len(piv), V=V, L=L, certified=False,
                              lower_bound=k, nodes=nodes[0])
    raise AssertionError("identity completion always satisfies rank <= n")


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def construct_concat(inst, field, delta, outer=None):
    """Error-free optimal code followed by an outer distance-(2delta+1) code.

    Returns (L, witness, outer_entry); outer_entry is None when an explicit
    outer generator was supplied.
    """
    w = min_rank(inst, field)
    entry = None
    if outer is None:
        from .bounds import nq_kd
        entry = nq_kd(field.q, w.kappa, 2 * delta + 1, need_generator=True)
        if entry.generator is None:
            raise BudgetExceeded(
                "no outer generator available; pass one explicitly")
        outer = entry.generator
    outer = check_matrix(field, outer)
    if outer.shape[0] != w.kappa:
        raise ValueError(
            f"outer code must have {w.kappa} rows, got {outer.shape[0]}")
    return field.matmul(w.L, outer), w, entry


def check_lift_core(inst, field, B):
    """Rows of B indexed by any confusable support must be independent.

    Equivalent to: no nonzero combination limited to a support in J maps to
    zero, which is what makes the lift below inherit the outer distance.
    Returns the first violating support or None.
    """
    B = check_matrix(field, B)
    for K in iter_J(inst):
        if rank(field, B[list(K)]) < len(K):
            return K
    return None


def construct_lift(inst, field, delta, B, outer=None):
    """Lift core matrix B (n x a) through an outer [N, a, >=2delta+1] code.

    Row i of the result is the B_i-combination of the outer generator rows.
    Returns (L, outer_entry).
    """
    B = check_matrix(field, B)
    if B.shape[0] != inst.n:
        raise ValueError(f"core must have {inst.n} rows")
    bad = check_lift_core(inst, field, B)
    if bad is not None:
        raise NotAnIndexCode(
            f"core rows on support {tuple(s + 1 for s in bad)} are dependent")
    entry = None
    if outer is None:
        from .bounds import nq_kd
        entry = nq_kd(field.q, B.shape[1], 2 * delta + 1, need_generator=True)
        if entry.generator is None:
            raise BudgetExceeded(
                "no outer generator available; pass one explicitly")
        outer = entry.generator
    outer = check_matrix(field, outer)
    if outer.shape[0] != B.shape[1]:
        raise ValueError(
            f"outer code must have {B.shape[1]} rows, got {outer.shape[0]}")
    return field.matmul(B, outer), entry


@dataclass
class RandomConstructionReport:
    L: np.ndarray | None
    ok: bool
    attempts: int
    N: int
    condition_holds: bool    # the counting bound guarantees existence at N
    condition_min_N: int     # least N where the counting bound holds
    singleton_bound: int | None  # kappa + 2*delta when kappa is certified


def random_existence_condition(inst, field, delta, N):
    """Counting bound: sum_i q^(n-|X_i|-1) * V_q(N, 2delta) < q^N."""
    q = field.q
    total = sum(q ** (inst.n - len(inst.X[i]) - 1) for i in range(inst.m))
    return total * sphere_volume(q, N, 2 * delta) < q ** N


def construct_random(inst, field, delta, N, seed, max_attempts=1000):
    """Sample uniform n x N matrices until one verifies."""
    rng = np.random.default_rng(seed)
    attempts = 0
    found = None
    while attempts < max_attempts:
        attempts += 1
        L = rng.integers(0, field.q, size=(inst.n, N))
        if verify(inst, field, L, delta).ok:
            found = L
            break
    cond = random_existence_condition(inst, field, delta, N)
    nmin = N
    while nmin > 1 and random_existence_condition(inst, field, delta, nmin - 1):
        nmin -= 1
    while not random_existence_condition(inst, field, delta, nmin):
        nmin += 1
    singleton = None
    if found is None:
        w = min_rank(inst, field)
        if w.certified:
            singleton = w.kappa + 2 * delta
    return RandomConstructionReport(
        L=found, ok=found is not None, attempts=attempts, N=N,
        condition_holds=cond, condition_min_N=nmin,
        singleton_bound=singleton)


# ---------------------------------------------------------------------------
# exhaustive minimum-length search with certificates
# ---------------------------------------------------------------------------


@dataclass
class SearchReport:
    n_opt: int | None
    L: np.ndarray | None
    nodes: int
    refuted: dict
    certified: bool
    delta: int


def search_min_length(inst, field, delta, n_max, workers=1, budget=50_000_000):
    """Shortest delta-correcting length for inst, by exhaustive column search.

    Columns and confusable directions are both reduced to projective
    representatives (scaling changes no zero pattern).  The returned matrix
    is the lexicographically least certificate at the optimal length; every
    shorter length comes with an exhausted refutation.
    """
    targets = sorted({normalize_projective(field, z)
                      for z in iter_I(inst, field)})
    columns = projective_reps(field, inst.n)
    res = min_length_search(field, columns, targets, 2 * delta + 1, n_max,
                            workers=workers, budget=budget)
    L = None
    if res.n_opt is not None:
        L = np.array([columns[t] for t in res.solution], dtype=np.int64).T
    return SearchReport(n_opt=res.n_opt, L=L, nodes=res.nodes,
                        refuted=res.refuted, certified=res.certified,
                        delta=delta)


def search_certificate(inst, field, report):
    """Machine-checkable JSON for a search_min_length outcome."""
    doc = {
        "instance_hash": instance_hash(inst),
        "delta": report.delta,
        "N": report.n_opt,
        "certified": report.certified,
        "method": "column-multiset-dfs",
        "refuted_lengths": {str(k): v for k, v in sorted(report.refuted.items())},
        "matrix": None if report.L is None
        else matrix_to_text(field, report.L),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def check_certificate(inst, field, text, delta=None):
    """Re-verify a certificate against an instance; returns the parsed doc.

    Confirms the hash binds to this instance and, when a matrix is present,
    that it verifies at the claimed delta and length.
    """
    doc = json.loads(text)
    if doc["instance_hash"] != instance_hash(inst):
        raise ValueError("certificate was issued for a different instance")
    if delta is not None and doc["delta"] != delta:
        raise ValueError(f"certificate is for delta={doc['delta']}")
    if doc["matrix"] is not None:
        L, q = matrix_from_text(doc["matrix"])
        if q != field.q:
            raise ValueError("certificate matrix is over a different field")
        if L.shape[1] != doc["N"]:
            raise ValueError("certificate length mismatch")
        if not verify(inst, field, L, doc["delta"]).ok:
            raise ValueError("certificate matrix fails verification")
    return doc
