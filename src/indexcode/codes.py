"""Error-correcting index codes over F_q.

An n x N matrix L encodes n messages into N broadcast symbols.  Receiver i
can strip everything it owns from the broadcast, so the only confusable
message-space directions are the vectors z that vanish on X_i and are nonzero
at the demand f(i).  L corrects delta symbol errors for every receiver
exactly when weight(z L) >= 2*delta + 1 for all such z; equivalently, for
each receiver the row L_f(i) stays at Hamming distance >= 2*delta + 1 from
the span of the rows the receiver can neither see nor wants.

This module verifies that criterion, computes the shortest error-free length
(min rank over completions v_i + e_f(i)), and builds codes by lifting an
error-free core matrix through an outer code (concatenation lifts the
min-rank witness), by seeded random sampling, and by exhaustive
minimum-length search with certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotAnIndexCode, SpanCapExceeded
from .fields import (block_rows, check_matrix, combination_blocks,
                     matrix_from_text, matrix_to_text, product_rows, rref,
                     solve_one, sphere_volume, weight)
from .instances import instance_hash, iter_I, y_set
from .search import (SEARCH_BUDGET, min_length_search, projective_index,
                     projective_reps)

VERIFY_SPAN_CAP = 2**22
MIN_RANK_BUDGET = 5_000_000     # default min_rank DFS nodes


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

    Enumeration: receivers ascending; within a receiver, the
    combination_blocks of the Y_i rows in descending order, so the first
    Y_i row's coefficient cycles fastest and the lightest combination found
    first wins.  Scaling z never changes the weight, so fixing the f(i)
    coefficient to 1 loses nothing.
    """
    q = field.q
    minw = None
    witness = None
    wit_rec = None
    cost = 0
    for i in range(inst.m):
        yi = sorted(y_set(inst, i), reverse=True)
        size = q ** len(yi)
        if size > span_cap:
            raise SpanCapExceeded(
                f"receiver {i}: {size} combinations exceed cap {span_cap}")
        at = 0   # index of the block's first combination
        for vecs in combination_blocks(field, L[yi], block_rows(L.shape[1]),
                                       base=L[inst.f[i]]):
            wts = np.count_nonzero(vecs, axis=1)
            idx = int(np.argmin(wts))
            w = int(wts[idx])
            if minw is None or w < minw:
                minw = w
                witness = np.zeros(inst.n, dtype=np.int64)
                witness[inst.f[i]] = 1
                witness[yi] = product_rows(q, len(yi), [at + idx])[0]
                wit_rec = i
            at += len(vecs)
        cost += size
    return minw, witness, wit_rec, cost


def check_code(inst, field, L):
    """L as check_matrix returns it, with one row per message of inst;
    ValueError otherwise."""
    L = check_matrix(field, L)
    if L.shape[0] != inst.n:
        raise ValueError(f"matrix must have {inst.n} rows")
    return L


def verify(inst, field, L, delta, span_cap=VERIFY_SPAN_CAP,
           method="receiver-span"):
    """Check that L corrects delta errors for every receiver of inst.

    method "receiver-span" scans each receiver's L_f(i) + span(L[Y_i]) a
    block_rows(N) block at a time and raises SpanCapExceeded when some
    q^|Y_i| exceeds span_cap.  "stream" is the definitional oracle: one
    product z L per confusable vector z of iter_I.
    """
    L = check_code(inst, field, L)
    if delta < 0:
        raise ValueError("delta must be >= 0")
    need = 2 * delta + 1
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


def min_rank(inst, field, node_budget=MIN_RANK_BUDGET):
    """Minimum rank of {v_i + e_f(i)} with v_i supported on X_i.

    Iterative deepening on the target rank k: receivers are processed in
    descending |X_i| order; a candidate row either lies in the current row
    space (free) or raises the rank (allowed while below k).  Failed
    (depth, row-space) states are memoised per level.  After the first
    feasible k, a second fixed-k pass in natural receiver order returns the
    lexicographically least completion.

    Each receiver's q^|X_i| candidate rows are tried in product order: a
    block of block_rows(n) candidates is e_f(i) with the product_rows digits
    of their indices written into the sorted X_i columns (the last X_i
    column fastest), and each receiver's first block is built once.  The row
    space is carried as its n x n projection P, which maps a row v to its
    residual against the space: v less the combination of the basis rows
    that clears v at the pivot columns of the space's reduced row echelon
    form.  P = I at the root.  A block of candidates C reduces in one step,
    C P, and the rows left zero are free.  Extending the space by a
    residual r whose first nonzero is at p is the rank-1 update
    P - P[:, p] (x) r / r[p].  The residual of a row is unique, so P is as
    canonical for the space as its reduced row echelon form, and the memo
    key (depth, P) splits the states exactly as (depth, rref) would: the
    memo hits, the nodes and the result do not depend on the choice.  P is
    keyed as uint16 bytes, which hold every code below fields.ORDER_CAP.

    A frame steps all its children at once.  It builds the projections of
    its rank-raising children as one stack, and reduces the next
    receiver's first candidate block by every one of them in one stacked
    product, which each child receives with its projection; the free
    children share P, so one product serves them all.  With b rows in that
    block, a stack holds block_rows(b n^2) children: over an extension
    field the stacked product forms b x n x n entries per child, so it
    stays within about fields.BLOCK_CELLS of them.  A child whose
    (depth, P) has already failed is left out of the product: it returns at
    its memo check before reading it.  The children are still visited one
    by one, in candidate order, so the nodes, memo hits and result are
    those of a frame that steps one child at a time.

    node_budget caps the DFS nodes: one global count summed over every
    target rank and both passes.  When it runs out the result is the
    uncertified identity completion, with lower_bound the target rank the
    search had reached.
    """
    n, m, q = inst.n, inst.m, field.q
    Xs = [sorted(inst.X[i]) for i in range(m)]
    order = sorted(range(m), key=lambda i: (-len(Xs[i]), i))
    nodes = [0]
    step = block_rows(n)

    def candidates(i, at):
        """Receiver i's candidate rows at, at + 1, ..., one block."""
        idx = np.arange(at, min(at + step, q ** len(Xs[i])))
        C = np.zeros((len(idx), n), dtype=np.int64)
        C[:, inst.f[i]] = 1
        C[:, Xs[i]] = product_rows(q, len(Xs[i]), idx)
        return C

    first_blocks = [candidates(i, 0) for i in range(m)]

    def project(P, R):
        """Projections for P's space plus each row of the residuals R, as
        one C-contiguous stack."""
        p = (R != 0).argmax(axis=1)
        lead = field.inv_arr(R[np.arange(len(R)), p])
        R = field.mul_arr(lead[:, None], R)
        return field.sub_arr(P, field.mul_arr(P[:, p].T[:, :, None],
                                              R[:, None, :]))

    def decide(k, rec_order):
        """Rows completing rec_order with rank <= k, or None."""
        failed = set()
        firsts = [first_blocks[i] for i in rec_order]
        # children per stack at each depth but the last
        batch = [block_rows(len(C) * n * n) for C in firsts[1:]]

        def dfs(dpt, P, key, rk, res, up):
            # key: P's uint16 bytes; res: the first candidate block of this
            # depth reduced by P, None when (dpt, key) had already failed;
            # up: which rows of res are nonzero, that is, raise the rank
            nodes[0] += 1
            if nodes[0] > node_budget:
                raise _Budget
            if (dpt, key) in failed:
                return None
            last = dpt + 1 == m
            shared = None   # what every free child receives
            rec = rec_order[dpt]
            for at in range(0, q ** len(Xs[rec]), step):
                C = candidates(rec, at) if at else firsts[dpt]
                if at:
                    res = field.matmul(C, P) if rk else C
                    up = res.any(axis=1)
                if rk < k:
                    raises = up.tolist()
                    tries = range(len(C))
                    R = res[up]   # the rank-raising residuals, in order
                else:   # full rank: only the free children
                    raises = None
                    tries = (~up).nonzero()[0].tolist()
                if last:
                    if tries:
                        return [C[tries[0]]]
                    continue
                t = 0   # rank-raising children visited
                for code in tries:
                    if raises and raises[code]:
                        j = t % batch[dpt]
                        if j == 0:
                            Ps = project(P, R[t:t + batch[dpt]])
                            keys = [Q.tobytes() for Q in Ps.astype(np.uint16)]
                            Rs = [None] * len(Ps)
                            Us = [None] * len(Ps)
                            # failed only grows: a child whose state has
                            # failed already reads no product
                            miss = [i for i, kb in enumerate(keys)
                                    if (dpt + 1, kb) not in failed]
                            if miss:
                                prod = field.matmul(firsts[dpt + 1], Ps[miss])
                                for i, Q, U in zip(miss, prod,
                                                   prod.any(axis=2)):
                                    Rs[i], Us[i] = Q, U
                        sub = dfs(dpt + 1, Ps[j], keys[j], rk + 1,
                                  Rs[j], Us[j])
                        t += 1
                    else:
                        if shared is None:
                            if (dpt + 1, key) in failed:
                                shared = None, None
                            else:
                                nxt = (field.matmul(firsts[dpt + 1], P)
                                       if rk else firsts[dpt + 1])
                                shared = nxt, nxt.any(axis=1)
                        sub = dfs(dpt + 1, P, key, rk, *shared)
                    if sub is not None:
                        return [C[code]] + sub
            failed.add((dpt, key))
            return None

        try:
            root = np.eye(n, dtype=np.int64)
            return dfs(0, root, root.astype(np.uint16).tobytes(), 0,
                       firsts[0], firsts[0].any(axis=1))
        finally:
            del dfs  # dfs names itself through a cell: free the memo now

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
    """Error-free optimal code followed by an outer distance-(2delta+1) code:
    the lift of the min_rank witness L.

    Returns (L, witness, outer_entry); outer_entry is None when an explicit
    outer generator was supplied.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    w = min_rank(inst, field)
    L, entry = construct_lift(inst, field, delta, w.L, outer)
    return L, w, entry


def construct_lift(inst, field, delta, B, outer=None):
    """Lift core matrix B (n x a) through an outer [N, a, >=2delta+1] code G.

    Row i of the result is the B_i-combination of the outer generator rows.
    B must be an error-free index code, verify(inst, field, B, 0): then every
    confusable z has z B != 0, so z (B G) = (z B) G is a nonzero outer
    codeword of weight >= 2delta+1.  The check needs no enumeration: z B = 0
    for some confusable z of receiver i exactly when -B_f(i) is a combination
    of the rows B[Y_i], one linear solve per receiver.  Returns
    (L, outer_entry).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    B = check_matrix(field, B)
    if B.shape[0] != inst.n:
        raise ValueError(f"core must have {inst.n} rows")
    for i in range(inst.m):
        yi = sorted(y_set(inst, i))
        c = solve_one(field, B[yi].T,
                      field.mul_arr(field.neg(1), B[inst.f[i]]))
        if c is not None:
            z = np.zeros(inst.n, dtype=np.int64)
            z[inst.f[i]] = 1
            z[yi] = c
            raise NotAnIndexCode(
                f"core is not an index code: receiver {i}, "
                f"z = {z.tolist()} gives z B = 0")
    entry = None
    if outer is None:
        from .bounds import nq_kd
        entry = nq_kd(field.q, B.shape[1], 2 * delta + 1)
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
    if delta < 0:
        raise ValueError("delta must be >= 0")
    q = field.q
    total = sum(q ** (inst.n - len(inst.X[i]) - 1) for i in range(inst.m))
    return total * sphere_volume(q, N, 2 * delta) < q ** N


def random_min_length(inst, field, delta):
    """Least N where random_existence_condition holds.  The condition is
    monotone in N, since V_q(N+1, r) <= q V_q(N, r), so the upward scan
    finds it."""
    N = 1
    while not random_existence_condition(inst, field, delta, N):
        N += 1
    return N


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
    nmin = random_min_length(inst, field, delta)
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
    certified: bool    # always True: a budget stop raises instead
    delta: int


def search_min_length(inst, field, delta, n_max, workers=1,
                      budget=SEARCH_BUDGET):
    """Shortest delta-correcting length for inst, by exhaustive column search.

    Columns and confusable directions are both reduced to projective
    representatives (scaling changes no zero pattern).  The returned matrix
    is the lexicographically least certificate at the optimal length; every
    shorter length comes with an exhausted refutation.
    """
    # workers=1 is still accepted only because the benchmark passes it
    if workers != 1:
        raise ValueError("the search runs in one process: workers must be 1")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    columns = projective_reps(field, inst.n)
    Z = np.fromiter(iter_I(inst, field), dtype=np.dtype((np.int64, inst.n)))
    # a mask over the lex-ordered columns keeps the targets sorted
    hit = np.bincount(projective_index(field, Z), minlength=len(columns))
    targets = columns[hit > 0]
    res = min_length_search(field, columns, targets, 2 * delta + 1, n_max,
                            budget=budget)
    L = None if res.n_opt is None else columns[list(res.solution)].T
    return SearchReport(n_opt=res.n_opt, L=L, nodes=res.nodes,
                        refuted=res.refuted, certified=True,
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
