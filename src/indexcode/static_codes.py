"""Codes that serve a whole family of receivers at once.

One matrix can be reused across every instance in which each receiver
already owns all but at most ``rho`` of the ``n`` messages.  Decodability
for the entire family collapses to a single matrix condition: every
nontrivial combination of at most ``rho`` rows must have weight at least
``2*delta + 1``.  This module checks that condition directly, builds the
canonical single instance that is exactly as hard as the family, brackets
the optimal length, constructs matrices greedily, and checks the induced
binary maps for weak resilience (uniformity of every rho-subset of outputs
under partial input fixing).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .bounds import SEARCH_POINT_CAP, CodeTableEntry, griesmer_lower, nq_kd
from .errors import BudgetExceeded
from .fields import (block_rows, check_matrix, fill_supports, lex_supports,
                     make_field, product_index, product_rows, rank,
                     span_matrix, sparse_vectors, sphere_volume)
from .instances import make_instance
from .search import projective_index, projective_reps

COMBO_BUDGET = 2_000_000        # verify_rho_delta coefficient vectors with
                                # leading coefficient 1 (the ones it scans)
PARITY_NODE_BUDGET = 2_000_000  # DFS extensions in the parity-check search
GREEDY_WORK_CAP = 1 << 24       # candidate*combination pairs per greedy step
RESILIENCE_BUDGET = 1 << 24     # (rho-subsets) x (fixings) x inputs counted
RECEIVER_CAP = 4096             # receivers a canonical instance may spell out


# ---------------------------------------------------------------------------
# the family and its canonical instance
# ---------------------------------------------------------------------------


def canonical_instance(n, rho, cap=RECEIVER_CAP):
    """The single instance exactly as demanding as the whole family.

    One receiver per nonempty subset K of at most rho messages: it demands
    the smallest-indexed message in K and owns everything outside K.  The
    decoding supports of this instance are precisely the nonempty subsets
    of size <= rho, so a matrix serves the family iff it serves this one
    instance.
    """
    if not 1 <= rho <= n:
        raise ValueError(f"need 1 <= rho <= n, got rho={rho} n={n}")
    m = sum(comb(n, s) for s in range(1, rho + 1))
    if m > cap:
        raise BudgetExceeded(f"{m} receivers exceed cap {cap}")
    ground = set(range(n))
    f = []
    X = []
    for size in range(1, rho + 1):
        for K in combinations(range(n), size):
            f.append(K[0])
            X.append(tuple(sorted(ground - set(K))))
    return make_instance(n, tuple(f), tuple(X))


# ---------------------------------------------------------------------------
# the row-combination weight condition
# ---------------------------------------------------------------------------


def verify_rho_delta(field, L, rho, delta, budget=COMBO_BUDGET):
    """Check that every nontrivial combination of <= rho rows of L has
    weight >= 2*delta + 1.

    Returns (True, None) or (False, (coeffs, combination)) where coeffs is
    the full-length coefficient vector of the first failing combination.
    Supports are scanned by (size, lex); within a support the leading
    coefficient is fixed to 1 (scaling cannot change a weight), which keeps
    the first (q-1)**(size-1) rows of its support_vectors block.  One
    matmul weighs a block of supports of one size, block_rows of them.
    budget caps the vectors scanned: (sphere_volume(q, n, rho) - 1) / (q - 1).
    """
    L = check_matrix(field, L)
    n, N = L.shape
    if not 1 <= rho <= n:
        raise ValueError(f"need 1 <= rho <= n, got rho={rho} n={n}")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    q = field.q
    total = (sphere_volume(q, n, rho) - 1) // (q - 1)
    if total > budget:
        raise BudgetExceeded(f"{total} combinations exceed budget {budget}")
    need = 2 * delta + 1
    for size in range(1, rho + 1):
        lead = (q - 1) ** (size - 1)   # rows per support
        for S in lex_supports(n, size, block_rows(lead * n * N)):
            # a 1 at each support's first position, support_vectors after
            Z = np.zeros((len(S) * lead, n), dtype=np.int64)
            Z.reshape(len(S), lead, n)[np.arange(len(S)), :, S[:, 0]] = 1
            fill_supports(Z, q, S[:, 1:])
            combos = field.matmul(Z, L)
            bad = np.nonzero(np.count_nonzero(combos, axis=1) < need)[0]
            if len(bad):
                return False, (Z[bad[0]].copy(), combos[bad[0]].copy())
    return True, None


# ---------------------------------------------------------------------------
# shortest parity check with <=rho-wise independent columns
# ---------------------------------------------------------------------------


def find_parity_check(field, n, rho, N, budget=PARITY_NODE_BUDGET):
    """First N x n matrix (by non-decreasing projective column index) whose
    every <= rho columns are linearly independent, or None if none exists.

    Exhaustive over column multisets: column scaling and order never affect
    the independence condition, so projective representatives in
    non-decreasing order lose nothing.  A column may join iff it avoids the
    span of every <= rho-1 chosen columns; a bitmask over the
    representatives tracks the columns lying in those spans.

    A frame works out what each of its allowed columns would forbid all at
    once, one projective_index call for a batch of block_rows columns.
    The weight <= rho-2 combinations at a depth are built the first time
    the search reaches it and kept.  budget caps the columns visited,
    allowed or not.
    """
    reps = projective_reps(field, N)
    # a column c joining forbids c + z.chosen for every z of weight <= rho-2;
    # light[k] holds those z at depth k, for the depths reached so far
    light = []
    nodes = 0
    chosen = []

    def visit(count):
        nonlocal nodes
        nodes += count
        if nodes > budget:
            raise BudgetExceeded(
                f"parity-check search exceeded {budget} nodes")

    def extend(start, forbidden):
        k = len(chosen)
        if k == n:
            return True
        if k == len(light):
            light.append(sparse_vectors(field.q, k, rho - 2))
        combos = field.matmul(light[k], reps[chosen])
        allowed = [idx for idx in range(start, len(reps))
                   if not forbidden >> idx & 1]
        batch = block_rows(len(combos) * N)
        seen = start   # the columns before seen are counted
        for t, idx in enumerate(allowed):
            visit(idx + 1 - seen)   # the forbidden columns skipped, and idx
            seen = idx + 1
            if t % batch == 0:
                cols = reps[allowed[t:t + batch], None, :]
                hit = projective_index(
                    field, field.add_arr(cols, combos).reshape(-1, N))
                hits = hit.reshape(len(cols), -1).tolist()
            grown = forbidden
            for u in hits[t % batch]:
                grown |= 1 << u
            chosen.append(idx)
            if extend(idx, grown):
                return True
            chosen.pop()
        visit(len(reps) - seen)
        return False

    try:
        found = extend(0, 0)
    finally:
        del extend  # extend names itself through a cell: break the cycle now
    return reps[chosen].T if found else None


def _dual_rho_star(n, rho, q, budget):
    """rho* = n - max{k : N_q[k, rho+1] <= n}: an N x n parity check with
    every <= rho columns independent is one of an [n, n-N] code of distance
    > rho.  Scans k = 1, 2, ... up to the first k that Griesmer or a search
    capped at length n rules out; a search budget stop raises."""
    k = 1
    while griesmer_lower(q, k, rho + 1) <= n:
        e = nq_kd(q, k, rho + 1, n_max=n, budget=budget)
        if e.N is None and e.provenance == "bracket":
            raise BudgetExceeded(
                f"N_{q}[{k},{rho + 1}] is open: bracket {e.bracket}")
        if e.N is None or e.N > n:
            break
        k += 1
    return n - (k - 1)


def _rho_star_details(n, rho, q, budget=PARITY_NODE_BUDGET):
    """(value, provenance) behind rho_star."""
    if not 1 <= rho <= n:
        raise ValueError(f"need 1 <= rho <= n, got rho={rho} n={n}")
    field = make_field(q)
    if q >= n - 1:
        # a doubly-extended Reed-Solomon parity check reaches the Singleton
        # floor whenever the field is at least as large as n - 1
        return rho, "mds"
    for N in range(rho, n + 1):
        if (q ** N - 1) // (q - 1) > SEARCH_POINT_CAP:
            # too many candidate columns: answer from the dual side
            return _dual_rho_star(n, rho, q, budget), "dual"
        if find_parity_check(field, n, rho, N, budget=budget) is not None:
            return N, "search"
    raise RuntimeError("identity columns must succeed at N=n")  # pragma: no cover


def rho_star(n, rho, q, budget=PARITY_NODE_BUDGET):
    """Fewest rows N of a parity check on n columns forcing every <= rho
    columns independent (equivalently: minimal N with an [n, n-N] code of
    distance > rho).  This is also the min-rank of canonical_instance(n, rho).
    """
    return _rho_star_details(n, rho, q, budget=budget)[0]


# ---------------------------------------------------------------------------
# length brackets for the family optimum
# ---------------------------------------------------------------------------


@dataclass
class StaticReport:
    n: int
    rho: int
    delta: int
    q: int
    rho_star: int | None
    rho_star_provenance: str         # mds | search | dual | unavailable
    lower_alpha: int | None          # shortest length at dimension rho
    lower_singleton: int | None      # rho_star + 2*delta
    upper: int | None                # shortest length at dimension rho_star
    exact: int | None                # rho + 2*delta on large enough fields
    alpha_entry: CodeTableEntry | None
    upper_entry: CodeTableEntry | None


def static_bounds(n, rho, delta, q, budget=PARITY_NODE_BUDGET):
    """Bracket the optimal family-serving length; unavailable components
    are reported as None rather than failing the whole report."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    d = 2 * delta + 1
    try:
        rs, prov = _rho_star_details(n, rho, q, budget=budget)
    except BudgetExceeded:
        rs, prov = None, "unavailable"
    alpha_entry = nq_kd(q, rho, d)
    lower_alpha = alpha_entry.N
    if rs is None:
        lower_singleton = None
        upper = None
        upper_entry = None
    else:
        lower_singleton = rs + 2 * delta
        upper_entry = alpha_entry if rs == rho else nq_kd(q, rs, d)
        upper = upper_entry.N
    exact = rho + 2 * delta if q >= max(n - 1, rho + 2 * delta - 1) else None
    if (lower_alpha is not None and lower_singleton is not None
            and upper is not None
            and max(lower_alpha, lower_singleton) > upper):
        raise RuntimeError(
            f"bracket inverted: max({lower_alpha}, {lower_singleton}) > {upper}")
    return StaticReport(n, rho, delta, q, rs, prov, lower_alpha,
                        lower_singleton, upper, exact, alpha_entry, upper_entry)


# ---------------------------------------------------------------------------
# greedy construction with the counting guarantee
# ---------------------------------------------------------------------------


def gv_inequality(n, rho, delta, q, N):
    """True when counting promises the greedy below always reaches n rows:
    sum_{i<rho} C(n-1,i)(q-1)^i * V_q(N, 2delta) < q^N."""
    return (sphere_volume(q, n - 1, rho - 1) * sphere_volume(q, N, 2 * delta)
            < q ** N)


@dataclass
class GreedyReport:
    n: int
    rho: int
    delta: int
    q: int
    N: int
    order: str
    seed: int | None
    success: bool
    L: np.ndarray | None    # the finished matrix, re-verified
    rows_built: int
    partial: np.ndarray     # whatever was placed before a dead end
    inequality_holds: bool


def gv_greedy(n, rho, delta, q, N, order="lex", seed=None):
    """Grow an n x N matrix row by row, each new row admissible iff no
    nontrivial combination of it with <= rho-1 placed rows has weight
    <= 2*delta.  Each step takes the first admissible candidate in the
    chosen order (full rescan, so the counting guarantee applies verbatim:
    whenever gv_inequality holds the greedy cannot dead-end, in any order).
    The candidates are tested in slices of block_rows of them, whose sums
    take about fields.BLOCK_CELLS entries, up to the first slice that
    holds an admissible one; each slice is built from its candidates'
    positions in the order, so the whole of F_q^N is never held.

    order="lex" scans F_q^N lexicographically; order="seeded" scans the
    permutation of it drawn from default_rng(seed), so seed is required.
    Dead ends only report how far they got.
    """
    field = make_field(q)
    if not 1 <= rho <= n:
        raise ValueError(f"need 1 <= rho <= n, got rho={rho} n={n}")
    if delta < 0 or N < 1:
        raise ValueError("need delta >= 0 and N >= 1")
    if order not in ("lex", "seeded"):
        raise ValueError(f"unknown order {order!r}")
    if order == "seeded" and seed is None:
        raise ValueError("order='seeded' needs a seed")
    max_combos = sphere_volume(q, n - 1, rho - 1)
    if q ** N * max_combos > GREEDY_WORK_CAP:
        raise BudgetExceeded(
            f"{q ** N} candidates x {max_combos} combinations exceed cap")
    pool = q ** N
    perm = (np.random.default_rng(seed).permutation(pool)
            if order == "seeded" else None)
    need = 2 * delta + 1
    holds = gv_inequality(n, rho, delta, q, N)
    rows = []
    while len(rows) < n:
        # every combination of <= rho-1 placed rows, zero included
        V = field.matmul(sparse_vectors(q, len(rows), rho - 1),
                         np.array(rows, dtype=np.int64).reshape(-1, N))
        step = block_rows(len(V) * N)
        for a in range(0, pool, step):
            cand = product_rows(q, N, np.arange(a, min(a + step, pool))
                                if perm is None else perm[a:a + step])
            sums = field.add_arr(cand[:, None, :], V[None, :, :])
            hits = np.flatnonzero(
                (np.count_nonzero(sums, axis=2) >= need).all(axis=1))
            if len(hits):
                rows.append(cand[hits[0]].copy())
                break
        else:
            partial = (np.array(rows, dtype=np.int64)
                       if rows else np.zeros((0, N), dtype=np.int64))
            return GreedyReport(n, rho, delta, q, N, order, seed, False,
                                None, len(rows), partial, holds)
    L = np.array(rows, dtype=np.int64)
    ok, _ = verify_rho_delta(field, L, rho, delta)
    if not ok:  # pragma: no cover - would mean the admissibility test lies
        raise RuntimeError("greedy output fails its own re-check")
    return GreedyReport(n, rho, delta, q, N, order, seed, True,
                        L, n, L, holds)


# ---------------------------------------------------------------------------
# weak resilience of the induced binary map (q = 2 only)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceWitness:
    outputs: tuple      # the rho output coordinates that skew
    fixed_inputs: tuple  # the t input positions held constant
    fixing: tuple       # the constant values, aligned with fixed_inputs
    counts: tuple       # hit count per output tuple (index = binary code)


def weak_resilience_check(L, rho, t, budget=RESILIENCE_BUDGET):
    """Definitional check that z -> L @ z (mod 2) is rho-weakly t-resilient.

    For every set of rho output coordinates and every way of fixing t
    inputs, the remaining inputs must drive those outputs through every
    rho-tuple equally often.  Counted by brute force over all 2^N inputs;
    no shortcut through the row-weight criterion, so the equivalence
    between the two can be tested rather than assumed.
    """
    f2 = make_field(2)
    L = check_matrix(f2, L)
    n, N = L.shape
    if not 1 <= rho <= n:
        raise ValueError(f"need 1 <= rho <= n, got rho={rho} n={n}")
    if not 0 <= t <= N:
        raise ValueError(f"need 0 <= t <= N, got t={t} N={N}")
    cost = comb(n, rho) * comb(N, t) * 2 ** N
    if cost > budget or 2 ** (t + rho) > budget:
        raise BudgetExceeded(f"{cost} counted entries exceed budget {budget}")
    Z = product_rows(2, N, np.arange(2 ** N))   # z_0 most significant
    for K in combinations(range(n), rho):
        out_int = product_index(2, (Z @ L[list(K)].T) % 2)
        for T in combinations(range(N), t):
            fix_int = product_index(2, Z[:, list(T)])
            counts = np.bincount(fix_int * 2 ** rho + out_int,
                                 minlength=2 ** (t + rho))
            table = counts.reshape(2 ** t, 2 ** rho)
            bad = np.nonzero(table.max(axis=1) != table.min(axis=1))[0]
            if len(bad):
                a = int(bad[0])
                fixing = tuple(product_rows(2, t, [a])[0].tolist())
                return False, ResilienceWitness(K, T, fixing,
                                                tuple(int(c) for c in table[a]))
    return True, None


def max_resiliency(L):
    """Largest t for which z -> L @ z (mod 2) is n-weakly t-resilient when
    the rows are independent: one less than the minimum weight of the row
    span.  Dependent rows make the map non-surjective, reported as -1."""
    f2 = make_field(2)
    L = check_matrix(f2, L)
    if rank(f2, L) < L.shape[0]:
        return -1
    words = span_matrix(f2, L)
    return int(np.count_nonzero(words[1:], axis=1).min()) - 1
