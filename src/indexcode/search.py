"""Minimum-length column-multiset search.

Shared kernel: given a set of target vectors and a required count d, find the
shortest multiset of nonzero columns such that every target has a nonzero
inner product with at least d of them.  Both the optimal-code search for an
instance and the short-code table search reduce to this, because scaling a
column (or a target) never changes whether an inner product is zero; columns
are therefore enumerated as projective representatives (first nonzero
coordinate 1) in ascending lexicographic order, and the first solution found
is the lexicographically least certificate.

Refutations are exhaustive: a length is declared infeasible only after the
whole (pruned) multiset tree is exhausted.  The pruning rules are exact for
an ascending-length scan:

* a column is only added if it covers a target that is still deficient
  (sound by induction, every shorter length having been refuted);
* dead when the largest deficit exceeds the remaining slots;
* dead when remaining * (best single-column coverage of deficient targets)
  cannot reach the total deficit;
* dead when some deficient target is hit by no remaining column type.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded


def projective_reps(field, k):
    """Nonzero vectors of F_q^k with first nonzero coordinate 1, lex order."""
    out = []
    for tup in itertools.product(range(field.q), repeat=k):
        nz = next((v for v in tup if v), None)
        if nz == 1:
            out.append(tup)
    return out


def normalize_projective(field, z):
    """Scale z so its first nonzero coordinate is 1."""
    z = np.asarray(z, dtype=np.int64)
    nz = np.nonzero(z)[0]
    if len(nz) == 0:
        return tuple(int(v) for v in z)
    c = field.inv(int(z[nz[0]]))
    return tuple(int(v) for v in field.scale(c, z))


def build_hits(field, columns, targets):
    """hits[t] = bitmask over target indices j with <targets[j], columns[t]> != 0."""
    cols = np.array(columns, dtype=np.int64)
    tgts = np.array(targets, dtype=np.int64)
    prods = field.matmul(tgts, cols.T)  # (Z, T)
    masks = []
    for t in range(cols.shape[0]):
        m = 0
        for j in np.nonzero(prods[:, t])[0]:
            m |= 1 << int(j)
        masks.append(m)
    return masks


@dataclass
class LengthOutcome:
    n: int
    solution: tuple | None  # tuple of column-type indices, non-decreasing
    nodes: int
    exhausted: bool


@dataclass
class MinLengthResult:
    n_opt: int | None
    solution: tuple | None   # type indices into the column list
    nodes: int
    refuted: dict            # n -> nodes for each exhausted infeasible length
    certified: bool          # refutations complete (budget never tripped)


def _search_fixed_n(masks, hit_idx, nz, d, n, first_types, budget):
    """DFS for one length; returns LengthOutcome.

    first_types restricts the first column's type (worker partitioning);
    recursion below the first level is unrestricted (>= chosen type).
    """
    T = len(masks)
    full_mask = (1 << nz) - 1
    nodes = 0

    def dfs(deficit, def_mask, def_sum, remaining, t_min):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")
        if def_sum == 0:
            return ()
        if remaining == 0:
            return None
        cands = []
        maxcov = 0
        union = 0
        for t in range(t_min, T):
            m = masks[t] & def_mask
            if m:
                cands.append(t)
                union |= m
                cov = m.bit_count()
                if cov > maxcov:
                    maxcov = cov
        if union != def_mask:
            return None
        if def_sum > remaining * maxcov:
            return None
        for t in cands:
            nd = list(deficit)
            ns = def_sum
            nm = def_mask
            worst = 0
            for j in hit_idx[t]:
                if nd[j] > 0:
                    nd[j] -= 1
                    ns -= 1
                    if nd[j] == 0:
                        nm &= ~(1 << j)
            for v in nd:
                if v > worst:
                    worst = v
            if worst > remaining - 1:
                continue
            sub = dfs(tuple(nd), nm, ns, remaining - 1, t)
            if sub is not None:
                return (t,) + sub
        return None

    base = tuple([d] * nz)
    if max(base, default=0) > n:
        return LengthOutcome(n, None, 1, True)
    sol = None
    for t in first_types:
        m = masks[t] & full_mask
        if not m:
            continue
        nd = list(base)
        ns = d * nz
        nm = full_mask
        for j in hit_idx[t]:
            nd[j] -= 1
            ns -= 1
            if nd[j] == 0:
                nm &= ~(1 << j)
        if max(nd) > n - 1:
            continue
        sub = dfs(tuple(nd), nm, ns, n - 1, t)
        if sub is not None:
            sol = (t,) + sub
            break
    return LengthOutcome(n, sol, nodes, sol is None)


def _worker(args):
    masks, hit_idx, nz, d, n, first_types, budget = args
    out = _search_fixed_n(masks, hit_idx, nz, d, n, first_types, budget)
    return out.solution, out.nodes


def min_length_search(field, columns, targets, d, n_max,
                      workers=1, budget=50_000_000):
    """Scan lengths d, d+1, ... up to n_max; see module docstring.

    columns: candidate column vectors (projective reps, ascending).
    targets: the vectors that must each be hit at least d times.
    """
    masks = build_hits(field, columns, targets)
    hit_idx = [tuple(j for j in range(len(targets)) if m >> j & 1)
               for m in masks]
    nz = len(targets)
    refuted = {}
    total_nodes = 0
    for n in range(max(d, 1), n_max + 1):
        if workers > 1:
            chunks = [list(range(w, len(masks), workers))
                      for w in range(workers)]
            args = [(masks, hit_idx, nz, d, n, chunk, budget)
                    for chunk in chunks if chunk]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_worker, args))
            sols = [s for s, _ in results if s is not None]
            n_nodes = sum(nn for _, nn in results)
            sol = min(sols) if sols else None
        else:
            out = _search_fixed_n(masks, hit_idx, nz, d, n,
                                  range(len(masks)), budget)
            n_nodes = out.nodes
            sol = out.solution
        total_nodes += n_nodes
        if sol is not None:
            return MinLengthResult(n, sol, total_nodes, refuted, True)
        refuted[n] = n_nodes
    return MinLengthResult(None, None, total_nodes, refuted, True)
