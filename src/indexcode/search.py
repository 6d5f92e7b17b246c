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

Deficits are stored bit-sliced: targets are bit positions, and levels[k] is
the set of targets still short of k+1 hits, so levels[0] is the deficient
set and levels[k+1] is a subset of levels[k].  Hitting the deficient targets
m of a column is levels[k] = (levels[k] & ~m) | (levels[k+1] & m), a few
int operations whatever the number of targets.  Every node keeps each
deficit <= remaining, so a child's worst deficit reaches remaining exactly
when levels[remaining-1] has a target outside m.  reach[t] is the union of
the masks of types t, t+1, ...; the union rule reads reach[t_min].
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
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
class MinLengthResult:
    n_opt: int | None
    solution: tuple | None   # type indices into the column list
    nodes: int
    refuted: dict            # n -> nodes for each exhausted infeasible length
    certified: bool          # refutations complete (budget never tripped)


def _search_fixed_n(masks, nz, d, n, first_types, budget):
    """DFS for one length n >= d; returns (solution, nodes), where the
    solution is a non-decreasing tuple of column types or None.

    first_types restricts the first column's type (worker partitioning);
    recursion below the first level is unrestricted (>= chosen type).
    """
    T = len(masks)
    full_mask = (1 << nz) - 1
    reach = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        reach[t] = reach[t + 1] | masks[t]
    nodes = 0

    def hit(levels, m):
        # every target in m loses one unit of deficit
        nm = ~m
        return [(levels[k] & nm) | (levels[k + 1] & m)
                for k in range(d - 1)] + [levels[-1] & nm]

    def dfs(levels, def_sum, remaining, t_min):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")
        if def_sum == 0:
            return ()
        if remaining == 0:
            return None
        def_mask = levels[0]
        if reach[t_min] & def_mask != def_mask:
            return None
        cands = []
        maxcov = 0
        for t in range(t_min, T):
            m = masks[t] & def_mask
            if m:
                cov = m.bit_count()
                cands.append((t, m, cov))
                if cov > maxcov:
                    maxcov = cov
        if def_sum > remaining * maxcov:
            return None
        # no deficit exceeds remaining: a child is dead exactly when a
        # target short of `remaining` hits is outside m
        tight = levels[remaining - 1] if remaining <= d else 0
        for t, m, cov in cands:
            if tight & ~m:
                continue
            sub = dfs(hit(levels, m), def_sum - cov, remaining - 1, t)
            if sub is not None:
                return (t,) + sub
        return None

    levels = [full_mask] * d
    tight = full_mask if n <= d else 0
    try:
        for t in first_types:
            m = masks[t] & full_mask
            if not m or tight & ~m:
                continue
            sub = dfs(hit(levels, m), d * nz - m.bit_count(), n - 1, t)
            if sub is not None:
                return (t,) + sub, nodes
        return None, nodes
    finally:
        del dfs  # dfs names itself through a cell: break the cycle now


def _worker(args):
    return _search_fixed_n(*args)


def min_length_search(field, columns, targets, d, n_max,
                      workers=1, budget=50_000_000):
    """Scan lengths d, d+1, ... up to n_max; see module docstring.

    columns: candidate column vectors (projective reps, ascending).
    targets: the vectors that must each be hit at least d times (d >= 1).
    With workers > 1 one process pool serves the whole scan; each length
    splits the first column's type round-robin over the workers.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    masks = build_hits(field, columns, targets)
    nz = len(targets)
    chunks = [c for c in (range(w, len(masks), workers)
                          for w in range(workers)) if c]
    refuted = {}
    total_nodes = 0
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        for n in range(d, n_max + 1):
            if pool is not None:
                results = list(pool.map(
                    _worker, [(masks, nz, d, n, chunk, budget)
                              for chunk in chunks]))
                sols = [s for s, _ in results if s is not None]
                n_nodes = sum(nn for _, nn in results)
                sol = min(sols) if sols else None
            else:
                sol, n_nodes = _search_fixed_n(masks, nz, d, n,
                                               range(len(masks)), budget)
            total_nodes += n_nodes
            if sol is not None:
                return MinLengthResult(n, sol, total_nodes, refuted, True)
            refuted[n] = n_nodes
    return MinLengthResult(None, None, total_nodes, refuted, True)
