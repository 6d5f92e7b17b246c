"""Minimum-length column-multiset search.

Shared kernel: given a set of target vectors and a required count d, find the
shortest multiset of nonzero columns such that every target has a nonzero
inner product with at least d of them.  Both the optimal-code search for an
instance and the shortest-code search for N_q[k,d] reduce to this, because
scaling a column (or a target) never changes whether an inner product is
zero; columns are therefore enumerated as projective representatives (first
nonzero coordinate 1) in ascending lexicographic order, and the first
solution found is the lexicographically least certificate.

Refutations are exhaustive: a length is declared infeasible only after the
whole (pruned) multiset tree is exhausted.  The pruning rules are exact for
an ascending-length scan:

* a column is only added if it covers a target that is still deficient
  (sound by induction, every shorter length having been refuted);
* dead when the largest deficit exceeds the remaining slots;
* dead when remaining * (best single-column coverage of deficient targets)
  cannot reach the total deficit;
* dead, by the same rule, when remaining * (its frame's best single-column
  coverage) cannot reach the total deficit: a child's deficient set lies
  inside its frame's and its types among its frame's, so its own best
  coverage is at most the frame's (the frame bound);
* dead when some deficient target is hit by no remaining column type.

Deficits are stored bit-sliced in one packed int: targets are bit positions,
and level k of a node's `levels`, bits k*nz to (k+1)*nz - 1, is the set of
targets still short of k+1 hits; so level 0 is the deficient set and level
k+1 is a subset of level k.  Hitting the deficient targets m of a column
lowers each of their deficits by one, so at every level a target in m takes
its bit from the level above.  With spread = sum of 2^(k*nz) over k < d,
ms = m * spread copies m into each of the d levels without a carry (m <
2^nz), and the child's levels are (levels & ~ms) | ((levels >> nz) & ms),
computed as levels ^ (flip & ms) with flip = levels ^ (levels >> nz) taken
once per frame: a multiply and two bit operations whatever the number of
targets or d.  The child's deficient set is its levels & full, with
full = 2^nz - 1.  Every node keeps each deficit <= remaining, so its levels
from `remaining` up are 0 and its worst-deficit ("tight") set is its level
remaining-1: its levels shifted right by (remaining-1)*nz, which leaves 0
when remaining > d.  Every child's column must cover it, so a parent keeps
only the types covering a child's tight set in the child's candidate list;
the coverage rule still takes its best single-column coverage over every
type u >= t with a hit.  reach[t] is the union of the masks of types t,
t+1, ...; a child that took type t passes the union rule exactly when
reach[t] covers its parent's deficient set, because t hits none of the
targets outside reach[t].  reach shrinks as t grows, so the children
passing it form a prefix of each candidate list, and the test runs only up
to the first failure: every later type that passes the other entry tests
fails it too.  These failures, the dead, are counted, not listed, and added
to the node count once the listed children are done, where a one-by-one
loop would have reached them.  They are never solved, since a solving
column covers every deficient target.

A parent runs each child's entry tests in its own loop (solved, frame bound,
coverage rule), and gives a frame only to a child with three or more slots
that passes them all and has a child passing the union rule; for a child
with none, the parent adds its dead in its own loop.  The frame bound reads
no tail: a frame gets its best coverage from its parent, which measured it
while building the frame's list (at the root, the largest mask), so a child
it drops costs one node, as under the full rule.  That coverage must be the
frame's exact best, since a lower one would drop children that pass.  A
child with two slots left gets no frame either: its parent hands last_two
the child's deficient set D, its tight set T (the targets of deficit 2; 0
when d = 1) and its pool, the types u >= t, ascending, that cover T and hit
D; the union-rule passers come first and the dead after them, and a pool
with no passer is added as dead without the call.  A grandchild that took
the pool type t' has one slot and every deficit <= 1, so it passes the
coverage rule exactly when some type u >= t' covers its deficient set
(D & ~m_t') | T, and it is then solved at the first such u in one node.
Such a u covers T and hits D, so it is a pool entry at or after t', and the
pool is in ascending order: the first hit in the rest of the pool is the
first hit among all the types u >= t'.  Every pool type covers T, so
last_two tests each u against D & ~m_t' alone.  The root of length 2 is such
a frame, its candidates its pool; at the root of length 1, d = 1 makes every
candidate solve.  Parents test the types u >= t in a list of (u, masks[u])
for the types with a hit, built the first time some child takes t; for a
two-slot child they count the hits of a type only while its coverage rule is
undecided.  A child counts as a node, and meets the budget, when it is
tested; a solving pair adds a node for its last column, and the dead of a
child that is not solved are added after its frame or call fails, or at once
when it gets none.

A child with three or more slots that took type t and has deficient set D
has best single-column coverage max(|masks[u] & D| for u >= t).  That value
depends on the masks, t and D alone, not on the length, the deficit levels
or the tight set, so min_length_search keeps one memo of it, `cover`, for
its whole scan, keyed by D * T + t (T types, so no two pairs share a key),
and every length reads and fills it.  A hit is the value the full scan
would find, so each frame still gets its exact best and no tree changes.
On a hit the parent applies the coverage rule before reading the tail, and
a child that passes walks its tail only to list the types covering its
tight set, counting bits for those alone.  A miss runs the full scan and
stores its result while the memo holds fewer than COVER_CAP entries.  A
long scan adds about 0.2 entries per node, so the cap is what bounds the
memo: some 3 MiB at 2^15 entries.  Two-slot children do not use it, as
their (t, D) pairs seldom repeat.

The scan runs in one process, one length after another, and the budget caps
the nodes of each length.  Node counts therefore depend only on the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded
from .fields import product_index, product_rows

SEARCH_BUDGET = 50_000_000  # default nodes the exact search may visit per length
COVER_CAP = 1 << 15  # entries the best-coverage memo of one scan may hold


def projective_reps(field, k):
    """Nonzero vectors of F_q^k with first nonzero coordinate 1, lex order,
    as int64 rows: product_rows t with q^j <= t < 2 q^j, j = 0..k-1, which
    projective_index maps to 0, 1, 2, ..."""
    q = field.q
    return product_rows(q, k, np.concatenate(
        [np.arange(q ** j, 2 * q ** j) for j in range(k)]))


def projective_index(field, V):
    """Position in projective_reps(field, k) order of the representative of
    each row of V (n x k, rows nonzero).  With s the row's first nonzero
    position, the reps whose first nonzero sits after s come first, all
    (q^(k-1-s) - 1) / (q - 1) of them; then the row, scaled to lead with 1,
    counts by its product_index past its leading 1."""
    V = np.asarray(V, dtype=np.int64)
    q, k = field.q, V.shape[1]
    s = (V != 0).argmax(axis=1)
    lead = V[np.arange(len(V)), s]
    W = field.mul_arr(field.inv_arr(lead)[:, None], V)
    top = q ** (k - 1 - s)               # the place value of W's leading 1
    return (top - 1) // (q - 1) + product_index(q, W) - top


def build_hits(field, columns, targets):
    """hits[t] = bitmask of the target indices j with <targets[j],
    columns[t]> != 0, packed little-endian from one product."""
    hit = field.matmul(np.asarray(columns, dtype=np.int64),
                       np.asarray(targets, dtype=np.int64).T) != 0  # (T, Z)
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(hit, axis=1, bitorder="little")]


@dataclass
class MinLengthResult:
    n_opt: int | None
    solution: tuple | None   # type indices into the column list
    nodes: int
    refuted: dict            # n -> nodes for each exhausted infeasible length


def _search_fixed_n(masks, nz, d, n, budget, cover):
    """DFS for one length n >= d; returns (solution, nodes), where the
    solution is a non-decreasing tuple of column types or None.  cover is
    the scan's best-coverage memo (module docstring), filled as it goes."""
    T = len(masks)
    reach = [0] * (T + 1)
    for t in range(T - 1, -1, -1):
        reach[t] = reach[t + 1] | masks[t]
    tails = [None] * T  # tails[t]: (u, masks[u]) for u >= t with a hit
    full = (1 << nz) - 1
    spread = sum(1 << k * nz for k in range(d))  # m * spread: m at each level
    stop = f"search budget {budget} exhausted"
    nodes = 0

    def last_two(def_mask, tight, pool, live):
        # a frame with two slots: pool holds (u, masks[u]) for its types
        # covering tight and hitting def_mask, ascending, and the first
        # live of them pass the union rule; the caller counts the rest
        nonlocal nodes
        for i in range(live):
            u, mu = pool[i]
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(stop)
            # the child's deficient set is need | tight, and every pool
            # type covers tight
            need = def_mask & ~mu
            if not need | tight:
                return (u,)
            for v, mv in pool[i:]:
                if not need & ~mv:
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceeded(stop)
                    return (u, v)
        return None

    def dfs(levels, def_sum, remaining, cands, fmax):
        # a frame with three or more slots, or the root of length 1 (whose
        # children all solve); levels: its packed deficit levels; cands:
        # the children (type, hit set, size) that pass the union rule; the
        # caller counts the children after them, which fail it; fmax: the
        # frame's best single-column coverage, at least each child's
        nonlocal nodes
        remaining -= 1  # each child's slots
        shift = (remaining - 1) * nz  # where a child's tight level starts
        flip = levels ^ (levels >> nz)  # what a hit changes at each level
        for t, m, cov in cands:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(stop)
            sub_sum = def_sum - cov
            if sub_sum == 0:
                return (t,)
            if sub_sum > remaining * fmax:  # the coverage rule fails
                continue
            sub_levels = levels ^ (flip & m * spread)
            def_mask = sub_levels & full
            tight = sub_levels >> shift
            tail = tails[t]
            if tail is None:
                tail = tails[t] = [(u, masks[u]) for u in range(t, T)
                                   if masks[u]]
            sub_dead = 0  # its children failing the union rule, last
            if remaining == 2:
                pool = []
                half = (sub_sum + 1) >> 1  # 0 once the coverage rule passes
                for u, mu in tail:
                    if half and (mu & def_mask).bit_count() >= half:
                        half = 0
                    if mu & tight == tight and mu & def_mask:
                        pool.append((u, mu))
                        if sub_dead or reach[u] & def_mask != def_mask:
                            sub_dead += 1
                if half:
                    continue
                live = len(pool) - sub_dead
            else:
                live = []  # the child's candidates
                key = def_mask * T + t
                maxcov = cover.get(key)
                if maxcov is None:
                    maxcov = 0
                    for u, mu in tail:
                        mu &= def_mask
                        if mu:
                            c = mu.bit_count()
                            if c > maxcov:
                                maxcov = c
                            if mu & tight == tight:
                                if (sub_dead or
                                        reach[u] & def_mask != def_mask):
                                    sub_dead += 1
                                else:
                                    live.append((u, mu, c))
                    if len(cover) < COVER_CAP:
                        cover[key] = maxcov
                    if sub_sum > remaining * maxcov:
                        continue
                elif sub_sum > remaining * maxcov:
                    continue
                else:
                    for u, mu in tail:
                        mu &= def_mask
                        if mu and mu & tight == tight:
                            if sub_dead or reach[u] & def_mask != def_mask:
                                sub_dead += 1
                            else:
                                live.append((u, mu, mu.bit_count()))
            if live:  # else the child needs no frame
                sub = (last_two(def_mask, tight, pool, live) if remaining == 2
                       else dfs(sub_levels, sub_sum, remaining, live,
                                maxcov))
                if sub is not None:
                    return (t,) + sub
            nodes += sub_dead
            if nodes > budget:
                raise BudgetExceeded(stop)
        return None

    tight = full if n == d else 0
    pool = [(t, m) for t, m in enumerate(masks) if m and not tight & ~m]
    live = sum(reach[t] == full for t, _ in pool)  # a prefix of pool
    try:
        sol = last_two(full, tight, pool, live) if n == 2 else dfs(
            full * spread, d * nz, n,
            [(t, m, m.bit_count()) for t, m in pool[:live]],
            max(m.bit_count() for m in masks))
        if sol is None:  # the root's children that fail the union rule
            nodes += len(pool) - live
            if nodes > budget:
                raise BudgetExceeded(stop)
        return sol, nodes
    finally:
        del dfs  # dfs names itself through a cell: break the cycle now


def min_length_search(field, columns, targets, d, n_max,
                      budget=SEARCH_BUDGET):
    """Scan lengths d, d+1, ... up to n_max in one process; see module
    docstring.

    columns: candidate column vectors (projective reps, ascending).
    targets: the vectors that must each be hit at least d times (d >= 1),
    as wide as the columns (ValueError otherwise).

    budget caps the nodes of each length, not of the scan.  A stop raises
    BudgetExceeded with refuted (length -> nodes) for the lengths exhausted
    before it.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if len(columns) == 0:
        raise ValueError("need at least one column")
    if len(targets) == 0:
        raise ValueError("need at least one target")
    kc, kz = np.shape(columns)[-1], np.shape(targets)[-1]
    if kc != kz:
        raise ValueError(f"columns have width {kc} but targets width {kz}")
    masks = build_hits(field, columns, targets)
    nz = len(targets)
    refuted = {}
    total_nodes = 0
    cover = {}  # valid at every length: it depends on masks alone
    for n in range(d, n_max + 1):
        try:
            sol, n_nodes = _search_fixed_n(masks, nz, d, n, budget, cover)
        except BudgetExceeded as exc:  # re-raised bare: binds no cycle
            exc.refuted = refuted
            exc.args = (f"{exc} at length {n}; lengths refuted before "
                        f"the stop: {sorted(refuted)}",)
            raise
        total_nodes += n_nodes
        if sol is not None:
            return MinLengthResult(n, sol, total_nodes, refuted)
        refuted[n] = n_nodes
    return MinLengthResult(None, None, total_nodes, refuted)
