"""Syndrome decoding for error-correcting index codes.

Receiver i knows x_j for j in X_i and receives y = x L + error.  It strips
its side information, leaving a word whose error-free part lives in the
code C_i spanned by L_f(i) and the rows of the messages it neither has nor
wants.  Decoding is then classic syndrome decoding in C_i: find the lightest
error pattern matching the syndrome, remove it, and read the demanded symbol
off through a fixed combining vector.

The combiner comes from solving L u = v + e_f(i) with v supported on the
receiver's side information; it depends only on (L, i), so the Decoder class
precomputes it, with one leader table for all receivers over one shared
array of error patterns, for fast repeated decoding: one view, a block of
received words at one receiver, or a block at every receiver in one
lookup.  It builds everything for all receivers at once: one stacked
elimination (fields.rref_stack) gives every parity check and combiner, and
the lookup's own key step every receiver's syndrome keys; code_Ci and
find_combiner remain the one-receiver definitions.  Every view a decoder
takes is checked as make_view checks it.
Up to delta errors, the recovered symbol is exact whenever L verifies at
delta, even though the error estimate itself may differ from the true error
by something the receiver cannot, and need not, distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import check_code
from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .fields import (block_rows, check_matrix, kernel_basis, kernel_from_rref,
                     product_index, rref_stack, solve_one, sparse_blocks,
                     sparse_vectors, sphere_volume, weight)
from .instances import y_set

COSET_BUDGET = 2_000_000


@dataclass(frozen=True)
class ReceiverView:
    """What receiver i actually has: the channel output and its own messages."""
    i: int
    y: tuple
    side: tuple       # pairs (message index, value), sorted by index


def make_view(inst, field, i, y, side):
    """Validate and freeze a receiver's view; side maps X_i to values."""
    view = ReceiverView(
        i=i, y=tuple(int(v) for v in np.asarray(y, dtype=np.int64)),
        side=tuple(sorted((int(k), int(v)) for k, v in dict(side).items())))
    _check_view(inst, field, view)
    return view


def _check_view(inst, field, view, N=None):
    """ValueError unless view is one make_view returns: receiver i in
    range, entries in the field, side indices exactly sorted X_i; and,
    given N, a received word of N symbols."""
    if not 0 <= view.i < inst.m:
        raise ValueError(f"receiver {view.i} out of range")
    if N is not None and len(view.y) != N:
        raise ValueError(f"received word has {len(view.y)} symbols, the code "
                         f"has length {N}")
    if min(view.y, default=0) < 0 or max(view.y, default=0) >= field.q:
        raise ValueError("received word entries out of range")
    if [j for j, _ in view.side] != sorted(inst.X[view.i]):
        raise ValueError("side information must cover exactly X_i")
    if any(not 0 <= v < field.q for _, v in view.side):
        raise ValueError("side values out of range")


def _field_array(field, name, A, width, ndim=1):
    """A as an int64 array of field entries: a vector of width entries, or
    with ndim 2 a block of rows of width entries each; ValueError, naming
    it, for another shape or an entry outside 0..q-1."""
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != ndim or A.shape[-1] != width:
        each = " each" if ndim == 2 else ""
        raise ValueError(f"{name} must have {width} entries{each}, not "
                         f"shape {A.shape}")
    if A.min(initial=0) < 0 or A.max(initial=0) >= field.q:
        raise ValueError(f"{name} entries must lie in 0..{field.q - 1}")
    return A


def check_broadcast(inst, field, L, x, error):
    """x (n entries) and error (N entries) as int64 arrays over the field;
    ValueError names the first one of the wrong length or with an entry
    outside 0..q-1."""
    return (_field_array(field, "x", x, inst.n),
            _field_array(field, "error", error, L.shape[1]))


def transmit(inst, field, L, x, error, i):
    """The view receiver i gets when x is broadcast through L plus an error."""
    L = check_code(inst, field, L)
    x, error = check_broadcast(inst, field, L, x, error)
    y = field.add_arr(field.matmul(x[None, :], L)[0], error)
    return make_view(inst, field, i, y, {j: int(x[j]) for j in inst.X[i]})


@dataclass
class DecodeResult:
    x_hat: int               # the demanded symbol
    e_hat: np.ndarray        # lightest syndrome-matching error pattern
    syndrome: np.ndarray
    combiner: np.ndarray     # u with L u = v + e_f(i)
    weight_searched: int     # weight at which the coset search stopped
    cost: int                # candidate patterns inspected (0 for table hits)
    method: str              # "stream" or "table"


def code_Ci(inst, field, L, i):
    """Generator rows and parity-check matrix of receiver i's local code."""
    L = check_code(inst, field, L)
    gen = np.vstack([L[inst.f[i]][None, :]] +
                    [L[j][None, :] for j in sorted(y_set(inst, i))])
    return gen, kernel_basis(field, gen)


def _strip(field, L, Y, X, side):
    """The received words Y (T, N) less the side information's part of
    x L: row t of side holds word t's values x_j for j in X."""
    return field.sub_arr(Y, field.matmul(side, L[X]))


def _strip_view(inst, field, L, view):
    """The view's received word, side information stripped; ValueError
    for a view make_view would refuse or of the wrong length."""
    _check_view(inst, field, view, L.shape[1])
    X, side = [j for j, _ in view.side], [v for _, v in view.side]
    return _strip(field, L, np.asarray([view.y], dtype=np.int64), X,
                  [side])[0]


def min_weight_coset_solution(field, H, beta, delta, budget=COSET_BUDGET):
    """Lightest e with H e = beta, in sparse_vectors order; TooManyErrors if
    none.  budget caps the patterns the search may inspect; the cost
    returned counts the patterns up to and including e."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    H = check_matrix(field, H)
    N = H.shape[1]
    beta = np.asarray(beta, dtype=np.int64)
    if beta.shape != (H.shape[0],):
        raise ValueError(f"syndrome must have {H.shape[0]} entries")
    total = sphere_volume(field.q, N, delta)
    if total > budget:
        raise BudgetExceeded(
            f"coset search of {total} patterns exceeds budget {budget}")
    cost = 0
    for E in sparse_blocks(field.q, N, delta, block_rows(N * N)):
        hits = np.flatnonzero((field.matmul(E, H.T) == beta).all(axis=1))
        if len(hits):
            return E[hits[0]].copy(), cost + int(hits[0]) + 1
        cost += len(E)
    raise TooManyErrors(
        f"no error pattern of weight <= {delta} matches the syndrome")


def find_combiner(inst, field, L, i):
    """Solve L u = v + e_f(i) with v supported on X_i.

    Returns (u, v_full) or raises NotAnIndexCode when no solution exists
    (receiver i could not decode even an error-free broadcast).
    """
    L = check_code(inst, field, L)
    n, N = L.shape
    X = sorted(inst.X[i])
    A = np.zeros((n, N + len(X)), dtype=np.int64)
    A[:, :N] = L
    for t, j in enumerate(X):
        A[j, N + t] = field.neg(1)
    b = np.zeros(n, dtype=np.int64)
    b[inst.f[i]] = 1
    sol = solve_one(field, A, b)
    if sol is None:
        raise NotAnIndexCode(
            f"receiver {i} cannot express its demand from the broadcast")
    u = sol[:N]
    v = np.zeros(n, dtype=np.int64)
    for t, j in enumerate(X):
        v[j] = sol[N + t]
    return u, v


def recover(inst, field, L, view, e_hat, combiner=None):
    """Demanded symbol from a corrected word: (y - e) u - side combination;
    ValueError for a view make_view would refuse, or a view or e_hat of
    the wrong length or e_hat entries outside 0..q-1."""
    L = check_code(inst, field, L)
    _check_view(inst, field, view, L.shape[1])
    e_hat = _field_array(field, "e_hat", e_hat, L.shape[1])
    if combiner is None:
        combiner = find_combiner(inst, field, L, view.i)
    return _combine(field, view, e_hat, combiner)


def _combine(field, view, e_hat, combiner):
    """recover on checked inputs."""
    u, v = combiner
    corrected = field.sub_arr(np.asarray(view.y, dtype=np.int64), e_hat)
    acc = field.dot(corrected, u)
    for j, val in view.side:
        acc = field.sub(acc, field.mul(val, int(v[j])))
    return acc


def recover_by_elimination(inst, field, L, view, e_hat):
    """Independent recovery path: solve the whole transmission equation.

    Fix the known coordinates, solve x_unknown L_unknown = y - e - known
    part, and read off the demanded coordinate of the first solution.
    ValueError for what recover refuses.
    """
    L = check_code(inst, field, L)
    stripped = _strip_view(inst, field, L, view)
    return _eliminate(inst, field, L, view.i, stripped,
                      _field_array(field, "e_hat", e_hat, L.shape[1]))


def _eliminate(inst, field, L, i, stripped, e_hat):
    """recover_by_elimination on checked inputs, given the view stripped."""
    unknown = [j for j in range(inst.n) if j not in inst.X[i]]
    sol = solve_one(field, L[unknown].T, field.sub_arr(stripped, e_hat))
    if sol is None:
        raise TooManyErrors(
            "corrected word is not explainable by any message vector")
    return int(sol[unknown.index(inst.f[i])])


def decode(inst, field, L, delta, view, budget=COSET_BUDGET,
           recovery="combiner"):
    """Full pipeline: strip, syndrome, lightest coset solution, recover."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    L = check_code(inst, field, L)
    stripped = _strip_view(inst, field, L, view)
    gen, H = code_Ci(inst, field, L, view.i)
    beta = field.matvec(H, stripped)
    e_hat, cost = min_weight_coset_solution(field, H, beta, delta, budget)
    if recovery == "combiner":
        u, v = find_combiner(inst, field, L, view.i)
        x_hat = _combine(field, view, e_hat, (u, v))
    elif recovery == "eliminate":
        x_hat = _eliminate(inst, field, L, view.i, stripped, e_hat)
        u = np.zeros(L.shape[1], dtype=np.int64)
    else:
        raise ValueError(f"unknown recovery {recovery!r}")
    return DecodeResult(x_hat=int(x_hat), e_hat=e_hat, syndrome=beta,
                        combiner=u, weight_searched=weight(e_hat),
                        cost=cost, method="stream")


def _receiver_systems(inst, field, L):
    """Every receiver's parity check, code_Ci(inst, field, L, i)[1], and
    combiner, find_combiner's u, from one rref_stack over 2m matrices of
    width N + n + 1 (in block_rows stacks): L with the X_i rows zeroed,
    which spans receiver i's local code, so its rref and kernel are
    code_Ci's; and [L | -D_i | e_f(i)], D_i the 0/1 diagonal of X_i,
    find_combiner's system with a zero column for each message outside
    X_i.  Zero columns never pivot, so the free-variables-zero solution is
    solve_one's.  Returns (checks, U, solvable): U has one row per
    receiver, zero where find_combiner raises, and solvable marks the
    others."""
    m, (n, N) = inst.m, L.shape
    W = N + n + 1
    own = np.zeros((m, n, 1), dtype=np.int64)
    for i in range(m):
        own[i, sorted(inst.X[i])] = 1
    A = np.zeros((2 * m, n, W), dtype=np.int64)
    A[:m, :, :N] = L * (1 - own)
    A[m:, :, :N] = L
    A[m:, :, N:W - 1] = own * np.eye(n, dtype=np.int64) * field.neg(1)
    A[m + np.arange(m), inst.f, W - 1] = 1
    step = block_rows(n * W)
    R, pivots = map(np.concatenate, zip(*[
        rref_stack(field, A[a:a + step]) for a in range(0, 2 * m, step)]))
    checks = [kernel_from_rref(field, R[i], pivots[i][pivots[i] >= 0].tolist(),
                               N) for i in range(m)]
    # x[pivot] = the rhs entry of its row; rows past the rank write 0 to
    # the rhs column, which no solution keeps
    R, pivots = R[m:], pivots[m:]
    x = np.zeros((m, W), dtype=np.int64)
    x[np.arange(m)[:, None], np.where(pivots >= 0, pivots, W - 1)] = \
        R[:, :n, W - 1]
    solvable = (pivots != W - 1).all(axis=1)
    return checks, x[:, :N] * solvable[:, None], solvable


class Decoder:
    """One leader table for mass decoding of one (inst, L, delta) at every
    receiver.

    Every receiver reads one shared array, the V = sphere_volume(q, N,
    delta) patterns of sparse_vectors(q, N, delta), whose size budget caps.
    The parity checks H and combiners u of all receivers come from one
    rref_stack elimination (_receiver_systems).  Receiver i's key of a
    pattern e is the fields.product_index of H e plus the offset i Q, where
    Q = q^kmax and kmax is the largest number of checks of any receiver, so
    no two receivers share a key.  Keys are int64 while m Q <= 2^63 and
    Python ints past that.  One table serves every receiver: the distinct
    keys, sorted, and row for row the index in the shared array of each
    key's leader, the first pattern with that key, exactly the pattern the
    streaming search returns, and the leader's share l u of the demanded
    symbol.  The build runs the lookup's own key step on a block of
    patterns at a time (block_rows) and takes one np.unique of all m V
    keys.

    A lookup decodes a block of words at a run of receivers at once.  The
    checks stand side by side, each receiver's padded to kmax with leading
    zero rows, so one field.matmul gives every syndrome and one
    product_index every key; then one searchsorted over the table, one
    gather of the leaders' shares and one product with the combiners.
    With the side information stripped from y, the demanded symbol is
    y u - l u.  decode_all runs the lookup for every receiver, and
    decode_block and decode for one.  word_cells is the number of entries
    per word in decode_all's largest intermediate: (T, m kmax) syndromes
    or the (T, N) words over a prime field, and the (T, N, m kmax)
    products that an extension field's matmul forms first; callers size
    decode_all's blocks with block_rows(word_cells).

    Memory: V x N entries once, plus at most m V keys, leader indices and
    shares, and m V keys and m V shares while building.  The arrays are
    read-only, and decode returns copies of them.  So decode(view) gives
    the same DecodeResult as decode() on every input, and raises what
    decode() raises: TooManyErrors when no leader matches, NotAnIndexCode
    when the receiver has no combiner, ValueError for a view make_view
    would refuse.
    """

    def __init__(self, inst, field, L, delta, budget=COSET_BUDGET):
        if delta < 0:
            raise ValueError("delta must be >= 0")
        self.inst = inst
        self.field = field
        self.L = check_code(inst, field, L)
        self.delta = delta
        m, q, N = inst.m, field.q, self.L.shape[1]
        V = sphere_volume(q, N, delta)
        if V > budget:
            raise BudgetExceeded("leader table larger than budget")
        # a leader is the first pattern of its key in this order
        self._patterns = E = sparse_vectors(q, N, delta)
        checks, self._U, self._has_combiner = _receiver_systems(
            inst, field, self.L)
        # receiver i's k_i checks are the last columns of the i-th kmax
        # columns of _checks; the zero columns before them give leading
        # zero syndrome digits, which leave its product_index unchanged
        self._k = np.array([len(H) for H in checks])
        self._kmax = kmax = int(self._k.max())
        self._checks = np.zeros((N, m, kmax), dtype=np.int64)
        for i, H in enumerate(checks):
            self._checks[:, i, kmax - len(H):] = H.T
        self._checks = self._checks.reshape(N, m * kmax)
        Q = q ** kmax
        self._offset = np.array([i * Q for i in range(m)],
                                dtype=np.int64 if m * Q <= 2 ** 63 else object)
        cells = m * max(1, kmax)
        self.word_cells = N * cells if field.e > 1 else max(N, cells)
        rows = block_rows(self.word_cells)
        keys = np.empty((m, V), dtype=self._offset.dtype)
        for b in range(0, V, rows):
            keys[:, b:b + rows] = self._keys(slice(0, m), E[b:b + rows]).T
        # keys run receiver by receiver, so a key's first occurrence names
        # its receiver and its leader
        self._table, first = np.unique(keys.ravel(), return_index=True)
        owner, self._leaders = np.divmod(first, V)
        shares = np.concatenate([field.matmul(E[b:b + rows], self._U.T)
                                 for b in range(0, V, rows)])
        self._shares = shares[self._leaders, owner]
        # decode hands out copies: no caller can change a table
        for A in (self.L, E, self._U, self._has_combiner, self._k,
                  self._checks, self._offset, self._table, self._leaders,
                  self._shares):
            A.setflags(write=False)

    def _keys(self, r, W):
        """The keys of the words W (T, N) at the receivers of the slice r:
        (T, r.stop - r.start)."""
        kmax = self._kmax
        S = self.field.matmul(W, self._checks[:, r.start * kmax:
                                              r.stop * kmax])
        own = product_index(self.field.q,
                            S.reshape(len(W), r.stop - r.start, kmax))
        # cast before the offset: the receivers' own keys may be int64
        # where the offset ones are not
        return own.astype(self._offset.dtype, copy=False) + self._offset[r]

    def _check(self, i):
        """Receiver i's parity check H, code_Ci's."""
        end = (i + 1) * self._kmax
        return self._checks[:, end - self._k[i]:end].T

    def _lookup(self, r, W):
        """Table rows and demanded symbols at the receivers of the slice r
        for the words W (T, N), side information stripped: two (T,
        r.stop - r.start) int64 arrays, -1 where no key matches (rows) and
        where decode() would raise (symbols)."""
        keys = self._keys(r, W)
        table = self._table
        pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        found = table[pos] == keys
        symbols = self.field.sub_arr(self.field.matmul(W, self._U[r].T),
                                     self._shares[pos])
        return (np.where(found, pos, -1),
                np.where(found & self._has_combiner[r], symbols, -1))

    def decode(self, view):
        stripped = _strip_view(self.inst, self.field, self.L, view)
        i = view.i
        rows, symbols = self._lookup(slice(i, i + 1), stripped[None, :])
        if rows[0, 0] < 0:
            raise TooManyErrors(
                f"no error pattern of weight <= {self.delta} matches")
        if not self._has_combiner[i]:
            raise NotAnIndexCode(
                f"receiver {i} cannot express its demand from the broadcast")
        e_hat = self._patterns[self._leaders[rows[0, 0]]].copy()
        return DecodeResult(x_hat=int(symbols[0, 0]), e_hat=e_hat,
                            syndrome=self.field.matvec(self._check(i),
                                                       stripped),
                            combiner=self._U[i].copy(),
                            weight_searched=weight(e_hat), cost=0,
                            method="table")

    def decode_block(self, i, Y, side=None):
        """Receiver i's demanded symbol for each row of Y (received words),
        given side (one row per word: the values x_j for j in sorted X_i;
        None means x_j = 0 throughout, and skips stripping them).  Returns
        int64 symbols, -1 where decode() would raise.  ValueError when i
        is not a receiver, Y or side does not have N or |X_i| columns or
        has an entry outside the field, or side has not one row per
        word."""
        if not 0 <= i < self.inst.m:
            raise ValueError(f"receiver {i} out of range")
        field = self.field
        Y = _field_array(field, "received words", Y, self.L.shape[1], 2)
        if side is not None:
            X_i = sorted(self.inst.X[i])
            side = _field_array(field, "side rows", side, len(X_i), 2)
            if len(side) != len(Y):
                raise ValueError(f"{len(side)} side rows for {len(Y)} "
                                 f"received words")
            Y = _strip(field, self.L, Y, X_i, side)
        return self._lookup(slice(i, i + 1), Y)[1][:, 0]

    def decode_all(self, Y):
        """Every receiver's demanded symbol for each row of Y, the words
        taken with x_j = 0 on X_i: (T, m) int64, column i equal to
        decode_block(i, Y).  Callers cut Y into blocks of
        block_rows(word_cells) rows."""
        Y = _field_array(self.field, "received words", Y, self.L.shape[1], 2)
        return self._lookup(slice(0, self.inst.m), Y)[1]


# ---------------------------------------------------------------------------
# received-word files
# ---------------------------------------------------------------------------


def received_to_text(field, view):
    """Serialize a view: line `i N q` (receiver 1-based), the y vector, then
    the side information as 1-based `index:value` pairs."""
    head = f"{view.i + 1} {len(view.y)} {field.q}"
    body = " ".join(str(v) for v in view.y)
    side = " ".join(f"{j + 1}:{v}" for j, v in view.side)
    return "\n".join([head, body, side]) + "\n"


def received_from_text(text):
    """Parse the received-word format; returns (i, y, side) with 0-based
    receiver and message indices.  Lines starting with # are comments."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.lstrip().startswith("#")]
    if len(lines) < 2:
        raise ValueError("received-word file needs a header and a y line")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError("header must be `i N q`")
    i1, N, q = (int(v) for v in head)
    if i1 < 1:
        raise ValueError("receiver index is 1-based")
    y = np.array([int(v) for v in lines[1].split()], dtype=np.int64)
    if len(y) != N:
        raise ValueError(f"expected {N} symbols, got {len(y)}")
    side = {}
    if len(lines) > 2:
        for pair in " ".join(lines[2:]).split():
            j, _, v = pair.partition(":")
            if not _:
                raise ValueError(f"bad side pair {pair!r}")
            if int(j) < 1:
                raise ValueError("side indices are 1-based")
            side[int(j) - 1] = int(v)
    return i1 - 1, y, side, q


def save_received(path, field, view):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(received_to_text(field, view))


def load_received(path):
    with open(path, encoding="utf-8") as fh:
        return received_from_text(fh.read())
