"""Finite fields F_q and exact linear algebra over them.

Elements are integer codes 0..q-1.  For a prime field the code is the residue
itself.  For an extension field GF(p^e) an element is a polynomial over F_p in
a fixed irreducible modulus; its code is the base-p expansion of the
coefficient tuple with the constant term as the least significant digit.

In characteristic 2 those codes are the coefficient bitmasks, so addition
and subtraction are XOR on the codes; odd-characteristic extensions add and
negate through q x q tables, and every extension multiplies through one.
Each field keeps a table of inverses.

Matrices and vectors are plain numpy int64 arrays of codes; every operation
takes the Field explicitly.  One elimination underlies the linear algebra:
rref, one broadcast step per pivot, and rref_stack, the same steps run on
a whole stack of matrices at once; rank, kernel_basis (kernel_from_rref),
solve_affine, solve_one and span_matrix read their answers off rref.

This module owns the enumeration orders and the Hamming-ball count
sphere_volume; the orders are fixed and documented so that searches built
on top are reproducible bit for bit.  F_q^k has one dense order, the
product order (base-q digits, the last position fastest), used both ways:
product_rows maps indices to rows and product_index maps rows back to
indices.  The solution sweeps of solve_affine, the combination_blocks of
rows and span_matrix all follow it.  The small-support vectors of
support_vectors, sparse_vectors and sparse_blocks are all written by
fill_supports.  block_rows sizes every array step in the package.
"""

from __future__ import annotations

import itertools
from math import comb, inf

import numpy as np

from .errors import SpanCapExceeded

ORDER_CAP = 2**16          # largest supported field order
TABLE_CAP = 1024           # extension fields precompute q*q tables up to this
SPAN_CAP_DEFAULT = 2**20   # default cap on enumerated span size

# ---------------------------------------------------------------------------
# small prime utilities
# ---------------------------------------------------------------------------


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q):
    """Return (p, e) with q = p**e, p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1 or not _is_prime(p):
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


# Fixed default moduli for every prime power q <= 256 (constant term first,
# monic).  Classic primitive/Conway-style choices; each one is re-verified
# irreducible at construction time.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 7): (1, 0, 0, 1, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 3): (3, 3, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
}


# ---------------------------------------------------------------------------
# Field
# ---------------------------------------------------------------------------


class Field:
    """Arithmetic for GF(q) on integer element codes.

    Attributes
    ----------
    p, e, q : int
        Characteristic, extension degree, order (q = p**e).
    modulus : tuple[int] | None
        Irreducible modulus (constant term first) for e > 1, else None.
    """

    def __init__(self, q, modulus=None):
        p, e = _factor_prime_power(q)
        if q > ORDER_CAP:
            raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
        self.p = p
        self.e = e
        self.q = q
        # characteristic-2 extensions add by XOR; odd ones through _add
        self._xor = p == 2 and e > 1
        self._add = None
        self._neg = None
        self._mul = None
        if e == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
            self._inv = np.array([0] + [pow(a, -1, p) for a in range(1, p)],
                                 dtype=np.int64)
        else:
            if q > TABLE_CAP:
                raise ValueError(
                    f"extension field order {q} exceeds table cap {TABLE_CAP}")
            if modulus is None:
                try:
                    modulus = DEFAULT_MODULI[(p, e)]
                except KeyError:
                    raise ValueError(
                        f"no default modulus for GF({p}^{e}); pass one") from None
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {e}")
            self.modulus = modulus
            self._build_tables()
            # the quotient ring is a field exactly when it has no zero
            # divisors, that is, when the modulus is irreducible
            if not self._mul[1:, 1:].all():
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")

    def _build_tables(self):
        """q x q tables on the codes.  Multiplying by x is linear over F_p:
        with W[j, b] the coefficients of x^j b, coefficient k of the
        product a b is sum_j a_j W[j, b, k] mod p."""
        p, e, q = self.p, self.e, self.q
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p   # coefficients, row c
        low = np.array(self.modulus[:e])   # x^e = -(low[0] + low[1] x + ...)
        W = [digits]
        for _ in range(e - 1):
            prev = W[-1]
            up = np.hstack([np.zeros((q, 1), dtype=np.int64), prev[:, :-1]])
            W.append((up - prev[:, -1:] * low) % p)
        W = np.stack(W)
        self._mul = sum(digits @ W[:, :, k] % p * place[k] for k in range(e))
        self._inv = np.argmax(self._mul == 1, axis=1)  # row 0 has no 1: 0
        if not self._xor:
            self._add = sum((digits[:, None, k] + digits[None, :, k]) % p
                            * place[k] for k in range(e))
            self._neg = np.argmax(self._add == 0, axis=1)

    # -- scalar ops --------------------------------------------------------

    # characteristic-2 scalars XOR as Python ints: a ufunc call costs more
    # than the whole scalar op

    def add(self, a, b):
        if self._xor:
            return int(a) ^ int(b)
        return int(self.add_arr(a, b))

    def neg(self, a):
        if self._xor:
            return int(a)
        return int(self.sub_arr(0, a))

    def sub(self, a, b):
        if self._xor:
            return int(a) ^ int(b)
        return int(self.sub_arr(a, b))

    def mul(self, a, b):
        return int(self.mul_arr(a, b))

    def inv(self, a):
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element code of GF({self.q})")
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self._inv[a])

    # -- vectorized ops on int64 arrays of codes ---------------------------

    def add_arr(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        if self._xor:
            return np.bitwise_xor(a, b)
        return self._add[a, b]

    def sub_arr(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        if self._xor:
            return np.bitwise_xor(a, b)
        return self._add[a, self._neg[b]]

    def mul_arr(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return self._mul[a, b]

    def inv_arr(self, a):
        """Inverse of each code in a, with 0 mapped to 0."""
        return self._inv[a]

    def _reduce_add(self, m, axis):
        """Sum of codes along an axis."""
        if self.e == 1:
            return np.sum(m, axis=axis, dtype=np.int64) % self.p
        if self._xor:
            return np.bitwise_xor.reduce(m, axis=axis)
        m = np.moveaxis(m, axis, 0)
        while m.shape[0] > 1:
            k = m.shape[0]
            half = k // 2
            head = self._add[m[:half], m[half:2 * half]]
            m = np.concatenate([head, m[2 * half:]], axis=0) \
                if k % 2 else head
        return m[0]

    def dot(self, u, v):
        if len(u) == 0:
            return 0
        return int(self._reduce_add(self.mul_arr(u, v), axis=0))

    def matmul(self, A, B):
        """A @ B over the field.  Leading axes broadcast as in numpy's
        matmul, so one call multiplies a whole stack of matrices: A of
        shape (..., a, k) and B of shape (..., k, c) give (..., a, c).  An
        extension field forms every product first, (..., a, k, c) entries,
        so callers that stack cut their stacks with block_rows to about
        BLOCK_CELLS of those."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.shape[-1] != B.shape[-2]:
            raise ValueError("shape mismatch")
        if A.shape[-1] == 0:
            lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
            return np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.int64)
        if self.e == 1:
            return (A @ B) % self.p
        prods = self._mul[A[..., :, :, None], B[..., None, :, :]]
        return self._reduce_add(prods, axis=-2)

    def matvec(self, A, x):
        return self.matmul(A, np.asarray(x, dtype=np.int64).reshape(-1, 1))[:, 0]


BLOCK_CELLS = 1 << 16   # int64 entries in an array step's largest intermediate


def block_rows(width):
    """Rows per array step (at least one) when each row adds `width` entries
    to the step's largest intermediate, to keep it within BLOCK_CELLS."""
    return max(1, BLOCK_CELLS // max(1, width))


_FIELD_CACHE = {}


def make_field(q, modulus=None):
    """Field for the prime power q; default modulus table covers q <= 256."""
    if modulus is None:
        f = _FIELD_CACHE.get(q)
        if f is None:
            f = Field(q)
            _FIELD_CACHE[q] = f
        return f
    return Field(q, modulus)


# ---------------------------------------------------------------------------
# matrices of codes
# ---------------------------------------------------------------------------


def check_matrix(field, A):
    """Validate entry range and return a 2-D int64 copy."""
    A = np.array(A, dtype=np.int64)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    if A.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if A.size and (A.min() < 0 or A.max() >= field.q):
        raise ValueError(f"entries must lie in 0..{field.q - 1}")
    return A


def weight(v):
    """Hamming weight."""
    return int(np.count_nonzero(v))


def rref(field, A):
    """Reduced row echelon form.

    Returns (R, pivots); pivot columns ascend.  Pivot search scans columns
    left to right and rows top down, so the result is canonical.  Each
    pivot clears its column in one step, R - f (x) R[r] with f the pivot
    column and f[r] = 0.
    """
    R = check_matrix(field, A)
    rows, cols = R.shape
    pivots = []
    r = 0
    while r < min(rows, cols):
        # rows r.. are zero left of the last pivot, so the first nonzero
        # of R[r:] in column-major order is the next pivot
        left = R[r:].T
        at = int(np.argmax(left != 0))
        c, pr = divmod(at, rows - r)
        if not left[c, pr]:
            break
        pr += r
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = field.mul_arr(field.inv(piv), R[r])
        f = R[:, c].copy()
        f[r] = 0
        R = field.sub_arr(R, field.mul_arr(f[:, None], R[r][None, :]))
        pivots.append(c)
        r += 1
    return R, pivots


def rref_stack(field, A):
    """rref of every matrix of the stack A (s, rows, cols) at once.

    Returns (R, pivots): R[j] and the first rank_j entries of pivots[j]
    are rref(field, A[j]); pivots has shape (s, min(rows, cols)) with -1
    past each rank.  Every step runs rref's step on the whole stack: a
    member with no pivot left finds a zero "pivot" whose row is zero, and
    the step leaves it unchanged.
    """
    R = np.array(A, dtype=np.int64)
    if R.ndim != 3:
        raise ValueError("stack must be 3-D")
    if R.size and (R.min() < 0 or R.max() >= field.q):
        raise ValueError(f"entries must lie in 0..{field.q - 1}")
    s, rows, cols = R.shape
    at = np.arange(s)
    pivots = np.full((s, min(rows, cols)), -1, dtype=np.int64)
    for r in range(min(rows, cols)):
        left = R[:, r:].transpose(0, 2, 1).reshape(s, -1)
        c, pr = np.divmod(np.argmax(left != 0, axis=1), rows - r)
        pr += r
        live = R[at, pr, c] != 0
        if not live.any():
            break
        row = R[at, pr]
        R[at, pr] = R[:, r]
        R[:, r] = field.mul_arr(field.inv_arr(row[at, c])[:, None], row)
        f = R[at, :, c]
        f[:, r] = 0
        R = field.sub_arr(R, field.mul_arr(f[:, :, None], R[:, r, None]))
        pivots[live, r] = c[live]
    return R, pivots


def rank(field, A):
    return len(rref(field, A)[1])


def kernel_from_rref(field, R, pivots, cols):
    """kernel_basis of a matrix whose first cols columns reduce to R."""
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.mul_arr(field.neg(1),
                                   R[:len(pivots)][:, free].T)
    return out


def kernel_basis(field, A):
    """Rows form the canonical basis of {x : A @ x = 0}.

    One basis row per free column, ascending; entry 1 at the free column and
    the negated reduced coefficients at the pivot columns.
    """
    A = check_matrix(field, A)
    R, pivots = rref(field, A)
    return kernel_from_rref(field, R, pivots, A.shape[1])


def solve_affine(field, A, b, cap=SPAN_CAP_DEFAULT):
    """Yield every solution x of A @ x = b.

    Order: the free-variables-zero particular solution first, then the
    free-variable values in product_rows order over ascending free columns
    (last free column fastest, values ascending).  Yields nothing when
    inconsistent; exactly q**(cols - rank) solutions otherwise.  One
    elimination of [A | b] gives both: when it has no pivot in the rhs
    column its first cols columns are the rref of A.
    """
    A = check_matrix(field, A)
    b = np.asarray(b, dtype=np.int64).reshape(-1)
    if b.shape[0] != A.shape[0]:
        raise ValueError("rhs length mismatch")
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(field, aug)
    cols = A.shape[1]
    if cols in pivots:
        return  # inconsistent: pivot in the rhs column
    x0 = np.zeros(cols, dtype=np.int64)
    x0[pivots] = R[:len(pivots), cols]
    nfree = cols - len(pivots)
    total = field.q ** nfree
    if total > cap:
        raise SpanCapExceeded(
            f"solution family of size {total} exceeds cap {cap}")
    yield x0.copy()
    # built only when a caller asks for more than the first solution
    ker = kernel_from_rref(field, R, pivots, cols)
    for t in range(1, total):
        c = product_rows(field.q, nfree, [t])
        yield field.add_arr(x0, field.matmul(c, ker)[0])


def solve_one(field, A, b):
    """First solve_affine solution, or None.  It builds only that one
    solution, so the cap on the size of the solution family does not
    apply."""
    return next(solve_affine(field, A, b, cap=inf), None)


def span_matrix(field, rows, cap=SPAN_CAP_DEFAULT):
    """All q**rank vectors of the row span as one array, zero vector first.

    The one combination_blocks block over the rref basis rows, last to
    first, so the coefficient of the first basis row cycles fastest.
    Deterministic; duplicates never occur.
    """
    R, pivots = rref(field, rows)
    size = field.q ** len(pivots)
    if size > cap:
        raise SpanCapExceeded(f"span of size {size} exceeds cap {cap}")
    return next(combination_blocks(field, R[:len(pivots)][::-1], size))


# ---------------------------------------------------------------------------
# canonical enumerations: every search built on these inherits their order
# ---------------------------------------------------------------------------


def sphere_volume(q, N, r):
    """Number of vectors within Hamming distance r of a point in F_q^N."""
    return sum(comb(N, i) * (q - 1) ** i for i in range(min(r, N) + 1))


def support_vectors(q, k, support):
    """The (q-1)**len(support) vectors of F_q^k whose support is exactly
    `support` (sorted positions), as one array: the nonzero values
    ascending, the last position fastest."""
    S = np.array(support, dtype=np.int64).reshape(1, -1)
    return fill_supports(np.zeros(((q - 1) ** S.shape[1], k), np.int64), q, S)


def fill_supports(out, q, S):
    """Write support_vectors(q, k, S[i]) for each row i of the (s, w)
    supports S, one after another, into out, a C-contiguous block of
    s (q-1)**w zero rows, and return out."""
    s, w = S.shape
    values = np.arange(1, q)[:, None]
    for j in range(w):
        # the value at position j steps every (q-1)**(w-1-j) rows
        out.reshape(s, (q - 1) ** j, q - 1, (q - 1) ** (w - 1 - j), -1)[
            np.arange(s), ..., S[:, j]] = values
    return out


def lex_supports(k, w, count):
    """The supports of size w in range(k), in lex order, as (s, w) arrays
    of at most `count` rows."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(k), w))
    total = comb(k, w)
    for at in range(0, total, count):
        s = min(count, total - at)
        yield np.fromiter(flat, dtype=np.int64, count=s * w).reshape(s, w)


def sparse_vectors(q, k, r):
    """Every vector of F_q^k with weight <= r, as one array of
    sphere_volume(q, k, r) rows; no rows when r < 0.

    Order: the zero vector first, then weight ascending, support lex, and
    within a support support_vectors order.  The rows are filled in place,
    a weight at a time, so the ball is held once.
    """
    out = np.zeros((sphere_volume(q, k, r), k), dtype=np.int64)
    at = 1   # the zero vector
    for w in range(1, min(r, k) + 1):
        size = comb(k, w) * (q - 1) ** w
        (S,) = lex_supports(k, w, comb(k, w))   # every support, one array
        fill_supports(out[at:at + size], q, S)
        at += size
    return out


def sparse_blocks(q, k, r, size):
    """sparse_vectors(q, k, r) in the same order, as arrays of `size` rows
    (the last one shorter), so a caller can work on many vectors at once
    while holding about one block."""
    pending, held = [], 0
    for w in range(min(r, k) + 1):
        per = (q - 1) ** w
        for S in lex_supports(k, w, max(1, size // per)):
            pending.append(fill_supports(
                np.zeros((len(S) * per, k), dtype=np.int64), q, S))
            held += len(S) * per
            if held >= size:
                rows = np.concatenate(pending)
                cut = held - held % size
                for at in range(0, cut, size):
                    yield rows[at:at + size]
                pending, held = [rows[cut:]], held - cut
    if held:
        yield np.concatenate(pending)


def product_rows(q, k, idx):
    """Rows idx of the product order on F_q^k, one per index: the base-q
    digits of each index, the last position fastest.  Indices are int64
    when q**k <= 2**63 and Python ints otherwise, as product_index gives
    them."""
    dtype = np.int64 if q ** k <= 2 ** 63 else object
    idx = np.asarray(idx, dtype=dtype)[:, None]
    rows = idx // q ** np.arange(k - 1, -1, -1, dtype=dtype) % q
    return rows.astype(np.int64, copy=False)


def product_index(q, V):
    """Inverse of product_rows: the index of each row of V (its last axis)
    in the product order, int64 when q**k <= 2**63 and Python ints
    otherwise."""
    V = np.asarray(V, dtype=np.int64)
    k = V.shape[-1]
    dtype = np.int64 if q ** k <= 2 ** 63 else object
    return V.astype(dtype, copy=False) @ q ** np.arange(k - 1, -1, -1,
                                                         dtype=dtype)


def combination_blocks(field, rows, size, base=None):
    """base + sum_j c_j rows[j] for every coefficient vector c in
    product_rows order, the coefficient of the last row fastest, as arrays
    of at most `size` rows, so a caller can work on many combinations at
    once while holding about one block.  The first row is base (the zero
    vector without one); q**len(rows) rows in all.

    The fast rows, the last f rows whose q**f combinations fit in `size`,
    form one table, grown by one broadcast step per row; each block adds
    one combination of the slow rows before them to it.
    """
    q = field.q
    rows = np.asarray(rows, dtype=np.int64)
    slow = len(rows)
    while slow and q ** (len(rows) - slow + 1) <= size:
        slow -= 1
    width = rows.shape[1]
    table = np.zeros((1, width), dtype=np.int64) if base is None \
        else np.asarray(base, dtype=np.int64).reshape(1, width)
    for row in rows[slow:]:
        table = field.add_arr(table[:, None], field.mul_arr(
            np.arange(q)[:, None], row)).reshape(q * len(table), width)
    for hi in range(q ** slow):   # with no slow rows, the table itself
        yield field.add_arr(table, field.matmul(
            product_rows(q, slow, [hi]), rows[:slow])) if slow else table


# ---------------------------------------------------------------------------
# matrix text format:  "rows cols q" header line, one row per line,
# '#' starts a comment anywhere
# ---------------------------------------------------------------------------


def matrix_to_text(field, A, comment=None):
    A = check_matrix(field, A)
    lines = []
    if comment:
        for ln in comment.splitlines():
            lines.append(f"# {ln}")
    lines.append(f"{A.shape[0]} {A.shape[1]} {field.q}")
    for row in A:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def matrix_from_text(text):
    """Parse the matrix text format; returns (array, q)."""
    toks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            toks.append(line.split())
    if not toks:
        raise ValueError("empty matrix text")
    head = toks[0]
    if len(head) != 3:
        raise ValueError("header must be 'rows cols q'")
    nrows, ncols, q = (int(t) for t in head)
    flat = [int(t) for row in toks[1:] for t in row]
    if len(flat) != nrows * ncols:
        raise ValueError(
            f"expected {nrows * ncols} entries, found {len(flat)}")
    A = np.array(flat, dtype=np.int64).reshape(nrows, ncols)
    if A.size and (A.min() < 0 or A.max() >= q):
        raise ValueError(f"entries must lie in 0..{q - 1}")
    return A, q


def save_matrix(path, field, A, comment=None):
    with open(path, "w") as fh:
        fh.write(matrix_to_text(field, A, comment))


def load_matrix(path):
    with open(path) as fh:
        return matrix_from_text(fh.read())
