"""Finite fields F_q and exact linear algebra over them.

Elements are integer codes 0..q-1.  For a prime field the code is the residue
itself.  For an extension field GF(p^e) an element is a polynomial over F_p in
a fixed irreducible modulus; its code is the base-p expansion of the
coefficient tuple with the constant term as the least significant digit.

Matrices and vectors are plain numpy int64 arrays of codes; every operation
takes the Field explicitly.  This module owns the enumeration orders
(solution sweeps, all_combinations of rows, sparse_vectors by weight) and
the Hamming-ball count sphere_volume; they are fixed and documented so that
searches built on top are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .errors import SpanCapExceeded

ORDER_CAP = 2**16          # largest supported field order
TABLE_CAP = 1024           # extension fields precompute q*q tables up to this
SPAN_CAP_DEFAULT = 2**20   # default cap on enumerated span size

# ---------------------------------------------------------------------------
# small prime / polynomial utilities (coefficient tuples, constant term first)
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


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo monic m, coefficients mod p."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(m, p):
    """Trial division by all monic polynomials of degree 1..deg(m)//2."""
    m = _poly_trim(m)
    deg = len(m) - 1
    if deg < 1 or m[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        # monic degree-d divisors: p^d candidates for the low coefficients
        for code in range(p**d):
            cand = _digits(code, p, d) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


def _digits(code, p, e):
    out = []
    for _ in range(e):
        out.append(code % p)
        code //= p
    return tuple(out)


def _code(digits, p):
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


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
        if e == 1:
            if modulus is not None:
                raise ValueError("prime fields take no modulus")
            self.modulus = None
            self._add = None
            self._mul = None
            self._neg = None
            self._inv = None
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
            if not _poly_is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
            self._build_tables()

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        polys = [_digits(c, p, e) for c in range(q)]
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            pa = polys[a]
            for b in range(a, q):
                pb = polys[b]
                s = tuple((x + y) % p for x, y in zip(pa, pb))
                add[a, b] = add[b, a] = _code(s, p)
                m = _poly_mod(_poly_mul(_poly_trim(pa), _poly_trim(pb), p),
                              self.modulus, p)
                mul[a, b] = mul[b, a] = _code(m + (0,) * (e - len(m)), p)
        self._add = add
        self._mul = mul
        self._neg = add[0].copy()
        for a in range(q):
            self._neg[a] = int(np.where(add[a] == 0)[0][0])
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.where(mul[a] == 1)[0]
            inv[a] = int(hits[0])
        self._inv = inv

    # -- scalar ops --------------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return int(self._add[a, b])

    def neg(self, a):
        if self.e == 1:
            return (-a) % self.p
        return int(self._neg[a])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return int(self._mul[a, b])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return int(self._inv[a])

    # -- vectorized ops on int64 arrays of codes ---------------------------

    def add_arr(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self._add[a, b]

    def sub_arr(self, a, b):
        if self.e == 1:
            return (a - b) % self.p
        return self._add[a, self._neg[b]]

    def neg_arr(self, a):
        if self.e == 1:
            return (-a) % self.p
        return self._neg[a]

    def mul_arr(self, a, b):
        if self.e == 1:
            return (a * b) % self.p
        return self._mul[a, b]

    def scale(self, c, a):
        """c * a for scalar code c and array a."""
        if self.e == 1:
            return (c * a) % self.p
        return self._mul[c, a]

    def _reduce_add(self, m, axis):
        """Sum of codes along an axis."""
        if self.e == 1:
            return np.sum(m, axis=axis, dtype=np.int64) % self.p
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
        if self.e == 1:
            return int(np.dot(u, v) % self.p)
        return int(self._reduce_add(self._mul[u, v], axis=0))

    def matmul(self, A, B):
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if A.shape[1] != B.shape[0]:
            raise ValueError("shape mismatch")
        if A.shape[1] == 0:
            return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        if self.e == 1:
            return (A @ B) % self.p
        prods = self._mul[A[:, :, None], B[None, :, :]]
        return self._reduce_add(prods, axis=1)

    def matvec(self, A, x):
        return self.matmul(A, np.asarray(x, dtype=np.int64).reshape(-1, 1))[:, 0]


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
    left to right and rows top down, so the result is canonical.
    """
    R = check_matrix(field, A).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        piv = int(R[r, c])
        if piv != 1:
            R[r] = field.scale(field.inv(piv), R[r])
        others = np.nonzero(R[:, c])[0]
        for i in others:
            if i != r:
                R[i] = field.sub_arr(R[i], field.scale(int(R[i, c]), R[r]))
        pivots.append(c)
        r += 1
    return R, pivots


def rank(field, A):
    return len(rref(field, A)[1])


def kernel_basis(field, A):
    """Rows form the canonical basis of {x : A @ x = 0}.

    One basis row per free column, ascending; entry 1 at the free column and
    the negated reduced coefficients at the pivot columns.
    """
    A = check_matrix(field, A)
    cols = A.shape[1]
    R, pivots = rref(field, A)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, fcol in enumerate(free):
        out[k, fcol] = 1
        for r, pcol in enumerate(pivots):
            out[k, pcol] = field.neg(int(R[r, fcol]))
    return out


def solve_affine(field, A, b, cap=SPAN_CAP_DEFAULT):
    """Yield every solution x of A @ x = b.

    Order: the free-variables-zero particular solution first, then an odometer
    over free-variable values in ascending column index (last free column
    cycles fastest), values in ascending code order.  Yields nothing when
    inconsistent; exactly q**(cols - rank) solutions otherwise.
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
    for r, pcol in enumerate(pivots):
        x0[pcol] = R[r, cols]
    free = [c for c in range(cols) if c not in pivots]
    ker = kernel_basis(field, A)
    total = field.q ** len(free)
    if total > cap:
        raise SpanCapExceeded(
            f"solution family of size {total} exceeds cap {cap}")
    for t in range(total):
        x = x0.copy()
        tt = t
        for k in range(len(free) - 1, -1, -1):
            c = tt % field.q
            tt //= field.q
            if c:
                x = field.add_arr(x, field.scale(c, ker[k]))
        yield x


def solve_one(field, A, b):
    """First solve_affine solution, or None."""
    for x in solve_affine(field, A, b, cap=SPAN_CAP_DEFAULT):
        return x
    return None


def span_matrix(field, rows, cap=SPAN_CAP_DEFAULT):
    """All q**rank vectors of the row span as one array, zero vector first.

    The all_combinations of the rref basis.  Deterministic; duplicates never
    occur.
    """
    R, pivots = rref(field, rows)
    size = field.q ** len(pivots)
    if size > cap:
        raise SpanCapExceeded(f"span of size {size} exceeds cap {cap}")
    return all_combinations(field, R[:len(pivots)])


# ---------------------------------------------------------------------------
# canonical enumerations: every search built on these inherits their order
# ---------------------------------------------------------------------------


def sphere_volume(q, N, r):
    """Number of vectors within Hamming distance r of a point in F_q^N."""
    return sum(comb(N, i) * (q - 1) ** i for i in range(min(r, N) + 1))


def sparse_vectors(q, k, r):
    """Every vector of F_q^k with weight <= r; sphere_volume(q, k, r) of them.

    Order: the zero vector first, then weight ascending, support lex, and
    within a support the nonzero values ascending with the last position
    fastest.  Yields nothing when r < 0.
    """
    if r < 0:
        return
    yield np.zeros(k, dtype=np.int64)
    for w in range(1, min(r, k) + 1):
        for support in itertools.combinations(range(k), w):
            for vals in itertools.product(range(1, q), repeat=w):
                v = np.zeros(k, dtype=np.int64)
                for pos, val in zip(support, vals):
                    v[pos] = val
                yield v


def all_combinations(field, rows):
    """Every sum_j c_j rows[j], one array row per coefficient vector c.

    Built by block doubling, so the coefficient of rows[0] cycles fastest:
    row t has c_j = base-q digit j of t, least significant digit first.
    Row 0 is the zero vector; q**len(rows) rows in all.
    """
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        blocks = [out if c == 0 else field.add_arr(out, field.scale(c, row))
                  for c in range(field.q)]
        out = np.concatenate(blocks, axis=0)
    return out


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
