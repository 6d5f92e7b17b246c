"""Field arithmetic and exact linear algebra tests.

Oracle values are hand-derived (frozen tables, enumeration oracles) so the
implementation is checked against independent computations, not itself.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from indexcode.errors import SpanCapExceeded
from indexcode.fields import (
    DEFAULT_MODULI,
    Field,
    check_matrix,
    combination_blocks,
    kernel_basis,
    make_field,
    matrix_from_text,
    matrix_to_text,
    product_index,
    product_rows,
    rank,
    rref,
    rref_stack,
    solve_affine,
    solve_one,
    span_matrix,
    sparse_blocks,
    sparse_vectors,
    sphere_volume,
    support_vectors,
    weight,
)

def _prime_powers_upto(limit):
    from indexcode.fields import _factor_prime_power
    out = []
    for q in range(2, limit + 1):
        try:
            _factor_prime_power(q)
            out.append(q)
        except ValueError:
            pass
    return out


PRIME_POWERS_256 = _prime_powers_upto(256)


def _coefficient_add(F):
    """q x q addition table built digit by digit: an element's code is the
    base-p expansion of its polynomial coefficients, and polynomials add
    coefficientwise mod p."""
    idx = np.arange(F.q, dtype=np.int64)
    add = np.zeros((F.q, F.q), dtype=np.int64)
    for d in range(F.e):
        digit = idx // F.p ** d % F.p
        add += (digit[:, None] + digit[None, :]) % F.p * F.p ** d
    return add


def _tables(F):
    """Full add/mul tables as q x q arrays (built independently for primes;
    extension fields add coefficientwise and multiply by their table)."""
    q = F.q
    if F.e == 1:
        idx = np.arange(q, dtype=np.int64)
        return (idx[:, None] + idx[None, :]) % q, (idx[:, None] * idx[None, :]) % q
    return _coefficient_add(F), F._mul


# ---------------------------------------------------------------------------
# hand oracles
# ---------------------------------------------------------------------------


def test_gf4_matches_hand_polynomial_tables():
    # modulus x^2+x+1; codes 0,1,x=2,x+1=3; tables worked out by hand
    F = make_field(4)
    add = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    mul = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]
    for a in range(4):
        for b in range(4):
            assert F.add(a, b) == add[a][b]
            assert F.mul(a, b) == mul[a][b]
    assert F.mul(2, 2) == 3  # x*x = x+1


def test_gf9_hand_values():
    # modulus x^2+2x+2 over F_3; x=3: x*x = -2x-2 = x+1 -> code 4
    F = make_field(9)
    assert F.mul(3, 3) == 4
    assert F.add(3, 3) == 6          # x+x = 2x -> digits (0,2)
    assert F.neg(1) == 2
    assert F.mul(3, F.inv(3)) == 1


def test_gf8_hand_values():
    # modulus x^3+x+1; x=2: x*x=x^2=4, x^2*x = x+1 = 3
    F = make_field(8)
    assert F.mul(2, 2) == 4
    assert F.mul(4, 2) == 3
    assert F.add(5, 3) == 6  # XOR in characteristic 2


def test_default_moduli_cover_all_prime_powers_up_to_256():
    for q in PRIME_POWERS_256:
        F = make_field(q)
        assert F.q == q
        if F.e > 1:
            assert F.modulus is not None and len(F.modulus) == F.e + 1


# ---------------------------------------------------------------------------
# field axioms, exhaustive pairs for every built-in field q <= 256
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", PRIME_POWERS_256)
def test_field_axioms(q):
    F = make_field(q)
    add, mul = _tables(F)
    idx = np.arange(q)
    # commutativity (all pairs)
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities and inverses (all elements / all pairs via tables)
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int64))
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0
    # associativity + distributivity: exhaustive triples for small q,
    # seeded sample above that
    if q <= 32:
        a = idx[:, None, None]
        b = idx[None, :, None]
        c = idx[None, None, :]
        A = np.broadcast_to(a, (q, q, q))
        B = np.broadcast_to(b, (q, q, q))
        C = np.broadcast_to(c, (q, q, q))
    else:
        rng = np.random.default_rng(q)
        A = rng.integers(0, q, size=50_000)
        B = rng.integers(0, q, size=50_000)
        C = rng.integers(0, q, size=50_000)
    assert np.array_equal(add[add[A, B], C], add[A, add[B, C]])
    assert np.array_equal(mul[mul[A, B], C], mul[A, mul[B, C]])
    assert np.array_equal(mul[A, add[B, C]], add[mul[A, B], mul[A, C]])


def test_construction_errors():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(2**17)  # beyond order cap
    with pytest.raises(ValueError):
        Field(4, modulus=(1, 0, 1))  # x^2+1 reducible over F_2
    with pytest.raises(ValueError):
        Field(5, modulus=(1, 1))  # prime field takes no modulus
    with pytest.raises(ZeroDivisionError):
        make_field(7).inv(0)
    # large prime field works without tables
    F = Field(65521)
    assert F.mul(12345, F.inv(12345)) == 1


def _has_monic_factor(m, p):
    """Brute force: does some monic polynomial of degree 1..deg(m)//2
    divide m over F_p?  Polynomials are coefficient tuples, constant
    term first."""
    def divides(f, g):
        g = list(g)
        while len(g) >= len(f):
            lead, at = g[-1], len(g) - len(f)
            for i, c in enumerate(f):
                g[at + i] = (g[at + i] - lead * c) % p
            g.pop()
        return not any(g)

    return any(divides(low + (1,), m)
               for d in range(1, (len(m) - 1) // 2 + 1)
               for low in itertools.product(range(p), repeat=d))


@pytest.mark.parametrize("p, e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                  (5, 2), (5, 3)])
def test_field_accepts_exactly_the_irreducible_moduli(p, e):
    accepted = 0
    for low in itertools.product(range(p), repeat=e):
        m = low + (1,)
        if _has_monic_factor(m, p):
            with pytest.raises(ValueError, match="reducible"):
                Field(p ** e, m)
        else:
            F = Field(p ** e, m)
            assert F.modulus == m
            accepted += 1
    # the count of monic irreducibles of degree e over F_p (Gauss)
    assert accepted == {(2, 2): 1, (2, 3): 2, (2, 4): 3, (3, 2): 3,
                        (3, 3): 8, (5, 2): 10, (5, 3): 40}[(p, e)]


def test_custom_modulus_accepted():
    # x^2+1 is irreducible over F_3
    F = Field(9, modulus=(1, 0, 1))
    assert F.mul(3, 3) == F.neg(1)  # x*x = -1


@pytest.mark.parametrize("q", [2, 7, 4, 8, 9, 256])
def test_inv_rejects_zero_and_codes_outside_the_field(q):
    F = make_field(q)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    for a in (-1, q, q + 1):
        with pytest.raises(ValueError):
            F.inv(a)
    assert [F.mul(a, F.inv(a)) for a in range(1, q)] == [1] * (q - 1)


CHAR2_FIELDS = [(4, None), (8, None), (16, None), (256, None),
                (16, (1, 0, 0, 1, 1))]   # x^4 + x^3 + 1, not the default


@pytest.mark.parametrize("q, modulus", CHAR2_FIELDS)
def test_char2_addition_matches_the_coefficient_tables(q, modulus):
    """In characteristic 2 add, sub and neg are XOR on the codes; every
    pair agrees with the coefficientwise table."""
    F = make_field(q) if modulus is None else Field(q, modulus)
    add = _coefficient_add(F)
    neg = np.argmax(add == 0, axis=1)
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(F.add_arr(a, b), add)
    assert np.array_equal(F.sub_arr(a, b), add[a, neg[b]])
    assert [[F.add(x, y) for y in range(q)] for x in range(q)] == add.tolist()
    assert [[F.sub(x, y) for y in range(q)]
            for x in range(q)] == add[a, neg[b]].tolist()
    assert [F.neg(x) for x in range(q)] == neg.tolist()
    # the scalar methods return Python ints, for numpy scalars too
    for x in (1, np.int64(q - 1)):
        assert {type(F.add(x, 1)), type(F.sub(x, 1)), type(F.neg(x)),
                type(F.add(1, x)), type(F.sub(1, x))} == {int}


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def _span_size_oracle(F, A):
    """Count distinct vectors in the row span by brute enumeration."""
    rows = [tuple(r) for r in np.asarray(A)]
    seen = {tuple([0] * len(rows[0]) if rows else [])}
    import itertools
    for coeffs in itertools.product(range(F.q), repeat=len(rows)):
        v = np.zeros(len(rows[0]), dtype=np.int64)
        for c, r in zip(coeffs, rows):
            v = F.add_arr(v, F.mul_arr(c, np.array(r, dtype=np.int64)))
        seen.add(tuple(int(x) for x in v))
    return len(seen)


def test_rank_against_span_size_oracle():
    rng = np.random.default_rng(7)
    for q in (2, 3, 4, 5):
        F = make_field(q)
        for _ in range(30):
            A = rng.integers(0, q, size=(rng.integers(1, 4), rng.integers(1, 4)))
            r = rank(F, A)
            assert F.q ** r == _span_size_oracle(F, A)


def test_rank_transpose_invariance():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4, 5, 9):
        F = make_field(q)
        for _ in range(100):
            A = rng.integers(0, q, size=(rng.integers(1, 6), rng.integers(1, 6)))
            assert rank(F, A) == rank(F, A.T)


def test_rref_canonical_and_idempotent():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        F = make_field(q)
        for _ in range(50):
            A = rng.integers(0, q, size=(4, 5))
            R, piv = rref(F, A)
            R2, piv2 = rref(F, R)
            assert np.array_equal(R, R2) and piv == piv2
            for r, c in enumerate(piv):
                assert R[r, c] == 1
                col = R[:, c].copy()
                col[r] = 0
                assert not col.any()


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9])
def test_rref_stack_is_rref_on_every_member(q):
    """Seeded stacks of tall, wide and square matrices, each with an
    all-zero and a full-rank member, and stacks of one: every member's R
    and pivot list are rref's, the pivots padded with -1."""
    F = make_field(q)
    rng = np.random.default_rng(400 + q)
    for s, rows, cols in [(6, 5, 3), (6, 3, 7), (5, 4, 4), (4, 1, 5),
                          (4, 6, 1), (1, 4, 6), (1, 3, 3)]:
        for _ in range(4):
            A = rng.integers(0, q, size=(s, rows, cols)) * (
                rng.random((s, rows, cols)) < rng.random())
            if s > 1:
                # a zero member, and a full-rank one: min(rows, cols)
                # nonzero entries in distinct rows and columns
                k = min(rows, cols)
                A[0] = 0
                A[1] = 0
                A[1, rng.permutation(rows)[:k], rng.permutation(cols)[:k]] \
                    = rng.integers(1, q, size=k)
            R, piv = rref_stack(F, A)
            assert R.shape == A.shape and R.dtype == np.int64
            assert piv.shape == (s, min(rows, cols))
            for j in range(s):
                Rj, pj = rref(F, A[j])
                assert np.array_equal(R[j], Rj)
                assert piv[j].tolist() == pj + [-1] * (piv.shape[1] - len(pj))
            if s > 1:
                assert (piv[0] == -1).all() and (piv[1] >= 0).all()
    with pytest.raises(ValueError, match="entries must lie"):
        rref_stack(F, np.full((1, 2, 2), q))
    with pytest.raises(ValueError, match="3-D"):
        rref_stack(F, np.zeros((2, 2)))


def test_solve_affine_two_variable_parity():
    F = make_field(2)
    sols = [tuple(x) for x in solve_affine(F, [[1, 1]], [0])]
    assert sols == [(0, 0), (1, 1)]
    sols = [tuple(x) for x in solve_affine(F, [[1, 1]], [1])]
    assert sols == [(1, 0), (0, 1)]


def test_solve_affine_counts_and_validity():
    rng = np.random.default_rng(19)
    for q in (2, 3, 4):
        F = make_field(q)
        for _ in range(40):
            rows_n = int(rng.integers(1, 4))
            cols_n = int(rng.integers(1, 5))
            A = rng.integers(0, q, size=(rows_n, cols_n))
            x_true = rng.integers(0, q, size=cols_n)
            b = F.matvec(A, x_true)
            sols = list(solve_affine(F, A, b))
            assert len(sols) == q ** (cols_n - rank(F, A))
            for x in sols:
                assert np.array_equal(F.matvec(A, x), b)
            assert len({tuple(s) for s in sols}) == len(sols)


def test_solve_affine_inconsistent_yields_nothing():
    F = make_field(3)
    # x + y = 1 and 2x + 2y = 1 cannot hold together
    assert list(solve_affine(F, [[1, 1], [2, 2]], [1, 1])) == []
    assert solve_one(F, [[1, 1], [2, 2]], [1, 1]) is None


def test_kernel_basis_properties():
    rng = np.random.default_rng(23)
    for q in (2, 3, 4, 9):
        F = make_field(q)
        for _ in range(40):
            A = rng.integers(0, q, size=(rng.integers(1, 5), rng.integers(1, 6)))
            K = kernel_basis(F, A)
            assert K.shape[0] == A.shape[1] - rank(F, A)
            if K.shape[0]:
                assert not F.matmul(A, K.T).any()
                assert rank(F, K) == K.shape[0]
            assert np.array_equal(K, kernel_basis(F, A))  # deterministic


def test_span_matrix_order_and_contents():
    F = make_field(2)
    S = span_matrix(F, [[1, 0, 1], [0, 1, 1]])
    assert np.array_equal(
        S, [[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 0]])
    # zero first, exact size, distinct
    F3 = make_field(3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        A = rng.integers(0, 3, size=(3, 4))
        S = span_matrix(F3, A)
        assert not S[0].any()
        assert S.shape[0] == 3 ** rank(F3, A)
        assert len({tuple(v) for v in S}) == S.shape[0]


def test_sparse_vectors_order_and_count():
    Z = sparse_vectors(3, 3, 2)
    assert Z.dtype == np.int64 and Z.shape == (sphere_volume(3, 3, 2), 3)
    got = [tuple(v) for v in Z.tolist()]
    assert len(got) == 19
    # zero, then weight 1 by support, then support (0, 1), last value fastest
    assert got[:7] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0),
                       (0, 0, 1), (0, 0, 2)]
    assert got[7:11] == [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)]
    assert sparse_vectors(3, 3, -1).shape == (0, 3)
    assert len({tuple(v) for v in sparse_vectors(3, 3, 5)}) == 27


def _odometer(q, k, support):
    """Vectors with exactly this support: values ascending, last fastest."""
    out = []
    for vals in itertools.product(range(1, q), repeat=len(support)):
        z = [0] * k
        for pos, v in zip(support, vals):
            z[pos] = v
        out.append(z)
    return out


def test_sparse_vectors_holds_the_ball_once():
    """The rows are filled in place: the peak allocation stays near the
    result, not the result plus its support blocks."""
    tracemalloc.start()
    try:
        Z = sparse_vectors(2, 30, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Z.shape == (sphere_volume(2, 30, 3), 30)
    assert peak <= 1.2 * Z.nbytes


def test_product_rows_index_the_product():
    for q, k in [(2, 5), (3, 3), (5, 2), (4, 0)]:
        rows = list(itertools.product(range(q), repeat=k))
        idx = np.random.default_rng(q).permutation(len(rows))[:7]
        got = product_rows(q, k, idx)
        assert got.dtype == np.int64 and got.shape == (len(idx), k)
        assert got.tolist() == [list(rows[i]) for i in idx]


def test_product_index_inverts_product_rows():
    """Index -> row -> index for q in {2, 3, 4, 7, 256} and k <= 9: int64
    while q**k <= 2**63, Python ints from 256**8 up, and index 0 for k = 0."""
    rng = np.random.default_rng(1)
    for q in (2, 3, 4, 7, 256):
        for k in range(10):
            total = q ** k
            idx = [0, total - 1] + [int(v) for v in
                                    rng.integers(0, min(total, 2 ** 63), 20)]
            if total > 2 ** 63:
                idx.append(total - 1 - int(rng.integers(2 ** 62)))
            rows = product_rows(q, k, idx)
            assert rows.dtype == np.int64 and rows.shape == (len(idx), k)
            back = product_index(q, rows)
            assert back.dtype == (np.int64 if total <= 2 ** 63 else object)
            assert [int(v) for v in back] == idx
            # a row holds the digits of its index, the last position fastest
            assert rows[-1].tolist() == \
                [idx[-1] // q ** (k - 1 - j) % q for j in range(k)]


def test_support_vectors_match_an_odometer():
    for q in (2, 3, 4, 5):
        for k in range(5):
            for w in range(k + 1):
                for support in itertools.combinations(range(k), w):
                    got = support_vectors(q, k, support)
                    assert got.dtype == np.int64
                    assert got.shape == ((q - 1) ** w, k)
                    assert got.tolist() == _odometer(q, k, support)


def test_sparse_blocks_follow_sparse_vectors():
    for q, k, r, size in [(2, 5, 2, 4), (3, 4, 4, 7), (4, 3, 1, 100),
                          (2, 0, 1, 3)]:
        blocks = list(sparse_blocks(q, k, r, size))
        assert all(1 <= len(b) <= size for b in blocks)
        assert all(len(b) == size for b in blocks[:-1])
        flat = np.concatenate(blocks)
        assert flat.shape == (sphere_volume(q, k, r), k)
        assert np.array_equal(flat, sparse_vectors(q, k, r))
    assert list(sparse_blocks(3, 3, -1, 5)) == []


def test_sparse_blocks_hold_about_one_block():
    """Iterating the blocks of (2, 60, 3) holds about one block, not the
    ball: every row arrives while the peak stays under 8 blocks (3.7 MiB);
    the whole ball would take 16.5 MiB."""
    size = 1000
    tracemalloc.start()
    try:
        rows = sum(len(b) for b in sparse_blocks(2, 60, 3, size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == sphere_volume(2, 60, 3)
    assert peak < 8 * size * 60 * 8


def _block_sizes(q, k):
    """Every block size 1..q^k while that is cheap.  Beyond it the blocks
    depend only on the largest power q^f <= size, so the ends of each such
    range cover every split."""
    if q ** k <= 256:
        return range(1, q ** k + 1)
    return sorted({q ** f for f in range(k + 1)} |
                  {q ** (f + 1) - 1 for f in range(1, k)})


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_combination_blocks_follow_product_rows(q):
    """Row t is base + product_rows(q, k, [t]) @ rows, whatever the block
    size; q = 9 adds through the odd-characteristic table."""
    F = make_field(q)
    rng = np.random.default_rng(q)
    for k in range(6 if q < 9 else 5):   # 9**5 one-row blocks take seconds
        rows = rng.integers(0, q, size=(k, 3))
        base = rng.integers(0, q, size=3)
        whole = F.matmul(product_rows(q, k, np.arange(q ** k)), rows)
        want = F.add_arr(whole, base[None, :])
        for size in _block_sizes(q, k):
            blocks = list(combination_blocks(F, rows, size, base=base))
            assert max(map(len, blocks)) <= size
            assert np.array_equal(np.concatenate(blocks), want)
        plain = combination_blocks(F, rows, q)
        assert np.array_equal(np.concatenate(list(plain)), whole)
    # rows of width 0, as for a code of length 0
    blocks = list(combination_blocks(F, np.zeros((2, 0), np.int64), q))
    assert np.concatenate(blocks).shape == (q * q, 0)


def test_span_cap_enforced():
    F = make_field(2)
    A = np.eye(8, dtype=np.int64)
    with pytest.raises(SpanCapExceeded):
        span_matrix(F, A, cap=100)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_stacked_matmul_is_a_loop_of_products(q):
    """Leading axes broadcast as in numpy's matmul: every matrix of the
    stack equals the 2-D product, inner dimension 0 included."""
    F = make_field(q)
    rng = np.random.default_rng(q)
    for lead in [(), (1,), (3,), (2, 3)]:
        for inner in (0, 1, 4):
            A = rng.integers(0, q, size=lead + (2, inner))
            B = rng.integers(0, q, size=lead + (inner, 3))
            for a, b in [(A, B), (A[(0,) * len(lead)], B),
                         (A, B[(0,) * len(lead)])]:
                C = F.matmul(a, b)
                assert C.dtype == np.int64 and C.shape == lead + (2, 3)
                for at in np.ndindex(*lead):
                    want = F.matmul(a[at] if a.ndim > 2 else a,
                                    b[at] if b.ndim > 2 else b)
                    assert np.array_equal(C[at], want)


def test_matmul_dot_against_scalar_loops():
    """matmul and dot against a fold over the add and mul tables, inner
    dimension 0 included."""
    rng = np.random.default_rng(31)
    for q in (2, 3, 4, 5, 8, 9, 16):
        F = make_field(q)
        add, mul = _tables(F)
        for inner in (0, 1, 4):
            for _ in range(10):
                A = rng.integers(0, q, size=(3, inner))
                B = rng.integers(0, q, size=(inner, 2))
                C = F.matmul(A, B)
                assert C.dtype == np.int64 and C.shape == (3, 2)
                for i in range(3):
                    for j in range(2):
                        acc = 0
                        for k in range(inner):
                            acc = add[acc, mul[A[i, k], B[k, j]]]
                        assert C[i, j] == acc
                u = A[0]
                v = B[:, 0]
                acc = 0
                for k in range(inner):
                    acc = add[acc, mul[u[k], v[k]]]
                assert F.dot(u, v) == acc


# ---------------------------------------------------------------------------
# elimination against brute force over F_q^k
# ---------------------------------------------------------------------------


ORACLE_QS = (2, 3, 4, 5, 8, 9)


def _all_vectors(q, k):
    return np.array(list(itertools.product(range(q), repeat=k)),
                    dtype=np.int64).reshape(-1, k)


def _row_space(F, A):
    """Every combination of the rows of A, as a set of tuples."""
    combos = F.matmul(_all_vectors(F.q, A.shape[0]), A)
    return {tuple(v) for v in combos.tolist()}


def _oracle_cases(q, seed, count=25):
    """Small random matrices, some with repeated or scaled rows so that
    the rank falls short; shapes up to 3 x 4."""
    rng = np.random.default_rng(seed)
    F = make_field(q)
    for _ in range(count):
        A = rng.integers(0, q, size=(int(rng.integers(1, 4)),
                                     int(rng.integers(1, 5))))
        if len(A) > 1 and rng.integers(2):
            A[-1] = F.mul_arr(int(rng.integers(q)), A[0])
        yield F, A


@pytest.mark.parametrize("q", ORACLE_QS)
def test_rref_meets_the_rref_conditions_and_keeps_the_row_space(q):
    for F, A in _oracle_cases(q, seed=q):
        R, piv = rref(F, A)
        assert R.shape == A.shape and R.dtype == np.int64
        assert list(piv) == sorted(set(piv))
        assert not R[len(piv):].any()
        for r, c in enumerate(piv):
            assert not R[r, :c].any() and R[r, c] == 1
            assert np.count_nonzero(R[:, c]) == 1
        assert _row_space(F, R) == _row_space(F, A)


@pytest.mark.parametrize("q", ORACLE_QS)
def test_kernel_basis_spans_exactly_the_null_space(q):
    for F, A in _oracle_cases(q, seed=100 + q):
        X = _all_vectors(q, A.shape[1])
        null = {tuple(x) for x, y in zip(X.tolist(), F.matmul(X, A.T))
                if not y.any()}
        K = kernel_basis(F, A)
        assert K.shape == (A.shape[1] - rank(F, A), A.shape[1])
        got = _row_space(F, K) if len(K) else {(0,) * A.shape[1]}
        assert got == null


@pytest.mark.parametrize("q", ORACLE_QS)
def test_solve_affine_yields_the_solution_set_in_order(q):
    """Exactly the solutions, ordered by their free coordinates (first free
    column slowest); nothing for an inconsistent system; a cap below the
    family size refuses a consistent system only."""
    rng = np.random.default_rng(200 + q)
    for F, A in _oracle_cases(q, seed=300 + q):
        X = _all_vectors(q, A.shape[1])
        AX = F.matmul(X, A.T)
        b = AX[int(rng.integers(len(X)))] if rng.integers(2) else \
            rng.integers(0, q, size=A.shape[0])
        sols = [x for x, y in zip(X.tolist(), AX.tolist()) if y == b.tolist()]
        free = [c for c in range(A.shape[1]) if c not in rref(F, A)[1]]
        sols.sort(key=lambda x: [x[c] for c in free])
        assert [x.tolist() for x in solve_affine(F, A, b)] == sols
        if sols:
            with pytest.raises(SpanCapExceeded):
                next(solve_affine(F, A, b, cap=len(sols) - 1))
        else:
            assert list(solve_affine(F, A, b, cap=0)) == []


def test_linear_algebra_seeded_digest():
    """rref, kernel_basis, solve_affine (or its cap refusal) and
    span_matrix over 300 seeded matrices on GF(2)..GF(16).  The digest was
    taken from the row-by-row elimination that solved every system twice."""
    qs = (2, 3, 4, 5, 7, 8, 9, 16)
    rng = np.random.default_rng(5)
    h = hashlib.sha256()
    for _ in range(300):
        F = make_field(qs[int(rng.integers(len(qs)))])
        A = rng.integers(0, F.q, size=(int(rng.integers(1, 6)),
                                       int(rng.integers(1, 7))))
        for j in range(1, len(A)):
            if rng.integers(3) == 0:  # a dependent row now and then
                A[j] = F.add_arr(A[j - 1], F.mul_arr(int(rng.integers(F.q)),
                                                     A[0]))
        b = F.matvec(A, rng.integers(0, F.q, size=A.shape[1])) \
            if rng.integers(4) else rng.integers(0, F.q, size=len(A))
        R, piv = rref(F, A)
        try:
            sols = [x.tolist() for x in solve_affine(F, A, b, cap=64)]
        except SpanCapExceeded:
            sols = "cap"
        h.update(repr((F.q, R.tolist(), list(piv),
                       kernel_basis(F, A).tolist(), sols,
                       span_matrix(F, A, cap=4096).tolist()
                       if F.q ** len(piv) <= 4096 else None)).encode())
    assert h.hexdigest() == ("0a4ed0eef56e3e2fd7b3923b79bbc9ea"
                             "8eb984c45fe9e078d141ed00f9f33b65")


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------


def test_check_matrix_validation():
    F = make_field(3)
    with pytest.raises(ValueError):
        check_matrix(F, [[0, 3]])
    with pytest.raises(ValueError):
        check_matrix(F, [[[0]]])
    A = check_matrix(F, [0, 1, 2])
    assert A.shape == (1, 3)


def test_weight():
    assert weight(np.array([0, 2, 0, 1])) == 2
    assert weight(np.zeros(4)) == 0


def test_matrix_text_roundtrip():
    F = make_field(9)
    rng = np.random.default_rng(2)
    A = rng.integers(0, 9, size=(3, 5))
    text = matrix_to_text(F, A, comment="demo\nsecond line")
    B, q = matrix_from_text(text)
    assert q == 9 and np.array_equal(A, B)
    # comments and blank lines tolerated anywhere
    C, q2 = matrix_from_text("# head\n2 2 2\n1 0 # tail\n\n0 1\n")
    assert q2 == 2 and np.array_equal(C, [[1, 0], [0, 1]])


def test_matrix_text_errors():
    with pytest.raises(ValueError):
        matrix_from_text("")
    with pytest.raises(ValueError):
        matrix_from_text("2 2 2\n1 0 1 0 1")  # wrong entry count
    with pytest.raises(ValueError):
        matrix_from_text("1 2 2\n5 0")  # entry out of range
