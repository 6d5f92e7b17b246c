"""Field arithmetic and exact linear algebra tests.

Oracle values are hand-derived (frozen tables, enumeration oracles) so the
implementation is checked against independent computations, not itself.
"""

import numpy as np
import pytest

from indexcode.errors import SpanCapExceeded
from indexcode.fields import (
    DEFAULT_MODULI,
    Field,
    check_matrix,
    kernel_basis,
    make_field,
    matrix_from_text,
    matrix_to_text,
    rank,
    rref,
    solve_affine,
    solve_one,
    span_matrix,
    sparse_vectors,
    sphere_volume,
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


def _tables(F):
    """Full add/mul tables as q x q arrays (built independently for primes)."""
    q = F.q
    if F.e == 1:
        idx = np.arange(q, dtype=np.int64)
        return (idx[:, None] + idx[None, :]) % q, (idx[:, None] * idx[None, :]) % q
    return F._add, F._mul


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


def test_custom_modulus_accepted():
    # x^2+1 is irreducible over F_3
    F = Field(9, modulus=(1, 0, 1))
    assert F.mul(3, 3) == F.neg(1)  # x*x = -1


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
            v = F.add_arr(v, F.scale(c, np.array(r, dtype=np.int64)))
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
    got = [tuple(int(x) for x in v) for v in sparse_vectors(3, 3, 2)]
    assert len(got) == sphere_volume(3, 3, 2) == 19
    # zero, then weight 1 by support, then support (0, 1), last value fastest
    assert got[:7] == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0),
                       (0, 0, 1), (0, 0, 2)]
    assert got[7:11] == [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 2, 0)]
    assert list(sparse_vectors(3, 3, -1)) == []
    assert len({tuple(v) for v in sparse_vectors(3, 3, 5)}) == 27


def test_span_cap_enforced():
    F = make_field(2)
    A = np.eye(8, dtype=np.int64)
    with pytest.raises(SpanCapExceeded):
        span_matrix(F, A, cap=100)


def test_matmul_dot_against_scalar_loops():
    rng = np.random.default_rng(31)
    for q in (4, 9, 8):
        F = make_field(q)
        for _ in range(20):
            A = rng.integers(0, q, size=(3, 4))
            B = rng.integers(0, q, size=(4, 2))
            C = F.matmul(A, B)
            for i in range(3):
                for j in range(2):
                    acc = 0
                    for k in range(4):
                        acc = F.add(acc, F.mul(int(A[i, k]), int(B[k, j])))
                    assert C[i, j] == acc
            u = rng.integers(0, q, size=5)
            v = rng.integers(0, q, size=5)
            acc = 0
            for k in range(5):
                acc = F.add(acc, F.mul(int(u[k]), int(v[k])))
            assert F.dot(u, v) == acc


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
