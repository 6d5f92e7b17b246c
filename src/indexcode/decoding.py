"""Syndrome decoding for error-correcting index codes.

Receiver i knows x_j for j in X_i and receives y = x L + error.  It strips
its side information, leaving a word whose error-free part lives in the
code C_i spanned by L_f(i) and the rows of the messages it neither has nor
wants.  Decoding is then classic syndrome decoding in C_i: find the lightest
error pattern matching the syndrome, remove it, and read the demanded symbol
off through a fixed combining vector.

The combiner comes from solving L u = v + e_f(i) with v supported on the
receiver's side information; it depends only on (L, i), so the Decoder class
precomputes it (and a syndrome -> leader table) for fast repeated decoding.
Up to delta errors, the recovered symbol is exact whenever L verifies at
delta, even though the error estimate itself may differ from the true error
by something the receiver cannot, and need not, distinguish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .fields import (check_matrix, kernel_basis, solve_one, span_matrix,
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
    if not 0 <= i < inst.m:
        raise ValueError(f"receiver {i} out of range")
    y = np.asarray(y, dtype=np.int64)
    if y.min(initial=0) < 0 or y.max(initial=0) >= field.q:
        raise ValueError("received word entries out of range")
    side = dict(side)
    if set(side) != set(inst.X[i]):
        raise ValueError("side information must cover exactly X_i")
    if any(not 0 <= v < field.q for v in side.values()):
        raise ValueError("side values out of range")
    return ReceiverView(i=i, y=tuple(int(v) for v in y),
                        side=tuple(sorted((int(k), int(v))
                                          for k, v in side.items())))


def transmit(inst, field, L, x, error, i):
    """The view receiver i gets when x is broadcast through L plus an error."""
    x = np.asarray(x, dtype=np.int64)
    y = field.add_arr(field.matmul(x[None, :], check_matrix(field, L))[0],
                      np.asarray(error, dtype=np.int64))
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
    L = check_matrix(field, L)
    gen = np.vstack([L[inst.f[i]][None, :]] +
                    [L[j][None, :] for j in sorted(y_set(inst, i))])
    return gen, kernel_basis(field, gen)


def _strip(inst, field, L, view):
    y = np.asarray(view.y, dtype=np.int64)
    out = y
    for j, v in view.side:
        if v:
            out = field.sub_arr(out, field.scale(v, L[j]))
    return out


def syndrome(inst, field, L, H, view):
    """H applied to the received word with the side information removed."""
    return field.matvec(H, _strip(inst, field, L, view))


def min_weight_coset_solution(field, H, beta, delta, budget=COSET_BUDGET):
    """Lightest e with H e = beta, in sparse_vectors order; TooManyErrors if
    none.  budget caps the patterns the search may inspect."""
    H = check_matrix(field, H)
    N = H.shape[1]
    beta = np.asarray(beta, dtype=np.int64)
    total = sphere_volume(field.q, N, delta)
    if total > budget:
        raise BudgetExceeded(
            f"coset search of {total} patterns exceeds budget {budget}")
    cost = 0
    for e in sparse_vectors(field.q, N, delta):
        cost += 1
        if np.array_equal(field.matvec(H, e), beta):
            return e, cost
    raise TooManyErrors(
        f"no error pattern of weight <= {delta} matches the syndrome")


def relevant_error_set(inst, field, L, i, eps):
    """Patterns indistinguishable from eps at receiver i (same decodability).

    eps plus the span of the rows the receiver neither has nor wants, in
    span order.
    """
    L = check_matrix(field, L)
    eps = np.asarray(eps, dtype=np.int64)
    yi = sorted(y_set(inst, i))
    rows = L[yi] if yi else np.zeros((0, L.shape[1]), dtype=np.int64)
    return field.add_arr(span_matrix(field, rows), eps[None, :])


def find_combiner(inst, field, L, i):
    """Solve L u = v + e_f(i) with v supported on X_i.

    Returns (u, v_full) or raises NotAnIndexCode when no solution exists
    (receiver i could not decode even an error-free broadcast).
    """
    L = check_matrix(field, L)
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
    """Demanded symbol from a corrected word: (y - e) u - side combination."""
    i = view.i
    if combiner is None:
        combiner = find_combiner(inst, field, L, i)
    u, v = combiner
    y = np.asarray(view.y, dtype=np.int64)
    corrected = field.sub_arr(y, np.asarray(e_hat, dtype=np.int64))
    acc = field.dot(corrected, u)
    for j, val in view.side:
        acc = field.sub(acc, field.mul(val, int(v[j])))
    return acc


def recover_by_elimination(inst, field, L, view, e_hat):
    """Independent recovery path: solve the whole transmission equation.

    Fix the known coordinates, solve x_unknown L_unknown = y - e - known
    part, and read off the demanded coordinate of the first solution.
    """
    L = check_matrix(field, L)
    i = view.i
    unknown = [j for j in range(inst.n) if j not in inst.X[i]]
    rhs = field.sub_arr(_strip(inst, field, L, view),
                        np.asarray(e_hat, dtype=np.int64))
    sol = solve_one(field, L[unknown].T, rhs)
    if sol is None:
        raise TooManyErrors(
            "corrected word is not explainable by any message vector")
    return int(sol[unknown.index(inst.f[i])])


def decode(inst, field, L, delta, view, budget=COSET_BUDGET,
           recovery="combiner"):
    """Full pipeline: strip, syndrome, lightest coset solution, recover."""
    L = check_matrix(field, L)
    gen, H = code_Ci(inst, field, L, view.i)
    beta = syndrome(inst, field, L, H, view)
    e_hat, cost = min_weight_coset_solution(field, H, beta, delta, budget)
    if recovery == "combiner":
        u, v = find_combiner(inst, field, L, view.i)
        x_hat = recover(inst, field, L, view, e_hat, combiner=(u, v))
    elif recovery == "eliminate":
        x_hat = recover_by_elimination(inst, field, L, view, e_hat)
        u = np.zeros(L.shape[1], dtype=np.int64)
    else:
        raise ValueError(f"unknown recovery {recovery!r}")
    return DecodeResult(x_hat=int(x_hat), e_hat=e_hat, syndrome=beta,
                        combiner=u, weight_searched=weight(e_hat),
                        cost=cost, method="stream")


class Decoder:
    """Per-receiver precomputation for mass decoding of one (inst, L, delta).

    Builds each receiver's parity check, combiner, and a syndrome -> leader
    table filled in the same canonical order as the streaming search, so
    results are identical to decode() on every input.
    """

    def __init__(self, inst, field, L, delta, budget=COSET_BUDGET):
        self.inst = inst
        self.field = field
        self.L = check_matrix(field, L)
        self.delta = delta
        N = self.L.shape[1]
        if sphere_volume(field.q, N, delta) > budget:
            raise BudgetExceeded("leader table larger than budget")
        self._tables = []
        for i in range(inst.m):
            gen, H = code_Ci(inst, field, self.L, i)
            leaders = {}
            for e in sparse_vectors(field.q, N, delta):
                key = tuple(int(v) for v in field.matvec(H, e))
                if key not in leaders:
                    leaders[key] = e
            comb_uv = find_combiner(inst, field, self.L, i)
            self._tables.append((H, leaders, comb_uv))

    def decode(self, view):
        H, leaders, comb_uv = self._tables[view.i]
        beta = syndrome(self.inst, self.field, self.L, H, view)
        e_hat = leaders.get(tuple(int(v) for v in beta))
        if e_hat is None:
            raise TooManyErrors(
                f"no error pattern of weight <= {self.delta} matches")
        x_hat = recover(self.inst, self.field, self.L, view, e_hat,
                        combiner=comb_uv)
        return DecodeResult(x_hat=int(x_hat), e_hat=e_hat, syndrome=beta,
                            combiner=comb_uv[0],
                            weight_searched=weight(e_hat), cost=0,
                            method="table")


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
