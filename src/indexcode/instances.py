"""Side-information instances for index coding.

An instance has n messages and m receivers; receiver i demands message f(i)
and already owns the messages X_i (f(i) not among them).  Message and
receiver indices are 0-based throughout the API; the JSON file format uses
1-based indices and is converted at the boundary.

Y_i is the set of messages receiver i neither demands nor owns.  J collects
every support {f(i)} | Y with Y a subset of Y_i; the vectors whose support
lies in J are exactly the message-space directions no receiver can tell
apart from zero, which is what verification and the generalized independence
number are built on.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from .errors import BudgetExceeded, InvalidInstance
from .fields import support_vectors

GRAPH_CAP = 24  # the exact independence search refuses more messages


@dataclass(frozen=True)
class Instance:
    n: int
    f: tuple
    X: tuple

    @property
    def m(self):
        return len(self.f)


def make_instance(n, f, X):
    """Build and validate an instance (0-based indices)."""
    inst = Instance(int(n), tuple(int(v) for v in f),
                    tuple(frozenset(int(x) for x in xs) for xs in X))
    validate(inst)
    return inst


def validate(inst):
    if inst.n < 1:
        raise InvalidInstance("need at least one message")
    if len(inst.f) != len(inst.X):
        raise InvalidInstance("f and X must have one entry per receiver")
    if len(inst.f) < 1:
        raise InvalidInstance("need at least one receiver")
    for i, (fi, xs) in enumerate(zip(inst.f, inst.X)):
        if not 0 <= fi < inst.n:
            raise InvalidInstance(f"receiver {i}: demand {fi} out of range")
        if not all(0 <= x < inst.n for x in xs):
            raise InvalidInstance(f"receiver {i}: side info out of range")
        if fi in xs:
            raise InvalidInstance(f"receiver {i}: demands a message it owns")


def y_set(inst, i):
    """Messages receiver i neither demands nor owns."""
    return frozenset(range(inst.n)) - {inst.f[i]} - inst.X[i]


# ---------------------------------------------------------------------------
# the support family J and the vector family I
# ---------------------------------------------------------------------------


def iter_J(inst, cap=2**22):
    """All distinct supports, sorted by (cardinality, lexicographic tuple)."""
    total = sum(2 ** len(y_set(inst, i)) for i in range(inst.m))
    if total > cap:
        raise BudgetExceeded(f"J enumeration of {total} subsets exceeds cap {cap}")
    seen = set()
    for i in range(inst.m):
        yi = sorted(y_set(inst, i))
        fi = inst.f[i]
        for r in range(len(yi) + 1):
            for sub in itertools.combinations(yi, r):
                seen.add(tuple(sorted((fi,) + sub)))
    return sorted(seen, key=lambda K: (len(K), K))


def _receiver_masks(inst):
    """(bit of f(i), bitmask of {f(i)} | Y_i) for each receiver i."""
    full = (1 << inst.n) - 1
    return [(1 << fi, full & ~sum(1 << x for x in xs))
            for fi, xs in zip(inst.f, inst.X)]


def _mask_in_J(receivers, K):
    """Whether bitmask K holds some receiver's demand and lies in its mask."""
    return any(K & bit and not K & ~mask for bit, mask in receivers)


def in_J(inst, K):
    """Membership without enumeration: some receiver demands a member of K
    and can see nothing else of K.  K is any iterable of message indices;
    an empty K, or one holding an index outside 0..n-1, is not in J."""
    mask = 0
    for v in K:
        if not 0 <= v < inst.n:
            return False
        mask |= 1 << int(v)
    return _mask_in_J(_receiver_masks(inst), mask)


def iter_I(inst, field, cap=2**22):
    """Yield every nonzero vector whose support lies in J.

    Supports follow iter_J order; the values on a support follow
    support_vectors order (ascending, last position fastest).
    """
    q = field.q
    supports = iter_J(inst, cap)
    total = sum((q - 1) ** len(K) for K in supports)
    if total > cap:
        raise BudgetExceeded(f"I enumeration of {total} vectors exceeds cap {cap}")
    for K in supports:
        yield from support_vectors(q, inst.n, K)


# ---------------------------------------------------------------------------
# generalized independence number
# ---------------------------------------------------------------------------


def generalized_independence_number(inst):
    """Largest H with every nonempty subset of H in J, plus one witness.

    Branch and bound over vertices in ascending order, include-branch first,
    so the first maximum-size set found is the lexicographically least
    witness.  The defining property is hereditary, which makes the
    incremental check (only subsets containing the new vertex) sound.  H is
    a bitmask, and the check walks the submasks S of H, testing S plus the
    new vertex against each receiver's (demand, mask) pair.
    """
    if inst.n > GRAPH_CAP:
        raise BudgetExceeded(f"exact search capped at {GRAPH_CAP} messages")
    receivers = _receiver_masks(inst)
    roots = [v for v in range(inst.n) if _mask_in_J(receivers, 1 << v)]

    def joins(H, bit):
        """Whether S | bit is in J for every submask S of H."""
        S = H
        while _mask_in_J(receivers, S | bit):
            if not S:
                return True
            S = (S - 1) & H
        return False

    best = [0, 0]   # size, mask

    def extend(H, size, cands):
        if size > best[0]:
            best[:] = size, H
        for idx, v in enumerate(cands):
            if size + len(cands) - idx <= best[0]:
                return
            if joins(H, 1 << v):
                extend(H | 1 << v, size + 1, cands[idx + 1:])

    try:
        extend(0, 0, roots)
    finally:
        del extend  # extend names itself through a cell: break the cycle now
    return best[0], tuple(v for v in range(inst.n) if best[1] >> v & 1)


# ---------------------------------------------------------------------------
# named instance families
# ---------------------------------------------------------------------------


def odd_cycle_instance(l):
    """Cycle on 2l+1 messages: each receiver owns its two neighbours."""
    n = 2 * l + 1
    X = [frozenset(((i - 1) % n, (i + 1) % n)) for i in range(n)]
    return make_instance(n, range(n), X)


def odd_cycle_complement_instance(l):
    """Each receiver owns everything except itself and its two neighbours."""
    n = 2 * l + 1
    X = [frozenset(range(n)) - {(i - 1) % n, i, (i + 1) % n} for i in range(n)]
    return make_instance(n, range(n), X)


# ---------------------------------------------------------------------------
# JSON file format (1-based indices on disk)
# ---------------------------------------------------------------------------


def _instance_doc(inst):
    """The combinatorial data as a JSON document, indices 1-based."""
    return {
        "m": inst.m,
        "n": inst.n,
        "f": [fi + 1 for fi in inst.f],
        "X": [sorted(x + 1 for x in xs) for xs in inst.X],
    }


def instance_to_json(inst, field=None):
    doc = _instance_doc(inst)
    if field is not None:
        doc["q"] = field.q
        doc["p"] = field.p
        doc["e"] = field.e
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def instance_from_json(text):
    """Returns (instance, q or None).  InvalidInstance unless the document
    is an object with f a list, X a list of lists, and n, m, q, p, e (when
    given) and every f and X entry integers, not booleans."""
    doc = json.loads(text)
    if not (isinstance(doc, dict) and isinstance(doc.get("f"), list)
            and isinstance(doc.get("X"), list)
            and all(isinstance(xs, list) for xs in doc["X"])):
        raise InvalidInstance("need a JSON object with a list f and a list "
                              "of lists X")
    given = [doc[key] for key in ("n", "m", "q", "p", "e") if key in doc]
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in itertools.chain(given, doc["f"], *doc["X"])):
        raise InvalidInstance("n, m, q, p, e and the f and X entries must "
                              "be integers")
    f = [fi - 1 for fi in doc["f"]]
    X = [[x - 1 for x in xs] for xs in doc["X"]]
    inst = make_instance(doc["n"], f, X)
    if "m" in doc and doc["m"] != inst.m:
        raise InvalidInstance("m does not match the number of receivers")
    q = doc.get("q")
    if q is not None and "p" in doc and "e" in doc:
        if doc["p"] ** doc["e"] != q:
            raise InvalidInstance("q, p, e are inconsistent")
    return inst, q


def save_instance(path, inst, field=None):
    with open(path, "w") as fh:
        fh.write(instance_to_json(inst, field))


def load_instance(path):
    with open(path) as fh:
        return instance_from_json(fh.read())


def instance_hash(inst):
    """Stable hex digest of the combinatorial data (field excluded)."""
    blob = json.dumps(_instance_doc(inst), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
