"""Broadcast simulation: encode once, corrupt, let every receiver decode.

Single runs record per-receiver outcomes; campaigns tally seeded random
trials or enumerate every case outright at desk scale.

A broadcast's outcome depends on its error alone.  Receiver i's estimate
from x L + e is x_f(i) + (e - l(He)) u: its parity check H kills L_f(i)
and L[Y_i], l(He) is the leader, and the combiner u has L u = v + e_f(i)
with v on X_i; a missing leader or combiner fails every x.  So campaigns
decode each error as the broadcast of x = 0, and exhaustive mode scales
one pass over the errors by the q^n message vectors.  A random block of
trials repeats its errors (within radius delta it holds at most
sphere_volume(q, N, delta) distinct ones), so each distinct error of a
drawn block is decoded once and counted by its multiplicity.  Every
receiver decodes a block of errors in the same lookup of one leader table
(Decoder.decode_all).

Trial t of a campaign draws from the stream of
``np.random.default_rng((seed, t))``, so campaigns reproduce bit for bit
and their statistics cannot depend on how the trials are split across
workers.

Building that generator per trial, and drawing from it, costs far more
than the fixed arithmetic it runs, so `_draw_block` runs that arithmetic
for a block of trials at once with array steps, one column or row per
trial.  `_seed_words` is NumPy's SeedSequence hash of the entropy words
``words(seed) + [t]`` as uint32 arithmetic.  `_raw_outputs` runs PCG64 on
32-bit limbs of its 128-bit states: the set-seed step and every state the
draws read are one multiply-add with precomputed powers of the multiplier,
and XSL-RR turns each state into an output (O'Neill 2014, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation").  The draws are numpy's own on the 32-bit halves of
those outputs: Lemire's bounded integers (Lemire 2019, "Fast Random
Integer Generation in an Interval") for x, the weight and the values, and
Floyd's sampler followed by a Fisher-Yates shuffle of the picks for
``choice(N, w, replace=False)``.  A trial on which Lemire's method would
reject a word, or that ``choice`` would serve by shuffling the tail of an
arange (N > 10000 and w > N // 50), is redrawn by calling draw_error on
its own default_rng((seed, t)) (`_draw_each`), so every error is exact,
not a lookalike; the tests compare outputs and errors with default_rng's.
The seed must be a non-negative integer, and t one 32-bit entropy word,
so a campaign runs at most 2**32 trials.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass

import numpy as np

from .decoding import (COSET_BUDGET, Decoder, check_broadcast, decode,
                       make_view)
from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .codes import check_code
from .fields import (block_rows, make_field, product_index, sparse_blocks,
                     sphere_volume)


# ---------------------------------------------------------------------------
# one broadcast
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationRun:
    x: tuple                 # the message vector that was encoded
    error: tuple             # the injected channel error
    broadcast: tuple         # x @ L before corruption
    x_hat: tuple             # per receiver; None where decoding raised
    correct: tuple           # per receiver: x_hat == demanded symbol
    notes: tuple             # per receiver: None or the failure description

    @property
    def all_correct(self):
        return all(self.correct)


def simulate_once(inst, field, L, delta, x, error,
                  budget=COSET_BUDGET):
    """Encode x, add the error, and decode at every receiver.

    Decoder-stage failures (no pattern within radius delta, budget, or a
    structurally unusable matrix) are recorded per receiver, never raised.
    """
    L = check_code(inst, field, L)
    x, error = check_broadcast(inst, field, L, x, error)
    c = field.matmul(x[None, :], L)[0]
    y = field.add_arr(c, error)
    x_hat, correct, notes = [], [], []
    for i in range(inst.m):
        view = make_view(inst, field, i, y,
                         {j: int(x[j]) for j in inst.X[i]})
        try:
            res = decode(inst, field, L, delta, view, budget=budget)
            x_hat.append(res.x_hat)
            notes.append(None)
        except (TooManyErrors, BudgetExceeded, NotAnIndexCode) as exc:
            x_hat.append(None)
            notes.append(f"{type(exc).__name__}: {exc}")
        correct.append(x_hat[-1] == int(x[inst.f[i]]))
    return SimulationRun(x=tuple(int(v) for v in x),
                         error=tuple(int(v) for v in error),
                         broadcast=tuple(int(v) for v in c),
                         x_hat=tuple(x_hat), correct=tuple(correct),
                         notes=tuple(notes))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStats:
    trials: int
    successes: int           # trials on which every receiver was correct
    failures: tuple          # per-receiver count of wrong or missing answers
    max_weight: int          # heaviest error injected (0 when trials == 0)
    mode: str                # "random" or "exhaustive"
    seed: object = None

    @property
    def success_rate(self):
        return self.successes / self.trials if self.trials else 1.0


def draw_error(rng, field, N, delta, forced_weight=None):
    """Two-stage error draw: weight uniform on 0..min(delta, N) (or
    forced), then support uniform among subsets, then values uniform among
    nonzeros.  Campaigns compute these same draws for a block of trials
    at once (`_draw_block`); this is their definition."""
    w = forced_weight if forced_weight is not None \
        else int(rng.integers(0, min(delta, N) + 1))
    e = np.zeros(N, dtype=np.int64)
    if w:
        support = rng.choice(N, size=w, replace=False)
        e[support] = rng.integers(1, field.q, size=w)
    return e


def _tally(inst, decoder, E, counts=None):
    """Decode errors E (one per row) as broadcasts of x = 0 at every
    receiver, in one Decoder.decode_all lookup: (cases, successes,
    per-receiver failures, max weight), row r counted counts[r] times
    (once without counts).  decoder None means no table fits the budget:
    every receiver fails."""
    if counts is None:
        counts = np.ones(len(E), dtype=np.int64)
    right = (np.zeros((len(E), inst.m), dtype=bool) if decoder is None
             else decoder.decode_all(E) == 0)
    T = int(counts.sum())
    return (T, int(counts[right.all(axis=1)].sum()), T - counts @ right,
            int(np.count_nonzero(E, axis=1).max(initial=0)))


def _tally_rows(decoder, N):
    """Rows per _tally block: decode_all's largest intermediate holds
    word_cells entries a row."""
    return block_rows(N if decoder is None else decoder.word_cells)


def _merge(parts, mode, seed=None, scale=1):
    trials, successes, failures, weights = zip(*parts)
    return CampaignStats(
        trials=scale * sum(trials), successes=scale * sum(successes),
        failures=tuple(scale * int(v) for v in np.sum(failures, axis=0)),
        max_weight=max(weights), mode=mode, seed=seed)


def _decoder_or_none(inst, field, L, delta, budget):
    # a table over budget is the same refusal every streaming decode meets
    try:
        return Decoder(inst, field, L, delta, budget=budget)
    except BudgetExceeded:
        return None


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
MAX_TRIALS = 2 ** 32         # a trial index is one 32-bit entropy word


def _hash_keys(init, mult, count):
    # the hash's multipliers do not depend on the data: key k is
    # init * mult^k mod 2^32, and hash call k xors key k, multiplies by k+1
    keys = [init]
    for _ in range(count):
        keys.append(keys[-1] * mult & 0xFFFFFFFF)
    return np.array(keys, dtype=np.uint32)


@functools.cache
def _mix_steps(words):
    """(xor, multiply) key columns, shape (4, 1), for each step of
    SeedSequence.mix_entropy on `words` entropy words: fill the pool of
    four, then four rounds that hash pool word `src` into the other three
    (row src of a round is a dummy, its result thrown away), then one step
    per entropy word past the pool, hashed into all four."""
    keys = _hash_keys(_INIT_A, _MULT_A, 16 + 4 * max(0, words - 4))
    calls = [list(range(4))]
    calls += [[4 + 3 * src + dst - (dst > src) if dst != src else 0
               for dst in range(4)] for src in range(4)]
    calls += [list(range(k, k + 4)) for k in range(16, len(keys) - 1, 4)]
    return [(keys[c][:, None], keys[[k + 1 for k in c]][:, None])
            for c in calls]


_GEN_KEYS = _hash_keys(_INIT_B, _MULT_B, 8)
# generate_state(4, uint64) hashes the pool twice over: (2, 4, 1) keys
_GEN_X, _GEN_M = _GEN_KEYS[:8].reshape(2, 4, 1), _GEN_KEYS[1:].reshape(2, 4, 1)


def _hashmix(v, x, m):
    v = (v ^ x) * m
    return v ^ (v >> 16)


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_words(seed, start, stop):
    """SeedSequence((seed, t)).generate_state(4, uint64) for t in
    start..stop-1 as eight rows of uint32 words, one column per trial: the
    words of the PCG64 seed (high uint64, low) and then of its increment
    (high, low), each uint64 low word first; 0 <= seed, stop <= MAX_TRIALS.

    Every array holds uint32 words, so products wrap mod 2^32 as the C
    hash's do."""
    seed = operator.index(seed)
    words = [seed & 0xFFFFFFFF]          # little-endian 32-bit words
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & 0xFFFFFFFF)
    s = len(words)
    (x, m), *rounds = _mix_steps(s + 1)
    entropy = np.zeros((max(4, s + 1), stop - start), dtype=np.uint32)
    entropy[:s] = np.array(words, dtype=np.uint32)[:, None]
    entropy[s] = np.arange(start, stop, dtype=np.uint64)
    pool = _hashmix(entropy[:4], x, m)
    for src, (x, m) in enumerate(rounds[:4]):
        mixed = _mix(pool, _hashmix(pool[src], x, m))
        mixed[src] = pool[src]
        pool = mixed
    for word, (x, m) in zip(entropy[4:], rounds[4:]):
        pool = _mix(pool, _hashmix(word, x, m))
    return _hashmix(pool, _GEN_X, _GEN_M).reshape(8, -1)


@functools.cache
def _output_steps(K):
    """(A, B) as four rows of 32-bit limbs (least significant first), K
    columns: PCG64 with seed word S and increment inc draws its k-th output
    from the state A_k S + B_k inc mod 2^128, after the set-seed step
    (S + inc) M + inc and k + 1 steps s M + inc, M = _PCG_MULT."""
    A, B, steps = _PCG_MULT, _PCG_MULT + 1, []
    for _ in range(K):
        A, B = A * _PCG_MULT & _MASK128, B * _PCG_MULT + 1 & _MASK128
        steps.append([v >> shift & 0xFFFFFFFF
                      for v in (A, B) for shift in (0, 32, 64, 96)])
    cols = np.array(steps, dtype=np.uint64).reshape(K, 8).T
    cols.setflags(write=False)           # cached: every caller shares it
    return cols[:4], cols[4:]


def _mul_add(terms):
    """The sum of a * b mod 2^128 over the (a, b) limb lists in terms: each
    product of two 32-bit limbs is split in halves and summed by column,
    so no uint64 sum overflows, then the carries."""
    cols = [0, 0, 0, 0]
    for a, b in terms:
        for i in range(4):
            for j in range(4 - i):
                p = a[i] * b[j]
                cols[i + j] = cols[i + j] + (p & 0xFFFFFFFF)
                if i + j < 3:
                    cols[i + j + 1] = cols[i + j + 1] + (p >> 32)
    limbs, carry = [], 0
    for col in cols:
        col = col + carry
        limbs.append(col & 0xFFFFFFFF)
        carry = col >> 32
    return limbs


def _raw_outputs(seed, start, stop, K):
    """The first K 64-bit outputs of default_rng((seed, t)).bit_generator
    for t in start..stop-1, (T, K) uint64, computed with array steps:
    every state from `_output_steps` and PCG64's XSL-RR output function."""
    w = _seed_words(seed, start, stop).astype(np.uint64)[:, :, None]
    S, inc = [w[2], w[3], w[0], w[1]], [w[6], w[7], w[4], w[5]]
    inc = [inc[0] << 1 & 0xFFFFFFFF | 1] + [
        (inc[k] << 1 | inc[k - 1] >> 31) & 0xFFFFFFFF for k in (1, 2, 3)]
    A, B = _output_steps(K)
    X = _mul_add([(S, A), (inc, B)])
    x = (X[3] << 32 | X[2]) ^ (X[1] << 32 | X[0])
    rot = X[3] >> 26
    return x >> rot | x << (np.uint64(64) - rot & 63)


def _lemire(u, r):
    """NumPy's bounded draw on 0..r-1 from the 32-bit words u (uint64):
    (value, rejected).  A rejected word makes numpy read another."""
    m = u * r
    return m >> 32, (m & 0xFFFFFFFF) < np.uint64(2 ** 32) % r


def _draw_block(field, n, N, delta, forced_weight, seed, start, stop):
    """The errors of trials start..stop-1, one per row: on
    rng = default_rng((seed, t)), row t - start is exactly
    ``rng.integers(0, q, size=n); draw_error(rng, field, N, delta,
    forced_weight)`` (module docstring).

    Each draw keeps one word pointer per trial into the 32-bit words
    next_uint32 reads, the low half of each output first; a draw on a
    range of one value reads no word."""
    q = field.q
    cap = min(delta, N) if forced_weight is None else forced_weight
    # words read: n for x, one for the weight, then w each for Floyd's
    # picks and the values and w - 1 for the shuffle, n + 3 cap at most
    K = (n + 3 * cap + 1) // 2
    raw = _raw_outputs(seed, start, stop, K)
    T, rows = len(raw), np.arange(len(raw))
    words = np.empty((T, 2 * K), dtype=np.uint64)
    words[:, 0::2], words[:, 1::2] = raw & 0xFFFFFFFF, raw >> 32

    # x: n draws on 0..q-1, read and thrown away
    bad = _lemire(words[:, :n], np.uint64(q))[1].any(axis=1)
    ptr = np.full(T, n)
    if forced_weight is None and cap:
        w, rejected = _lemire(words[:, n], np.uint64(cap + 1))
        w, ptr = w.astype(np.int64), ptr + 1
        bad |= rejected
    else:                                    # forced, or drawn on 0..0
        w = np.full(T, cap)
    if N > 10000:                            # choice's tail shuffle
        bad |= w > N // 50
    # Floyd: pick k on 0..j, j = N - w + k; a repeat takes j itself
    picks = np.full((T, cap), -1, dtype=np.int64)
    for k in range(cap):
        live = k < w
        j = N - w + k
        val, rejected = _lemire(words[rows, ptr], (j + 1).astype(np.uint64))
        val = val.astype(np.int64)
        reads = live & (j > 0)
        bad |= reads & rejected
        ptr += reads
        seen = (picks[:, :k] == val[:, None]).any(axis=1)
        picks[:, k] = np.where(live, np.where(seen, j, val), -1)
    # shuffle: for i = w-1 down to 1, swap picks i and j, j on 0..i
    for i in range(cap - 1, 0, -1):
        live = i < w
        j, rejected = _lemire(words[rows, ptr], np.uint64(i + 1))
        j = j.astype(np.int64)
        bad |= live & rejected
        ptr += live
        r = rows[live]
        picks[r, i], picks[r, j[r]] = picks[r, j[r]], picks[r, i]
    # values on 1..q-1, the k-th landing on pick k
    live = np.arange(cap) < w[:, None]
    if q > 2:
        val, rejected = _lemire(
            words[rows[:, None], ptr[:, None] + np.arange(cap)],
            np.uint64(q - 1))
        bad |= (live & rejected).any(axis=1)
        val = val.astype(np.int64) + 1
    else:
        val = np.ones((T, cap), dtype=np.int64)
    E = np.zeros((T, N), dtype=np.int64)
    r, c = np.nonzero(live)
    E[r, picks[r, c]] = val[r, c]
    bad = np.flatnonzero(bad)
    if len(bad):
        E[bad] = _draw_each(field, n, N, delta, forced_weight, seed,
                            (start + bad).tolist())
    return E


def _draw_each(field, n, N, delta, forced_weight, seed, trials):
    """The errors of the given trials, one per row, each drawn on its own
    default_rng((seed, t)): `_draw_block`'s definition, run trial by
    trial."""
    E = np.empty((len(trials), N), dtype=np.int64)
    for row, t in enumerate(trials):
        rng = np.random.default_rng((seed, t))
        rng.integers(0, field.q, size=n)     # x: keeps the stream
        E[row] = draw_error(rng, field, N, delta, forced_weight)
    return E


def _run_chunk(inst, q, L, delta, seed, start, stop, forced_weight, budget):
    field = make_field(q)
    decoder = _decoder_or_none(inst, field, L, delta, budget)
    n, N = L.shape
    cap = min(delta, N) if forced_weight is None else forced_weight
    # a drawn trial holds about max(N, n + 3 cap) entries, a tallied one
    # word_cells: draw big blocks, tally them in smaller ones
    step = block_rows(max(N, n + 3 * cap))
    tally = _tally_rows(decoder, N)
    parts = []
    for a in range(start, stop, step):
        b = min(a + step, stop)
        # the array steps of a block cost about as much as 2 (cap + 3)
        # trials drawn one at a time, whatever the block's size
        if b - a > 2 * (cap + 3):
            E = _draw_block(field, n, N, delta, forced_weight, seed, a, b)
            # at most sphere_volume(q, N, cap) errors are possible, so a
            # block repeats them: decode each distinct one once and count
            # it by its multiplicity
            _, first, inv = np.unique(product_index(q, E), return_index=True,
                                      return_inverse=True)
            E, counts = E[first], np.bincount(inv)
        else:
            E = _draw_each(field, n, N, delta, forced_weight, seed,
                           range(a, b))
            counts = np.ones(len(E), dtype=np.int64)
        parts += [_tally(inst, decoder, E[c:c + tally], counts[c:c + tally])
                  for c in range(0, len(E), tally)]
    return parts


def trial_campaign(inst, field, L, delta, trials, seed,
                   forced_weight=None, exhaustive=False, workers=1,
                   budget=COSET_BUDGET):
    """Tally decoding outcomes over many broadcasts.

    Random mode runs `trials` draws: x uniform, error weight uniform on
    0..min(delta, N) (or exactly forced_weight), then support and values
    uniform.  Trial t draws from the stream of default_rng((seed, t)), bit
    for bit: a block of trials at a time is seeded, run through PCG64 and
    drawn with numpy's own algorithms (Lemire's bounded integers; Floyd's
    sampler and a shuffle for the support) in array steps, and the rare
    trial those steps cannot finish (a rejected word, numpy's tail-shuffle
    branch) is redrawn with draw_error on its own Generator; see the
    module docstring.  seed must be a non-negative integer (TypeError,
    ValueError otherwise) and trials lies in 1..MAX_TRIALS = 2**32, the
    trial indices one 32-bit entropy word holds; both are checked before a
    Decoder is built.
    Exhaustive mode ignores `trials` and `seed` and counts every message
    vector against every error of weight <= delta (or exactly
    forced_weight), removing the sampling distribution altogether.

    Outcomes depend on the error alone (module docstring): random trials
    skip the words x takes from each trial's stream and decode only the
    error, and exhaustive mode enumerates the errors once, scaling the
    counts by q^n.
    Every receiver decodes a block of errors at once, in one lookup of
    the Decoder's leader table (Decoder.decode_all), and matches
    simulate_once on every case; in random mode a drawn block's distinct
    errors are decoded once each and counted by multiplicity.  A receiver
    with no combiner (NotAnIndexCode) fails every case; when the leader
    table exceeds budget, every receiver fails every case, as the
    streaming decodes would.  workers (at least 1, ValueError otherwise,
    checked before a Decoder is built) splits the random trials into that
    many chunks, run by at most that many processes.

    budget caps the error patterns a leader table may hold and, in
    exhaustive mode, the sphere_volume(q, N, delta or forced_weight) error
    patterns scanned (each stands for q^n cases in the counts).
    BudgetExceeded is raised before any case runs.
    """
    L = check_code(inst, field, L)
    n, N = L.shape
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if forced_weight is not None and not 0 <= forced_weight <= N:
        raise ValueError("forced_weight out of range")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    if exhaustive:
        cap = delta if forced_weight is None else forced_weight
        patterns = sphere_volume(field.q, N, cap)
        if patterns > budget:
            raise BudgetExceeded(
                f"exhaustive campaign over {patterns} error patterns exceeds "
                f"budget {budget}")
        decoder = _decoder_or_none(inst, field, L, delta, budget)
        blocks = sparse_blocks(field.q, N, cap, _tally_rows(decoder, N))
        if forced_weight is not None:      # the shell: weight exactly cap
            blocks = (E[np.count_nonzero(E, axis=1) == cap] for E in blocks)
        parts = [_tally(inst, decoder, E) for E in blocks]
        return _merge(parts, "exhaustive", scale=field.q ** n)

    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must lie in 1..{MAX_TRIALS}")
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, not {type(seed).__name__}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if workers > 1:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        args = [(inst, field.q, L, delta, seed, int(a), int(b),
                 forced_weight, budget)
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        # chunk bounds follow `workers`; processes never outnumber the
        # chunks or the CPUs
        procs = min(len(args), os.cpu_count() or 1)
        # imported here: multiprocessing and logging load with it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(_run_chunk_star, args))
    else:
        chunks = [_run_chunk(inst, field.q, L, delta, seed, 0, trials,
                             forced_weight, budget)]
    return _merge([p for chunk in chunks for p in chunk], "random", seed)


def _run_chunk_star(args):
    return _run_chunk(*args)
