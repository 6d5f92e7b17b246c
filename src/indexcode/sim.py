"""Broadcast simulation: encode once, corrupt, let every receiver decode.

Single runs record per-receiver outcomes; campaigns tally seeded random
trials or enumerate every case outright at desk scale.  Trial t of a
campaign is generated by ``np.random.default_rng((seed, t))``, so campaigns
reproduce bit for bit and their statistics cannot depend on how the trials
are split across workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dfield

import numpy as np

from .decoding import COSET_BUDGET, Decoder, block_rows, decode, make_view
from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .fields import (check_matrix, make_field, product_rows, sparse_blocks,
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
    seed: object = None
    trial: int | None = None

    @property
    def all_correct(self):
        return all(self.correct)


def simulate_once(inst, field, L, delta, x, error,
                  budget=COSET_BUDGET, seed=None, trial=None):
    """Encode x, add the error, and decode at every receiver.

    Decoder-stage failures (no pattern within radius delta, budget, or a
    structurally unusable matrix) are recorded per receiver, never raised.
    """
    L = check_matrix(field, L)
    n, N = L.shape
    x = np.asarray(x, dtype=np.int64)
    error = np.asarray(error, dtype=np.int64)
    if x.shape != (n,) or error.shape != (N,):
        raise ValueError("x must have n entries and error N entries")
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
                         notes=tuple(notes), seed=seed, trial=trial)


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
    nonzeros."""
    w = forced_weight if forced_weight is not None \
        else int(rng.integers(0, min(delta, N) + 1))
    e = np.zeros(N, dtype=np.int64)
    if w:
        support = rng.choice(N, size=w, replace=False)
        e[support] = rng.integers(1, field.q, size=w)
    return e


def _tally(inst, field, L, decoder, X, E):
    """Decode a block of broadcasts (messages X, errors E, one per row) at
    every receiver: (cases, successes, per-receiver failures, max weight).
    decoder None means no table fits the budget: every receiver fails."""
    T = len(X)
    failures = np.zeros(inst.m, dtype=np.int64)
    everyone = np.ones(T, dtype=bool)
    Y = field.add_arr(field.matmul(X, L), E)
    for i in range(inst.m):
        if decoder is None:
            right = np.zeros(T, dtype=bool)
        else:
            side = X[:, sorted(inst.X[i])]
            right = decoder.decode_block(i, Y, side) == X[:, inst.f[i]]
        failures[i] = T - np.count_nonzero(right)
        everyone &= right
    return (T, int(np.count_nonzero(everyone)), failures,
            int(np.count_nonzero(E, axis=1).max(initial=0)))


def _merge(parts, mode, seed=None):
    return CampaignStats(
        trials=sum(p[0] for p in parts), successes=sum(p[1] for p in parts),
        failures=tuple(int(v) for v in np.sum([p[2] for p in parts], axis=0)),
        max_weight=max(p[3] for p in parts), mode=mode, seed=seed)


def _decoder_or_none(inst, field, L, delta, budget):
    # a table over budget is the same refusal every streaming decode meets
    try:
        return Decoder(inst, field, L, delta, budget=budget)
    except BudgetExceeded:
        return None


def _run_chunk(inst, q, L, delta, seed, start, stop, forced_weight, budget):
    field = make_field(q)
    decoder = _decoder_or_none(inst, field, L, delta, budget)
    n, N = L.shape
    step = block_rows(n, N)
    parts = []
    for a in range(start, stop, step):
        b = min(a + step, stop)
        X = np.empty((b - a, n), dtype=np.int64)
        E = np.empty((b - a, N), dtype=np.int64)
        for t in range(a, b):
            rng = np.random.default_rng((seed, t))
            X[t - a] = rng.integers(0, q, size=n)
            E[t - a] = draw_error(rng, field, N, delta, forced_weight)
        parts.append(_tally(inst, field, L, decoder, X, E))
    return parts


def trial_campaign(inst, field, L, delta, trials, seed,
                   forced_weight=None, exhaustive=False, workers=1,
                   budget=COSET_BUDGET):
    """Tally decoding outcomes over many broadcasts.

    Random mode runs `trials` draws: x uniform, error weight uniform on
    0..min(delta, N) (or exactly forced_weight), then support and values
    uniform.
    Exhaustive mode ignores `trials` and `seed` and enumerates every
    message vector against every error of weight <= delta (or exactly
    forced_weight), removing the sampling distribution altogether.

    Trials are evaluated a block at a time (block_rows trials): the block's
    messages X and errors E give Y = X L + E with one matmul, and each
    receiver strips its side information, takes syndromes, looks up leaders
    in its Decoder table and recovers its symbol for the whole block with
    array operations.  The outcomes equal simulate_once on each trial.  A
    receiver with no combiner (NotAnIndexCode) fails every trial; when the
    leader table exceeds budget, every receiver fails every trial, as the
    streaming decodes would.

    budget caps the error patterns a leader table may hold and, in
    exhaustive mode, the cases enumerated: q^n message vectors times the
    sphere_volume(q, N, delta or forced_weight) error patterns scanned.
    BudgetExceeded is raised before any case runs.
    """
    L = check_matrix(field, L)
    n, N = L.shape
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if forced_weight is not None and not 0 <= forced_weight <= N:
        raise ValueError("forced_weight out of range")

    if exhaustive:
        cap = delta if forced_weight is None else forced_weight
        cases = field.q ** n * sphere_volume(field.q, N, cap)
        if cases > budget:
            raise BudgetExceeded(
                f"exhaustive campaign of {cases} cases exceeds budget {budget}")
        decoder = _decoder_or_none(inst, field, L, delta, budget)
        parts = []
        step = block_rows(n, N)
        for errors in sparse_blocks(field.q, N, cap, step):
            if forced_weight is not None:
                errors = errors[np.count_nonzero(errors, axis=1)
                                == forced_weight]
            if not len(errors):
                continue
            per = max(1, step // len(errors))
            for a in range(0, field.q ** n, per):
                X = product_rows(field.q, n,
                                 np.arange(a, min(a + per, field.q ** n)))
                parts.append(_tally(inst, field, L, decoder,
                                    np.repeat(X, len(errors), axis=0),
                                    np.tile(errors, (len(X), 1))))
        return _merge(parts, "exhaustive")

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers > 1:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        args = [(inst, field.q, L, delta, seed, int(a), int(b),
                 forced_weight, budget)
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        # chunk bounds follow `workers`; processes never outnumber the
        # chunks or the CPUs
        procs = min(len(args), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            chunks = list(pool.map(_run_chunk_star, args))
    else:
        chunks = [_run_chunk(inst, field.q, L, delta, seed, 0, trials,
                             forced_weight, budget)]
    return _merge([p for chunk in chunks for p in chunk], "random", seed)


def _run_chunk_star(args):
    return _run_chunk(*args)
