"""Broadcast simulation: encode once, corrupt, let every receiver decode.

Single runs record per-receiver outcomes; campaigns tally seeded random
trials or enumerate every case outright at desk scale.  Trial t of a
campaign is generated by ``np.random.default_rng((seed, t))``, so campaigns
reproduce bit for bit and their statistics cannot depend on how the trials
are split across workers.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field as dfield

import numpy as np

from .decoding import COSET_BUDGET, Decoder, decode, make_view
from .errors import BudgetExceeded, NotAnIndexCode, TooManyErrors
from .fields import (check_matrix, make_field, sparse_vectors, sphere_volume,
                     weight)


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
                  decoder=None, budget=COSET_BUDGET, seed=None, trial=None):
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
            if decoder is not None:
                res = decoder.decode(view)
            else:
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
    """Two-stage error draw: weight uniform on 0..delta (or forced), then
    support uniform among subsets, then values uniform among nonzeros."""
    w = forced_weight if forced_weight is not None \
        else int(rng.integers(0, delta + 1))
    e = np.zeros(N, dtype=np.int64)
    if w:
        support = rng.choice(N, size=w, replace=False)
        e[support] = rng.integers(1, field.q, size=w)
    return e


def _make_decode_fn(inst, field, L, delta, budget):
    # the leader table pays off over many trials; fall back to streaming
    # decodes, which record failures per receiver, when it would not fit or
    # some receiver cannot decode at all
    try:
        return Decoder(inst, field, L, delta, budget=budget)
    except (BudgetExceeded, NotAnIndexCode):
        return None


def _run_chunk(inst, q, L, delta, seed, start, stop, forced_weight, budget):
    field = make_field(q)
    decoder = _make_decode_fn(inst, field, L, delta, budget)
    n, N = L.shape
    successes, max_weight = 0, 0
    failures = np.zeros(inst.m, dtype=np.int64)
    for t in range(start, stop):
        rng = np.random.default_rng((seed, t))
        x = rng.integers(0, q, size=n)
        e = draw_error(rng, field, N, delta, forced_weight)
        run = simulate_once(inst, field, L, delta, x, e,
                            decoder=decoder, budget=budget,
                            seed=seed, trial=t)
        successes += run.all_correct
        failures += ~np.array(run.correct)
        max_weight = max(max_weight, weight(e))
    return successes, failures, max_weight


def _exhaustive_errors(q, N, cap, forced_weight):
    for e in sparse_vectors(q, N, cap):
        if forced_weight is None or weight(e) == forced_weight:
            yield e


def trial_campaign(inst, field, L, delta, trials, seed,
                   forced_weight=None, exhaustive=False, workers=1,
                   budget=COSET_BUDGET):
    """Tally decoding outcomes over many broadcasts.

    Random mode runs `trials` draws: x uniform, error weight uniform on
    0..delta (or exactly forced_weight), then support and values uniform.
    Exhaustive mode ignores `trials` and `seed` and enumerates every
    message vector against every error of weight <= delta (or exactly
    forced_weight), removing the sampling distribution altogether.

    budget caps the error patterns a leader table or a streaming decode may
    inspect and, in exhaustive mode, the cases enumerated: q^n message
    vectors times the sphere_volume(q, N, delta or forced_weight) error
    patterns scanned.  BudgetExceeded is raised before any case runs.
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
        decoder = _make_decode_fn(inst, field, L, delta, budget)
        successes, total, max_weight = 0, 0, 0
        failures = np.zeros(inst.m, dtype=np.int64)
        for x in itertools.product(range(field.q), repeat=n):
            for e in _exhaustive_errors(field.q, N, cap, forced_weight):
                run = simulate_once(inst, field, L, delta,
                                    np.array(x, dtype=np.int64), e,
                                    decoder=decoder, budget=budget)
                total += 1
                successes += run.all_correct
                failures += ~np.array(run.correct)
                max_weight = max(max_weight, weight(e))
        return CampaignStats(trials=total, successes=successes,
                             failures=tuple(int(v) for v in failures),
                             max_weight=max_weight, mode="exhaustive")

    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers > 1:
        bounds = np.linspace(0, trials, workers + 1).astype(int)
        args = [(inst, field.q, L, delta, seed, int(a), int(b),
                 forced_weight, budget)
                for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk_star, args))
    else:
        parts = [_run_chunk(inst, field.q, L, delta, seed, 0, trials,
                            forced_weight, budget)]
    successes = sum(p[0] for p in parts)
    failures = np.sum([p[1] for p in parts], axis=0)
    max_weight = max(p[2] for p in parts)
    return CampaignStats(trials=trials, successes=successes,
                         failures=tuple(int(v) for v in failures),
                         max_weight=int(max_weight), mode="random", seed=seed)


def _run_chunk_star(args):
    return _run_chunk(*args)
