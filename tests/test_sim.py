"""Broadcast simulation: single runs, random campaigns, exhaustive sweeps."""

import concurrent.futures
import itertools

import numpy as np
import pytest

from indexcode import fields, sim
from indexcode.bounds import _hamming_entry
from indexcode.codes import construct_lift, verify
from indexcode.decoding import Decoder
from indexcode.errors import BudgetExceeded
from indexcode.fields import (block_rows, make_field, sparse_vectors,
                              sphere_volume, weight)
from indexcode.instances import make_instance, odd_cycle_instance
from indexcode.sim import (
    CampaignStats,
    draw_error,
    simulate_once,
    trial_campaign,
)

from conftest import random_instance


# ---------------------------------------------------------------------------
# single runs
# ---------------------------------------------------------------------------


def test_simulate_once_golden(F2, k3, k3_L):
    run = simulate_once(k3, F2, k3_L, 1, np.array([1, 0, 1]),
                        np.array([1, 0, 0, 0]))
    assert run.broadcast == (0, 1, 0, 1)
    assert run.x == (1, 0, 1) and run.error == (1, 0, 0, 0)
    assert run.x_hat == (1, 0, 1)
    assert run.correct == (True, True, True) and run.all_correct
    assert run.notes == (None, None, None)


def test_simulate_once_zero_error(F2, pentagon, pentagon_L9):
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.integers(0, 2, size=5)
        run = simulate_once(pentagon, F2, pentagon_L9, 2, x,
                            np.zeros(9, dtype=np.int64))
        assert run.all_correct


def test_simulate_once_records_wrong_answers(F2, k3, k3_L):
    run = simulate_once(k3, F2, k3_L, 1, np.zeros(3, dtype=np.int64),
                        np.array([1, 1, 0, 0]))
    assert run.x_hat[0] == 1 and not run.correct[0]
    assert run.notes[0] is None        # a wrong answer, not an exception
    assert not run.all_correct


def test_simulate_once_records_decode_failures(F2, k3, k3_L):
    run = simulate_once(k3, F2, k3_L, 1, np.zeros(3, dtype=np.int64),
                        np.array([1, 0, 0, 1]))
    assert run.x_hat[0] is None and not run.correct[0]
    assert run.notes[0].startswith("TooManyErrors")


def test_simulate_once_validation(F2, k3, k3_L):
    with pytest.raises(ValueError):
        simulate_once(k3, F2, k3_L, 1, np.zeros(2, dtype=np.int64),
                      np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError):
        simulate_once(k3, F2, k3_L, 1, np.zeros(3, dtype=np.int64),
                      np.zeros(5, dtype=np.int64))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_simulate_once_rejects_entries_outside_the_field(q, k3, k3_L):
    # entries equal to q used to act as zero over GF(2), raise IndexError
    # over GF(4), or be blamed on the received word
    field = make_field(q)
    x, e = np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)
    for bad in (q, -1):
        wrong_x, wrong_e = x.copy(), e.copy()
        wrong_x[0] = wrong_e[0] = bad
        with pytest.raises(ValueError, match="^x entries"):
            simulate_once(k3, field, k3_L, 1, wrong_x, e)
        with pytest.raises(ValueError, match="^error entries"):
            simulate_once(k3, field, k3_L, 1, x, wrong_e)


# ---------------------------------------------------------------------------
# error draws
# ---------------------------------------------------------------------------


def test_draw_error_weights(F3):
    rng = np.random.default_rng(8)
    for _ in range(50):
        e = draw_error(rng, F3, 6, 2)
        assert np.count_nonzero(e) <= 2
        assert e.max() <= 2
    for w in range(4):
        e = draw_error(rng, F3, 6, 1, forced_weight=w)
        assert np.count_nonzero(e) == w
        assert all(v in (1, 2) for v in e[e != 0])


def test_random_campaign_radius_beyond_length(F2, k3, k3_L):
    # the weight is drawn on 0..min(delta, N), the cap exhaustive mode uses
    N = k3_L.shape[1]
    rng = np.random.default_rng(4)
    weights = {int(np.count_nonzero(draw_error(rng, F2, N, N + 3)))
               for _ in range(200)}
    assert weights == set(range(N + 1))
    st = trial_campaign(k3, F2, k3_L, N + 3, 200, seed=2)
    assert st.trials == 200 and st.max_weight == N
    assert _stats(st) == _oracle_campaign(k3, F2, k3_L, N + 3, 200, 2)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def test_campaign_within_radius_never_fails(F2, k3, k3_L):
    stats = trial_campaign(k3, F2, k3_L, 1, 300, seed=1)
    assert stats.trials == stats.successes == 300
    assert stats.failures == (0, 0, 0)
    assert stats.max_weight <= 1
    assert stats.mode == "random" and stats.success_rate == 1.0


def test_campaign_bit_exact_repeatability(F2, pentagon, pentagon_L9):
    a = trial_campaign(pentagon, F2, pentagon_L9, 2, 120, seed=9)
    b = trial_campaign(pentagon, F2, pentagon_L9, 2, 120, seed=9)
    assert a == b


def test_campaign_worker_count_invariance(F2, pentagon, pentagon_L9):
    a = trial_campaign(pentagon, F2, pentagon_L9, 2, 90, seed=10, workers=1)
    b = trial_campaign(pentagon, F2, pentagon_L9, 2, 90, seed=10, workers=3)
    assert a.successes == b.successes
    assert a.failures == b.failures
    assert a.max_weight == b.max_weight


def test_campaign_pool_never_outnumbers_its_chunks(monkeypatch, F2, k3,
                                                   k3_L):
    # 5000 workers on 2 trials leave two non-empty chunks; the fake pool
    # records the size asked for and maps serially, so no process starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    # trial_campaign imports the pool class when workers > 1
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        SerialPool)
    many = trial_campaign(k3, F2, k3_L, 1, 2, seed=3, workers=5000)
    assert sizes and max(sizes) <= 2
    assert many == trial_campaign(k3, F2, k3_L, 1, 2, seed=3, workers=1)


def test_campaign_exhaustive_counts(F2, k3, k3_L):
    stats = trial_campaign(k3, F2, k3_L, 1, 0, 0, exhaustive=True)
    # 8 message vectors times the 5 patterns of weight <= 1
    assert stats.trials == 40 and stats.successes == 40
    assert stats.mode == "exhaustive" and stats.seed is None


def test_campaign_exhaustive_forced_weight_beyond_radius(F2, k3, k3_L):
    stats = trial_campaign(k3, F2, k3_L, 1, 0, 0, forced_weight=2,
                           exhaustive=True)
    # 8 message vectors times C(4,2) supports; every case defeats someone
    assert stats.trials == 48 and stats.successes == 0
    assert stats.max_weight == 2
    assert sum(stats.failures) > 0


def test_campaign_exhaustive_weight3_defeats_pentagon(F2, pentagon,
                                                      pentagon_L9):
    stats = trial_campaign(pentagon, F2, pentagon_L9, 2, 0, 0,
                           forced_weight=3, exhaustive=True)
    assert stats.trials == 32 * 84 and stats.successes == 0


def test_campaign_exhaustive_budget(F2, k3, k3_L):
    # the budget counts the 5 error patterns scanned, not the 40 cases
    # they stand for with the 8 message vectors
    with pytest.raises(BudgetExceeded):
        trial_campaign(k3, F2, k3_L, 1, 0, 0, exhaustive=True, budget=4)
    stats = trial_campaign(k3, F2, k3_L, 1, 0, 0, exhaustive=True, budget=5)
    assert stats.trials == 40


@pytest.mark.parametrize("q, delta, forced", [
    (2, 2, None), (2, 2, 3), (3, 1, None), (3, 1, 2), (3, 1, 0)])
def test_campaign_exhaustive_decodes_each_error_once(monkeypatch, q, delta,
                                                     forced):
    # the outcome does not depend on x: one pass over the ball (or the
    # shell under forced_weight), in blocks of 10, counted q^n times
    field = make_field(q)
    L = np.random.default_rng(90 + q).integers(0, q, size=(5, 9))
    inst = odd_cycle_instance(2)
    cells = 10 * Decoder(inst, field, L, delta).word_cells
    whole = trial_campaign(inst, field, L, delta, 0, 0,
                           forced_weight=forced, exhaustive=True)
    rows, tally = [], sim._tally

    def counting(inst, decoder, E):
        rows.append(len(E))
        return tally(inst, decoder, E)

    monkeypatch.setattr(sim, "_tally", counting)
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    st = trial_campaign(inst, field, L, delta, 0, 0,
                        forced_weight=forced, exhaustive=True)
    errors = (sphere_volume(q, 9, delta) if forced is None else
              sphere_volume(q, 9, forced) - sphere_volume(q, 9, forced - 1))
    assert sum(rows) == errors
    assert forced == 0 or len(rows) > 1
    assert st == whole and st.trials == q ** inst.n * errors


@pytest.mark.parametrize("cells", [1, 50, fields.BLOCK_CELLS])
def test_tally_weights_each_row_by_its_count(monkeypatch, cells):
    # distinct errors with counts tally as the same errors repeated and as
    # each receiver's decode_block; past the radius some receivers fail,
    # and without a table every receiver fails every case
    monkeypatch.setattr(fields, "BLOCK_CELLS", cells)
    F3 = make_field(3)
    inst = make_instance(3, (0, 1, 2), ({1, 2}, {0, 2}, {0, 1}))
    rng = np.random.default_rng(93)
    L = rng.integers(0, 3, size=(3, 5))
    decoder = Decoder(inst, F3, L, 1)
    E = sparse_vectors(3, 5, 2)[::3]
    counts = rng.integers(1, 5, size=len(E))
    repeated = np.repeat(E, counts, axis=0)
    T = len(repeated)
    right = np.array([decoder.decode_block(i, repeated) == 0
                      for i in range(3)])
    want = (T, int(right.all(axis=0).sum()), (T - right.sum(axis=1)).tolist(),
            2)
    assert 0 < want[1] < T and 0 < min(want[2])
    for tally in (sim._tally(inst, decoder, E, counts),
                  sim._tally(inst, decoder, repeated)):
        assert (*tally[:2], tally[2].tolist(), tally[3]) == want
    tally = sim._tally(inst, None, E, counts)
    assert (*tally[:2], tally[2].tolist(), tally[3]) == (T, 0, [T] * 3, 2)


def test_campaign_exhaustive_lifted_c7():
    # C_15 (odd_cycle_instance(7)): the pair-sum core of length 8 lifted
    # through the [12, 8, 3] Hamming outer code; 2^15 message vectors times
    # 13 patterns, every one decoded
    F2 = make_field(2)
    inst = odd_cycle_instance(7)
    B = np.zeros((15, 8), dtype=np.int64)
    B[np.arange(15), np.arange(15) // 2] = 1
    L, _ = construct_lift(inst, F2, 1, B, _hamming_entry(F2, 8).generator)
    assert L.shape == (15, 12) and verify(inst, F2, L, 1).ok
    st = trial_campaign(inst, F2, L, 1, 0, 0, exhaustive=True)
    assert st.trials == st.successes == 425_984
    assert st.failures == (0,) * 15 and st.max_weight == 1


@pytest.mark.parametrize("exhaustive, trials", [(False, 5), (True, 8)])
def test_campaign_records_unusable_matrix_per_receiver(F2, k3, exhaustive,
                                                       trials):
    # row 0 of L is zero, so receiver 0 never recovers x_0: counted, not raised
    L = np.array([[0, 0], [1, 0], [0, 1]])
    stats = trial_campaign(k3, F2, L, 0, 5, 0, exhaustive=exhaustive)
    assert stats.trials == trials
    assert stats.failures == (trials, 0, 0) and stats.successes == 0


def test_campaign_random_matches_exhaustive_rate(F2, pentagon, pentagon_L9):
    # an 8-column truncation no longer corrects 2 errors, so the success
    # rate is strictly between 0 and 1; a seeded sample must land within
    # 3 sigma of the exhaustively counted rate
    L8 = pentagon_L9[:, :8].copy()
    ex = trial_campaign(pentagon, F2, L8, 2, 0, 0, forced_weight=2,
                        exhaustive=True)
    assert ex.trials == 896 and ex.successes == 480
    p = ex.success_rate
    rd = trial_campaign(pentagon, F2, L8, 2, 500, seed=77, forced_weight=2)
    sigma = (p * (1 - p) / rd.trials) ** 0.5
    assert abs(rd.success_rate - p) <= 3 * sigma


def test_campaign_stats_invariants(F2, pentagon, pentagon_L9):
    L8 = pentagon_L9[:, :8].copy()
    stats = trial_campaign(pentagon, F2, L8, 2, 150, seed=3)
    assert 0 <= stats.successes <= stats.trials
    assert len(stats.failures) == pentagon.m
    assert stats.max_weight <= 2
    assert 0.0 <= stats.success_rate <= 1.0
    empty = CampaignStats(0, 0, (0,), 0, "random")
    assert empty.success_rate == 1.0


def test_campaign_validation(F2, k3, k3_L):
    with pytest.raises(ValueError):
        trial_campaign(k3, F2, k3_L, -1, 10, 0)
    with pytest.raises(ValueError):
        trial_campaign(k3, F2, k3_L, 1, 0, 0)
    with pytest.raises(ValueError):
        trial_campaign(k3, F2, k3_L, 1, 10, 0, forced_weight=9)


def _no_decoder(*args):
    raise AssertionError("the Decoder was built before the check")


@pytest.mark.parametrize("workers", [0, -2])
def test_campaign_refuses_fewer_than_one_worker(monkeypatch, F2, k3, k3_L,
                                                workers):
    # these used to run one process; CLI --workers refuses them too
    monkeypatch.setattr(sim, "_decoder_or_none", _no_decoder)
    for exhaustive in (False, True):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            trial_campaign(k3, F2, k3_L, 1, 10, 0, exhaustive=exhaustive,
                           workers=workers)


@pytest.mark.parametrize("rows", [2, 4])
@pytest.mark.parametrize("exhaustive", [False, True])
def test_campaign_refuses_a_matrix_with_the_wrong_row_count(F2, k3, k3_L,
                                                            rows, exhaustive):
    L = np.vstack([k3_L, k3_L])[:rows]
    with pytest.raises(ValueError, match="matrix must have 3 rows"):
        trial_campaign(k3, F2, L, 1, 10, 0, exhaustive=exhaustive)


@pytest.mark.parametrize("seed, error", [
    (-1, ValueError), (np.int64(-3), ValueError),
    (1.0, TypeError), (None, TypeError), ("3", TypeError),
])
def test_campaign_rejects_seeds_outside_the_domain(monkeypatch, F2, k3, k3_L,
                                                   seed, error):
    monkeypatch.setattr(sim, "_decoder_or_none", _no_decoder)
    with pytest.raises(error, match="seed"):
        trial_campaign(k3, F2, k3_L, 1, 10, seed)


def test_campaign_caps_trials_at_one_entropy_word(monkeypatch, F2, k3, k3_L):
    # trial t is one 32-bit entropy word of its seed; refused up front
    assert sim.MAX_TRIALS == 2 ** 32
    monkeypatch.setattr(sim, "_decoder_or_none", _no_decoder)
    with pytest.raises(ValueError, match="trials"):
        trial_campaign(k3, F2, k3_L, 1, sim.MAX_TRIALS + 1, 0)


# ---------------------------------------------------------------------------
# block seeding against default_rng
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 3,
                                  2**200 + 17, np.int64(7), True])
def test_block_seeding_is_default_rng(seed):
    # the blocks a campaign on a 5 x 9 matrix runs: trial 0 and both sides
    # of the first block boundary, and the last trial a campaign can run;
    # every row is default_rng((seed, t))'s raw stream
    step = block_rows(9 * 9)
    last = (sim.MAX_TRIALS - 1) // step * step
    for a, ts in ((0, (0, step - 1)), (step, (step,)),
                  (last, (sim.MAX_TRIALS - 1,))):
        raw = sim._raw_outputs(seed, a, min(a + step, sim.MAX_TRIALS), 9)
        assert len(raw) == min(step, sim.MAX_TRIALS - a)
        for t in ts:
            bitgen = np.random.default_rng((seed, t)).bit_generator
            assert raw[t - a].tolist() == bitgen.random_raw(9).tolist()


# ---------------------------------------------------------------------------
# the batched campaign against the per-trial oracle
# ---------------------------------------------------------------------------


def _oracle_campaign(inst, field, L, delta, trials, seed, forced_weight=None,
                     exhaustive=False, budget=2_000_000):
    """(trials, successes, failures, max_weight) from one simulate_once per
    case, every receiver decoded by the streaming decode()."""
    n, N = L.shape
    if exhaustive:
        cap = delta if forced_weight is None else forced_weight
        cases = [(np.array(x), e)
                 for x in itertools.product(range(field.q), repeat=n)
                 for e in sparse_vectors(field.q, N, cap)
                 if forced_weight is None or weight(e) == forced_weight]
    else:
        cases = []
        for t in range(trials):
            rng = np.random.default_rng((seed, t))
            x = rng.integers(0, field.q, size=n)
            cases.append((x, draw_error(rng, field, N, delta, forced_weight)))
    successes, max_weight = 0, 0
    failures = np.zeros(inst.m, dtype=np.int64)
    for x, e in cases:
        run = simulate_once(inst, field, L, delta, x, e, budget=budget)
        successes += run.all_correct
        failures += ~np.array(run.correct)
        max_weight = max(max_weight, weight(e))
    return len(cases), successes, tuple(int(v) for v in failures), max_weight


def _stats(st):
    return st.trials, st.successes, st.failures, st.max_weight


@pytest.mark.parametrize("q", [2, 3, 4])
def test_campaign_matches_per_trial_oracle(q):
    # seeded random instances and matrices: some receivers have no
    # combiner, some codes correct nothing; within the radius and beyond
    field = make_field(q)
    rng = np.random.default_rng(60 + q)
    for _ in range(6):
        inst = random_instance(rng, 2, 3 if q < 4 else 2)
        N = int(rng.integers(2, 5 if q < 4 else 4))
        L = rng.integers(0, q, size=(inst.n, N))
        delta = int(rng.integers(0, 2))
        for forced in (None, delta + 1):
            for exhaustive in (False, True):
                st = trial_campaign(inst, field, L, delta, 30, seed=7,
                                    forced_weight=forced,
                                    exhaustive=exhaustive)
                assert _stats(st) == _oracle_campaign(
                    inst, field, L, delta, 30, 7, forced, exhaustive)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_campaign_over_budget_table_fails_everyone(q):
    # one pattern short of the leader table: every streaming decode meets
    # the same refusal, so every receiver fails every trial
    field = make_field(q)
    rng = np.random.default_rng(70 + q)
    inst = random_instance(rng, 2, 3)
    L = rng.integers(0, q, size=(inst.n, 3))
    budget = sphere_volume(q, 3, 1) - 1
    st = trial_campaign(inst, field, L, 1, 25, seed=3, budget=budget)
    assert st.successes == 0 and st.failures == (25,) * inst.m
    assert _stats(st) == _oracle_campaign(inst, field, L, 1, 25, 3,
                                          budget=budget)


@pytest.mark.parametrize("trials", [1, 8, 9])
def test_campaign_small_blocks_match_oracle(trials):
    # a block too small to pay for the array steps (at most 8 trials at
    # radius 1) is drawn a Generator at a time; both ways give the oracle
    F3 = make_field(3)
    rng = np.random.default_rng(81)
    inst = random_instance(rng, 3, 3)
    L = rng.integers(0, 3, size=(inst.n, 4))
    st = trial_campaign(inst, F3, L, 1, trials, seed=2**65 + 1)
    assert _stats(st) == _oracle_campaign(inst, F3, L, 1, trials, 2**65 + 1)


def test_long_code_campaign_draws_in_blocks(monkeypatch):
    # at N = 300 a tally block holds one trial, yet the 64 trials are
    # drawn in one block, not a Generator at a time, and give the oracle
    F2, N = make_field(2), 300
    inst = make_instance(3, (0, 1, 2), ({1, 2}, {0, 2}, {0, 1}))
    L = np.random.default_rng(90).integers(0, 2, size=(3, N))
    L[2] = 0                             # receiver 2 has no combiner
    assert block_rows(N * N) == 1
    blocks, draw_block = [], sim._draw_block

    def counting(field, n, N, delta, forced, seed, start, stop):
        blocks.append((start, stop))
        return draw_block(field, n, N, delta, forced, seed, start, stop)

    monkeypatch.setattr(sim, "_draw_block", counting)
    st = trial_campaign(inst, F2, L, 1, 64, seed=4)
    assert blocks == [(0, 64)]
    assert _stats(st) == _oracle_campaign(inst, F2, L, 1, 64, 4)
    assert st.failures == (0, 0, 64) and st.max_weight == 1


def test_campaign_tallies_each_distinct_error_once(monkeypatch):
    # draw blocks of 45 (radius 1) or 30 (weight 2) trials over F_2^4:
    # each holds at most 5 or 6 distinct errors, decoded once each and
    # counted by multiplicity; receiver 2 has no combiner
    F2 = make_field(2)
    inst = make_instance(3, (0, 1, 2), ({1, 2}, {0, 2}, {0, 1}))
    L = np.random.default_rng(91).integers(0, 2, size=(3, 4))
    L[2] = 0
    monkeypatch.setattr(fields, "BLOCK_CELLS", 30 * 9)
    tallies, tally = [], sim._tally

    def counting(inst, decoder, E, counts=None):
        tallies.append((len(E), int(counts.sum())))
        return tally(inst, decoder, E, counts)

    monkeypatch.setattr(sim, "_tally", counting)
    for forced, distinct, blocks in ((None, 5, 5), (2, 6, 7)):
        tallies.clear()
        st = trial_campaign(inst, F2, L, 1, 200, seed=6,
                            forced_weight=forced)
        assert _stats(st) == _oracle_campaign(inst, F2, L, 1, 200, 6, forced)
        assert st.failures[2] == 200 and st.successes == 0
        assert sum(c for _, c in tallies) == 200
        assert all(rows <= distinct for rows, _ in tallies)
        assert len(tallies) == blocks


def test_campaign_python_int_keys_match_oracle():
    # F_2^64 has more rows than an int64 key holds: the block's errors are
    # keyed by Python ints, in one process or two
    F2, N = make_field(2), 64
    assert fields.product_index(2, np.zeros((1, N))).dtype == object
    inst = make_instance(3, (0, 1, 2), ({1, 2}, {0, 2}, {0, 1}))
    L = np.random.default_rng(92).integers(0, 2, size=(3, N))
    for forced in (None, 2):
        one = trial_campaign(inst, F2, L, 1, 40, seed=8, forced_weight=forced)
        two = trial_campaign(inst, F2, L, 1, 40, seed=8, forced_weight=forced,
                             workers=2)
        assert one == two
        assert _stats(one) == _oracle_campaign(inst, F2, L, 1, 40, 8, forced)


def test_campaign_workers_match_oracle_gf4():
    F4 = make_field(4)
    rng = np.random.default_rng(80)
    inst = random_instance(rng, 3, 3)
    L = rng.integers(0, 4, size=(inst.n, 4))
    for forced in (None, 2):
        one = trial_campaign(inst, F4, L, 1, 41, seed=5, forced_weight=forced)
        two = trial_campaign(inst, F4, L, 1, 41, seed=5, forced_weight=forced,
                             workers=2)
        assert one == two
        assert _stats(one) == _oracle_campaign(inst, F4, L, 1, 41, 5, forced)


# ---------------------------------------------------------------------------
# the block draw against default_rng
# ---------------------------------------------------------------------------


def _per_trial_errors(field, n, N, delta, forced, seed, ts):
    rows = []
    for t in ts:
        rng = np.random.default_rng((seed, t))
        rng.integers(0, field.q, size=n)
        rows.append(draw_error(rng, field, N, delta, forced).tolist())
    return rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_block_draw_is_default_rng(q):
    # every length 1..60 at some radius, weights forced to 0, 1, N and
    # just past the radius, delta 0 (no weight word), seeds past 2**64;
    # two blocks that meet at block_rows(N * max(n, N)), a campaign's
    # tally step: a draw does not depend on where its block starts
    field = make_field(q)
    for N in list(range(1, 13)) + [17, 23, 31, 42, 59, 60]:
        n = 1 + N % 5
        step = block_rows(N * max(n, N))
        for delta in (0, 1, 2, 5):
            for forced in sorted({0, 1, N, min(delta + 1, N)}) + [None]:
                seed = (q * 7919 + N * 131 + delta) << (66 * (N % 2))
                for a, b in ((step - 3, step), (step, step + 2)):
                    E = sim._draw_block(field, n, N, delta, forced, seed,
                                        a, b)
                    assert E.tolist() == _per_trial_errors(
                        field, n, N, delta, forced, seed, range(a, b))


@pytest.mark.parametrize("seed", [0, 2**64 + 3, 2**200 + 17])
def test_raw_outputs_are_pcg64(seed):
    raw = sim._raw_outputs(seed, 1000, 1005, 9)
    for t, row in zip(range(1000, 1005), raw.tolist()):
        bitgen = np.random.default_rng((seed, t)).bit_generator
        assert row == bitgen.random_raw(9).tolist()


_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 2**128)


def _zero_word_seed(words, word):
    """Seed words to replace a column of `_seed_words`: the PCG64 state they
    set keeps the increment, and the 32-bit word number `word` that the
    generator reads is 0."""
    w = [int(v) for v in words]
    inc = ((w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 | 1) & _MASK128
    # a state whose output has the zero half, the other half not small
    hi = 0x0123456789ABCDEF
    out = 0x9E3779B9 << 32 if word % 2 == 0 else 0x7F4A7C15
    rot = hi >> 58
    state = hi << 64 | hi ^ ((out << rot | out >> (64 - rot)) & _MASK64)
    for _ in range(word // 2 + 1):     # back to the set-seed state
        state = (state - inc) * _PCG_MULT_INV & _MASK128
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    assert int(bitgen.random_raw(word // 2 + 1)[-1]) == out
    S = ((state - inc) * _PCG_MULT_INV - inc) & _MASK128
    column = words.copy()
    column[:4] = [S >> 64 & 0xFFFFFFFF, S >> 96, S & 0xFFFFFFFF,
                  S >> 32 & 0xFFFFFFFF]
    return column


def _count_redraws(monkeypatch):
    # the block draw calls draw_error only for the trials it redraws
    calls = []

    def counting(*args):
        calls.append(args)
        return draw_error(*args)

    monkeypatch.setattr(sim, "draw_error", counting)
    return calls


@pytest.mark.parametrize("draw, q, delta, forced, word", [
    ("x", 3, 2, None, 1),            # x on 0..2
    ("weight", 3, 2, None, 3),       # the weight on 0..2
    ("floyd", 2, 1, 2, 4),           # the second pick on 0..8
    ("shuffle", 2, 1, 3, 6),         # the first swap, on 0..2
    ("value", 4, 1, 2, 6),           # the first value on 1..3
])
def test_block_draw_redraws_rejected_words(monkeypatch, draw, q, delta,
                                           forced, word):
    # word 0 is rejected on any range that is not a power of two; the
    # trial it lands in (trial 4) is redrawn, the others are not.  Only the
    # array steps read the crafted words: the redraw is default_rng((seed,
    # 4))'s own draw, and at this seed it differs from the row the array
    # steps make of the crafted words, so a skipped redraw fails by value
    field, n, N, seed = make_field(q), 3, 9, 13
    want = _per_trial_errors(field, n, N, delta, forced, seed, range(8))
    column = _zero_word_seed(sim._seed_words(seed, 4, 5)[:, 0], word)
    seed_words = sim._seed_words

    def crafted(seed, start, stop):
        words = seed_words(seed, start, stop)
        if start <= 4 < stop:
            words[:, 4 - start] = column
        return words

    monkeypatch.setattr(sim, "_seed_words", crafted)
    calls = _count_redraws(monkeypatch)
    E = sim._draw_block(field, n, N, delta, forced, seed, 0, 8)
    assert len(calls) == 1 and E.tolist() == want
    lemire = sim._lemire

    def accepting(u, r):  # every word accepted: nothing is redrawn
        value, rejected = lemire(u, r)
        return value, np.zeros_like(rejected)

    monkeypatch.setattr(sim, "_lemire", accepting)
    skipped = sim._draw_block(field, n, N, delta, forced, seed, 0, 8)
    assert len(calls) == 1 and skipped[4].tolist() != want[4]


@pytest.mark.parametrize("w, redrawn", [(200, 0), (201, 3), (300, 3)])
def test_block_draw_redraws_tail_shuffles(monkeypatch, w, redrawn):
    # numpy's choice shuffles the tail of an arange when N > 10000 and
    # w > N // 50, so those trials are redrawn through draw_error
    F3, N = make_field(3), 10001
    want = _per_trial_errors(F3, 2, N, 0, w, 5, range(3))
    calls = _count_redraws(monkeypatch)
    E = sim._draw_block(F3, 2, N, 0, w, 5, 0, 3)
    assert len(calls) == redrawn and E.tolist() == want
