"""Broadcast simulation: single runs, random campaigns, exhaustive sweeps."""

import numpy as np
import pytest

from indexcode.errors import BudgetExceeded
from indexcode.sim import (
    CampaignStats,
    draw_error,
    simulate_once,
    trial_campaign,
)


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
    # the budget counts cases: 8 message vectors times 5 error patterns
    with pytest.raises(BudgetExceeded):
        trial_campaign(k3, F2, k3_L, 1, 0, 0, exhaustive=True, budget=39)
    stats = trial_campaign(k3, F2, k3_L, 1, 0, 0, exhaustive=True, budget=40)
    assert stats.trials == 40


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
