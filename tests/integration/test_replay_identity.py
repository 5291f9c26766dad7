"""Integration: the adversary co-simulation is bit-identical to the general
engine replaying the frozen instance — the load-bearing property that makes
the Theorem 4.2 reproduction trustworthy."""

import numpy as np
import pytest

from repro.core import simulate
from repro.schedulers import ArbitraryTieBreak, FIFOScheduler
from repro.workloads import build_fifo_adversary


@pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 32])
def test_replay_identity_across_machine_sizes(m):
    adv = build_fifo_adversary(m, n_jobs=2 * m)
    replay = simulate(adv.instance, m, FIFOScheduler(ArbitraryTieBreak()))
    for a, b in zip(replay.completion, adv.fifo_schedule.completion):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_layers", [1, 3, 8])
def test_replay_identity_with_custom_layers(n_layers):
    adv = build_fifo_adversary(8, n_jobs=10, n_layers=n_layers)
    replay = simulate(adv.instance, 8, FIFOScheduler(ArbitraryTieBreak()))
    for a, b in zip(replay.completion, adv.fifo_schedule.completion):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("m,period", [(4, 3), (8, 5), (16, 9)])
def test_replay_identity_at_short_periods(m, period):
    """E12's overloaded adversary (period ~ (m+1)/2): releases overlap, so
    several jobs compete for each step, and the replay still matches."""
    adv = build_fifo_adversary(m, n_jobs=3 * m, period=period)
    replay = simulate(adv.instance, m, FIFOScheduler(ArbitraryTieBreak()))
    for a, b in zip(replay.completion, adv.fifo_schedule.completion):
        assert np.array_equal(a, b)


def test_witness_and_fifo_agree_on_work():
    adv = build_fifo_adversary(8, n_jobs=12)
    assert adv.opt_witness.instance is adv.instance
    # Both schedules run every subjob exactly once.
    for a, b in zip(adv.opt_witness.completion, adv.fifo_schedule.completion):
        assert a.shape == b.shape
        assert (a > 0).all() and (b > 0).all()
