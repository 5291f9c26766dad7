"""Unit tests for the metrics collector."""

import pytest

from repro.core import Instance, Job, MetricsCollector, antichain, chain, simulate, star
from repro.schedulers import FIFOScheduler, WorkStealingScheduler


def _collect(instance, m):
    collector = MetricsCollector()
    schedule = simulate(instance, m, FIFOScheduler(), observer=collector)
    return collector, schedule


class TestCollection:
    def test_observes_every_executing_step(self):
        collector, schedule = _collect(Instance([Job(chain(4), 0)]), 2)
        assert collector.times == [0, 1, 2, 3]
        assert collector.scheduled == [1, 1, 1, 1]

    def test_backlog_decreases_to_zero(self):
        collector, _ = _collect(Instance([Job(star(5), 0)]), 3)
        assert collector.backlog[-1] == 0
        assert all(b >= a for a, b in zip(collector.backlog[::-1], collector.backlog[::-1][1:]))

    def test_alive_jobs_tracks_arrivals(self):
        inst = Instance([Job(chain(3), 0), Job(chain(3), 2)])
        collector, _ = _collect(inst, 1)
        assert max(collector.alive_jobs) == 2

    @pytest.mark.parametrize(
        "scheduler",
        [FIFOScheduler, lambda: WorkStealingScheduler(seed=0)],
        ids=["fifo", "worksteal"],
    )
    def test_observer_sees_newly_ready_subjobs(self, scheduler):
        """The engine marks the subjobs a step enabled as ready before it
        calls the observer: on a 3-chain each step's successor is already
        counted."""
        collector = MetricsCollector()
        simulate(Instance([Job(chain(3), 0)]), 1, scheduler(), observer=collector)
        assert collector.ready_after == [1, 1, 0]

    def test_utilization_profile_bounded(self):
        collector, _ = _collect(Instance([Job(star(9), 0)]), 4)
        profile = collector.utilization_profile()
        assert (profile >= 0).all() and (profile <= 1).all()


class TestSummary:
    def test_full_rectangle_is_fully_utilized(self):
        collector, _ = _collect(Instance([Job(antichain(8), 0)]), 4)
        summary = collector.summary()
        assert summary.utilization == 1.0
        assert summary.n_steps == 2
        assert summary.max_ready == 8

    def test_chain_on_many_processors_underutilized(self):
        collector, _ = _collect(Instance([Job(chain(6), 0)]), 3)
        summary = collector.summary()
        assert summary.utilization == pytest.approx(1 / 3)
        assert summary.max_alive_jobs == 1

    def test_max_backlog_counts_before_step(self):
        collector, _ = _collect(Instance([Job(antichain(10), 0)]), 5)
        assert collector.summary().max_backlog == 10

    def test_empty_collector_raises(self):
        with pytest.raises(ValueError):
            MetricsCollector().summary()

    def test_first_last_steps(self):
        inst = Instance([Job(chain(2), 5)])
        collector, _ = _collect(inst, 1)
        summary = collector.summary()
        assert summary.first_step == 5
        assert summary.last_step == 6
