"""Unit tests for FIFO: the paper's two defining constraints and
tie-break behaviour."""

import numpy as np
import pytest

from repro.core import Instance, Job, antichain, chain, simulate, star
from repro.schedulers import (
    ArbitraryTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    RandomTieBreak,
)


def _ready_at(schedule, t):
    """Reconstruct the set of (job, node, arrival) ready at time t."""
    out = []
    for i, job in enumerate(schedule.instance):
        if job.release > t:
            continue
        c = schedule.completion[i]
        for v in range(job.dag.n):
            if 0 < c[v] <= t:
                continue
            if all(0 < c[p] <= t for p in job.dag.parents(v)):
                out.append((i, v, job.release))
    return out


class TestFIFOConstraints:
    @pytest.fixture
    def schedule(self):
        jobs = [
            Job(star(5), 0, "a"),
            Job(star(5), 1, "b"),
            Job(chain(4), 3, "c"),
        ]
        return simulate(Instance(jobs), 3, FIFOScheduler())

    def test_constraint_1_all_scheduled_when_underloaded(self, schedule):
        """If fewer than m subjobs are ready, FIFO runs them all."""
        for t in range(schedule.makespan):
            ready = _ready_at(schedule, t)
            ran = {(i, v) for i, v in schedule.at(t + 1)}
            if len(ready) < schedule.m:
                assert {(i, v) for i, v, _ in ready} == ran

    def test_constraint_2_skipped_jobs_are_younger(self, schedule):
        """A skipped ready subjob arrived no earlier than every scheduled
        one."""
        for t in range(schedule.makespan):
            ready = _ready_at(schedule, t)
            ran = {(i, v) for i, v in schedule.at(t + 1)}
            skipped = [(i, v, r) for i, v, r in ready if (i, v) not in ran]
            if not skipped:
                continue
            min_skipped_arrival = min(r for _, _, r in skipped)
            ran_arrivals = [r for i, v, r in ready if (i, v) in ran]
            assert all(r <= min_skipped_arrival for r in ran_arrivals)

    def test_feasible(self, schedule):
        schedule.validate()


class TestFIFOBehaviour:
    def test_oldest_job_never_starved(self):
        jobs = [Job(antichain(20), 0), Job(antichain(20), 0)]
        s = simulate(Instance(jobs), 4, FIFOScheduler())
        # job 0 (older by index) finishes no later than job 1
        assert s.job_completion(0) <= s.job_completion(1)

    def test_tie_break_changes_intra_job_order(self, small_tree):
        inst = Instance([Job(small_tree, 0)])
        arb = simulate(inst, 1, FIFOScheduler(ArbitraryTieBreak()))
        lpf = simulate(inst, 1, FIFOScheduler(LongestPathTieBreak()))
        # Both feasible, same single-processor makespan (all work serial).
        assert arb.makespan == lpf.makespan == small_tree.n

    def test_random_tiebreak_reproducible(self):
        inst = Instance([Job(star(10), 0), Job(star(10), 0)])
        a = simulate(inst, 3, FIFOScheduler(RandomTieBreak(5)))
        b = simulate(inst, 3, FIFOScheduler(RandomTieBreak(5)))
        assert all(
            np.array_equal(x, y) for x, y in zip(a.completion, b.completion)
        )

    def test_name_includes_tiebreak(self):
        assert FIFOScheduler().name == "FIFO[arbitrary]"
        assert FIFOScheduler(LongestPathTieBreak()).name == "FIFO[longestpath]"

    def test_clairvoyance_flag_follows_policy(self):
        assert not FIFOScheduler(ArbitraryTieBreak()).clairvoyant
        assert FIFOScheduler(LongestPathTieBreak()).clairvoyant

    def test_work_conserving(self):
        from repro.analysis import check_work_conserving

        jobs = [Job(star(6), 0), Job(chain(5), 2), Job(antichain(4), 4)]
        s = simulate(Instance(jobs), 3, FIFOScheduler())
        assert check_work_conserving(s).ok

    def test_simultaneous_arrivals_processed_in_id_order(self):
        jobs = [Job(antichain(3), 5, "x"), Job(antichain(3), 5, "y")]
        s = simulate(Instance(jobs), 3, FIFOScheduler())
        assert s.job_completion(0) <= s.job_completion(1)

    def test_reuse_after_reset(self, two_job_instance):
        fifo = FIFOScheduler()
        s1 = simulate(two_job_instance, 2, fifo)
        s2 = simulate(two_job_instance, 2, fifo)
        assert all(
            np.array_equal(a, b) for a, b in zip(s1.completion, s2.completion)
        )

    def test_crash_rebuild_drops_finished_jobs_from_the_walk(self):
        """A rebuild recounts each job's remaining work from its re-delivered
        frontier, so replayed finished jobs never re-enter the FIFO walk and
        the run ends with nothing left to walk."""
        from repro.faults import FaultInjector

        inst = Instance(
            [
                Job(chain(3), 0),
                Job(chain(3), 1),
                Job(chain(4), 2),
                Job(chain(5), 20),
            ]
        )
        fifo = FIFOScheduler()
        injector = FaultInjector(crash_times=(4, 7))
        crashed = simulate(inst, 1, fifo, fault_injector=injector)
        assert injector.crashes == [4, 7]
        assert fifo._unfinished == []
        assert fifo._remaining.tolist() == [0, 0, 0, 0]
        plain = simulate(inst, 1, FIFOScheduler())
        assert all(
            np.array_equal(a, b)
            for a, b in zip(crashed.completion, plain.completion)
        )
