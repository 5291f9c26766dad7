"""Unit tests for the work-conserving baselines."""

import heapq

import numpy as np
import pytest

from repro.analysis import check_work_conserving
from repro.core import Instance, Job, Scheduler, antichain, chain, simulate, star
from repro.schedulers import (
    GlobalArbitraryScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.workloads import poisson_instance, quicksort_tree

SCHEDULERS = [
    GlobalArbitraryScheduler,
    lambda: RandomScheduler(seed=1),
    RoundRobinScheduler,
]


@pytest.fixture
def mixed_instance():
    return Instance(
        [
            Job(star(8), 0, "wide"),
            Job(chain(6), 1, "deep"),
            Job(antichain(5), 3, "flat"),
        ]
    )


class TestFeasibility:
    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_valid_schedules(self, make, mixed_instance):
        s = simulate(mixed_instance, 3, make() if callable(make) else make)
        s.validate()

    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_work_conserving(self, make, mixed_instance):
        s = simulate(mixed_instance, 3, make() if callable(make) else make)
        assert check_work_conserving(s).ok

    @pytest.mark.parametrize("make", SCHEDULERS)
    def test_single_processor_serializes(self, make, mixed_instance):
        s = simulate(mixed_instance, 1, make() if callable(make) else make)
        assert s.makespan >= mixed_instance.total_work


class TestRandomScheduler:
    def test_seeded_reproducible(self, mixed_instance):
        a = simulate(mixed_instance, 2, RandomScheduler(seed=9))
        b = simulate(mixed_instance, 2, RandomScheduler(seed=9))
        assert all(
            np.array_equal(x, y) for x, y in zip(a.completion, b.completion)
        )

    def test_name(self):
        assert RandomScheduler().name == "Greedy[random]"


class TestRoundRobin:
    def test_alternates_between_jobs(self):
        inst = Instance([Job(antichain(4), 0), Job(antichain(4), 0)])
        s = simulate(inst, 2, RoundRobinScheduler())
        # With capacity 2 and two jobs, each step runs one subjob of each.
        for t in range(1, s.makespan + 1):
            jobs_at_t = {j for j, _ in s.at(t)}
            assert len(jobs_at_t) == 2

    def test_name(self):
        assert RoundRobinScheduler().name == "RoundRobin"


class _SmallestReadyPairs(Scheduler):
    """Greedy[arbitrary] by its definition: each step, the ``capacity``
    smallest ready ``(job id, node id)`` pairs."""

    def reset(self, instance, m):
        self.ready = set()

    def on_nodes_ready(self, t, job_id, nodes):
        self.ready.update((job_id, int(v)) for v in nodes)

    def select(self, t, capacity):
        chosen = heapq.nsmallest(capacity, self.ready)
        self.ready.difference_update(chosen)
        return chosen


class TestGlobalArbitrary:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_takes_the_smallest_ready_pairs(self, seed, m):
        """Job ids follow release order, so FIFO with the arbitrary
        tie-break is exactly the smallest-pairs fill."""
        rng = np.random.default_rng(seed)
        dags = [
            quicksort_tree(int(rng.integers(10, 60)), seed=seed * 7 + i)
            for i in range(6)
        ]
        inst = poisson_instance(dags, rate=0.3, seed=seed)
        run = simulate(inst, m, GlobalArbitraryScheduler())
        ref = simulate(inst, m, _SmallestReadyPairs())
        for a, b in zip(run.completion, ref.completion):
            np.testing.assert_array_equal(a, b)
        assert GlobalArbitraryScheduler().name == "Greedy[arbitrary]"

    def test_fills_capacity(self):
        inst = Instance([Job(antichain(9), 0)])
        s = simulate(inst, 3, GlobalArbitraryScheduler())
        assert s.makespan == 3
        assert s.usage_profile()[1:].tolist() == [3, 3, 3]
