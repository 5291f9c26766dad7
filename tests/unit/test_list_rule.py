"""The list-rule boundary: ``frontier_priorities`` is the one opt-in.

A scheduler whose ``frontier_priorities`` returns an array is run by the
engine alone (no observer, no fault injector): it sees ``reset`` and
``frontier_priorities`` and nothing else. Returning ``None`` — as FIFO and
SRPT do for a pure tie-break that only defines ``key()`` — keeps every
step on the dispatch path, with the same schedule as the reference loop.
"""

import numpy as np
import pytest

from repro.core import Instance, Job, SimulationObserver, simulate, simulate_batch
from repro.core.simulator import _simulate_reference
from repro.schedulers import FIFOScheduler, SRPTScheduler, TieBreak
from repro.workloads import layered_tree, poisson_instance, quicksort_tree


class KeyOnlyHeightTieBreak(TieBreak):
    """LPF's order through ``key()`` alone: pure, but with no kernel."""

    def key(self, job, node):
        return (-int(job.dag.height[node]), node)


def _stream(seed=0):
    rng = np.random.default_rng(seed)
    dags = [
        quicksort_tree(int(rng.integers(20, 80)), seed=seed * 17 + i)
        for i in range(6)
    ]
    return poisson_instance(dags, rate=0.4, seed=seed)


@pytest.mark.parametrize("make", [FIFOScheduler, SRPTScheduler])
@pytest.mark.parametrize("m", [2, 5])
def test_key_only_tie_break_dispatches_every_step(make, m):
    inst = _stream(m)
    scheduler = make(KeyOnlyHeightTieBreak())
    scheduler.reset(inst, m)
    assert scheduler.frontier_priorities(inst) is None
    run = simulate(inst, m, make(KeyOnlyHeightTieBreak()))
    stats = run.engine_stats
    assert stats.select_calls == stats.steps
    assert stats.fast_forwarded_steps == 0
    ref = _simulate_reference(inst, m, make(KeyOnlyHeightTieBreak()))
    for a, b in zip(run.completion, ref.completion):
        np.testing.assert_array_equal(a, b)


class RecordingFIFO(FIFOScheduler):
    """FIFO that logs every engine-facing call it receives."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def reset(self, instance, m):
        self.calls.append("reset")
        super().reset(instance, m)

    def frontier_priorities(self, instance):
        self.calls.append("frontier_priorities")
        return super().frontier_priorities(instance)

    def on_job_arrival(self, t, job_id, job):
        self.calls.append("on_job_arrival")
        super().on_job_arrival(t, job_id, job)

    def on_nodes_ready(self, t, job_id, nodes):
        self.calls.append("on_nodes_ready")
        super().on_nodes_ready(t, job_id, nodes)

    def select(self, t, capacity):
        self.calls.append("select")
        return super().select(t, capacity)


def _layered(seed):
    return Instance(
        [Job(layered_tree([5] * 6, seed=seed + i), 3 * i) for i in range(3)]
    )


def test_list_rule_run_sees_reset_and_priorities_only():
    inst = _layered(0)
    scheduler = RecordingFIFO()
    run = simulate(inst, 4, scheduler)
    assert scheduler.calls == ["reset", "frontier_priorities"]
    assert run.engine_stats.kernel_steps > 0  # truncations were resolved


def test_batched_list_rule_run_sees_reset_and_priorities_only():
    batch = [_layered(s) for s in range(3)]
    scheduler = RecordingFIFO()
    simulate_batch(batch, 4, scheduler)
    assert scheduler.calls == ["reset", "frontier_priorities"] * len(batch)


def test_observed_run_is_dispatched_and_never_asked_for_priorities():
    inst = _layered(1)
    scheduler = RecordingFIFO()
    run = simulate(inst, 4, scheduler, observer=SimulationObserver())
    assert "frontier_priorities" not in scheduler.calls
    assert scheduler.calls.count("on_job_arrival") == len(inst)
    assert scheduler.calls.count("select") == run.engine_stats.steps
