"""Property tests for the priority-kernel fast path.

Two layers of guarantees, pinned bit-for-bit:

1. :class:`BucketReadyQueue` pops in exactly :class:`ReadyHeap` order for
   every pure tie-break with a priority kernel, under arbitrary
   interleaved push/pop sequences (the kernel contract: sorting by
   ``(kernel[v], v)`` equals sorting by ``(key(job, v), v)``).
2. ``simulate`` on the kernel path produces completion arrays identical to
   the pure-Python reference engine, across random trees, the Section 4
   adversarial family, and packed rectangles with known OPT.

A kernel may take any int64 values; a wide one is dense-ranked so the
queue still holds at most one bucket per node.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job, simulate
from repro.core.simulator import _simulate_reference
from repro.schedulers import (
    ArbitraryTieBreak,
    DepthTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    LPFScheduler,
    MostChildrenTieBreak,
    RandomTieBreak,
    ReverseTieBreak,
    make_ready_queue,
)
from repro.schedulers.base import BucketReadyQueue, ReadyHeap
from repro.workloads import build_fifo_adversary, packed_instance

from .strategies import instances, out_forests, out_trees

KERNEL_TIE_BREAKS = [
    ArbitraryTieBreak,
    ReverseTieBreak,
    DepthTieBreak,
    LongestPathTieBreak,
    MostChildrenTieBreak,
]


# ---------------------------------------------------------------------------
# Layer 1: queue-level pop-order identity.
# ---------------------------------------------------------------------------


@given(
    out_forests(max_nodes=40),
    st.integers(0, len(KERNEL_TIE_BREAKS) - 1),
    st.data(),
)
@settings(max_examples=60)
def test_bucket_queue_pops_exactly_heap_order(dag, which, data):
    """Interleave random pushes and pops; the two structures must agree on
    every popped node, at every length, down to an empty queue."""
    job = Job(dag, 0)
    policy = KERNEL_TIE_BREAKS[which]()
    kernel = policy.priority_kernel(job)
    assert kernel is not None
    heap = ReadyHeap(job, policy)
    bucket = BucketReadyQueue(kernel)
    pending = list(range(dag.n))
    while pending or heap:
        if pending and (not heap or data.draw(st.booleans(), label="push?")):
            batch = data.draw(
                st.integers(1, len(pending)), label="batch size"
            )
            chunk, pending = pending[:batch], pending[batch:]
            heap.push_all(chunk)
            bucket.push_all(chunk)
        else:
            k = data.draw(st.integers(1, len(heap)), label="pop count")
            assert bucket.pop_up_to(k) == heap.pop_up_to(k)
        assert len(bucket) == len(heap)
        if heap:
            assert bucket.peek() == heap.peek()


@given(out_trees(max_nodes=30), st.integers(0, len(KERNEL_TIE_BREAKS) - 1))
@settings(max_examples=40)
def test_kernel_order_matches_key_order(dag, which):
    """The kernel contract itself: sorting all nodes by ``(kernel[v], v)``
    equals sorting them by ``(key(job, v), v)``."""
    job = Job(dag, 0)
    policy = KERNEL_TIE_BREAKS[which]()
    kernel = policy.priority_kernel(job)
    by_kernel = sorted(range(dag.n), key=lambda v: (int(kernel[v]), v))
    by_key = sorted(range(dag.n), key=lambda v: (policy.key(job, v), v))
    assert by_kernel == by_key


@given(out_trees(max_nodes=25))
@settings(max_examples=20)
def test_factory_picks_bucket_queue_only_for_pure_kernels(dag):
    job = Job(dag, 0)
    assert isinstance(
        make_ready_queue(job, LongestPathTieBreak()), BucketReadyQueue
    )
    # Random is impure: its key order depends on RNG state, so no kernel.
    assert isinstance(
        make_ready_queue(job, RandomTieBreak(seed=3)), ReadyHeap
    )


class ScaledHeightTieBreak(LongestPathTieBreak):
    """LPF with every priority scaled by 10^4: the same order, but a kernel
    spanning far more values than the DAG has nodes."""

    SCALE = 10**4

    def key(self, job, node):
        return (-int(job.dag.height[node]) * self.SCALE, node)

    def priority_kernel(self, job):
        return -job.dag.height * self.SCALE


@given(out_forests(max_nodes=40), st.data())
@settings(max_examples=40)
def test_wide_kernel_gets_at_most_one_bucket_per_node(dag, data):
    """A kernel may take any int64 values; the queue dense-ranks a wide one,
    so it allocates at most n buckets and still pops in heap order."""
    job = Job(dag, 0)
    policy = ScaledHeightTieBreak()
    bucket = BucketReadyQueue(policy.priority_kernel(job))
    assert len(bucket._buckets) <= dag.n
    heap = ReadyHeap(job, policy)
    pending = list(range(dag.n))
    while pending or heap:
        if pending and (not heap or data.draw(st.booleans(), label="push?")):
            batch = data.draw(st.integers(1, len(pending)), label="batch size")
            chunk, pending = pending[:batch], pending[batch:]
            heap.push_all(chunk)
            bucket.push_all(chunk)
        else:
            k = data.draw(st.integers(1, len(heap)), label="pop count")
            assert bucket.pop_up_to(k) == heap.pop_up_to(k)


def test_builtin_kernels_keep_one_bucket_per_value():
    """The built-in kernels span fewer values than nodes, so they keep the
    plain offset mapping: one bucket per value between min and max."""
    from repro.workloads import quicksort_tree

    job = Job(quicksort_tree(200, seed=1), 0)
    for make in KERNEL_TIE_BREAKS:
        kernel = make().priority_kernel(job)
        bucket = BucketReadyQueue(kernel)
        assert len(bucket._buckets) == int(kernel.max() - kernel.min()) + 1


# ---------------------------------------------------------------------------
# Layer 2: full-schedule bit-identity on the kernel path.
# ---------------------------------------------------------------------------

SCHEDULER_FACTORIES = {
    "fifo": FIFOScheduler,
    "lpf": LPFScheduler,
    "mc": lambda: FIFOScheduler(MostChildrenTieBreak()),
}


def _assert_matches_reference(instance, factory, m):
    kernel = simulate(instance, m, factory())
    ref = _simulate_reference(instance, m, factory())
    for i in range(len(instance)):
        assert np.array_equal(kernel.completion[i], ref.completion[i]), (
            f"kernel vs reference diverged on job {i}, m={m}"
        )
    kernel.validate()


@given(
    instances(max_jobs=3, dag_strategy=out_trees(max_nodes=20)),
    st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_kernel_path_identical_on_random_trees(instance, m):
    for factory in SCHEDULER_FACTORIES.values():
        _assert_matches_reference(instance, factory, m)


@given(
    instances(max_jobs=2, dag_strategy=out_forests(max_nodes=20)),
    st.integers(1, 5),
)
@settings(max_examples=20, deadline=None)
def test_kernel_path_identical_on_random_forests(instance, m):
    for factory in SCHEDULER_FACTORIES.values():
        _assert_matches_reference(instance, factory, m)


@pytest.mark.parametrize("name", sorted(SCHEDULER_FACTORIES))
@pytest.mark.parametrize("m", [2, 4])
def test_kernel_path_identical_on_adversarial_instances(name, m):
    """Section 4 adversarial instances: layered out-trees engineered to
    truncate FIFO mid-frontier — the regime the priority commit covers."""
    adversary = build_fifo_adversary(m, n_jobs=2 * m)
    _assert_matches_reference(
        adversary.instance, SCHEDULER_FACTORIES[name], m
    )


@pytest.mark.parametrize("name", sorted(SCHEDULER_FACTORIES))
def test_kernel_path_identical_on_packed_rectangles(name):
    packed = packed_instance(8, 6, flow=12, period=4, seed=5)
    for m in (3, 8):
        _assert_matches_reference(packed.instance, SCHEDULER_FACTORIES[name], m)


def test_kernel_path_engages_on_truncating_workload():
    """Guard against silently testing the no-op: the adversarial runs above
    must actually take kernel-commit steps."""
    from repro.workloads import layered_tree

    inst = Instance(
        [Job(layered_tree([7] * 12, seed=s), 4 * s) for s in range(3)]
    )
    st_ = simulate(inst, 5, LPFScheduler()).engine_stats
    assert st_.kernel_steps > 0
