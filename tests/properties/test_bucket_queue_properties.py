"""Property tests for priority kernels: every kernel against its ``key()``.

A tie-break whose ``priority_kernel`` returns an array makes FIFO and SRPT
list rules: the engine runs them without dispatching, ordering each job's
ready frontier by the kernel. A dispatched run and the reference engine
``_simulate_reference`` order the same frontier by ``key()`` through a
``ReadyHeap``. Two layers hold the two orders equal, bit for bit:

1. the kernel contract: sorting nodes by ``(kernel[v], v)`` equals sorting
   them by ``(key(job, v), v)``;
2. ``simulate`` on the list-rule path produces completion arrays identical
   to the reference engine, for FIFO and SRPT, across random trees, the
   Section 4 adversarial family, and packed rectangles with known OPT.

The tie-breaks are the ``TieBreak`` subclasses defined under
``repro.schedulers``, split by whether their kernel returns an array, so a
new kernel tie-break is checked against its ``key()`` with no edit here.
The packed-rectangle cases run the tie-breaks of the paper's three FIFO
rules (FIFO, LPF, MC) under both job walks.

The module keeps the name it had when it also tested a bucket-queue ready
structure (since deleted), so its test ids stay stable.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job, chain, complete_kary_tree, simulate
from repro.core.simulator import _simulate_reference
from repro.schedulers import (
    ArbitraryTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    LPFScheduler,
    MostChildrenTieBreak,
    RandomTieBreak,
    SRPTScheduler,
    TieBreak,
)
from repro.workloads import build_fifo_adversary, packed_instance

from .strategies import instances, out_forests, out_trees


def _shipped_tie_breaks() -> list[type[TieBreak]]:
    """Every concrete ``TieBreak`` subclass defined under ``repro.schedulers``."""
    found: set[type[TieBreak]] = set()
    stack = [TieBreak]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.schedulers.") and not (
                inspect.isabstract(sub)
            ):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


_PROBE = Job(complete_kary_tree(2, 3), 0)
KERNEL_TIE_BREAKS = [
    cls for cls in _shipped_tie_breaks() if cls().priority_kernel(_PROBE) is not None
]
KEY_ONLY_TIE_BREAKS = [
    cls for cls in _shipped_tie_breaks() if cls not in KERNEL_TIE_BREAKS
]

#: The schedulers a tie-break plugs into, by their job walk.
SCHEDULERS = {"FIFO": FIFOScheduler, "SRPT": SRPTScheduler}

#: Every (scheduler, kernel tie-break) pair, with a readable test id.
PAIRS = [
    pytest.param(name, cls, id=f"{name}-{cls.__name__}")
    for name in sorted(SCHEDULERS)
    for cls in KERNEL_TIE_BREAKS
]

#: The paper's FIFO rules by short name, as the tie-break each one gives
#: FIFO's job walk.
FIFO_RULES = {
    "fifo": ArbitraryTieBreak,
    "lpf": LongestPathTieBreak,
    "mc": MostChildrenTieBreak,
}


def test_the_tie_break_lists_are_not_empty():
    """Guard against silently testing nothing: the paper's LPF rule has a
    kernel, and the random tie-break has none."""
    assert LongestPathTieBreak in KERNEL_TIE_BREAKS
    assert RandomTieBreak in KEY_ONLY_TIE_BREAKS


@pytest.mark.parametrize("name", sorted(SCHEDULERS))
@pytest.mark.parametrize(
    "tie_break", KEY_ONLY_TIE_BREAKS, ids=lambda cls: cls.__name__
)
def test_key_only_tie_breaks_are_not_list_rules(name, tie_break):
    instance = Instance([Job(complete_kary_tree(2, 3), 0), Job(chain(4), 2)])
    assert SCHEDULERS[name](tie_break()).frontier_priorities(instance) is None


# ---------------------------------------------------------------------------
# Layer 1: the kernel contract.
# ---------------------------------------------------------------------------


@given(out_trees(max_nodes=30), st.integers(0, len(KERNEL_TIE_BREAKS) - 1))
@settings(max_examples=40)
def test_kernel_order_matches_key_order(dag, which):
    """Sorting all nodes by ``(kernel[v], v)`` equals sorting them by
    ``(key(job, v), v)``."""
    job = Job(dag, 0)
    policy = KERNEL_TIE_BREAKS[which]()
    kernel = policy.priority_kernel(job)
    by_kernel = sorted(range(dag.n), key=lambda v: (int(kernel[v]), v))
    by_key = sorted(range(dag.n), key=lambda v: (policy.key(job, v), v))
    assert by_kernel == by_key


# ---------------------------------------------------------------------------
# Layer 2: full-schedule bit-identity with the reference engine.
# ---------------------------------------------------------------------------


def _assert_matches_reference(instance, name, tie_break, m):
    kernel = simulate(instance, m, SCHEDULERS[name](tie_break()))
    ref = _simulate_reference(instance, m, SCHEDULERS[name](tie_break()))
    for i in range(len(instance)):
        assert np.array_equal(kernel.completion[i], ref.completion[i]), (
            f"{name}[{tie_break.__name__}]: list-rule path vs reference "
            f"diverged on job {i}, m={m}"
        )
    kernel.validate()


@given(
    instances(max_jobs=3, dag_strategy=out_trees(max_nodes=20)),
    st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_kernel_path_identical_on_random_trees(instance, m):
    for name in SCHEDULERS:
        for tie_break in KERNEL_TIE_BREAKS:
            _assert_matches_reference(instance, name, tie_break, m)


@given(
    instances(max_jobs=2, dag_strategy=out_forests(max_nodes=20)),
    st.integers(1, 5),
)
@settings(max_examples=20, deadline=None)
def test_kernel_path_identical_on_random_forests(instance, m):
    for name in SCHEDULERS:
        for tie_break in KERNEL_TIE_BREAKS:
            _assert_matches_reference(instance, name, tie_break, m)


@pytest.mark.parametrize("name, tie_break", PAIRS)
@pytest.mark.parametrize("m", [2, 4])
def test_kernel_path_identical_on_adversarial_instances(name, tie_break, m):
    """Section 4 adversarial instances: layered out-trees engineered to
    truncate FIFO mid-frontier — the regime the priority commit covers."""
    adversary = build_fifo_adversary(m, n_jobs=2 * m)
    _assert_matches_reference(adversary.instance, name, tie_break, m)


@pytest.mark.parametrize("rule", sorted(FIFO_RULES))
def test_kernel_path_identical_on_packed_rectangles(rule):
    packed = packed_instance(8, 6, flow=12, period=4, seed=5)
    for name in sorted(SCHEDULERS):
        for m in (3, 8):
            _assert_matches_reference(
                packed.instance, name, FIFO_RULES[rule], m
            )


def test_kernel_path_engages_on_truncating_workload():
    """Guard against silently testing the no-op: the adversarial runs above
    must actually take kernel-commit steps."""
    from repro.workloads import layered_tree

    inst = Instance(
        [Job(layered_tree([7] * 12, seed=s), 4 * s) for s in range(3)]
    )
    st_ = simulate(inst, 5, LPFScheduler()).engine_stats
    assert st_.kernel_steps > 0
