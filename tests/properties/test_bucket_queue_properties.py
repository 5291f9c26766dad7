"""Priority kernels: every kernel against its ``key()``.

A tie-break whose ``priority_kernel`` returns an array makes FIFO and SRPT
list rules: the engine runs them without dispatching, ordering each job's
ready frontier by the kernel. A dispatched run and the reference engine
``_simulate_reference`` order the same frontier by ``key()`` through a
``ReadyHeap``. Two layers hold the two orders equal, bit for bit:

1. the kernel contract: sorting nodes by ``(kernel[v], v)`` equals sorting
   them by ``(key(job, v), v)``;
2. every engine path produces completion arrays identical to the
   reference engine, for FIFO and SRPT with every kernel tie-break,
   across drawn random trees and forests, the Section 4 adversarial
   family, and packed rectangles with known OPT (slices of the
   conformance matrix, ``test_conformance.py``).

The tie-breaks are the ``TieBreak`` subclasses defined under
``repro.schedulers``, split by whether their kernel returns an array
(``strategies.KERNEL_TIE_BREAKS``), so a new kernel tie-break is checked
against its ``key()`` with no edit here.

The module keeps the name it had when it also tested a bucket-queue ready
structure (since deleted), so its test ids stay stable.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Instance, Job, chain, complete_kary_tree
from repro.schedulers import (
    FIFOScheduler,
    LongestPathTieBreak,
    RandomTieBreak,
    SRPTScheduler,
)

from .strategies import KERNEL_TIE_BREAKS, KEY_ONLY_TIE_BREAKS, instances, out_forests, out_trees
from .test_conformance import LIST_RULES, conforming, drawn_conforms

#: The schedulers a tie-break plugs into, by their job walk.
SCHEDULERS = {"FIFO": FIFOScheduler, "SRPT": SRPTScheduler}
#: Every (scheduler, kernel tie-break) pair, with a readable test id.
PAIRS = [
    pytest.param(name, cls, id=f"{name}-{cls.__name__}")
    for name in sorted(SCHEDULERS)
    for cls in KERNEL_TIE_BREAKS
]
#: The paper's FIFO rules by short name, as the tie-break each one gives
#: a job walk.
FIFO_RULES = {"fifo": "arbitrary", "lpf": "longestpath", "mc": "mostchildren"}


def _column(name: str, tie_break) -> str:
    return f"{name.lower()}-{tie_break().name}"


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
    rule = SCHEDULERS[name](tie_break()).list_rule()
    assert all(rule.priorities(job) is None for job in instance)


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


@given(
    instances(max_jobs=3, dag_strategy=out_trees(max_nodes=20)),
    st.integers(1, 6),
)
@settings(max_examples=25, deadline=None)
def test_kernel_path_identical_on_random_trees(instance, m):
    drawn_conforms(instance, m, cols=LIST_RULES)


@given(
    instances(max_jobs=2, dag_strategy=out_forests(max_nodes=20)),
    st.integers(1, 5),
)
@settings(max_examples=20, deadline=None)
def test_kernel_path_identical_on_random_forests(instance, m):
    drawn_conforms(instance, m, cols=LIST_RULES)


@pytest.mark.parametrize("name, tie_break", PAIRS)
@pytest.mark.parametrize("m", [2, 4])
def test_kernel_path_identical_on_adversarial_instances(name, tie_break, m):
    """Section 4 adversarial instances: layered out-trees engineered to
    truncate FIFO mid-frontier — the regime the priority commit covers."""
    conforming("adversary-2m", _column(name, tie_break), m=m)


@pytest.mark.parametrize("rule", sorted(FIFO_RULES))
def test_kernel_path_identical_on_packed_rectangles(rule):
    for walk in ("fifo", "srpt"):
        conforming("packed-opt", f"{walk}-{FIFO_RULES[rule]}")


def test_kernel_path_engages_on_truncating_workload():
    """Guard against silently testing the no-op: the truncating runs
    must actually take kernel-commit steps."""
    assert conforming("truncating", "fifo-longestpath").stats["list"]["kernel_steps"] > 0
