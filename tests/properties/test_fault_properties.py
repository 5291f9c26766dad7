"""Property suite for fluctuating allocations and fault injection.

Acceptance-level properties, checked over 200+ availability traces
(every adversarial pattern plus seeded random traces, across several
machine sizes):

* **Lemma 5.5** — Most-Children replay of a packed LPF tail never idles a
  granted processor, whatever the trace does;
* **engine integrity** — under every trace the list-rule engine produces
  a schedule that validates and is bit-identical to the reference loop;
  with an attached :class:`~repro.faults.FaultInjector` (scheduler
  crash/restart plus perturbed ready delivery) the run still validates and
  equals the unfaulted list-rule run, since neither crashes nor delivery
  order change what FIFO, LPF or SRPT decide.
"""

import numpy as np
import pytest

from repro.analysis.invariants import check_mc_busy, head_tail_shape
from repro.core import Instance, Job, simulate
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector, availability_suite
from repro.schedulers import (
    FIFOScheduler,
    LongestPathTieBreak,
    LPFScheduler,
    SRPTScheduler,
    lpf_schedule,
)
from repro.workloads.random_trees import random_attachment_tree

#: Machine sizes × random traces per size; together with the 7 adversarial
#: patterns per size this yields 4 * (7 + 45) = 208 distinct traces.
MS = (2, 3, 5, 8)
N_RANDOM = 45
HORIZON = 40


def _suite(m: int) -> list[tuple[str, object]]:
    return list(availability_suite(m, HORIZON, n_random=N_RANDOM, seed=m))


def _instance(m: int) -> Instance:
    rng = np.random.default_rng(100 + m)
    jobs = [
        Job(random_attachment_tree(int(rng.integers(10, 25)), rng),
            int(rng.integers(0, 6)))
        for _ in range(2)
    ]
    return Instance(jobs)


def test_trace_count_meets_acceptance_floor():
    assert sum(len(_suite(m)) for m in MS) >= 200


@pytest.mark.parametrize("m", MS)
def test_mc_replay_never_idles_granted_processors(m):
    """Lemma 5.5 (work-conserving form): replaying a packed LPF tail keeps
    every granted processor busy under every one of the suite's traces."""
    dag = random_attachment_tree(30, np.random.default_rng(m))
    lpf = lpf_schedule(dag, m)
    shape = head_tail_shape(lpf, m)
    steps = [nodes for _, nodes in lpf.job_steps(0)]
    tail = steps[shape.head_length:]
    assert tail, "fixture tree must produce a non-empty packed tail"
    tail_work = sum(len(nodes) for nodes in tail)
    for name, trace in _suite(m):
        # Enough allocation steps to finish the tail even if every explicit
        # step granted zero: HORIZON (possible zeros) + tail work (each
        # granted step completes at least one node when work remains).
        assert check_mc_busy(tail, dag, trace.prefix(HORIZON + tail_work)), (
            f"MC replay idled a granted processor under trace {name!r} "
            f"(m={m})"
        )


@pytest.mark.parametrize("m", MS)
def test_engine_matches_reference_and_validates_under_every_trace(m):
    instance = _instance(m)
    for name, trace in _suite(m):
        fast = simulate(instance, m, FIFOScheduler(), availability=trace)
        fast.validate()
        ref = _simulate_reference(
            instance, m, FIFOScheduler(), availability=trace
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(fast.completion, ref.completion)
        ), f"engine/reference divergence under trace {name!r} (m={m})"


def _srpt():
    return SRPTScheduler(LongestPathTieBreak())


@pytest.mark.parametrize("m", (2, 5))
@pytest.mark.parametrize(
    "make_scheduler",
    (FIFOScheduler, LPFScheduler, _srpt),
    ids=("FIFOScheduler", "LPFScheduler", "SRPTScheduler"),
)
def test_injected_faults_keep_engines_bit_identical(m, make_scheduler):
    """Crash/restart plus perturbed delivery under adversarial traces: the
    faulted run (the dispatch loop) must still validate and equal the
    unfaulted run of the same scheduler and trace (the list-rule engine)
    bit-for-bit (a subset of sizes keeps the run count affordable; the
    chaos suite covers the randomized long tail)."""
    instance = _instance(m)
    for i, (name, trace) in enumerate(_suite(m)[:12]):
        # Early crash steps: every run dispatches at t=1 (some makespans
        # under generous random traces are below 10).
        injector = FaultInjector(
            crash_times=(1, 4 + i % 5),
            perturb_delivery=True,
            seed=1000 * m + i,
        )
        faulted = simulate(
            instance, m, make_scheduler(),
            availability=trace, fault_injector=injector,
        )
        faulted.validate()
        assert injector.crashes, f"no crash fired under {name!r}"
        plain = simulate(instance, m, make_scheduler(), availability=trace)
        assert plain.engine_stats.select_calls == 0  # the list-rule engine
        assert all(
            np.array_equal(a, b)
            for a, b in zip(faulted.completion, plain.completion)
        ), f"faulted/unfaulted divergence under {name!r} (m={m})"
