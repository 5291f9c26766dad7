"""Differential equivalence: the list-rule engine must produce
bit-identical schedules to the reference per-node loop.

Each case is a slice of the conformance matrix
(``tests/properties/test_conformance.py``): one scheduler column on the
instance one seed builds in the packed, quicksort, random-forest,
adversarial or same-time-arrival family, run at m = 2 and 8 through every
engine path and checked against ``_simulate_reference``. FIFO with the
random tie-break and work stealing are not list rules; their cells run
the reference loop twice (determinism) and the faulted and batch paths.
"""

import pytest

from repro.core import Instance, Job, SimulationObserver, simulate
from repro.schedulers import FIFOScheduler, RandomTieBreak
from repro.workloads import layered_tree

from ..properties.test_conformance import conforming

#: Workload name -> matrix family.
WORKLOADS = {
    "packed": "packed",
    "quicksort": "quicksort",
    "forest": "forest",
    "adversarial": "adversary",
    "bursty_gap": "bursty-gap",
}
#: Scheduler name -> matrix column.
SCHEDULERS = {
    "fifo-arbitrary": "fifo-arbitrary",
    "fifo-reverse": "fifo-reverse",
    "fifo-depth": "fifo-depth",
    "fifo-random": "fifo-random",
    "fifo-most-children": "fifo-mostchildren",
    "lpf": "fifo-longestpath",
    "worksteal": "worksteal",
    "worksteal-wc": "worksteal-wc",
}
CASES = [(name, seed) for name in WORKLOADS for seed in range(4)]


@pytest.mark.parametrize("workload,seed", CASES, ids=[f"{w}-{s}" for w, s in CASES])
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_engines_agree(workload, seed, policy):
    conforming(WORKLOADS[workload], SCHEDULERS[policy], seed=seed)


def test_fast_path_actually_engages_and_agrees():
    """The packed-rectangle regime must hit the fast path (otherwise the
    equivalence above would not be exercising it at all) and still match
    the reference loop exactly."""
    stats = conforming("rectangles-8x30", "fifo-arbitrary").stats["list"]
    assert stats["fast_forwarded_steps"] > 0


def test_impure_tiebreak_never_fast_forwards():
    inst = Instance([Job(layered_tree([8] * 30, seed=0), 0)])
    s = simulate(inst, 8, FIFOScheduler(RandomTieBreak(seed=3)))
    assert s.engine_stats.fast_forwarded_steps == 0


def test_observer_disables_fast_path():
    class Counter(SimulationObserver):
        def __init__(self):
            self.n = 0

        def on_step(self, t, selection, state):
            self.n += 1

    inst = Instance([Job(layered_tree([8] * 10, seed=0), 0)])
    obs = Counter()
    s = simulate(inst, 8, FIFOScheduler(), observer=obs)
    assert s.engine_stats.fast_forwarded_steps == 0
    assert obs.n == s.makespan
