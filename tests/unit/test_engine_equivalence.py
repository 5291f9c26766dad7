"""Differential equivalence: the list-rule engine must produce
bit-identical schedules to the reference per-node loop.

``simulate`` and ``_simulate_reference`` (the dispatch loop, for every
scheduler) are run on the same instance with freshly constructed
schedulers, and the resulting completion arrays compared exactly — across
FIFO (several tie-breaks), LPF, most-children FIFO and randomized work
stealing, on packed, quicksort, random-forest and adversarial workloads.

FIFO with the random tie-break and work stealing are not list rules, so
``simulate`` runs them through the same dispatch loop as the reference:
their cases (``fifo-random``, ``worksteal``, ``worksteal-wc``) run one
loop twice and check that it is deterministic for a fixed seed.
"""

import numpy as np
import pytest

from repro.core import Instance, Job, simulate
from repro.core.simulator import _simulate_reference
from repro.schedulers import (
    DepthTieBreak,
    FIFOScheduler,
    LPFScheduler,
    MostChildrenTieBreak,
    RandomTieBreak,
    ReverseTieBreak,
    WorkStealingScheduler,
)
from repro.workloads import (
    build_fifo_adversary,
    layered_tree,
    quicksort_tree,
    random_out_forest,
)

# ---------------------------------------------------------------------------
# Workload zoo: (name, seed) -> Instance. Small enough to run the reference
# loop quickly, varied enough to hit every engine path (whole-frontier and
# truncated commits, macro-steps, idle gaps, same-time arrivals).
# ---------------------------------------------------------------------------


def _packed(seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    jobs = [
        Job(layered_tree([4] * int(rng.integers(4, 9)), seed=seed + i), 3 * i)
        for i in range(4)
    ]
    return Instance(jobs)


def _quicksort(seed: int) -> Instance:
    rng = np.random.default_rng(seed + 1000)
    jobs = [
        Job(quicksort_tree(int(rng.integers(20, 60)), seed=seed + i), 7 * i)
        for i in range(3)
    ]
    return Instance(jobs)


def _forest(seed: int) -> Instance:
    rng = np.random.default_rng(seed + 2000)
    jobs = [
        Job(random_out_forest(int(rng.integers(15, 40)), seed=seed + i), int(r))
        for i, r in enumerate(rng.integers(0, 12, size=4))
    ]
    return Instance(jobs)


def _adversarial(seed: int) -> Instance:
    return build_fifo_adversary(4, 3, seed=seed).instance


def _bursty_gap(seed: int) -> Instance:
    # Same-time arrival ties plus a long idle gap (exercises the idle jump
    # and the insort branch of FIFO's arrival handling).
    jobs = [
        Job(layered_tree([3] * 5, seed=seed), 0),
        Job(quicksort_tree(25, seed=seed), 0),
        Job(layered_tree([2] * 4, seed=seed + 1), 50),
    ]
    return Instance(jobs)


WORKLOADS = [
    (builder, seed)
    for builder in (_packed, _quicksort, _forest, _adversarial, _bursty_gap)
    for seed in range(4)
]  # 20 seeded workloads

SCHEDULERS = {
    "fifo-arbitrary": lambda: FIFOScheduler(),
    "fifo-reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "fifo-depth": lambda: FIFOScheduler(DepthTieBreak()),
    "fifo-random": lambda: FIFOScheduler(RandomTieBreak(seed=7)),
    "fifo-most-children": lambda: FIFOScheduler(MostChildrenTieBreak()),
    "lpf": lambda: LPFScheduler(),
    "worksteal": lambda: WorkStealingScheduler(seed=11),
    "worksteal-wc": lambda: WorkStealingScheduler(
        seed=13, deterministic_fallback=True
    ),
}


def _assert_identical(instance: Instance, make_scheduler, m: int) -> object:
    fast = simulate(instance, m, make_scheduler())
    ref = _simulate_reference(instance, m, make_scheduler())
    for i, (a, b) in enumerate(zip(fast.completion, ref.completion)):
        assert np.array_equal(a, b), f"job {i} diverged on m={m}"
    return fast


@pytest.mark.parametrize(
    "builder,seed", WORKLOADS, ids=[f"{b.__name__[1:]}-{s}" for b, s in WORKLOADS]
)
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_engines_agree(builder, seed, policy):
    instance = builder(seed)
    for m in (2, 8):
        _assert_identical(instance, SCHEDULERS[policy], m)


def test_fast_path_actually_engages_and_agrees():
    """The packed-rectangle regime must hit the fast path (otherwise the
    equivalence above would not be exercising it at all) and still match
    the reference loop exactly."""
    inst = Instance([Job(layered_tree([8] * 30, seed=0), 10 * i) for i in range(3)])
    fast = _assert_identical(inst, FIFOScheduler, 8)
    assert fast.engine_stats.fast_forwarded_steps > 0
    assert fast.engine_stats.resyncs >= 0
    fast.validate()


def test_impure_tiebreak_never_fast_forwards():
    inst = Instance([Job(layered_tree([8] * 30, seed=0), 0)])
    s = simulate(inst, 8, FIFOScheduler(RandomTieBreak(seed=3)))
    assert s.engine_stats.fast_forwarded_steps == 0


def test_observer_disables_fast_path():
    from repro.core import SimulationObserver

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
