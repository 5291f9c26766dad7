"""Property suite for chain-run macro-stepping.

Three-way differential testing: for every corpus instance the macro engine
(``simulate`` on a list rule's out-forest), the same run with an observer
attached (which dispatches ``select`` every step), and the per-node
reference loop (``_simulate_reference``) must produce bit-identical
completion arrays — including under every adversarial/random availability
trace and with chaos hooks attached (which must force the per-step
fallback: ``macro_steps == 0``).

A dedicated pure-chain test asserts the macro path actually engages
(``macro_steps > 0``) so the equivalence above is never vacuous.
"""

import numpy as np
import pytest

from repro.core import DAG, Instance, Job, SimulationObserver, simulate
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector, availability_suite
from repro.schedulers import (
    FIFOScheduler,
    LPFScheduler,
    RandomTieBreak,
    ReverseTieBreak,
)
from repro.workloads import (
    build_fifo_adversary,
    layered_tree,
    phased_parallel_for,
    random_attachment_tree,
)

# ---------------------------------------------------------------------------
# Corpus builders. Chain-heavy shapes (chains, spiders, caterpillars) exercise
# long macro commits; packed/phased/adversarial/random shapes exercise the
# Δt bounds (arrival gaps, run ends) and the per-step interleavings.
# ---------------------------------------------------------------------------


def _chain(n: int) -> DAG:
    return DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))


def _spider(legs: int, leg_len: int) -> DAG:
    """A root fanning out into ``legs`` chains of ``leg_len`` nodes."""
    parents = [-1]
    for _ in range(legs):
        parents.append(0)
        for _ in range(leg_len - 1):
            parents.append(len(parents) - 1)
    return DAG.from_parents(np.array(parents, dtype=np.int64))


def _caterpillar(spine: int) -> DAG:
    """A chain with one leaf hanging off every spine node (indegree-1
    children of outdegree-2 parents: chain links everywhere are broken)."""
    parents = list(range(-1, spine - 1))
    parents.extend(range(spine))
    return DAG.from_parents(np.array(parents, dtype=np.int64))


def _pure_chains(seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    return Instance(
        [
            Job(_chain(int(rng.integers(20, 60))), int(rng.integers(0, 3)))
            for _ in range(4)
        ]
    )


def _spiders(seed: int) -> Instance:
    rng = np.random.default_rng(seed + 100)
    return Instance(
        [
            Job(_spider(int(rng.integers(2, 5)), int(rng.integers(8, 25))), 5 * i)
            for i in range(3)
        ]
    )


def _caterpillars(seed: int) -> Instance:
    rng = np.random.default_rng(seed + 200)
    return Instance(
        [Job(_caterpillar(int(rng.integers(10, 30))), int(r))
         for r in rng.integers(0, 10, size=3)]
    )


def _packed(seed: int) -> Instance:
    return Instance(
        [Job(layered_tree([4] * 6, seed=seed + i), 3 * i) for i in range(3)]
    )


def _phased(seed: int) -> Instance:
    return Instance(
        [Job(phased_parallel_for(4, 6, seed=seed), 0),
         Job(_chain(40), 2),
         Job(phased_parallel_for(3, 8, seed=seed + 1), 15)]
    )


def _adversarial(seed: int) -> Instance:
    return build_fifo_adversary(4, 3, seed=seed).instance


def _random_mix(seed: int) -> Instance:
    rng = np.random.default_rng(seed + 300)
    jobs = [
        Job(random_attachment_tree(int(rng.integers(10, 40)), rng),
            int(rng.integers(0, 20)))
        for _ in range(4)
    ]
    jobs.append(Job(_chain(int(rng.integers(30, 80))), int(rng.integers(0, 20))))
    return Instance(jobs)


BUILDERS = (
    _pure_chains,
    _spiders,
    _caterpillars,
    _packed,
    _phased,
    _adversarial,
    _random_mix,
)
CORPUS = [(b, s) for b in BUILDERS for s in range(3)]

SCHEDULERS = {
    "fifo": lambda: FIFOScheduler(),
    "fifo-reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "lpf": lambda: LPFScheduler(),
}


def _three_way(instance, make_scheduler, m, **kwargs):
    """Assert macro / dispatched / reference bit-identity; return the macro
    run's schedule (whose ``engine_stats`` callers may inspect)."""
    macro = simulate(instance, m, make_scheduler(), **kwargs)
    dispatched = simulate(
        instance, m, make_scheduler(), observer=SimulationObserver(), **kwargs
    )
    assert dispatched.engine_stats.macro_steps == 0
    assert dispatched.engine_stats.select_calls == dispatched.engine_stats.steps
    ref = _simulate_reference(instance, m, make_scheduler(), **kwargs)
    for i, (a, b, c) in enumerate(
        zip(macro.completion, dispatched.completion, ref.completion)
    ):
        assert np.array_equal(a, b), f"macro vs dispatched diverged on job {i}"
        assert np.array_equal(a, c), f"macro vs reference diverged on job {i}"
    macro.validate()
    return macro


@pytest.mark.parametrize(
    "builder,seed", CORPUS, ids=[f"{b.__name__[1:]}-{s}" for b, s in CORPUS]
)
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    instance = builder(seed)
    for m in (2, 8):
        _three_way(instance, SCHEDULERS[policy], m)


def test_macro_path_actually_engages_on_pure_chains():
    """Parallel chains are the macro-stepping sweet spot; if ``macro_steps``
    stayed zero here, every equivalence in this file would be vacuous."""
    inst = Instance([Job(_chain(50), 0) for _ in range(4)])
    macro = _three_way(inst, FIFOScheduler, 4)
    stats = macro.engine_stats
    assert stats.macro_steps > 0
    assert stats.compressed_steps > stats.macro_steps  # Δt > 1 by definition
    assert stats.compressed_steps <= stats.fast_forwarded_steps
    assert stats.steps == macro.makespan


def test_macro_engages_on_priority_kernel_path():
    """LPF keeps encoded (priority-ranked) frontiers; the macro commit must
    fire there too, through the ``prio_enc`` re-encoding."""
    inst = Instance([Job(_spider(8, 40), 0)])
    macro = _three_way(inst, LPFScheduler, 8)
    assert macro.engine_stats.macro_steps > 0


@pytest.mark.parametrize("m", (2, 5))
def test_three_way_identity_under_availability_traces(m):
    """Every adversarial pattern plus seeded random traces: the availability
    change-point bound must keep macro commits inside constant-capacity
    windows, so all three engines still agree bit-for-bit."""
    instance = _random_mix(m)
    chain_inst = Instance([Job(_chain(60), 0), Job(_chain(45), 4)])
    for name, trace in availability_suite(m, 40, n_random=10, seed=m):
        for inst in (instance, chain_inst):
            try:
                _three_way(inst, FIFOScheduler, m, availability=trace)
            except AssertionError as exc:  # pragma: no cover - diagnostics
                raise AssertionError(f"trace {name!r} (m={m}): {exc}") from exc


def test_fault_injector_forces_per_step_fallback():
    """Chaos hooks observe individual steps, so the engine must not macro-
    (or fast-)forward past them — and must still match the reference."""
    inst = Instance([Job(_chain(50), 0), Job(_chain(50), 1)])
    for seed in range(3):
        injector = FaultInjector(
            crash_times=(1, 5), perturb_delivery=True, seed=seed
        )
        macro = simulate(inst, 4, FIFOScheduler(), fault_injector=injector)
        assert macro.engine_stats.macro_steps == 0
        assert macro.engine_stats.fast_forwarded_steps == 0
        injector2 = FaultInjector(
            crash_times=(1, 5), perturb_delivery=True, seed=seed
        )
        ref = _simulate_reference(
            inst, 4, FIFOScheduler(), fault_injector=injector2
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(macro.completion, ref.completion)
        )


def test_observer_forces_per_step_fallback():
    class Counter(SimulationObserver):
        def __init__(self):
            self.n = 0

        def on_step(self, t, selection, state):
            self.n += 1

    inst = Instance([Job(_chain(40), 0)])
    obs = Counter()
    s = simulate(inst, 2, FIFOScheduler(), observer=obs)
    assert s.engine_stats.macro_steps == 0
    assert obs.n == s.makespan  # every step observed, none compressed away


def test_impure_tiebreak_never_macro_steps():
    inst = Instance([Job(_chain(40), 0)])
    s = simulate(inst, 2, FIFOScheduler(RandomTieBreak(seed=3)))
    assert s.engine_stats.macro_steps == 0
