"""Chain-run macro-stepping against the reference loop.

Each case is a slice of the conformance matrix (``test_conformance.py``):
for every corpus instance the macro engine (``simulate`` on a list rule's
out-forest) and every other engine path must produce completion arrays
bit-identical to ``_simulate_reference``, including under every
adversarial and random availability trace, while a fault injector forces
the per-step fallback (``macro_steps == 0``). Chain-heavy shapes
(chains, spiders, caterpillars) exercise long macro commits;
packed/phased/adversarial/random shapes exercise the Δt bounds (arrival
gaps, run ends) and the per-step interleavings. Engagement cases assert
the macro path actually runs, so the equivalences are never vacuous.
"""

import numpy as np
import pytest

from repro.core import Instance, Job, SimulationObserver, chain, simulate
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector
from repro.schedulers import FIFOScheduler, RandomTieBreak

from .test_conformance import conforming

#: Builder name -> matrix family.
BUILDERS = {
    "pure_chains": "chains",
    "spiders": "spiders",
    "caterpillars": "caterpillars",
    "packed": "packed-6",
    "phased": "phased",
    "adversarial": "adversary",
    "random_mix": "random-mix",
}
CORPUS = [(b, s) for b in BUILDERS for s in range(3)]
SCHEDULERS = {"fifo": "fifo-arbitrary", "fifo-reverse": "fifo-reverse", "lpf": "fifo-longestpath"}


@pytest.mark.parametrize("builder,seed", CORPUS, ids=[f"{b}-{s}" for b, s in CORPUS])
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    conforming(BUILDERS[builder], SCHEDULERS[policy], seed=seed)


def test_macro_path_actually_engages_on_pure_chains():
    """Parallel chains are the macro-stepping sweet spot; if ``macro_steps``
    stayed zero here, every equivalence in this file would be vacuous."""
    stats = conforming("chains-50", "fifo-arbitrary").stats["list"]
    assert stats["macro_steps"] > 0
    assert stats["compressed_steps"] > stats["macro_steps"]  # Δt > 1 by definition
    assert stats["compressed_steps"] <= stats["fast_forwarded_steps"]


def test_macro_engages_on_priority_kernel_path():
    """LPF keeps encoded (priority-ranked) frontiers; the macro commit must
    fire there too, through the ``prio_enc`` re-encoding."""
    assert conforming("spider-8x40", "fifo-longestpath").stats["list"]["macro_steps"] > 0


@pytest.mark.parametrize("m", (2, 5))
def test_three_way_identity_under_availability_traces(m):
    """Every adversarial pattern plus seeded random traces: the availability
    change-point bound must keep macro commits inside constant-capacity
    windows, so every engine path still agrees bit for bit."""
    conforming("random-mix-traced", "fifo-arbitrary", m=m, traces="traced")


def test_fault_injector_forces_per_step_fallback():
    """Chaos hooks observe individual steps, so the engine must not macro-
    (or fast-)forward past them — and must still match the reference."""
    inst = Instance([Job(chain(50), 0), Job(chain(50), 1)])
    ref = _simulate_reference(inst, 4, FIFOScheduler())
    for seed in range(3):
        injector = FaultInjector(crash_times=(1, 5), perturb_delivery=True, seed=seed)
        faulted = simulate(inst, 4, FIFOScheduler(), fault_injector=injector)
        assert injector.crashes == [1, 5]
        assert faulted.engine_stats.macro_steps == 0
        assert faulted.engine_stats.fast_forwarded_steps == 0
        assert all(np.array_equal(a, b) for a, b in zip(faulted.completion, ref.completion))


def test_observer_forces_per_step_fallback():
    class Counter(SimulationObserver):
        def __init__(self):
            self.n = 0

        def on_step(self, t, selection, state):
            self.n += 1

    inst = Instance([Job(chain(40), 0)])
    obs = Counter()
    s = simulate(inst, 2, FIFOScheduler(), observer=obs)
    assert s.engine_stats.macro_steps == 0
    assert obs.n == s.makespan  # every step observed, none compressed away


def test_impure_tiebreak_never_macro_steps():
    inst = Instance([Job(chain(40), 0)])
    s = simulate(inst, 2, FIFOScheduler(RandomTieBreak(seed=3)))
    assert s.engine_stats.macro_steps == 0
