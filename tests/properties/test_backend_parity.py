"""Batched ≡ per-instance ≡ reference-loop parity suite.

For every instance in the corpus, the lockstep batched engine
(``simulate_batch``), the per-instance engine (``simulate``, with its
fast/priority/macro paths and the kernels of :mod:`repro.core.kernels`),
and the per-node reference loop (``_simulate_reference``) must produce
bit-identical completion arrays.

SRPT rides along with FIFO/LPF here because its list-rule run exercises
the dynamic-job-order walk, and ``simulate_batch`` must route it per
instance (its job walk is not FIFO).
"""

import numpy as np
import pytest

from repro.core import kernels, simulate, simulate_batch
from repro.core.simulator import _simulate_reference
from repro.schedulers import FIFOScheduler, LPFScheduler, ReverseTieBreak
from repro.schedulers.srpt import SRPTScheduler

from .test_batch_properties import (
    _adversarial_batch,
    _chains_batch,
    _ragged_batch,
    _random_batch,
)

BUILDERS = (_chains_batch, _random_batch, _adversarial_batch, _ragged_batch)
CORPUS = [(b, s) for b in BUILDERS for s in range(2)]

SCHEDULERS = {
    "fifo": lambda: FIFOScheduler(),
    "fifo-reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "lpf": lambda: LPFScheduler(),
    "srpt": lambda: SRPTScheduler(),
}


def _three_way(instances, make_scheduler, m):
    batched = simulate_batch(instances, m, make_scheduler())
    per_instance = [simulate(inst, m, make_scheduler()) for inst in instances]
    refs = [_simulate_reference(inst, m, make_scheduler()) for inst in instances]
    for b in range(len(instances)):
        legs = (batched[b].completion, per_instance[b].completion, refs[b].completion)
        for i, (x, y, z) in enumerate(zip(*legs)):
            assert np.array_equal(x, y), f"batched vs per-instance: instance {b} job {i}"
            assert np.array_equal(y, z), f"per-instance vs reference: instance {b} job {i}"


@pytest.mark.parametrize(
    "builder,seed", CORPUS, ids=[f"{b.__name__[1:]}-{s}" for b, s in CORPUS]
)
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    batch = builder(seed)
    for m in (1, 3, 8):
        _three_way(batch, SCHEDULERS[policy], m)


def test_registry_covers_arena_kernels():
    """``KERNEL_NAMES`` includes the idle arena kernels and every name is
    a function of :mod:`repro.core.kernels` (the repo benchmark builds
    its per-kernel dispatch metrics from that tuple)."""
    assert "arena_gather" in kernels.KERNEL_NAMES
    assert "arena_commit" in kernels.KERNEL_NAMES
    assert len(set(kernels.KERNEL_NAMES)) == len(kernels.KERNEL_NAMES)
    for kname in kernels.KERNEL_NAMES:
        assert callable(getattr(kernels, kname))
