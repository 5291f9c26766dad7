"""Batched ≡ per-instance ≡ reference-loop parity.

Each case is a slice of the conformance matrix (``test_conformance.py``):
the lockstep batched engine (``simulate_batch``), the per-instance engine
(``simulate``, with its fast/priority/macro paths and the kernels of
:mod:`repro.core.kernels`) and every other engine path must produce
completion arrays bit-identical to ``_simulate_reference``.

SRPT rides along with FIFO/LPF here because its list-rule run exercises
the dynamic-job-order walk, and ``simulate_batch`` must route it per
instance (its job walk is not FIFO).
"""

import pytest

from repro.core import kernels

from .test_conformance import conforming

#: Builder name -> matrix family.
BUILDERS = {
    "chains_batch": "chains-batch",
    "random_batch": "random-batch",
    "adversarial_batch": "adversary-batch",
    "ragged_batch": "ragged-batch",
}
CORPUS = [(b, s) for b in BUILDERS for s in range(2)]
SCHEDULERS = {
    "fifo": "fifo-arbitrary",
    "fifo-reverse": "fifo-reverse",
    "lpf": "fifo-longestpath",
    "srpt": "srpt-arbitrary",
}


@pytest.mark.parametrize("builder,seed", CORPUS, ids=[f"{b}-{s}" for b, s in CORPUS])
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    conforming(BUILDERS[builder], SCHEDULERS[policy], seed=seed)


def test_registry_covers_arena_kernels():
    """``KERNEL_NAMES`` includes the idle arena kernels and every name is
    a function of :mod:`repro.core.kernels` (the repo benchmark builds
    its per-kernel dispatch metrics from that tuple)."""
    assert "arena_gather" in kernels.KERNEL_NAMES
    assert "arena_commit" in kernels.KERNEL_NAMES
    assert len(set(kernels.KERNEL_NAMES)) == len(kernels.KERNEL_NAMES)
    for kname in kernels.KERNEL_NAMES:
        assert callable(getattr(kernels, kname))
