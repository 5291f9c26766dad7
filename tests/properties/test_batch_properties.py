"""The batched multi-instance engine against the reference loop.

Each case is a slice of the conformance matrix (``test_conformance.py``):
for every batch in the corpus, ``simulate_batch`` (the lockstep
structure-of-arrays engine), per-instance ``simulate`` and every other
engine path must produce completion arrays bit-identical to
``_simulate_reference``, over random/adversarial/packed/chain corpora,
ragged batch compositions, shared and per-instance availability traces,
and batches whose instances all take the counted per-instance fallback.
Engagement cases assert the batched path and its chain-run macro commit
actually run, so the equivalences are never vacuous.
"""

import pytest

from .test_conformance import conforming

#: Builder name -> matrix family (all seeds of a family share one batch).
BUILDERS = {
    "chains_batch": "chains-batch",
    "random_batch": "random-batch",
    "packed_batch": "packed-batch",
    "adversarial_batch": "adversary-batch",
    "ragged_batch": "ragged-batch",
}
CORPUS = [(b, s) for b in BUILDERS for s in range(3)]
SCHEDULERS = {"fifo": "fifo-arbitrary", "fifo-reverse": "fifo-reverse", "lpf": "fifo-longestpath"}


@pytest.mark.parametrize("builder,seed", CORPUS, ids=[f"{b}-{s}" for b, s in CORPUS])
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    conforming(BUILDERS[builder], SCHEDULERS[policy], seed=seed)


def test_batched_path_actually_engages():
    """If every instance fell back to the per-instance engine, all the
    equivalences in this file would be vacuous."""
    stats = conforming("random-batch", "fifo-arbitrary").stats["batch"]
    assert stats["batch_steps"] > 0
    assert stats["fallback_runs"] == 0
    histogram = sum(n for key, n in stats.items() if key.startswith("batch_size_histogram["))
    assert histogram == stats["batch_steps"]


def test_batched_macro_commit_engages_on_chains():
    """Parallel chains across several instances: the batched chain-run
    macro commit must fire (Δt from the per-instance row minimum), and the
    result must still be bit-identical."""
    stats = conforming("chains-120-90", "fifo-arbitrary").stats["batch"]
    assert stats["macro_steps"] > 0
    assert stats["compressed_steps"] > stats["macro_steps"]


def test_impure_tie_break_falls_back_per_instance():
    """RandomTieBreak has no kernel: every instance must take the
    per-instance fallback — counted, and still equal to the reference."""
    conforming("random-batch", "fifo-random", m=3, seed=1, paths=("batch",))


def test_mixed_eligibility_batches():
    """A tie-break with no kernel makes every instance ineligible; the
    batched entry point must produce the reference schedules anyway and
    count the fallbacks ("fallback counted"), for FIFO and for SRPT,
    whose job walk is not FIFO's."""
    for col in ("fifo-random", "srpt-arbitrary"):
        conforming("chains-batch", col, paths=("batch",), checks=("fallback counted", "= ref"))


@pytest.mark.parametrize("m", (2, 5))
def test_three_way_identity_under_shared_availability(m):
    """Adversarial + seeded random traces applied batch-wide (the scalar
    broadcast semantics): zero-capacity prefixes, bursts, and ramps must
    leave every engine path bit-identical."""
    conforming("random-batch-traced", "fifo-arbitrary", m=m, traces="traced")


def test_three_way_identity_under_per_instance_availability():
    """Each instance under its own trace (``None`` holes = constant
    capacity): the padded per-instance capacity matrix must keep every
    row on its own regime."""
    tally = conforming("random-batch-traced", "fifo-arbitrary", traces="traced", paths=("batch",))
    assert any(where.trace.endswith("/per-instance") for *_, where in tally.records)


def test_single_instance_batch_matches_simulate():
    """B=1 is the degenerate lockstep: still must match exactly."""
    conforming("forest-30", "fifo-longestpath", paths=("batch",))
