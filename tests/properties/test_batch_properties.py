"""Property suite for the batched multi-instance engine.

Three-way differential testing: for every batch in the corpus,
``simulate_batch`` (the lockstep structure-of-arrays engine), per-instance
``simulate`` (the vectorized single-instance engine), and the per-node
reference loop (``_simulate_reference``) must produce bit-identical
completion arrays — over random/adversarial/packed/chain corpora, ragged
batch compositions, shared and per-instance availability traces, and
batches mixing kernel-eligible with fallback-only instances.

A dedicated engagement test asserts the batched path actually runs
(``batch_steps > 0``) so the equivalences above are never vacuous; the
macro test likewise pins ``macro_steps > 0`` for the batched chain-run
commit.
"""

import numpy as np
import pytest

from repro.core import DAG, Instance, Job, as_trace, simulate, simulate_batch
from repro.core.simulator import _simulate_reference
from repro.faults import availability_suite
from repro.schedulers import (
    FIFOScheduler,
    LPFScheduler,
    RandomTieBreak,
    ReverseTieBreak,
    TieBreak,
)
from repro.workloads import (
    build_fifo_adversary,
    layered_tree,
    random_attachment_tree,
    random_out_forest,
)

# ---------------------------------------------------------------------------
# Corpus builders: each returns a *batch* (list of instances). Chain-heavy
# batches exercise the batched macro commit; packed/adversarial/random
# batches exercise the per-step selection gather; ragged batches exercise
# the per-instance offset bookkeeping (instances of very different sizes
# terminating at very different times).
# ---------------------------------------------------------------------------


def _chain(n: int) -> DAG:
    return DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))


def _chains_batch(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed)
    return [
        Instance(
            [
                Job(_chain(int(rng.integers(15, 50))), int(rng.integers(0, 4)))
                for _ in range(int(rng.integers(1, 4)))
            ]
        )
        for _ in range(int(rng.integers(2, 7)))
    ]


def _random_batch(seed: int) -> list[Instance]:
    rng = np.random.default_rng(seed + 100)
    out = []
    for _ in range(int(rng.integers(2, 7))):
        jobs = [
            Job(
                random_out_forest(int(rng.integers(5, 40)),
                                  seed=int(rng.integers(1 << 30))),
                int(rng.integers(0, 10)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        out.append(Instance(jobs))
    return out


def _packed_batch(seed: int) -> list[Instance]:
    return [
        Instance([Job(layered_tree([4] * 5, seed=seed + i + j), 3 * j)
                  for j in range(2)])
        for i in range(4)
    ]


def _adversarial_batch(seed: int) -> list[Instance]:
    return [build_fifo_adversary(4, 3, seed=seed + i).instance
            for i in range(3)]


def _ragged_batch(seed: int) -> list[Instance]:
    """Sizes spanning two orders of magnitude: the small instances finish
    (and must freeze) while the large ones keep stepping."""
    rng = np.random.default_rng(seed + 200)
    sizes = [2, 3, 150, 5, 220, 8]
    return [
        Instance(
            [Job(random_attachment_tree(n, rng), int(rng.integers(0, 5)))]
        )
        for n in sizes
    ]


BUILDERS = (
    _chains_batch,
    _random_batch,
    _packed_batch,
    _adversarial_batch,
    _ragged_batch,
)
CORPUS = [(b, s) for b in BUILDERS for s in range(3)]

SCHEDULERS = {
    "fifo": lambda: FIFOScheduler(),
    "fifo-reverse": lambda: FIFOScheduler(ReverseTieBreak()),
    "lpf": lambda: LPFScheduler(),
}


def _three_way(
    instances,
    make_scheduler,
    m,
    availability=None,
    per_instance_availability=None,
    **kwargs,
):
    """Assert batched / per-instance / reference bit-identity; return the
    batched schedules (whose shared ``engine_stats`` callers may inspect).

    ``availability`` is one shared spec for the whole batch;
    ``per_instance_availability`` a list with one spec (or ``None``) per
    instance. Pass at most one of the two.
    """
    assert availability is None or per_instance_availability is None
    av_arg = (
        per_instance_availability
        if per_instance_availability is not None
        else availability
    )
    batched = simulate_batch(
        instances, m, make_scheduler(), availability=av_arg, **kwargs
    )
    for b, inst in enumerate(instances):
        av = (
            per_instance_availability[b]
            if per_instance_availability is not None
            else availability
        )
        per = simulate(inst, m, make_scheduler(), availability=av, **kwargs)
        ref = _simulate_reference(inst, m, make_scheduler(), availability=av)
        for i, (x, y, z) in enumerate(
            zip(batched[b].completion, per.completion, ref.completion)
        ):
            assert np.array_equal(x, y), (
                f"batched vs per-instance diverged: instance {b} job {i}"
            )
            assert np.array_equal(x, z), (
                f"batched vs reference diverged: instance {b} job {i}"
            )
        batched[b].validate()
    return batched


@pytest.mark.parametrize(
    "builder,seed", CORPUS, ids=[f"{b.__name__[1:]}-{s}" for b, s in CORPUS]
)
@pytest.mark.parametrize("policy", sorted(SCHEDULERS))
def test_three_way_bit_identity(builder, seed, policy):
    batch = builder(seed)
    for m in (1, 3, 8):
        _three_way(batch, SCHEDULERS[policy], m)


def test_batched_path_actually_engages():
    """If every instance fell back to the per-instance engine, all the
    equivalences in this file would be vacuous."""
    batch = _random_batch(0)
    schedules = _three_way(batch, FIFOScheduler, 4)
    stats = schedules[0].engine_stats
    assert stats is not None
    assert stats.batch_steps > 0
    assert stats.fallback_runs == 0
    assert sum(stats.batch_size_histogram.values()) == stats.batch_steps


def test_batched_macro_commit_engages_on_chains():
    """Parallel chains across several instances: the batched chain-run
    macro commit must fire (Δt from the per-instance row minimum), and the
    result must still be bit-identical."""
    batch = [
        Instance([Job(_chain(120), 0), Job(_chain(90), 5)]) for _ in range(5)
    ]
    schedules = _three_way(batch, FIFOScheduler, 4)
    stats = schedules[0].engine_stats
    assert stats.macro_steps > 0
    assert stats.compressed_steps > stats.macro_steps


def test_impure_tie_break_falls_back_per_instance():
    """RandomTieBreak is impure (no kernel): every instance must take the
    per-instance fallback — counted, and still correct vs the reference."""
    batch = _random_batch(1)
    schedules = simulate_batch(
        batch, 3, FIFOScheduler(RandomTieBreak(), seed=11)
    )
    for b, inst in enumerate(batch):
        ref = simulate(inst, 3, FIFOScheduler(RandomTieBreak(), seed=11))
        for x, y in zip(schedules[b].completion, ref.completion):
            assert np.array_equal(x, y)


class _KeyOnlyReverseTieBreak(TieBreak):
    """Pure, but with no priority kernel: FIFO on it is not a list rule."""

    def key(self, job, node):
        return (-node,)


def test_mixed_eligibility_batches():
    """A pure ``key()``-only tie-break has no kernel, which makes every
    instance ineligible; the batched entry point must transparently
    produce the reference schedules anyway and count the fallbacks."""
    from repro.core import engine_stats_snapshot

    batch = _chains_batch(2)
    before = engine_stats_snapshot()
    schedules = simulate_batch(
        batch, 4, FIFOScheduler(_KeyOnlyReverseTieBreak())
    )
    delta = engine_stats_snapshot().delta(before)
    assert delta.fallback_runs == len(batch)
    for b, inst in enumerate(batch):
        ref = _simulate_reference(
            inst, 4, FIFOScheduler(_KeyOnlyReverseTieBreak())
        )
        for x, y in zip(schedules[b].completion, ref.completion):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("m", (2, 5))
def test_three_way_identity_under_shared_availability(m):
    """Adversarial + seeded random traces applied batch-wide (the scalar
    broadcast semantics): zero-capacity prefixes, bursts, and ramps must
    leave all three engines bit-identical."""
    batch = _random_batch(m) + [Instance([Job(_chain(60), 0)])]
    for name, trace in availability_suite(m, 30, n_random=6, seed=m):
        try:
            _three_way(batch, FIFOScheduler, m, availability=trace)
        except AssertionError as exc:  # pragma: no cover - diagnostics
            raise AssertionError(f"trace {name!r} (m={m}): {exc}") from exc


def test_three_way_identity_under_per_instance_availability():
    """Each instance under its own trace (including ``None`` holes =
    constant capacity): the padded per-instance capacity matrix must keep
    every row on its own regime."""
    m = 4
    rng = np.random.default_rng(7)
    batch = _random_batch(3)
    traces = []
    for b in range(len(batch)):
        if b % 3 == 0:
            traces.append(None)
        else:
            traces.append(
                as_trace([int(c) for c in rng.integers(0, m + 1, size=6)], m)
            )
    _three_way(batch, FIFOScheduler, m, per_instance_availability=traces)


def test_single_instance_batch_matches_simulate():
    """B=1 is the degenerate lockstep: still must match exactly."""
    inst = Instance([Job(random_out_forest(30, seed=5), 0)])
    _three_way([inst], LPFScheduler, 2)


def test_batch_reuse_via_prepacked_instance_batch():
    """Passing a pre-packed ``InstanceBatch`` (the sweep-reuse path) must
    be bit-identical to packing internally."""
    from repro.core import pack_instances

    batch = _random_batch(4)
    packed = pack_instances(batch)
    first = simulate_batch(batch, 4, FIFOScheduler(), batch=packed)
    second = simulate_batch(batch, 4, FIFOScheduler())
    for a, b in zip(first, second):
        for x, y in zip(a.completion, b.completion):
            assert np.array_equal(x, y)
