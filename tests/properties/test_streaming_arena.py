"""Three-way bit-identity suite for the resident streaming arena.

The arena contract (docs/serving.md, docs/engine-internals.md): the
resident-arena commit path — whole-window kernel passes plus epoch
macro-stepping — is observationally identical to the retained per-job
reference loop, which is itself pinned to batch ``simulate()``. Three
legs, compared on every observable surface:

1. **arena** (``arena=True``): SoA commits + ``macro_fill`` epochs;
2. **per-job** (``arena=False``): the ``_LiveJob`` dict reference;
3. **simulate**: per-job flows on the materialized stream prefix.

The properties cover fifo/lpf/srpt × Poisson / Galton-Watson /
adversarial-drip sources × restricted availability traces × random
SIGKILL epochs (checkpoint → drop the engine → restore from the file
format), including *cross-path* resumes — a checkpoint written by the
arena engine drained by the per-job engine and vice versa, since the
snapshot layout is deliberately path-free.

Engagement guards keep the suite honest: deterministic runs assert the
arena commit path (``stream_arena_steps``) and the epoch macro path
(``stream_epoch_steps``) actually fire, so a regression that silently
routed everything through the reference loop would fail loudly rather
than pass vacuously.
"""

import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulator import simulate
from repro.schedulers.base import ArbitraryTieBreak, LongestPathTieBreak
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.streaming import (
    StreamingEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads.arrivals import AdversarialDripSource, PoissonSource

POLICIES = ("fifo", "lpf", "srpt")

_BATCH_FACTORIES = {
    "fifo": lambda: FIFOScheduler(ArbitraryTieBreak()),
    "lpf": lambda: FIFOScheduler(LongestPathTieBreak()),
    "srpt": SRPTScheduler,
}


def _source(kind: str, seed: int, n_jobs: int, m: int):
    if kind == "poisson":
        return PoissonSource(
            rate=0.5, seed=seed, dag_nodes=12, family="attachment", n_jobs=n_jobs
        )
    if kind == "galton":
        return PoissonSource(
            rate=0.3,
            seed=seed,
            dag_nodes=18,
            family="galton-watson",
            n_jobs=n_jobs,
        )
    return AdversarialDripSource(m, period=3, seed=seed, n_jobs=n_jobs)


def _final_state(engine: StreamingEngine) -> str:
    """The bit-identity surface, serialized canonically."""
    return json.dumps(
        {"t": engine.t, "summary": engine.metrics.summary()}, sort_keys=True
    )


def _run_collecting(source, m, *, arena, **kwargs):
    """Run one engine to completion; returns (engine, per-job flows)."""
    flows: dict[int, int] = {}
    engine = StreamingEngine(
        source,
        m,
        arena=arena,
        on_retire=lambda index, flow: flows.__setitem__(index, flow),
        **kwargs,
    )
    engine.run()
    return engine, flows


@settings(max_examples=25)
@given(
    policy=st.sampled_from(POLICIES),
    kind=st.sampled_from(("poisson", "galton", "drip")),
    seed=st.integers(0, 10_000),
    n_jobs=st.integers(1, 25),
    m=st.integers(2, 6),
    availability=st.one_of(
        st.none(), st.lists(st.integers(0, 3), min_size=1, max_size=15)
    ),
)
def test_arena_matches_per_job_and_simulate(
    policy, kind, seed, n_jobs, m, availability
):
    """arena ≡ per-job on (t, summary) and retirement order/flows, and
    both ≡ ``simulate()`` on per-job flows over the materialized prefix."""
    avail = None if availability is None else [min(v, m) for v in availability]
    kwargs = dict(policy=policy, availability=avail)
    arena_engine, arena_flows = _run_collecting(
        _source(kind, seed, n_jobs, m), m, arena=True, **kwargs
    )
    ref_engine, ref_flows = _run_collecting(
        _source(kind, seed, n_jobs, m), m, arena=False, **kwargs
    )
    assert _final_state(arena_engine) == _final_state(ref_engine)
    # Same flows AND the same retirement order (dicts preserve it).
    assert list(arena_flows.items()) == list(ref_flows.items())
    # The arena engine must actually have used the arena path.
    if arena_engine.stats.stream_steps > 0:
        assert (
            arena_engine.stats.stream_arena_steps
            + arena_engine.stats.stream_epoch_steps
            > 0
        )
    assert ref_engine.stats.stream_arena_steps == 0
    # Third leg: the batch engine on the materialized prefix.
    schedule = simulate(
        _source(kind, seed, n_jobs, m).prefix_instance(n_jobs),
        m,
        _BATCH_FACTORIES[policy](),
        availability=avail,
    )
    assert [arena_flows[j] for j in range(n_jobs)] == [
        schedule.job_flow(j) for j in range(n_jobs)
    ]


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    kind=st.sampled_from(("poisson", "galton", "drip")),
    seed=st.integers(0, 10_000),
    n_jobs=st.integers(1, 25),
    m=st.integers(2, 6),
    epochs=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    resume_paths=st.lists(st.booleans(), min_size=3, max_size=3),
    availability=st.one_of(
        st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=15)
    ),
)
def test_kill_restore_cross_path_bit_identical(
    tmp_path_factory,
    policy,
    kind,
    seed,
    n_jobs,
    m,
    epochs,
    resume_paths,
    availability,
):
    """checkpoint → SIGKILL → restore → drain reproduces the uninterrupted
    per-job run exactly — with each restore drawn onto a random path
    (arena or per-job), so checkpoints cross the path boundary freely."""
    source = _source(kind, seed, n_jobs, m)
    avail = None if availability is None else [min(v, m) for v in availability]
    kwargs = dict(policy=policy, availability=avail)

    reference = StreamingEngine(source, m, arena=False, **kwargs)
    reference.run()
    expected = _final_state(reference)

    path = tmp_path_factory.mktemp("ckpt") / "arena.ckpt"
    engine = StreamingEngine(source, m, arena=True, **kwargs)
    for epoch, use_arena in zip(epochs, resume_paths):
        for _ in range(epoch):
            if not engine.step():
                break
        save_checkpoint(path, engine.snapshot())
        # "Kill": drop the engine entirely; restore from disk only.
        engine = StreamingEngine.from_snapshot(
            load_checkpoint(path), source, m, arena=use_arena, **kwargs
        )
    engine.run()
    assert _final_state(engine) == expected


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    kind=st.sampled_from(("poisson", "drip")),
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(1, 80), min_size=1, max_size=2),
)
def test_snapshot_bytes_identical_across_paths(policy, kind, seed, cuts):
    """At every drawn time boundary the two paths produce byte-identical
    pickled snapshots (the checkpoint file payload), stepping each engine
    with ``t_limit`` so macro-windows respect the boundary."""
    m = 4
    n_jobs = 20
    kwargs = dict(policy=policy)
    arena_engine = StreamingEngine(_source(kind, seed, n_jobs, m), m, arena=True, **kwargs)
    ref_engine = StreamingEngine(_source(kind, seed, n_jobs, m), m, arena=False, **kwargs)
    t = 0
    for cut in cuts:
        t += cut
        for engine in (arena_engine, ref_engine):
            while not engine.complete and engine.t < t:
                engine.step(t_limit=t)
        assert arena_engine.t == ref_engine.t
        assert pickle.dumps(arena_engine.snapshot()) == pickle.dumps(
            ref_engine.snapshot()
        )


# ---------------------------------------------------------------------------
# Engagement guards: the suite above is vacuous if the fast paths never run.
# ---------------------------------------------------------------------------


def test_arena_commit_path_engages():
    """A mixed Poisson stream commits every step through the arena's
    policy-ordered front: exactly one CSR child gather per step, and no
    dispatch of the ragged ``arena_gather``/``arena_commit`` kernels."""
    source = PoissonSource(rate=0.7, seed=11, dag_nodes=40, n_jobs=60)
    engine = StreamingEngine(source, 6, policy="srpt", arena=True)
    engine.run()
    assert engine.stats.stream_arena_steps == 403
    assert engine.stats.kernel_dispatches == {
        "csr_children": 403,
        "chain_min_dt": 4,
    }


def test_epoch_macro_path_engages():
    """A chain-heavy drip stream qualifies for epoch macro-windows, and
    the compressed steps are accounted (each macro covers >= 2 steps)."""
    source = AdversarialDripSource(4, period=3, seed=5, n_jobs=30)
    engine = StreamingEngine(source, 4, policy="fifo", arena=True)
    engine.run()
    assert engine.stats.stream_epoch_steps > 0
    assert (
        engine.stats.stream_epoch_compressed
        >= 2 * engine.stats.stream_epoch_steps
    )
    assert engine.stats.kernel_dispatches.get("macro_fill", 0) > 0
    # The macro path must not have cost bit-identity.
    reference = StreamingEngine(
        AdversarialDripSource(4, period=3, seed=5, n_jobs=30),
        4,
        policy="fifo",
        arena=False,
    )
    reference.run()
    assert _final_state(engine) == _final_state(reference)


def test_epoch_macro_respects_t_limit():
    """With ``t_limit`` pinning every step, macro-windows never cross the
    boundary: the engine visits exactly the same ``t`` values."""
    def visited(arena: bool, t_limit_every: int) -> list[int]:
        engine = StreamingEngine(
            AdversarialDripSource(4, period=3, seed=9, n_jobs=15),
            4,
            policy="fifo",
            arena=arena,
        )
        seen = [engine.t]
        while True:
            boundary = (engine.t // t_limit_every + 1) * t_limit_every
            if not engine.step(t_limit=boundary):
                break
            seen.append(engine.t)
        return seen

    arena_ts = visited(True, 7)
    ref_ts = visited(False, 7)
    # The arena path may compress runs of t values into macro jumps, but
    # must stop at every boundary the per-step path stops at.
    boundaries = {t for t in ref_ts if t % 7 == 0}
    assert boundaries <= set(arena_ts)
