"""Bit-identity suite for the streaming engine, pinned to ``simulate()``.

The streaming contract (docs/serving.md, docs/engine-internals.md): the
resident-arena engine — prefix commits of one policy-ordered frontier
plus epoch macro-stepping — is observationally identical to batch
``simulate()`` on the materialized stream prefix. Everything the engine
reports is derived here from ``simulate()``'s schedule alone:

* per-job flows;
* retirement order: by finish step, then by the job order at that step
  (the arrival index under fifo/lpf; ``(subjobs committed in the final
  step, index)`` under srpt, whose job key is the remaining count);
* the final ``t`` (the last finish);
* every field of :meth:`StreamMetrics.summary`, with the live-window
  high-water marks taken from the jobs' ``[release, finish)`` intervals.

The properties cover fifo/lpf/srpt × Poisson / Galton-Watson /
adversarial-drip sources × restricted availability traces × random
SIGKILL epochs (checkpoint → drop the engine → restore from the file
format). Snapshots round-trip byte for byte at ``t_limit`` boundaries,
and epoch macro-windows reproduce the metrics of the same engine stepped
one step at a time (``t_limit=t+1`` forbids every window).

Engagement guards keep the suite honest: deterministic runs assert the
arena commit path (``stream_arena_steps``) and the epoch macro path
(``stream_epoch_steps``) actually fire, so the properties cannot pass
vacuously.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.availability import as_trace
from repro.core.simulator import simulate
from repro.schedulers.base import ArbitraryTieBreak, LongestPathTieBreak
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.srpt import SRPTScheduler
from repro.streaming import (
    StreamingEngine,
    StreamMetrics,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming import arena as arena_mod
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


def _expected(source, n_jobs, m, policy, availability):
    """What the engine must report, derived from ``simulate()``.

    Returns ``(final_state, retirements)``; ``retirements`` lists
    ``(index, flow)`` in retirement order.
    """
    inst = source.prefix_instance(n_jobs)
    schedule = simulate(inst, m, _BATCH_FACTORIES[policy](), availability=availability)
    n_jobs = len(inst)
    release = [int(job.release) for job in inst]
    size = [int(job.dag.n) for job in inst]
    finish = [int(c.max()) for c in schedule.completion]
    flows = [schedule.job_flow(j) for j in range(n_jobs)]

    def retire_key(j):
        if policy == "srpt":
            last_step = int(np.count_nonzero(schedule.completion[j] == finish[j]))
            return (finish[j], last_step, j)
        return (finish[j], j)

    retirements = [(j, flows[j]) for j in sorted(range(n_jobs), key=retire_key)]

    # Step t is stepped iff a job is live at it: admitted (release <= t)
    # and not yet retired (finish > t).
    t_final = max(finish)
    live = np.zeros(t_final, dtype=np.int64)
    live_nodes = np.zeros(t_final, dtype=np.int64)
    for j in range(n_jobs):
        live[release[j] : finish[j]] += 1
        live_nodes[release[j] : finish[j]] += size[j]
    stepped = np.flatnonzero(live)
    trace = None if availability is None else as_trace(availability, m)

    metrics = StreamMetrics()
    metrics.jobs_admitted = n_jobs
    metrics.subjobs_admitted = metrics.subjobs_completed = sum(size)
    metrics.busy = sum(size)
    metrics.steps = int(stepped.size)
    metrics.idle_skipped_steps = t_final - metrics.steps
    metrics.capacity_granted = sum(
        m if trace is None else trace.capacity_at(int(t)) for t in stepped
    )
    metrics.live_job_hwm = int(live.max())
    metrics.live_subjob_hwm = int(live_nodes.max())
    for flow in flows:
        metrics.record_completion(flow)  # also counts jobs_completed
    state = json.dumps(
        {"t": t_final, "summary": metrics.summary()}, sort_keys=True
    )
    return state, retirements


def _run_collecting(source, m, **kwargs):
    """Run one engine to completion; returns (engine, retirements)."""
    retirements: list[tuple[int, int]] = []
    engine = StreamingEngine(
        source,
        m,
        on_retire=lambda index, flow: retirements.append((index, flow)),
        **kwargs,
    )
    engine.run()
    return engine, retirements


@settings(max_examples=60)
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
def test_arena_matches_simulate(policy, kind, seed, n_jobs, m, availability):
    """Flows, retirement order, final ``t`` and the whole summary equal
    the values derived from ``simulate()`` on the materialized prefix."""
    avail = None if availability is None else [min(v, m) for v in availability]
    engine, retirements = _run_collecting(
        _source(kind, seed, n_jobs, m), m, policy=policy, availability=avail
    )
    state, expected = _expected(
        _source(kind, seed, n_jobs, m), n_jobs, m, policy, avail
    )
    assert retirements == expected
    assert _final_state(engine) == state
    if engine.stats.stream_steps > 0:
        assert (
            engine.stats.stream_arena_steps + engine.stats.stream_epoch_steps
            > 0
        )


@settings(max_examples=25, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    kind=st.sampled_from(("poisson", "galton", "drip")),
    seed=st.integers(0, 10_000),
    n_jobs=st.integers(1, 25),
    m=st.integers(2, 6),
    epochs=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    availability=st.one_of(
        st.none(), st.lists(st.integers(0, 2), min_size=1, max_size=15)
    ),
)
def test_kill_restore_matches_simulate(
    tmp_path_factory, policy, kind, seed, n_jobs, m, epochs, availability
):
    """checkpoint → SIGKILL → restore → drain, repeated, still ends in
    the state derived from ``simulate()``."""
    source = _source(kind, seed, n_jobs, m)
    avail = None if availability is None else [min(v, m) for v in availability]
    kwargs = dict(policy=policy, availability=avail)
    expected, _ = _expected(source, n_jobs, m, policy, avail)

    path = tmp_path_factory.mktemp("ckpt") / "arena.ckpt"
    engine = StreamingEngine(source, m, **kwargs)
    for epoch in epochs:
        for _ in range(epoch):
            if not engine.step():
                break
        save_checkpoint(path, engine.snapshot())
        # "Kill": drop the engine entirely; restore from disk only.
        engine = StreamingEngine.from_snapshot(
            load_checkpoint(path), source, m, **kwargs
        )
    engine.run()
    assert _final_state(engine) == expected


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    kind=st.sampled_from(("poisson", "drip")),
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
)
def test_snapshot_round_trip_at_t_limit_boundaries(policy, kind, seed, cuts):
    """At every drawn ``t_limit`` boundary, restoring a snapshot and
    snapshotting again gives the same pickled bytes (the checkpoint
    payload), and the restored engine carries on as the original."""
    m = 4
    n_jobs = 20
    engine = StreamingEngine(_source(kind, seed, n_jobs, m), m, policy=policy)
    t = 0
    for cut in cuts:
        t += cut
        while not engine.complete and engine.t < t:
            engine.step(t_limit=t)
        payload = pickle.dumps(engine.snapshot())
        engine = StreamingEngine.from_snapshot(
            pickle.loads(payload), _source(kind, seed, n_jobs, m), m, policy=policy
        )
        assert pickle.dumps(engine.snapshot()) == payload
    engine.run()
    expected, _ = _expected(
        _source(kind, seed, n_jobs, m), n_jobs, m, policy, None
    )
    assert _final_state(engine) == expected


def _per_step(engine: StreamingEngine) -> bool:
    """One step with every epoch macro-window forbidden."""
    return engine.step(t_limit=engine.t + 1)


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 10_000),
    period=st.integers(1, 5),
    every=st.integers(2, 12),
)
def test_epoch_windows_match_per_step_metrics(policy, seed, period, every):
    """Across every tick boundary, an engine free to macro-step emits the
    same tick (windowed throughput/utilization included) and holds the
    same metrics state as the same engine stepped one step at a time."""
    m = 4

    def source():
        return AdversarialDripSource(m, period=period, seed=seed, n_jobs=12)

    fast = StreamingEngine(source(), m, policy=policy)
    slow = StreamingEngine(source(), m, policy=policy)
    boundary = every
    while True:
        alive = True
        while alive and fast.t < boundary:
            alive = fast.step(t_limit=boundary)
        while slow.t < fast.t and _per_step(slow):
            pass
        assert slow.t == fast.t
        assert slow.metrics.state() == fast.metrics.state()
        if not alive:
            break
        assert fast.metrics.tick(fast.t, fast.live_jobs, fast.live_subjobs) == (
            slow.metrics.tick(slow.t, slow.live_jobs, slow.live_subjobs)
        )
        boundary += every
    assert slow.stats.stream_epoch_steps == 0


# ---------------------------------------------------------------------------
# Engagement guards: the suite above is vacuous if the fast paths never run.
# ---------------------------------------------------------------------------


def test_arena_commit_path_engages():
    """A mixed Poisson stream commits every step through the arena's
    policy-ordered front: exactly one CSR child gather per step, no
    dispatch of the ragged ``arena_gather``/``arena_commit`` kernels, and
    no ``chain_min_dt`` (no epoch probe passes the single-child gate)."""
    source = PoissonSource(rate=0.7, seed=11, dag_nodes=40, n_jobs=60)
    engine = StreamingEngine(source, 6, policy="srpt")
    engine.run()
    assert engine.stats.stream_arena_steps == 403
    assert engine.stats.kernel_dispatches == {"csr_children": 403}


def test_epoch_macro_path_engages():
    """A chain-heavy drip stream qualifies for epoch macro-windows, and
    the compressed steps are accounted (each macro covers >= 2 steps)."""
    source = AdversarialDripSource(4, period=3, seed=5, n_jobs=30)
    engine = StreamingEngine(source, 4, policy="fifo")
    engine.run()
    assert engine.stats.stream_epoch_steps > 0
    assert (
        engine.stats.stream_epoch_compressed
        >= 2 * engine.stats.stream_epoch_steps
    )
    assert engine.stats.kernel_dispatches.get("macro_fill", 0) > 0
    # The macro path must not have cost bit-identity: it ends where the
    # one-step-at-a-time engine and simulate() do.
    reference = StreamingEngine(
        AdversarialDripSource(4, period=3, seed=5, n_jobs=30), 4, policy="fifo"
    )
    while _per_step(reference):
        pass
    assert reference.stats.stream_epoch_steps == 0
    assert _final_state(engine) == _final_state(reference)
    expected, _ = _expected(
        AdversarialDripSource(4, period=3, seed=5, n_jobs=30), 30, 4, "fifo", None
    )
    assert _final_state(engine) == expected


def test_epoch_macro_respects_t_limit():
    """With ``t_limit`` pinning every boundary, macro-windows never cross
    it: the engine stops at every boundary the per-step engine visits."""
    def visited(step) -> list[int]:
        engine = StreamingEngine(
            AdversarialDripSource(4, period=3, seed=9, n_jobs=15),
            4,
            policy="fifo",
        )
        seen = [engine.t]
        while step(engine):
            seen.append(engine.t)
        return seen

    every = 7
    fast_ts = visited(
        lambda engine: engine.step(t_limit=(engine.t // every + 1) * every)
    )
    slow_ts = visited(_per_step)
    # The fast engine may compress runs of t values into macro jumps, but
    # must stop at every boundary the per-step engine stops at.
    assert len(fast_ts) < len(slow_ts)
    boundaries = {t for t in slow_ts if t % every == 0}
    assert boundaries <= set(fast_ts)


@pytest.mark.parametrize("restore_at", (None, 30))
@pytest.mark.parametrize("policy", POLICIES)
def test_lazy_runs_survive_compaction_and_restore(monkeypatch, policy, restore_at):
    """Chain runs filled at one offset, moved by a compaction, then read
    by a later epoch window still give the ``simulate()`` reference —
    run straight through, and with a snapshot restore (which leaves every
    restored job's runs unfilled again) at step ``restore_at``."""
    monkeypatch.setattr(arena_mod, "_MIN_NODE_CAP", 16)
    m, n_jobs = 4, 30

    def source():
        return AdversarialDripSource(m, period=3, seed=0, n_jobs=n_jobs)

    retirements: list[tuple[int, int]] = []
    kwargs = dict(
        policy=policy,
        on_retire=lambda index, flow: retirements.append((index, flow)),
    )
    engine = StreamingEngine(source(), m, **kwargs)
    epochs = compactions = epochs_on_moved = steps = 0
    moved: set[int] = set()
    while True:
        if steps == restore_at:
            epochs += engine.stats.stream_epoch_steps
            compactions += engine._arena.compactions
            payload = pickle.dumps(engine.snapshot())
            engine = StreamingEngine.from_snapshot(
                pickle.loads(payload), source(), m, **kwargs
            )
            moved.clear()
        arena = engine._arena
        live = np.flatnonzero(arena.slot_live[: arena._slot_tail]).tolist()
        filled = {
            s: int(arena.slot_off[s]) for s in live if arena._runs_pending[s] is None
        }
        moved &= set(filled)
        front_slots = set(arena.slot_of[arena.front].tolist())
        before = (arena.compactions, engine.stats.stream_epoch_steps)
        if not engine.step():
            break
        steps += 1
        if arena.compactions > before[0]:
            moved |= {s for s, off in filled.items() if arena.slot_off[s] != off}
        if engine.stats.stream_epoch_steps > before[1] and moved & front_slots:
            epochs_on_moved += 1
    epochs += engine.stats.stream_epoch_steps
    compactions += engine._arena.compactions
    assert restore_at is None or steps > restore_at  # restored mid-run
    state, expected = _expected(source(), n_jobs, m, policy, None)
    assert retirements == expected
    assert _final_state(engine) == state
    assert epochs > 0
    assert compactions > 0
    assert epochs_on_moved > 0
