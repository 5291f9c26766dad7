"""The streaming engine against the reference loop, and its epoch windows.

The streaming contract (docs/serving.md, docs/engine-internals.md): the
resident-arena engine — prefix commits of one policy-ordered frontier
plus epoch macro-stepping — is observationally identical to the
reference loop on the materialised stream prefix. The conformance matrix
(``test_conformance.py``) derives everything the engine reports from
``_simulate_reference``'s schedule alone (per-job flows, retirement
order, the final ``t`` and every field of ``StreamMetrics.summary``);
the first cases here are its ``stream`` and ``stream-resumed`` cells
over fifo/lpf/srpt × Poisson / Galton-Watson / adversarial-drip sources
× restricted availability traces × checkpoint kill/restore epochs.

Snapshots round-trip byte for byte at ``t_limit`` boundaries, and epoch
macro-windows reproduce the metrics of the same engine stepped one step
at a time (``t_limit=t+1`` forbids every window). Engagement cases keep
the suite honest: the arena commit path (``stream_arena_steps``) and the
epoch macro path (``stream_epoch_steps``) actually fire.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import STREAM_POLICIES, StreamingEngine
from repro.streaming import arena as arena_mod
from repro.workloads.arrivals import AdversarialDripSource, PoissonSource

from .test_conformance import STREAM_POLICY, _group, _refs, _stream_expected, conforming

#: The stream families, with and without availability traces.
SOURCES = ("poisson", "poisson-traced", "galton", "drip")


def _final_state(engine: StreamingEngine) -> str:
    """The bit-identity surface, serialised canonically."""
    return json.dumps({"t": engine.t, "summary": engine.metrics.summary()}, sort_keys=True)


def _per_step(engine: StreamingEngine) -> bool:
    """One step with every epoch macro-window forbidden."""
    return engine.step(t_limit=engine.t + 1)


def test_arena_matches_simulate():
    """Flows, retirement order, final ``t`` and the whole summary equal
    the values derived from the reference loop on the materialised
    prefix."""
    for family in SOURCES:
        tally = conforming(family, STREAM_POLICY, traces="any", paths=("stream",))
        stats = tally.stats["stream"]
        assert stats["stream_arena_steps"] + stats["stream_epoch_steps"] > 0


def test_kill_restore_matches_simulate():
    """checkpoint → SIGKILL → restore → drain, repeated, still ends in
    the state derived from the reference loop."""
    for family in SOURCES:
        tally = conforming(family, STREAM_POLICY, traces="any", paths=("stream-resumed",))
        assert tally.stats["stream-resumed"]["restores"] > 0


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(tuple(STREAM_POLICIES)),
    kind=st.sampled_from(("poisson", "drip")),
    seed=st.integers(0, 10_000),
    cuts=st.lists(st.integers(1, 80), min_size=1, max_size=3),
)
def test_snapshot_round_trip_at_t_limit_boundaries(policy, kind, seed, cuts):
    """At every drawn ``t_limit`` boundary, restoring a snapshot and
    snapshotting again gives the same pickled bytes (the checkpoint
    payload), and the restored engine ends where an uninterrupted one
    does."""
    m = 4

    def source():
        if kind == "drip":
            return AdversarialDripSource(m, period=3, seed=seed, n_jobs=20)
        return PoissonSource(rate=0.5, seed=seed, dag_nodes=12, n_jobs=20)

    engine = StreamingEngine(source(), m, policy=policy)
    t = 0
    for cut in cuts:
        t += cut
        while not engine.complete and engine.t < t:
            engine.step(t_limit=t)
        payload = pickle.dumps(engine.snapshot())
        engine = StreamingEngine.from_snapshot(pickle.loads(payload), source(), m, policy=policy)
        assert pickle.dumps(engine.snapshot()) == payload
    engine.run()
    reference = StreamingEngine(source(), m, policy=policy)
    reference.run()
    assert _final_state(engine) == _final_state(reference)


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(tuple(STREAM_POLICIES)),
    seed=st.integers(0, 10_000),
    period=st.integers(1, 5),
    every=st.integers(2, 12),
)
def test_epoch_windows_match_per_step_metrics(policy, seed, period, every):
    """Across every tick boundary, an engine free to macro-step stops at
    the boundary and there emits the same tick (windowed
    throughput/utilization included) and holds the same metrics state as
    the same engine stepped one step at a time."""
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
        assert not alive or fast.t == boundary
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
    stats = conforming("poisson-40", "srpt-arbitrary", paths=("stream",)).stats["stream"]
    dispatched = {key: n for key, n in stats.items() if key.startswith("kernel_dispatches[")}
    assert stats["stream_arena_steps"] == 403
    assert dispatched == {"kernel_dispatches[csr_children]": 403}


def test_epoch_macro_path_engages():
    """A chain-heavy drip stream qualifies for epoch macro-windows, the
    compressed steps are accounted (each macro covers >= 2 steps), and the
    macro path costs no bit-identity: it ends where the one-step-at-a-time
    engine and the reference loop do."""
    stats = conforming("drip", "fifo-arbitrary", paths=("stream",)).stats["stream"]
    assert stats["stream_epoch_steps"] > 0
    assert stats["stream_epoch_compressed"] >= 2 * stats["stream_epoch_steps"]
    assert stats["kernel_dispatches[macro_fill]"] > 0
    (inst,), _ = _group("drip", 4)
    reference = StreamingEngine(AdversarialDripSource(4, period=3, seed=5, n_jobs=30), 4)
    while _per_step(reference):
        pass
    assert reference.stats.stream_epoch_steps == 0
    ref = _refs("drip", 4, "m", "fifo-arbitrary")[0]
    _, expected = _stream_expected(inst, 4, "fifo", None, ref)
    assert _final_state(reference) == expected


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
@pytest.mark.parametrize("policy", STREAM_POLICIES)
def test_lazy_runs_survive_compaction_and_restore(monkeypatch, policy, restore_at):
    """Chain runs filled at one offset, moved by a compaction, then read
    by a later epoch window end where an engine with every window
    forbidden does: run straight through, and with a snapshot restore
    (which leaves every restored job's runs unfilled again) at step
    ``restore_at``."""
    monkeypatch.setattr(arena_mod, "_MIN_NODE_CAP", 16)
    m = 4

    def source():
        return AdversarialDripSource(m, period=3, seed=0, n_jobs=30)

    retired: list[tuple[int, int]] = []
    kwargs = dict(policy=policy, on_retire=lambda i, f: retired.append((i, f)))
    engine = StreamingEngine(source(), m, **kwargs)
    epochs = compactions = epochs_on_moved = steps = 0
    moved: set[int] = set()
    while True:
        if steps == restore_at:
            epochs += engine.stats.stream_epoch_steps
            compactions += engine._arena.compactions
            snapshot = pickle.loads(pickle.dumps(engine.snapshot()))
            engine = StreamingEngine.from_snapshot(snapshot, source(), m, **kwargs)
            moved.clear()
        arena = engine._arena
        live = np.flatnonzero(arena.slot_live[: arena._slot_tail]).tolist()
        filled = {s: int(arena.slot_off[s]) for s in live if arena._runs_pending[s] is None}
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
    assert epochs > 0 and compactions > 0 and epochs_on_moved > 0

    per_step: list[tuple[int, int]] = []
    reference = StreamingEngine(
        source(), m, policy=policy, on_retire=lambda i, f: per_step.append((i, f))
    )
    while _per_step(reference):
        pass
    assert reference.stats.stream_epoch_steps == 0
    assert retired == per_step
    assert _final_state(engine) == _final_state(reference)
