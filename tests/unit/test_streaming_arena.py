"""Unit tests for the streaming arena: the policy-ordered frontier
invariant, dispatch accounting, compaction bounds, lazily filled chain
runs, the retirement order of an epoch window, and the SRPT key bound.

The property suite (``tests/properties/test_streaming_arena.py``) pins
the engine's *semantics* against ``simulate()``; this module pins the
pieces those properties cannot see from the outside — that after every
step the arena's flat ``front`` is exactly the live ready set sorted by
(job key, in-job rank), that ``EngineStats.kernel_dispatches`` counts
exactly the kernel calls the engine actually made, that compaction keeps
the arena's node buffers keyed to the live high-water mark instead of
the stream length, that admission leaves a DAG's chain runs uncomputed
until an epoch probe needs them, that jobs retiring at the end of one
epoch window retire in the policy's order, and that an srpt stream past
the packed job key's bound fails with a named error.
"""

import pickle

import numpy as np
import pytest

from repro.core import DAG, Instance, Job, kernels
from repro.core.exceptions import ConfigurationError
from repro.core.util import csr_gather
from repro.schedulers.base import ArbitraryTieBreak, LongestPathTieBreak
from repro.streaming import StreamingEngine
from repro.workloads import map_reduce_dag, random_attachment_tree, series_of_trees
from repro.workloads.arrivals import (
    AdversarialDripSource,
    PoissonSource,
    TraceReplaySource,
)

_INT = np.int64


def _expected_front(engine: StreamingEngine) -> list[int]:
    """The live ready set in (job key, in-job rank) order, recomputed
    from each live job's DAG and done mask alone."""
    arena = engine._arena
    assert arena is not None
    tie_break = (
        LongestPathTieBreak() if engine.policy == "lpf" else ArbitraryTieBreak()
    )
    rows = []
    for slot in arena.order_arrival().tolist():
        off, n = int(arena.slot_off[slot]), int(arena.slot_n[slot])
        index = int(arena.slot_index[slot])
        dag = engine._source.dag_at(index)
        done = arena.done_stamp[off : off + n] != 0
        pending = np.asarray(dag.indegree, dtype=_INT).copy()
        children, _ = csr_gather(
            dag.child_indptr, dag.child_indices, np.flatnonzero(done)
        )
        np.subtract.at(pending, children, 1)
        ready = np.flatnonzero(~done & (pending == 0))
        if engine.policy == "srpt":
            job_key = (n - int(done.sum()), index)
        else:
            job_key = (index,)
        prio = tie_break.priority_kernel(
            Job(dag, int(arena.slot_release[slot]))
        )
        rows.extend(
            (job_key, int(prio[v]), int(v), off + int(v)) for v in ready
        )
    return [row[-1] for row in sorted(rows)]


def _multi_parent_replay() -> TraceReplaySource:
    """Trees mixed with multi-parent DAGs (joins exercise the
    non-forest child path)."""
    rng = np.random.default_rng(4)
    dags = []
    for i in range(24):
        if i % 3 == 0:
            dags.append(series_of_trees(3, 5, seed=rng))
        elif i % 3 == 1:
            dags.append(map_reduce_dag(int(rng.integers(2, 6))))
        else:
            dags.append(random_attachment_tree(int(rng.integers(4, 14)), rng))
    releases = np.cumsum(rng.integers(0, 4, size=len(dags)))
    return TraceReplaySource.from_instance(
        Instance([Job(d, int(r)) for d, r in zip(dags, releases)])
    )


#: scenario -> (source factory, m, engine kwargs, restore step, what it
#: must engage). Every scenario checkpoints and restores once mid-run.
_FRONT_SCENARIOS = {
    "compaction": (
        lambda: PoissonSource(rate=0.25, seed=3, dag_nodes=12, n_jobs=300),
        8,
        {},
        500,
        "compactions",
    ),
    "epochs": (
        lambda: AdversarialDripSource(4, period=3, seed=5, n_jobs=30),
        4,
        {},
        20,
        "epochs",
    ),
    "shedding": (
        lambda: AdversarialDripSource(4, period=1, depth=8, seed=2, n_jobs=60),
        4,
        {"max_live_subjobs": 60, "availability": [2, 0, 3, 1]},
        30,
        "shed",
    ),
    "multi_parent": (_multi_parent_replay, 3, {}, 25, "nonforest"),
}


class TestPolicyOrderedFront:
    """``front`` is the ready set in policy order after every step."""

    @pytest.mark.parametrize("policy", ("fifo", "lpf", "srpt"))
    @pytest.mark.parametrize("scenario", sorted(_FRONT_SCENARIOS))
    def test_front_is_sorted_ready_set_after_every_step(self, policy, scenario):
        make, m, kwargs, restore_at, engages = _FRONT_SCENARIOS[scenario]
        engine = StreamingEngine(make(), m, policy=policy, **kwargs)
        seen = dict.fromkeys(("compactions", "epochs", "shed", "nonforest"), 0)

        def absorb(engine):
            seen["compactions"] += engine._arena.compactions
            seen["epochs"] += engine.stats.stream_epoch_steps
            seen["shed"] += engine.stats.stream_shed

        steps = 0
        while True:
            assert engine._arena.front.tolist() == _expected_front(engine)
            seen["nonforest"] += engine._arena.nonforest_live
            if steps == restore_at:
                absorb(engine)
                snapshot = pickle.loads(pickle.dumps(engine.snapshot()))
                engine = StreamingEngine.from_snapshot(
                    snapshot, make(), m, policy=policy, **kwargs
                )
                assert engine._arena.front.tolist() == _expected_front(engine)
            if not engine.step():
                break
            steps += 1
        absorb(engine)
        assert steps > restore_at  # the restore happened mid-run
        assert engine._arena.front.size == 0
        assert seen[engages] > 0


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count every call into :mod:`repro.core.kernels`; returns the live
    counter dict."""
    counts: dict[str, int] = {}

    def wrap(name):
        kernel = getattr(kernels, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return kernel(*args, **kwargs)

        return counted

    for name in kernels.KERNEL_NAMES:
        monkeypatch.setattr(kernels, name, wrap(name))
    return counts


class TestDispatchAccounting:
    """``kernel_dispatches`` equals the calls the engine actually made."""

    def test_arena_counts_are_exact(self, kernel_calls):
        # The policy-ordered front commits a step as one prefix slice:
        # one csr_children gather per arena step (188) plus one for the
        # epoch window whose run terminals have children, one
        # chain_min_dt per epoch probe that passes the single-child gate,
        # one macro_fill per window — and no ragged
        # arena_gather/arena_commit pass, under every policy.
        for policy in ("fifo", "lpf", "srpt"):
            kernel_calls.clear()
            source = PoissonSource(rate=0.6, seed=17, dag_nodes=15, n_jobs=50)
            engine = StreamingEngine(source, 4, policy=policy)
            engine.run()
            recorded = {
                name: count
                for name, count in engine.stats.kernel_dispatches.items()
                if count
            }
            assert recorded == kernel_calls
            assert engine.stats.stream_arena_steps == 188
            assert engine.stats.stream_epoch_steps == 1
            assert recorded == {
                "csr_children": 189,
                "chain_min_dt": 1,
                "macro_fill": 1,
            }


class TestCompaction:
    def test_node_capacity_tracks_live_hwm_not_stream_length(self):
        # ~7000 total subjobs stream through a live window the retire
        # flow keeps small; without compaction the node buffers would
        # grow with the stream.
        source = PoissonSource(rate=0.25, seed=3, dag_nodes=12, n_jobs=600)
        engine = StreamingEngine(source, 8, policy="fifo")
        engine.run()
        arena = engine._arena
        assert arena is not None
        assert arena.compactions > 0
        total_nodes = 12 * 600
        hwm = engine.metrics.live_subjob_hwm
        assert arena.node_capacity < total_nodes
        # Geometric growth + compact-at-half-dead keeps capacity within a
        # small constant of the high-water mark (1024 is the floor).
        assert arena.node_capacity <= max(4 * hwm, 2048)

    def test_arena_empties_when_stream_drains(self):
        source = PoissonSource(rate=0.5, seed=8, dag_nodes=10, n_jobs=40)
        engine = StreamingEngine(source, 4, policy="lpf")
        engine.run()
        arena = engine._arena
        assert arena is not None
        assert arena.live_jobs == 0
        assert arena.live_nodes == 0
        assert engine.live_subjobs == 0
        assert arena.order_arrival().size == 0


class TestLazyChainRuns:
    def test_no_chain_runs_without_a_probe_past_the_gate(self):
        # Every epoch probe on this tree stream fails the single-child
        # gate, so no admitted DAG ever computes its chain runs.
        source = PoissonSource(rate=0.7, seed=11, dag_nodes=40, n_jobs=60)
        instance = source.prefix_instance(60)
        engine = StreamingEngine(
            TraceReplaySource.from_instance(instance), 6, policy="srpt"
        )
        engine.run()
        assert not [j for j, job in enumerate(instance) if "chain_runs" in vars(job.dag)]
        assert engine.stats.stream_arena_steps > 0
        assert "chain_min_dt" not in engine.stats.kernel_dispatches


class TestEpochRetirementOrder:
    @pytest.mark.parametrize(
        ("policy", "order"), (("srpt", [1, 0]), ("fifo", [0, 1]))
    )
    def test_jobs_retiring_in_one_window_follow_the_policy(self, policy, order):
        # Job 0 is two parallel 3-chains, job 1 one 3-chain; the three
        # heads fit m=4, so one 3-step window commits both jobs whole.
        # srpt retires the smaller job first, fifo the earlier one.
        two_chains = DAG(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        one_chain = DAG(3, [(0, 1), (1, 2)])
        source = TraceReplaySource.from_instance(
            Instance([Job(two_chains, 0), Job(one_chain, 0)])
        )
        retired: list[int] = []
        engine = StreamingEngine(
            source,
            4,
            policy=policy,
            on_retire=lambda index, flow: retired.append(index),
        )
        engine.run()
        assert engine.stats.stream_epoch_steps == 1
        assert engine.stats.stream_arena_steps == 0
        assert engine.t == 3
        assert retired == order


class TestSrptKeyBound:
    def test_admission_past_the_index_bound_is_a_named_error(self, monkeypatch):
        # srpt packs (remaining, index) into one int64 job key; with the
        # index bound lowered to 3 the fourth admission (index 3) must
        # fail loudly instead of corrupting the key.
        from repro.streaming import engine as engine_mod

        monkeypatch.setattr(engine_mod, "SRPT_INDEX_LIMIT", 3)
        source = PoissonSource(rate=5.0, seed=2, dag_nodes=8, n_jobs=10)
        engine = StreamingEngine(source, 1, policy="srpt")
        with pytest.raises(ConfigurationError, match="unsupported") as info:
            engine.run()
        assert "index < 3" in str(info.value)
        assert "index=3" in str(info.value)
        assert engine.metrics.jobs_admitted == 3
