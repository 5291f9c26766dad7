"""``pack_instances`` / ``InstanceBatch`` layout invariants, the pickling
contract behind pool shipping, and ``run_trials`` routing."""

import pickle

import numpy as np
import pytest

from repro.core import (
    DAG,
    ConfigurationError,
    Instance,
    Job,
    pack_instances,
    simulate,
)
from repro.experiments import run_trials, runner
from repro.schedulers import FIFOScheduler
from repro.workloads import map_reduce_dag, random_out_forest


def _chain(n: int) -> DAG:
    return DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))


def _forest_instance(seed: int, n_jobs: int = 2) -> Instance:
    rng = np.random.default_rng(seed)
    return Instance(
        [
            Job(
                random_out_forest(int(rng.integers(4, 20)),
                                  seed=int(rng.integers(1 << 30))),
                release=int(rng.integers(0, 5)),
            )
            for _ in range(n_jobs)
        ]
    )


class TestPackInstances:
    def test_offsets_partition_the_batch(self):
        insts = [_forest_instance(s) for s in range(4)]
        batch = pack_instances(insts)
        assert batch.n_instances == 4
        assert batch.node_off[0] == 0 and batch.job_off[0] == 0
        sizes = np.diff(batch.node_off)
        assert [int(x) for x in sizes] == [
            inst.flat_graph.n_nodes for inst in insts
        ]
        assert [int(x) for x in np.diff(batch.job_off)] == [
            len(inst) for inst in insts
        ]
        assert batch.n_nodes == sum(inst.flat_graph.n_nodes for inst in insts)

    def test_job_of_node_is_instance_major_and_monotone(self):
        insts = [_forest_instance(s) for s in range(3)]
        batch = pack_instances(insts)
        assert np.all(np.diff(batch.job_of_node) >= 0)
        for b in range(3):
            rows = batch.job_of_node[batch.node_off[b]: batch.node_off[b + 1]]
            assert rows.min() >= batch.job_off[b]
            assert rows.max() < batch.job_off[b + 1]

    def test_edges_stay_within_their_instance(self):
        insts = [_forest_instance(s) for s in range(3)]
        batch = pack_instances(insts)
        for b in range(3):
            lo, hi = int(batch.node_off[b]), int(batch.node_off[b + 1])
            lo_e = int(batch.child_indptr[lo])
            hi_e = int(batch.child_indptr[hi])
            kids = batch.child_indices[lo_e:hi_e]
            assert kids.size == 0 or (kids.min() >= lo and kids.max() < hi)

    def test_roots_are_zero_indegree_and_release_aligned(self):
        insts = [_forest_instance(s) for s in range(3)]
        batch = pack_instances(insts)
        assert np.array_equal(
            batch.root_gids, np.nonzero(batch.indegree == 0)[0]
        )
        assert np.array_equal(
            batch.root_release, batch.releases[batch.job_of_node[batch.root_gids]]
        )

    def test_arrays_are_frozen(self):
        batch = pack_instances([_forest_instance(0)])
        for name in (
            "node_off", "job_off", "job_of_node", "releases", "root_gids",
            "root_release", "child_indptr", "child_indices", "indegree",
        ):
            assert not getattr(batch, name).flags.writeable, name

    def test_chain_layout_matches_run_semantics(self):
        """run_nodes/node_index form an inverse permutation pair and a
        node's successor-in-run (its sole child) sits at index+1."""
        insts = [Instance([Job(_chain(30), 0)]), _forest_instance(1)]
        batch = pack_instances(insts)
        assert batch.all_out_forests
        n = batch.n_nodes
        assert np.array_equal(
            batch.run_nodes[batch.node_index], np.arange(n)
        )
        outdeg = np.diff(batch.child_indptr)
        for v in np.nonzero(outdeg == 1)[0]:
            child = int(batch.child_indices[batch.child_indptr[v]])
            assert batch.node_index[child] == batch.node_index[v] + 1
            assert batch.steps_to_end[v] == batch.steps_to_end[child] + 1

    def test_non_forest_batch_has_no_chain_layout(self):
        batch = pack_instances(
            [Instance([Job(map_reduce_dag(4), 0)]), _forest_instance(0)]
        )
        assert not batch.all_out_forests
        assert batch.run_nodes is None
        assert batch.node_index is None
        assert batch.steps_to_end is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            pack_instances([])


class TestInstancePickling:
    def test_pickle_drops_cached_layouts_and_rebuilds_frozen(self):
        """numpy does not serialize writeable flags, so a pickled cached
        flat_graph would arrive thawed in pool workers (tripping the
        RPR201 freeze assert); ``__getstate__`` strips the caches and the
        receiver rebuilds them frozen."""
        inst = _forest_instance(3)
        flat = inst.flat_graph  # materialize the cache
        assert not flat.offsets.flags.writeable
        clone = pickle.loads(pickle.dumps(inst))
        assert "flat_graph" not in clone.__dict__
        assert not clone.flat_graph.offsets.flags.writeable
        assert np.array_equal(clone.flat_graph.offsets, flat.offsets)
        assert np.array_equal(
            clone.flat_graph.child_indices, flat.child_indices
        )

    def test_pickled_instance_simulates_identically(self):
        inst = _forest_instance(4)
        inst.flat_graph
        clone = pickle.loads(pickle.dumps(inst))
        a = simulate(inst, 3, FIFOScheduler())
        b = simulate(clone, 3, FIFOScheduler())
        for x, y in zip(a.completion, b.completion):
            assert np.array_equal(x, y)


def _fifo_factory():
    return FIFOScheduler()


class TestRunTrials:
    def _trials(self, n):
        return [_forest_instance(100 + s) for s in range(n)]

    def test_matches_per_instance_simulate(self):
        trials = self._trials(12)
        schedules = run_trials(trials, 3, _fifo_factory)
        assert len(schedules) == len(trials)
        for inst, sched in zip(trials, schedules):
            ref = simulate(inst, 3, FIFOScheduler())
            for x, y in zip(sched.completion, ref.completion):
                assert np.array_equal(x, y)

    def test_chunked_serial_matches_single_batch(self, monkeypatch):
        trials = self._trials(10)
        one = run_trials(trials, 2, _fifo_factory)
        # A tiny node budget forces many chunks; results must not change.
        monkeypatch.setattr(runner, "TRIAL_CHUNK_NODES", 30)
        assert len(runner._chunk_by_nodes(trials, 30)) > 1
        many = run_trials(trials, 2, _fifo_factory)
        for a, b in zip(one, many):
            for x, y in zip(a.completion, b.completion):
                assert np.array_equal(x, y)

    def test_empty_input(self):
        assert run_trials([], 2, _fifo_factory) == []

    def test_per_instance_availability_list(self):
        trials = self._trials(5)
        avail = [None, [0, 1, 2], None, [2, 0, 2, 1], [1]]
        schedules = run_trials(trials, 2, _fifo_factory, availability=avail)
        for inst, av, sched in zip(trials, avail, schedules):
            ref = simulate(inst, 2, FIFOScheduler(), availability=av)
            for x, y in zip(sched.completion, ref.completion):
                assert np.array_equal(x, y)
