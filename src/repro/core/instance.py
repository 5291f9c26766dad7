"""Instances: collections of jobs arriving over time.

An :class:`Instance` is the input ``I`` of the paper: a finite set of jobs
with release times. This module also implements the arrival-time transforms
used in Sections 5.3/5.4 and 6:

* :meth:`Instance.batched_to` — round arrivals *up* to multiples of a period
  and merge same-time jobs (the ``I → I'`` reduction of Section 5.4, and the
  batched-arrival assumption of Section 6);
* :meth:`Instance.is_batched` / :meth:`Instance.is_semi_batched` —
  predicates for the assumptions of Theorems 5.6 and 6.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import ConfigurationError
from .job import Job, merge_jobs
from .util import Array, check_nonnegative_int

__all__ = [
    "Instance",
    "FlatInstanceGraph",
    "FlatChainRuns",
    "InstanceBatch",
    "concat_csr_blocks",
    "pack_instances",
]

_INT = np.int64


def concat_csr_blocks(
    blocks: Iterable[tuple[Array, Array, int]],
) -> tuple[Array, Array]:
    """Concatenate CSR blocks into one flat id space.

    Each block is ``(indptr, indices, node_shift)``: rows are appended in
    block order, edge targets are shifted by ``node_shift`` into the
    global id space, and row pointers are rebased onto the running edge
    tail. This offset-shift concat is the packing primitive shared by
    :attr:`Instance.flat_graph`, :func:`pack_instances`, and the
    streaming arena's compaction rebuild
    (:class:`repro.streaming.arena.StreamArena`).
    """
    indptr_parts = [np.zeros(1, dtype=_INT)]
    index_parts: list[Array] = []
    edge_offset = 0
    for indptr, indices, shift in blocks:
        indptr_parts.append(indptr[1:] + edge_offset)
        index_parts.append(indices + shift)
        edge_offset += indices.size
    child_indptr = np.concatenate(indptr_parts)
    child_indices = (
        np.concatenate(index_parts) if index_parts else np.empty(0, dtype=_INT)
    )
    return child_indptr, child_indices


@dataclass(frozen=True)
class FlatChainRuns:
    """Instance-level chain-run layout over global node ids.

    The per-job :class:`~repro.core.dag.ChainRuns` decompositions
    concatenated into the flat id space of :class:`FlatInstanceGraph`
    (runs never span jobs). This is the lookup structure behind the
    engine's macro-step commit: a frontier gid at ``run_nodes`` position
    ``p`` is followed, for the next ``steps_to_end - 1`` forced steps, by
    ``run_nodes[p + 1], run_nodes[p + 2], ...`` — so Δt consecutive forced
    selections of a chain slot are the contiguous block
    ``run_nodes[p : p + Δt]``.

    Attributes
    ----------
    run_nodes:
        ``(n,)`` global ids grouped by run, path order within each run.
    node_index:
        ``(n,)`` position of each gid inside ``run_nodes``.
    steps_to_end:
        ``(n,)`` nodes from the gid through its run's terminal, inclusive
        (always ``>= 1``).
    """

    run_nodes: Array
    node_index: Array
    steps_to_end: Array


@dataclass(frozen=True)
class FlatInstanceGraph:
    """Instance-level flattened CSR child structure.

    All jobs' DAGs concatenated into one node-id space so the simulation
    engine can update readiness with batched array kernels instead of
    per-job Python loops. Node ``v`` of job ``i`` has the *global* id
    ``offsets[i] + v``; ``offsets`` has one extra entry equal to the total
    node count, so ``offsets[i]:offsets[i+1]`` slices out job ``i``.

    Attributes
    ----------
    offsets:
        ``(n_jobs + 1,)`` node-id offset table.
    child_indptr / child_indices:
        CSR adjacency over global ids (children only; the engine never
        needs parent rows on the hot path).
    indegree:
        Per-global-node parent counts (read-only; the engine copies it
        once per run).
    all_out_forests:
        True iff every job is an out-forest (lets consumers skip
        duplicate-child handling, since each node has at most one parent).
    """

    offsets: Array
    child_indptr: Array
    child_indices: Array
    indegree: Array
    all_out_forests: bool

    @property
    def n_nodes(self) -> int:
        """Total subjob count across all jobs."""
        return int(self.offsets[-1])

    def writable_arrays(self) -> list[str]:
        """Names of CSR arrays that have (wrongly) become writeable.

        The engine freezes all four arrays with ``writeable=False``; the
        debug-mode checkpoints in ``Schedule`` and the engine's list-rule
        entry assert this list is empty (the runtime backstop for lint
        rule RPR201).
        """
        fields = ("offsets", "child_indptr", "child_indices", "indegree")
        return [
            name for name in fields if getattr(self, name).flags.writeable
        ]


@dataclass(frozen=True)
class Instance:
    """An online scheduling instance.

    Jobs are stored sorted by ``(release, original index)`` so "FIFO order"
    is simply index order. Index in this tuple is the canonical job id used
    by schedules and schedulers.
    """

    jobs: tuple[Job, ...]

    def __init__(self, jobs: Sequence[Job]) -> None:
        ordered = sorted(enumerate(jobs), key=lambda p: (p[1].release, p[0]))
        object.__setattr__(self, "jobs", tuple(j for _, j in ordered))
        if not self.jobs:
            raise ConfigurationError("an instance must contain at least one job")

    def __getstate__(self) -> dict:
        # Drop materialized cached layouts: unpickling would thaw their
        # writeable=False arrays (numpy serializes values, not flags),
        # breaking the shared-CSR freeze contract (lint rule RPR201) in
        # the receiving process — e.g. a pool worker handed pre-built
        # instances by the batched trial runner. Rebuilding lazily on
        # first use re-freezes them and keeps pickles small.
        state = dict(self.__dict__)
        state.pop("flat_graph", None)
        state.pop("chain_layout", None)
        return state

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __getitem__(self, i: int) -> Job:
        return self.jobs[i]

    @property
    def releases(self) -> Array:
        """Release times in job-id order (nondecreasing)."""
        return np.array([j.release for j in self.jobs], dtype=np.int64)

    @property
    def total_work(self) -> int:
        return int(sum(j.work for j in self.jobs))

    @property
    def max_span(self) -> int:
        return int(max(j.span for j in self.jobs))

    @property
    def horizon_hint(self) -> int:
        """A safe upper bound on the completion time of any work-conserving
        schedule on one processor: ``max release + total work``."""
        return int(self.releases.max()) + self.total_work

    @property
    def is_out_forest(self) -> bool:
        """True iff every job is an out-forest."""
        return all(j.is_out_forest for j in self.jobs)

    @cached_property
    def flat_graph(self) -> FlatInstanceGraph:
        """The flattened instance-level CSR (computed once, cached).

        Jobs are immutable, so the flat layout is safe to share between
        simulation runs; the engine treats it as read-only.
        """
        sizes = np.array([j.dag.n for j in self.jobs], dtype=_INT)
        offsets = np.zeros(len(self.jobs) + 1, dtype=_INT)
        np.cumsum(sizes, out=offsets[1:])
        child_indptr, child_indices = concat_csr_blocks(
            (job.dag.child_indptr, job.dag.child_indices, node_offset)
            for node_offset, job in zip(offsets[:-1].tolist(), self.jobs)
        )
        indegree = np.concatenate([j.dag.indegree for j in self.jobs])
        for arr in (offsets, child_indptr, child_indices, indegree):
            arr.setflags(write=False)
        return FlatInstanceGraph(
            offsets=offsets,
            child_indptr=child_indptr,
            child_indices=child_indices,
            indegree=indegree,
            all_out_forests=self.is_out_forest,
        )

    @cached_property
    def chain_layout(self) -> FlatChainRuns:
        """The flat :class:`FlatChainRuns` arrays (computed once, cached).

        Per-job runs are shifted into the global id space; each job's block
        of ``run_nodes`` occupies its ``offsets`` slice, so the flat
        position of a gid is the job offset plus its in-job run index.
        """
        offsets = self.flat_graph.offsets
        run_parts: list[Array] = []
        index_parts: list[Array] = []
        steps_parts: list[Array] = []
        for off, job in zip(offsets[:-1].tolist(), self.jobs):
            runs = job.dag.chain_runs
            run_parts.append(runs.order + off)
            index_parts.append(runs.index_of + off)
            steps_parts.append(runs.steps_to_end)
        run_nodes = np.concatenate(run_parts)
        node_index = np.concatenate(index_parts)
        steps_to_end = np.concatenate(steps_parts)
        for arr in (run_nodes, node_index, steps_to_end):
            arr.setflags(write=False)
        return FlatChainRuns(
            run_nodes=run_nodes,
            node_index=node_index,
            steps_to_end=steps_to_end,
        )

    def arrivals_at(self, t: int) -> list[int]:
        """Job ids released exactly at time ``t``."""
        return [i for i, j in enumerate(self.jobs) if j.release == t]

    def distinct_releases(self) -> Array:
        return np.unique(self.releases)

    # ------------------------------------------------------------------
    # Batching predicates and transforms (Sections 5.3 / 5.4 / 6)
    # ------------------------------------------------------------------

    def is_batched(self, period: int) -> bool:
        """True iff every release is an integer multiple of ``period`` and at
        most one job arrives per time (after merging, which the constructor
        does not do automatically)."""
        check_nonnegative_int(period, "period")
        if period == 0:
            raise ConfigurationError("period must be positive")
        rel = self.releases
        if np.any(rel % period != 0):
            return False
        return np.unique(rel).size == rel.size

    def is_semi_batched(self, half_period: int) -> bool:
        """True iff every release is an integer multiple of ``half_period``
        (the Section 5.3 assumption with ``half_period = OPT/2``)."""
        check_nonnegative_int(half_period, "half_period")
        if half_period == 0:
            raise ConfigurationError("half_period must be positive")
        return bool(np.all(self.releases % half_period == 0))

    def batched_to(self, period: int) -> "Instance":
        """The Section 5.4 reduction ``I → I'``.

        Jobs released in ``((i-1)*period, i*period]`` are delayed to
        ``i*period`` and merged into a single job. The optimal maximum flow
        of the result is at most ``OPT(I) + period`` (delay the optimal
        schedule by one period).
        """
        check_nonnegative_int(period, "period")
        if period == 0:
            raise ConfigurationError("period must be positive")
        buckets: dict[int, list[Job]] = {}
        for job in self.jobs:
            slot = -(-job.release // period) * period  # ceil to multiple
            buckets.setdefault(slot, []).append(job)
        merged: list[Job] = []
        for slot in sorted(buckets):
            group = buckets[slot]
            job, _ = merge_jobs(
                [g.delayed(slot) for g in group],
                release=slot,
                label=f"batch@{slot}",
            )
            merged.append(job)
        return Instance(merged)

    def delayed_by(self, delay: int) -> "Instance":
        """Every release shifted later by ``delay``."""
        check_nonnegative_int(delay, "delay")
        return Instance([j.delayed(j.release + delay) for j in self.jobs])

    def restricted_to(self, job_ids: Sequence[int]) -> "Instance":
        """Sub-instance containing only the given job ids."""
        ids = sorted(set(int(i) for i in job_ids))
        if not ids:
            raise ConfigurationError("restricted_to requires at least one job id")
        for i in ids:
            if not (0 <= i < len(self.jobs)):
                raise ConfigurationError(f"job id {i} out of range")
        return Instance([self.jobs[i] for i in ids])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Summary statistics (used by experiment tables)."""
        rel = self.releases
        works = np.array([j.work for j in self.jobs], dtype=np.int64)
        spans = np.array([j.span for j in self.jobs], dtype=np.int64)
        return {
            "n_jobs": len(self.jobs),
            "total_work": int(works.sum()),
            "max_work": int(works.max()),
            "max_span": int(spans.max()),
            "first_release": int(rel.min()),
            "last_release": int(rel.max()),
            "all_out_forests": self.is_out_forest,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        d = self.describe()
        return (
            f"Instance(n_jobs={d['n_jobs']}, total_work={d['total_work']}, "
            f"releases=[{d['first_release']}..{d['last_release']}])"
        )


@dataclass(frozen=True)
class InstanceBatch:
    """Structure-of-arrays packing of B independent instances.

    Every per-instance flat-CSR layout (:attr:`Instance.flat_graph`) is
    concatenated along one *batch axis*: node ``v`` of job ``j`` of
    instance ``b`` gets the batch-global id
    ``node_off[b] + instance_offsets[j] + v``. Because instances are laid
    out consecutively, any array indexed by batch-global id splits back
    into per-instance blocks by slicing at ``node_off`` — the layout the
    batched engine (:func:`~repro.core.simulator.simulate_batch`) exploits
    to advance all B instances with single NumPy passes.

    Attributes
    ----------
    instances:
        The packed instances, in caller order.
    node_off:
        ``(B + 1,)`` batch-global node offsets (``node_off[b]:node_off[b+1]``
        slices instance ``b``'s nodes).
    job_off:
        ``(B + 1,)`` batch-global job offsets.
    job_of_node:
        ``(N,)`` batch-global job id of every node (nondecreasing — jobs,
        like nodes, are instance-major).
    releases:
        ``(J,)`` release time of every batch-global job.
    root_gids / root_release:
        Concatenated DAG roots as batch-global ids with their jobs'
        release times — the batch arrival schedule (grouped by job,
        ascending within a job).
    child_indptr / child_indices / indegree:
        Concatenated CSR adjacency over batch-global ids (read-only, like
        the per-instance CSR; runs never cross instance boundaries).
    all_out_forests:
        True iff every packed instance is an out-forest.
    run_nodes / node_index / steps_to_end:
        Concatenated chain-run layouts (:attr:`Instance.chain_layout`)
        shifted into batch-global ids — present only when
        ``all_out_forests`` (the only regime the batched macro-step
        commits in); ``None`` otherwise.
    """

    instances: tuple[Instance, ...]
    node_off: Array
    job_off: Array
    job_of_node: Array
    releases: Array
    root_gids: Array
    root_release: Array
    child_indptr: Array
    child_indices: Array
    indegree: Array
    all_out_forests: bool
    run_nodes: Array | None
    node_index: Array | None
    steps_to_end: Array | None

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_nodes(self) -> int:
        """Total subjob count across the whole batch."""
        return int(self.node_off[-1])

    def completion_views(self, completion_flat: Array) -> list[Array]:
        """Slice a batch-global completion array back per instance."""
        return [
            completion_flat[self.node_off[b] : self.node_off[b + 1]]
            for b in range(self.n_instances)
        ]


def _batch_chain_runs(
    child_indptr: Array, child_indices: Array
) -> tuple[Array, Array, Array]:
    """Chain-run layout over a packed out-forest CSR, fully vectorized.

    Semantically the batch-global analogue of the per-job
    :attr:`~repro.core.dag.DAG.chain_runs` decomposition: a node continues
    its run iff it has exactly one child (in a forest that child's sole
    parent is the node, so the engine's macro commit may schedule it on
    the next step unconditionally). Computed by pointer doubling —
    O(N log max_chain) NumPy passes — instead of one per-job NumPy call
    chain per DAG, which dominated batch packing for sweeps of thousands
    of small instances.
    """
    n = int(child_indptr.size - 1)
    outdeg = np.diff(child_indptr)
    has_succ = outdeg == 1
    succ = np.full(n, -1, dtype=_INT)
    succ[has_succ] = child_indices[child_indptr[:-1][has_succ]]
    pred = np.full(n, -1, dtype=_INT)
    pred[succ[has_succ]] = np.nonzero(has_succ)[0]

    # steps_to_end: d[v] = nodes from v through its run terminal. Doubling
    # invariant after k rounds: d counts min(2^k, chain length) nodes and
    # g points 2^k successors ahead (or -1 past the end).
    d = np.ones(n, dtype=_INT)
    g = succ.copy()
    while True:
        valid = np.nonzero(g >= 0)[0]
        if valid.size == 0:
            break
        gv = g[valid]
        d[valid] += d[gv]
        g[valid] = g[gv]
    # head[v]: first node of v's run (doubling on pred; head[x] is clamped
    # at the run head once pred runs out, exactly mirroring d/g above).
    head = np.arange(n, dtype=_INT)
    g = pred.copy()
    while True:
        valid = np.nonzero(g >= 0)[0]
        if valid.size == 0:
            break
        gv = g[valid]
        head[valid] = head[gv]
        g[valid] = g[gv]

    # Runs laid out head-ascending; a node sits (head_len - own_len) past
    # its run's base, so node_index[succ(v)] == node_index[v] + 1.
    heads = np.nonzero(pred < 0)[0]
    base = np.zeros(n, dtype=_INT)
    lengths = d[heads]
    base[heads] = np.concatenate(
        (np.zeros(1, dtype=_INT), np.cumsum(lengths)[:-1])
    )
    node_index = base[head] + (d[head] - d)
    run_nodes = np.empty(n, dtype=_INT)
    run_nodes[node_index] = np.arange(n, dtype=_INT)
    return run_nodes, node_index, d


def pack_instances(instances: Sequence[Instance]) -> InstanceBatch:
    """Pack independent instances into one :class:`InstanceBatch`.

    Pure concatenation-with-shift over each instance's cached flat layout:
    O(total nodes) and allocation-bound. The packed arrays are frozen
    (``writeable=False``) like the per-instance CSR they mirror.
    """
    if not instances:
        raise ConfigurationError("pack_instances requires at least one instance")
    insts = tuple(instances)
    node_sizes = np.array(
        [inst.flat_graph.n_nodes for inst in insts], dtype=_INT
    )
    job_sizes = np.array([len(inst) for inst in insts], dtype=_INT)
    node_off = np.zeros(len(insts) + 1, dtype=_INT)
    np.cumsum(node_sizes, out=node_off[1:])
    job_off = np.zeros(len(insts) + 1, dtype=_INT)
    np.cumsum(job_sizes, out=job_off[1:])

    child_indptr, child_indices = concat_csr_blocks(
        (
            inst.flat_graph.child_indptr,
            inst.flat_graph.child_indices,
            int(node_off[b]),
        )
        for b, inst in enumerate(insts)
    )
    # One repeat over global job ids beats B per-instance repeat/shift
    # round-trips for sweeps of thousands of small instances.
    per_job_sizes = np.concatenate(
        [np.diff(inst.flat_graph.offsets) for inst in insts]
    )
    job_of_node = np.repeat(
        np.arange(int(job_off[-1]), dtype=_INT), per_job_sizes
    )
    indegree = np.concatenate([inst.flat_graph.indegree for inst in insts])
    releases = np.array(
        [j.release for inst in insts for j in inst.jobs], dtype=_INT
    )
    # Roots are exactly the zero-indegree nodes of the packed CSR, already
    # in (instance, job, node) order because the layout is instance-major.
    root_gids = np.nonzero(indegree == 0)[0].astype(_INT)
    root_release = releases[job_of_node[root_gids]]

    all_forests = all(inst.flat_graph.all_out_forests for inst in insts)
    run_nodes = node_index = steps_to_end = None
    if all_forests:
        run_nodes, node_index, steps_to_end = _batch_chain_runs(
            child_indptr, child_indices
        )

    frozen = [
        node_off, job_off, job_of_node, releases, root_gids, root_release,
        child_indptr, child_indices, indegree,
    ]
    if all_forests:
        frozen += [run_nodes, node_index, steps_to_end]
    for arr in frozen:
        arr.setflags(write=False)
    return InstanceBatch(
        instances=insts,
        node_off=node_off,
        job_off=job_off,
        job_of_node=job_of_node,
        releases=releases,
        root_gids=root_gids,
        root_release=root_release,
        child_indptr=child_indptr,
        child_indices=child_indices,
        indegree=indegree,
        all_out_forests=all_forests,
        run_nodes=run_nodes,
        node_index=node_index,
        steps_to_end=steps_to_end,
    )
