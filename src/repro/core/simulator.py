"""Discrete-time multiprocessor simulation engine.

The engine implements the execution model of Section 3 verbatim:

* time advances in integer steps; at each time ``t`` the scheduler selects up
  to ``m`` *ready* subjobs, which then occupy the interval ``(t, t+1]`` and
  complete at ``t + 1`` (i.e. they form ``S(t+1)``);
* a subjob is ready at ``t`` iff its job has been released (``r_i <= t``),
  all its predecessors completed by ``t``, and it has not itself completed;
* the engine notifies the scheduler of job arrivals and of subjobs becoming
  ready, so schedulers never rescan DAGs on the hot path.

The engine is authoritative about readiness: every selection is checked
against its own ready state, so a buggy scheduler raises
:class:`SchedulerProtocolError` instead of silently producing an infeasible
schedule. (Resulting :class:`~repro.core.schedule.Schedule` objects can be
re-validated independently via ``Schedule.validate``.)

Vectorized frontier engine
--------------------------

Internally the engine works on the *flattened* instance graph
(:attr:`~repro.core.instance.Instance.flat_graph`): all jobs share one
global node-id space, readiness is a boolean frontier mask, and applying a
selection is a handful of batched NumPy kernels (bulk completion-time
writes, a CSR child gather, ``np.subtract.at`` indegree decrements) instead
of one Python iteration per subjob. Selections below
:data:`_SCALAR_THRESHOLD` nodes take a scalar path — for tiny steps the
fixed cost of array dispatch exceeds the loop it replaces.

On top of that sits the *list-rule path*. FIFO, LPF and SRPT are list
rules: they walk released jobs by a job key and take each job's ready
subjobs by a per-node priority. A scheduler says so with one method,
:meth:`Scheduler.frontier_priorities`; when it returns an array and no
observer or fault injector is attached, the engine runs the whole instance
itself on per-job frontier arrays and never dispatches the scheduler.
Each step commits whole frontiers along the job walk and resolves a
mid-job truncation as a prefix of the truncated job's priority-sorted
frontier. Schedules are bit-identical to the reference per-node loop (kept
as :func:`_simulate_reference` and enforced by the differential-equivalence
tests).

On chain-heavy out-forest instances the list-rule path additionally
*macro-steps*: using the precomputed chain-run decomposition
(:attr:`~repro.core.instance.Instance.chain_layout`) it detects that a
forced selection will repeat verbatim for the next Δt steps and commits
all Δt schedule columns in one vectorized write (see
``docs/engine-internals.md``).

Per-run counters are collected in :class:`EngineStats` (attached to the
returned schedule as ``schedule.engine_stats``) and accumulated process-wide
(:func:`engine_stats_snapshot`).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from . import kernels
from .availability import AvailabilityLike, AvailabilityTrace, as_trace
from .exceptions import ConfigurationError, SchedulerProtocolError, SimulationError
from .instance import Instance, InstanceBatch, pack_instances
from .job import Job
from .schedule import Schedule
from .util import Array, encode_priorities

__all__ = [
    "Scheduler",
    "SimulationObserver",
    "FaultHooks",
    "simulate",
    "simulate_batch",
    "EngineState",
    "EngineStats",
    "engine_stats_snapshot",
    "reset_engine_stats",
    "accumulate_engine_stats",
]

_INT = np.int64

#: Selections smaller than this are applied by a scalar loop; the NumPy
#: batch path's fixed dispatch cost only pays off for wider steps.
_SCALAR_THRESHOLD = 8

#: A scheduler selection: ``(job_id, node)`` pairs, either as a Python
#: sequence of tuples or as a ``(k, 2)`` integer array (which the batched
#: apply path consumes without a per-pair conversion round-trip). A 1-D
#: integer array is also accepted and read as *flat gids* over the
#: instance CSR (``offsets[job] + node``) — the cheapest form for
#: schedulers that already work in gid space (e.g. work stealing).
Selection = Sequence[tuple[int, int]] | Array


class Scheduler(abc.ABC):
    """Protocol every scheduling policy implements.

    Lifecycle: ``reset`` once per run, then :meth:`frontier_priorities`
    unless an observer or fault injector is attached. If it returns an
    array the scheduler is a *list rule*: the engine runs the whole
    instance itself and calls nothing else on it. Otherwise, at each time
    step the engine calls ``on_job_arrival`` for jobs with ``r_i == t``,
    ``on_nodes_ready`` (or ``on_ready_gids``) for subjobs that became
    ready at ``t``, and finally ``select``.
    """

    #: Whether the policy inspects job DAGs beyond what a non-clairvoyant
    #: scheduler could observe (Section 3, "Online Setting"). Informational;
    #: experiment tables report it.
    clairvoyant: bool = False

    #: The job walk of a list rule (see :meth:`frontier_priorities`).
    #: False (the default) is the FIFO walk: released unfinished jobs in
    #: ascending job-id order. True declares that the walk is the order
    #: :meth:`fast_path_job_order` returns, which the engine recomputes
    #: every step from its authoritative unfinished counts (e.g. SRPT's
    #: remaining-work order). The order must be monotone in (unfinished,
    #: job id): a macro window only commits whole frontiers, committed
    #: jobs' counts only decrease and excluded jobs' stay constant, so the
    #: committed prefix then cannot be overtaken mid-window.
    #: :func:`simulate_batch` runs only FIFO walks in lockstep.
    dynamic_job_order: bool = False

    #: Opt-in to flat ready delivery: when True (and no observer is
    #: attached) the engine calls :meth:`on_ready_gids` with ascending
    #: *global* node ids instead of grouping newly-ready nodes per job for
    #: :meth:`on_nodes_ready` — skipping a searchsorted/unique pass per
    #: step for schedulers (e.g. work stealing) that do not care about job
    #: identity. Opting in requires implementing BOTH callbacks: observer
    #: runs still use the per-job form.
    wants_ready_gids: bool = False

    def on_ready_gids(self, t: int, gids: Array) -> None:
        """``gids`` (ascending global node ids spanning any number of jobs)
        became ready at time ``t``. Only called when
        :attr:`wants_ready_gids` is True."""

    def fast_path_job_order(
        self, jobs: list[int], unfinished: Array
    ) -> list[int]:
        """Walk order over ``jobs`` for one list-rule commit scan.

        Only consulted when :attr:`dynamic_job_order` is True. ``jobs``
        are the released jobs with ready work this step (ascending ids);
        ``unfinished`` is the engine's authoritative per-job count of
        uncompleted subjobs. Must return a permutation of ``jobs`` in
        exactly the order the scheduler's own :meth:`select` would serve
        them — the engine commits whole frontiers along it.
        """
        return jobs

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Flat per-global-node int64 priorities (smaller = sooner, ties by
        ascending id), or ``None``.

        The one declaration that a scheduler is a *list rule*: at every
        step it walks released unfinished jobs (by id, or by
        :meth:`fast_path_job_order` when :attr:`dynamic_job_order` is
        True) and takes from each job as many of its ready subjobs as
        remaining capacity allows, in this array's order. Called once per
        run, after :meth:`reset`, when no observer or fault injector is
        attached. Returning an array hands the whole run to the engine: it
        commits every step itself, macro-steps chain runs on out-forests,
        and batches FIFO walks in :func:`simulate_batch`; the scheduler
        gets no further callback. The array must order every job's nodes
        exactly as the scheduler's own :meth:`select` would. ``None`` (the
        default) means the engine dispatches :meth:`select` every step.
        """
        return None

    @abc.abstractmethod
    def reset(self, instance: Instance, m: int) -> None:
        """Prepare for a fresh simulation of ``instance`` on ``m``
        processors."""

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        """Job ``job_id`` was released at time ``t``."""

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        """``nodes`` of job ``job_id`` became ready at time ``t``.

        For a job arriving at ``t`` this is called (after
        :meth:`on_job_arrival`) with the DAG's roots; afterwards it is called
        with subjobs whose last predecessor completed at ``t``.
        """

    @abc.abstractmethod
    def select(self, t: int, capacity: int) -> Selection:
        """Return up to ``capacity`` ready subjobs to run during
        ``(t, t+1]`` — ``(job_id, node_id)`` pairs (sequence of tuples or a
        ``(k, 2)`` integer array), or a 1-D integer array of flat gids."""

    @property
    def name(self) -> str:
        return type(self).__name__


class SimulationObserver:
    """Optional per-step callback hook (used by analyses that need online
    state, e.g. measuring ready-set sizes over time). Passing an observer
    disables the list-rule path so every step is observed with its
    selection."""

    def on_step(
        self, t: int, selection: Selection, state: "EngineState"
    ) -> None:  # pragma: no cover - default no-op
        pass


class FaultHooks(Protocol):
    """Hooks the engine consults when a fault injector is attached.

    The concrete implementation (:class:`repro.faults.FaultInjector`) lives
    outside the engine so the core never depends on workload/randomness
    plumbing; any object with this shape works. Attaching one disables the
    list-rule path (every step must be observable for the hooks to
    fire deterministically) and flat-gid ready delivery (perturbation is
    defined on per-job delivery groups).

    Determinism contract: :func:`simulate` and the reference loop call the
    hooks in exactly the same sequence — ``begin_run`` once, then per
    dispatch step ``should_crash(t)`` and (when the step enabled at least
    one delivery group) ``delivery_order(t, n_groups)`` — so one seeded
    injector drives bit-identical runs on both engines.
    """

    def begin_run(self) -> None:
        """Reset per-run state (RNG stream, fired-fault log)."""

    def should_crash(self, t: int) -> bool:
        """True to kill the scheduler at step ``t``; the engine rebuilds it
        from the committed schedule prefix before the next ``select``."""

    def delivery_order(self, t: int, n_groups: int) -> Optional[Array]:
        """A permutation of ``range(n_groups)`` to reorder this step's
        per-job ready delivery groups, or ``None`` to keep engine order."""


@dataclass
class EngineStats:
    """Counters for one simulation run (or a process-wide accumulation).

    Attributes
    ----------
    steps:
        Time steps on which work was committed (list-rule or dispatch
        path).
    fast_forwarded_steps:
        Steps committed by the engine itself on the list-rule path (see
        :meth:`Scheduler.frontier_priorities`), without a ``select``
        dispatch.
    kernel_steps:
        The subset of ``fast_forwarded_steps`` that truncated a job
        mid-frontier and were resolved by the scheduler's priority kernel
        (:meth:`Scheduler.frontier_priorities`) instead of a dispatch.
    macro_steps:
        Macro-step batch commits: each wrote several consecutive forced
        schedule columns in one vectorized pass (chain-run compression,
        see ``docs/engine-internals.md``).
    compressed_steps:
        Time steps covered by those macro batches (a subset of
        ``fast_forwarded_steps``; ``compressed_steps / macro_steps`` is the
        average compression ratio Δt).
    selections:
        Subjobs scheduled in total.
    select_calls:
        Scheduler ``select`` dispatches (dispatch-path steps).
    resyncs:
        Always 0. The engine picks its path once per run and never
        hands a run back to the scheduler mid-way; the field stays only
        because the repo benchmark (``perfbench``) reads it by name.
    sim_seconds:
        Wall-clock time spent inside :func:`simulate` /
        :func:`simulate_batch`.
    batch_steps:
        Lockstep commits of the batched multi-instance engine
        (:func:`simulate_batch`): each advanced every active instance of a
        batch by one step (or by Δt steps for a batched macro commit) in
        one NumPy pass.
    fallback_runs:
        Instances :func:`simulate_batch` routed through per-instance
        :func:`simulate` because they (or their scheduler) were ineligible
        for the lockstep path.
    batch_size_histogram:
        Histogram of active-instance counts over batched commits, bucketed
        by power of two (key ``b`` counts commits with ``2**b <= active <
        2**(b+1)``) so the dict stays small whatever the batch size.
    kernel_dispatches:
        Per-kernel dispatch counts (kernel name -> calls) for the hot
        kernels of :mod:`repro.core.kernels`, merged key-wise on
        accumulation.
    stream_steps:
        Time steps advanced by the streaming engine
        (:class:`repro.streaming.engine.StreamingEngine`), including
        zero-commit steps; committed streaming steps also count into
        ``steps``/``selections`` so aggregate throughput stays comparable.
    stream_retired:
        Jobs retired (completed and released from memory) by the
        streaming engine.
    stream_shed:
        Jobs rejected by streaming admission control (bounded live
        window overflow).
    stream_arena_steps:
        Streaming steps committed through the vectorized arena path
        (one batched pass over the whole live window instead of a
        per-job Python walk; see :mod:`repro.streaming.arena`).
    stream_epoch_steps:
        Arena epoch macro-commits — each one batches ``Δt`` consecutive
        forced streaming steps into a single write.
    stream_epoch_compressed:
        Total time steps covered by epoch macro-commits (each also
        counts into ``stream_steps``/``steps``, so throughput stays
        comparable across paths).
    """

    steps: int = 0
    fast_forwarded_steps: int = 0
    selections: int = 0
    select_calls: int = 0
    resyncs: int = 0
    sim_seconds: float = 0.0
    kernel_steps: int = 0
    macro_steps: int = 0
    compressed_steps: int = 0
    batch_steps: int = 0
    fallback_runs: int = 0
    batch_size_histogram: dict[int, int] = field(default_factory=dict)
    kernel_dispatches: dict[str, int] = field(default_factory=dict)
    stream_steps: int = 0
    stream_retired: int = 0
    stream_shed: int = 0
    stream_arena_steps: int = 0
    stream_epoch_steps: int = 0
    stream_epoch_compressed: int = 0

    @property
    def ns_per_subjob(self) -> float:
        """Average engine cost per scheduled subjob, in nanoseconds."""
        return self.sim_seconds * 1e9 / max(1, self.selections)

    @property
    def fast_fraction(self) -> float:
        """Fraction of committed steps handled by the list-rule path."""
        return self.fast_forwarded_steps / max(1, self.steps)

    def add(self, other: "EngineStats") -> None:
        """Accumulate ``other`` into this counter block (in place).

        The histogram is merged key-wise by summation — the parallel
        harness folds many per-worker deltas into one accumulator, and an
        overwrite here would silently drop every worker but the last.
        """
        self.steps += other.steps
        self.fast_forwarded_steps += other.fast_forwarded_steps
        self.kernel_steps += other.kernel_steps
        self.macro_steps += other.macro_steps
        self.compressed_steps += other.compressed_steps
        self.selections += other.selections
        self.select_calls += other.select_calls
        self.resyncs += other.resyncs
        self.sim_seconds += other.sim_seconds
        self.batch_steps += other.batch_steps
        self.fallback_runs += other.fallback_runs
        for bucket, count in other.batch_size_histogram.items():
            self.batch_size_histogram[bucket] = (
                self.batch_size_histogram.get(bucket, 0) + count
            )
        # Dispatch and streaming fields arrived after the first snapshot
        # format; read them defensively so folds of old pickled/checkpointed
        # snapshots (which lack the attributes) keep working.
        for kname, count in getattr(other, "kernel_dispatches", {}).items():
            self.kernel_dispatches[kname] = (
                self.kernel_dispatches.get(kname, 0) + count
            )
        self.stream_steps += getattr(other, "stream_steps", 0)
        self.stream_retired += getattr(other, "stream_retired", 0)
        self.stream_shed += getattr(other, "stream_shed", 0)
        self.stream_arena_steps += getattr(other, "stream_arena_steps", 0)
        self.stream_epoch_steps += getattr(other, "stream_epoch_steps", 0)
        self.stream_epoch_compressed += getattr(
            other, "stream_epoch_compressed", 0
        )

    def delta(self, earlier: "EngineStats") -> "EngineStats":
        """Counter difference ``self - earlier`` (for snapshot windows)."""
        hist = {
            bucket: count - earlier.batch_size_histogram.get(bucket, 0)
            for bucket, count in self.batch_size_histogram.items()
            if count != earlier.batch_size_histogram.get(bucket, 0)
        }
        earlier_kd = getattr(earlier, "kernel_dispatches", {})
        kd = {
            kname: count - earlier_kd.get(kname, 0)
            for kname, count in self.kernel_dispatches.items()
            if count != earlier_kd.get(kname, 0)
        }
        return EngineStats(
            steps=self.steps - earlier.steps,
            fast_forwarded_steps=self.fast_forwarded_steps
            - earlier.fast_forwarded_steps,
            kernel_steps=self.kernel_steps - earlier.kernel_steps,
            macro_steps=self.macro_steps - earlier.macro_steps,
            compressed_steps=self.compressed_steps - earlier.compressed_steps,
            selections=self.selections - earlier.selections,
            select_calls=self.select_calls - earlier.select_calls,
            resyncs=self.resyncs - earlier.resyncs,
            sim_seconds=self.sim_seconds - earlier.sim_seconds,
            batch_steps=self.batch_steps - earlier.batch_steps,
            fallback_runs=self.fallback_runs - earlier.fallback_runs,
            batch_size_histogram=hist,
            kernel_dispatches=kd,
            stream_steps=self.stream_steps - getattr(earlier, "stream_steps", 0),
            stream_retired=self.stream_retired
            - getattr(earlier, "stream_retired", 0),
            stream_shed=self.stream_shed - getattr(earlier, "stream_shed", 0),
            stream_arena_steps=self.stream_arena_steps
            - getattr(earlier, "stream_arena_steps", 0),
            stream_epoch_steps=self.stream_epoch_steps
            - getattr(earlier, "stream_epoch_steps", 0),
            stream_epoch_compressed=self.stream_epoch_compressed
            - getattr(earlier, "stream_epoch_compressed", 0),
        )

    def record_batch_step(self, n_active: int) -> None:
        """Count one batched commit over ``n_active`` live instances."""
        self.batch_steps += 1
        bucket = max(0, int(n_active).bit_length() - 1)
        self.batch_size_histogram[bucket] = (
            self.batch_size_histogram.get(bucket, 0) + 1
        )

    def summary(self) -> str:
        """One-line human-readable rendering (experiment notes, CLI)."""
        text = (
            f"steps={self.steps} fast={self.fast_forwarded_steps} "
            f"({100.0 * self.fast_fraction:.0f}%) "
            f"kernel={self.kernel_steps} macro={self.macro_steps} "
            f"compressed={self.compressed_steps} "
            f"selections={self.selections} "
            f"select_calls={self.select_calls} "
            f"ns/subjob={self.ns_per_subjob:.0f}"
        )
        if self.batch_steps or self.fallback_runs:
            sizes = " ".join(
                f"2^{b}:{self.batch_size_histogram[b]}"
                for b in sorted(self.batch_size_histogram)
            )
            text += (
                f" batch_steps={self.batch_steps} "
                f"fallback_runs={self.fallback_runs}"
            )
            if sizes:
                text += f" batch_sizes[{sizes}]"
        if self.stream_arena_steps or self.stream_epoch_steps:
            text += (
                f" stream_arena_steps={self.stream_arena_steps} "
                f"stream_epoch_steps={self.stream_epoch_steps} "
                f"stream_epoch_compressed={self.stream_epoch_compressed}"
            )
        if self.kernel_dispatches:
            dispatches = " ".join(
                f"{kname}:{self.kernel_dispatches[kname]}"
                for kname in sorted(self.kernel_dispatches)
            )
            text += f" kernels[{dispatches}]"
        if self.stream_steps or self.stream_retired or self.stream_shed:
            text += (
                f" stream_steps={self.stream_steps} "
                f"stream_retired={self.stream_retired} "
                f"stream_shed={self.stream_shed}"
            )
        return text


#: Process-wide accumulation over every ``simulate`` call (see
#: :func:`engine_stats_snapshot`).
_GLOBAL_STATS = EngineStats()


def engine_stats_snapshot() -> EngineStats:
    """A copy of the process-wide engine counters accumulated so far.

    Take one snapshot before and one after a block of work and use
    :meth:`EngineStats.delta` to attribute engine effort to that block.

    The histogram dict is copied, not aliased: a shallow ``replace`` would
    let later runs mutate past snapshots (and pool-task folds would then
    overwrite instead of sum).
    """
    return replace(
        _GLOBAL_STATS,
        batch_size_histogram=dict(_GLOBAL_STATS.batch_size_histogram),
        kernel_dispatches=dict(_GLOBAL_STATS.kernel_dispatches),
    )


def reset_engine_stats() -> None:
    """Zero the process-wide engine counters."""
    global _GLOBAL_STATS
    _GLOBAL_STATS = EngineStats()


def accumulate_engine_stats(stats: EngineStats) -> None:
    """Fold externally-collected counters into this process's accumulator.

    The parallel experiment harness uses this to merge per-worker
    :class:`EngineStats` deltas back into the parent, so
    :func:`engine_stats_snapshot` windows account for engine effort spent
    in worker processes too.
    """
    _GLOBAL_STATS.add(stats)


class EngineState:
    """Mutable execution state, exposed read-only to observers.

    Backed by flat instance-level arrays (see
    :attr:`~repro.core.instance.Instance.flat_graph`); the per-job accessors
    below are views into (or materializations of) the same memory.
    """

    def __init__(self, instance: Instance, m: int) -> None:
        self.instance = instance
        self.m = m
        flat = instance.flat_graph
        # Debug backstop for lint rule RPR201 (compiled out under -O): the
        # shared CSR must still be frozen when a run starts.
        assert not flat.writable_arrays(), (
            "Instance.flat_graph arrays have lost writeable=False; "
            "something wrote through the shared CSR (see lint rule RPR201)"
        )
        n = flat.n_nodes
        self.offsets = flat.offsets
        self.indegree_flat = flat.indegree.copy()
        self.done_flat = np.zeros(n, dtype=bool)
        self.ready_mask = np.zeros(n, dtype=bool)
        self.completion_flat = np.zeros(n, dtype=_INT)
        self.unfinished_counts = np.diff(flat.offsets)
        self.ready_per_job = np.zeros(len(instance), dtype=_INT)
        self.released = np.zeros(len(instance), dtype=bool)

    # -- per-job accessors (compatibility with the per-job layout) --------

    @cached_property
    def remaining_indegree(self) -> list[Array]:
        """Per-job views of the live indegree array (shared memory)."""
        o = self.offsets
        return [self.indegree_flat[o[i] : o[i + 1]] for i in range(len(o) - 1)]

    @cached_property
    def done(self) -> list[Array]:
        """Per-job views of the live completion mask (shared memory)."""
        o = self.offsets
        return [self.done_flat[o[i] : o[i + 1]] for i in range(len(o) - 1)]

    @property
    def ready(self) -> list[set[int]]:
        """Per-job ready sets, materialized from the frontier mask."""
        o = self.offsets
        return [
            set(np.nonzero(self.ready_mask[o[i] : o[i + 1]])[0].tolist())
            for i in range(len(o) - 1)
        ]

    def ready_nodes(self, job_id: int) -> Array:
        """Ready subjobs of ``job_id`` as ascending local node ids."""
        lo, hi = self.offsets[job_id], self.offsets[job_id + 1]
        return np.nonzero(self.ready_mask[lo:hi])[0]

    # -- aggregates -------------------------------------------------------

    @property
    def total_unfinished(self) -> int:
        return int(self.unfinished_counts.sum())

    def ready_count(self) -> int:
        return int(np.count_nonzero(self.ready_mask))

    def unfinished_job_ids(self) -> list[int]:
        return [i for i in range(len(self.instance)) if self.unfinished_counts[i] > 0]


def _pairs_from_gids(offsets: Array, gids: Array) -> list[tuple[int, int]]:
    """Decode a flat-gid selection into (job, local node) pairs.

    Cold paths only (scalar steps, error diagnosis, observer delivery).
    Out-of-range gids decode to out-of-range pairs, which the pairwise
    validation then rejects with its usual diagnosis.
    """
    js = np.searchsorted(offsets, gids, side="right") - 1
    nodes = gids - offsets[js]
    return [(int(a), int(b)) for a, b in zip(js.tolist(), nodes.tolist())]


def _selection_error(
    selection: list[tuple[int, int]],
    index: int,
    state: EngineState,
    t: int,
    scheduler: "Scheduler",
) -> SchedulerProtocolError:
    """Diagnose why ``selection[index]`` was illegal (cold path)."""
    job_id, node = selection[index]
    if not (0 <= job_id < len(state.instance)):
        return SchedulerProtocolError(
            f"{scheduler.name} selected unknown job {job_id} at t={t}"
        )
    if (job_id, node) in selection[:index]:
        return SchedulerProtocolError(
            f"{scheduler.name} selected ({job_id},{node}) twice at t={t}"
        )
    return SchedulerProtocolError(
        f"{scheduler.name} selected non-ready subjob ({job_id},{node}) at t={t}"
    )


def _diagnose_selection(
    selection: list[tuple[int, int]],
    state: EngineState,
    t: int,
    scheduler: "Scheduler",
) -> SchedulerProtocolError:
    """Find the first illegal entry of a rejected batch (cold path).

    Mirrors the reference engine's scan order so error messages are
    identical: entries are checked in order against the authoritative
    ready state, with earlier entries already applied conceptually.
    """
    offsets = state.offsets
    n_jobs = len(state.instance)
    accepted: set[tuple[int, int]] = set()
    for index, pair in enumerate(selection):
        job_id, node = pair
        try:
            in_range = 0 <= job_id < n_jobs
        except TypeError:
            return _selection_error(selection, index, state, t, scheduler)
        legal = False
        if in_range:
            try:
                gid = offsets[job_id] + node
                legal = (
                    0 <= node < offsets[job_id + 1] - offsets[job_id]
                    and bool(state.ready_mask[gid])
                    and (job_id, node) not in accepted
                )
            except (TypeError, IndexError):
                legal = False
        if not legal:
            return _selection_error(selection, index, state, t, scheduler)
        accepted.add((job_id, node))
    return SchedulerProtocolError(
        f"{scheduler.name} produced an unappliable selection at t={t}"
    )


def simulate(
    instance: Instance,
    m: int,
    scheduler: Scheduler,
    *,
    max_steps: Optional[int] = None,
    observer: Optional[SimulationObserver] = None,
    availability: Optional[AvailabilityLike] = None,
    fault_injector: Optional[FaultHooks] = None,
) -> Schedule:
    """Run ``scheduler`` on ``instance`` with ``m`` processors to completion.

    Parameters
    ----------
    max_steps:
        Safety bound on simulated time; defaults to a generous bound
        (``last release + total work + total span + 16``, padded by the
        trace prefix plus a serial drain when ``availability`` is given)
        that any work-conserving policy satisfies trivially. Exceeding it
        raises :class:`SimulationError` (it indicates a livelocked
        scheduler).
    observer:
        Optional hook receiving ``(t, selection, state)`` after each step.
        Supplying one disables the list-rule path (every step is observed).
    availability:
        Optional fluctuating allocation: an
        :class:`~repro.core.availability.AvailabilityTrace` (or plain
        sequence of ints, tail-extended by ``m``) granting ``m_t <= m``
        processors at step ``t``. ``m`` stays the machine cap: it is what
        ``scheduler.reset`` sees and what selections are validated against
        per step. Trace generators live in :mod:`repro.faults`.
    fault_injector:
        Optional :class:`FaultHooks` (see :class:`repro.faults.
        FaultInjector`): may kill/restart the scheduler mid-run (the engine
        rebuilds its state from the committed prefix) and perturb ready
        delivery group order. Attaching one disables the list-rule path
        and flat-gid delivery so both engines drive the hooks identically.

    Returns
    -------
    Schedule
        A complete, feasible schedule. Feasibility is enforced online; the
        returned object additionally passes ``Schedule.validate()``. The
        run's :class:`EngineStats` is attached as ``schedule.engine_stats``.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    trace: Optional[AvailabilityTrace] = (
        None if availability is None else as_trace(availability, m)
    )
    if max_steps is None:
        total_span = sum(j.span for j in instance)
        max_steps = instance.horizon_hint + total_span + 16
        if trace is not None:
            # Zero-capacity steps stall progress; past the explicit prefix
            # the tail (>= 1) guarantees motion, so pad the livelock bound
            # by the prefix plus a serial drain of all work on the tail.
            max_steps += trace.horizon + instance.total_work

    t_wall = time.perf_counter()
    stats = EngineStats()
    state = EngineState(instance, m)
    scheduler.reset(instance, m)
    if fault_injector is not None:
        fault_injector.begin_run()

    releases = instance.releases
    arrival_order = np.argsort(releases, kind="stable")
    next_arrival_idx = 0
    n_jobs = len(instance)

    # The hot inner kernels (repro.core.kernels), bound once per run.
    # Dispatch counts are kept in plain local ints and folded into stats
    # once at the end of the run.
    k_commit = kernels.commit_frontier
    k_children = kernels.csr_children
    k_min_dt = kernels.chain_min_dt
    k_macro = kernels.macro_fill
    n_commit = n_children = n_min_dt = n_macro = 0

    # Hot-loop locals (profiled: attribute chasing dominated the per-step
    # cost — see the HPC guides' "measure, then optimize").
    flat = instance.flat_graph
    offsets = state.offsets
    offsets_list = offsets.tolist()
    child_indptr = flat.child_indptr
    child_indices = flat.child_indices
    indeg = state.indegree_flat
    indeg_list: Optional[list[int]] = None  # lazily synced copy (scalar path)
    done_flat = state.done_flat
    ready_mask = state.ready_mask
    completion_flat = state.completion_flat
    unfinished = state.unfinished_counts
    ready_per_job = state.ready_per_job
    is_forest = flat.all_out_forests
    # For pure out-forests every enabled child has exactly one parent, so
    # readiness never consults indegrees — skip their upkeep entirely unless
    # an observer may inspect ``state.remaining_indegree``.
    track_indeg = (not is_forest) or (observer is not None)

    ready_total = 0
    total_left = int(unfinished.sum())
    # Per-step allocation m_t (hot-loop locals; None means constant m).
    avail_vals: Optional[list[int]] = None
    avail_len = 0
    avail_tail = m
    if trace is not None:
        avail_vals = list(trace.values)
        avail_len = len(avail_vals)
        avail_tail = trace.tail
    # List-rule path (see Scheduler.frontier_priorities): a scheduler that
    # returns a flat priority kernel is run by the engine alone for the
    # whole run. Each step commits whole ready frontiers along the job walk
    # and resolves a mid-job truncation by the kernel; select() is never
    # dispatched. Observers and fault hooks need every step dispatched.
    prio_flat: Optional[Array] = (
        scheduler.frontier_priorities(instance)
        if observer is None and fault_injector is None
        else None
    )
    list_rule = prio_flat is not None
    # Dynamic job walk order (see Scheduler.dynamic_job_order): schedulers
    # whose job order is a pure function of the engine's own unfinished
    # counts (e.g. SRPT) hand the list-rule path their walk order each
    # step — the FIFO ascending-id walk otherwise.
    dyn_order = (
        scheduler.fast_path_job_order
        if list_rule and scheduler.dynamic_job_order
        else None
    )
    # Encoded priority frontiers: with a non-constant kernel the list-rule
    # path stores each frontier pre-sorted by the composite key
    # ``rank(priority) * n_total + gid`` — unique per node and lexicographic
    # in (priority, id) — so a mid-job truncation is a plain prefix slice
    # instead of a per-step argsort. Priorities are dense-ranked first so the
    # composite never overflows int64 whatever the kernel's magnitudes. A
    # constant kernel (e.g. Arbitrary's zeros) encodes to the identity:
    # ``prio_enc`` stays None and frontiers remain plain gid-sorted arrays
    # (preserving the contiguous-slice child gather).
    n_total = flat.n_nodes
    prio_enc = None if prio_flat is None else encode_priorities(prio_flat)
    # Chain-run macro-stepping (see docs/engine-internals.md): when the
    # forced whole-frontier selection would repeat verbatim for the next Δt
    # steps — every committed gid on a chain run, no arrival, no capacity
    # change — commit all Δt schedule columns in one vectorized write
    # instead of Δt loop iterations. Restricted to out-forest instances,
    # where the list-rule path keeps no indegrees at all.
    macro_ok = list_rule and is_forest
    run_nodes: Optional[Array] = None
    node_index: Optional[Array] = None
    steps_to_end: Optional[Array] = None
    if macro_ok:
        chains = instance.chain_layout
        run_nodes = chains.run_nodes
        node_index = chains.node_index
        steps_to_end = chains.steps_to_end
    # Flat ready delivery (see Scheduler.wants_ready_gids): hand newly-ready
    # nodes over as one ascending gid array instead of grouping per job.
    # Fault injection perturbs per-job delivery groups, so it forces the
    # grouped form (keeping hook sequences identical to the reference loop).
    use_flat_ready = (
        scheduler.wants_ready_gids and observer is None and fault_injector is None
    )
    # ready_per_job feeds the list-rule walk and observers; the dispatch
    # path skips its batched upkeep under flat delivery (never observed).
    track_per_job = not use_flat_ready
    # The list-rule path keeps each live job's ready frontier as an array
    # and leaves ready_mask/done_flat (and, for forests, indegrees) alone:
    # without an observer nothing reads them.
    frontiers: list[Optional[Array]] = [None] * n_jobs
    # Invariant: stored frontiers are ascending — in gids when ``prio_enc``
    # is None, else in encoded (priority, id) keys. fr_contig[j] marks
    # gid-sorted frontiers that are a contiguous id range (then their CSR
    # child rows are adjacent and the per-step gather collapses to one
    # slice); encoded frontiers never claim contiguity.
    fr_contig = [False] * n_jobs
    head = 0  # job ids below this are finished (jobs finish roughly FIFO)

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; scheduler "
                f"{scheduler.name} appears to be livelocked "
                f"({state.total_unfinished} subjobs left)"
            )
        # Deliver arrivals with r_i == t.
        while (
            next_arrival_idx < n_jobs
            and releases[arrival_order[next_arrival_idx]] == t
        ):
            job_id = int(arrival_order[next_arrival_idx])
            job = instance[job_id]
            state.released[job_id] = True
            roots = job.dag.roots
            if list_rule:
                # Straight into the job's frontier; the scheduler is never
                # told (it is never dispatched either).
                fr = offsets[job_id] + roots  # roots are ascending
                if prio_enc is not None:
                    frontiers[job_id] = np.sort(prio_enc[fr])
                else:
                    frontiers[job_id] = fr
                    fr_contig[job_id] = bool(fr[-1] - fr[0] == fr.size - 1)
            else:
                scheduler.on_job_arrival(t, job_id, job)
                root_gids = offsets[job_id] + roots
                ready_mask[root_gids] = True
                if use_flat_ready:
                    scheduler.on_ready_gids(t, root_gids)
                else:
                    scheduler.on_nodes_ready(t, job_id, roots)
            ready_per_job[job_id] += roots.size
            ready_total += roots.size
            next_arrival_idx += 1

        # Fast-forward through genuinely empty time (no ready work at all).
        if ready_total == 0:
            if next_arrival_idx >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{state.total_unfinished} subjobs unfinished"
                )
            t = int(releases[arrival_order[next_arrival_idx]])
            continue

        # This step's allocation m_t (constant m without a trace).
        cap_t = (
            m
            if avail_vals is None
            else (avail_vals[t] if t < avail_len else avail_tail)
        )

        # ------------------------------------------------------------------
        # List-rule path: walk the jobs, commit whole ready frontiers while
        # they fit, and let the kernel pick the truncated job's share.
        # ------------------------------------------------------------------
        if list_rule:
            while head < n_jobs and unfinished[head] == 0:
                head += 1
            cap = cap_t
            commit_jobs: list[int] = []
            trunc_job = -1
            walk: Iterable[int]
            if dyn_order is None:
                walk = range(head, next_arrival_idx)
            else:
                live = np.nonzero(ready_per_job[head:next_arrival_idx])[0]
                live += head
                walk = dyn_order(live.tolist(), unfinished)
            for j in walk:
                if cap == 0:
                    break
                c = int(ready_per_job[j])
                if c == 0:
                    continue
                if c <= cap:
                    commit_jobs.append(j)
                    cap -= c
                else:
                    trunc_job = j  # truncation mid-job: the kernel decides
                    break
            if macro_ok and trunc_job < 0 and commit_jobs:
                # Macro-step commit: find Δt, the number of steps this
                # exact forced selection pattern repeats. Three bounds:
                # the gap to the next arrival (a new job changes the
                # packing), the shortest chain-run remainder among the
                # committed frontiers (a slot stays forced only while
                # its node has a sole in-chain successor), and the
                # window over which the availability trace stays cap_t.
                if next_arrival_idx < n_jobs:
                    dt = int(releases[arrival_order[next_arrival_idx]]) - t
                else:
                    dt = total_left  # chain remainders tighten below
                macro_gids: list[Array] = []
                if dt > 1:
                    assert steps_to_end is not None  # set when macro_ok
                    for j in commit_jobs:
                        fr = frontiers[j]
                        assert fr is not None
                        g = fr if prio_enc is None else fr % n_total
                        macro_gids.append(g)
                        dt = int(k_min_dt(steps_to_end, g, dt))
                        n_min_dt += 1
                        if dt == 1:
                            break
                if dt > 1 and avail_vals is not None and t < avail_len:
                    # Inside the explicit trace prefix m_t may vary;
                    # past it the tail is constant and equals cap_t
                    # (this step already drew it), so no bound applies.
                    span = 1
                    while span < dt:
                        tk = t + span
                        if (
                            avail_vals[tk] if tk < avail_len else avail_tail
                        ) != cap_t:
                            break
                        span += 1
                    dt = span
                if dt > 1:
                    assert run_nodes is not None and node_index is not None
                    assert steps_to_end is not None
                    k = 0
                    for j, gids in zip(commit_jobs, macro_gids):
                        nxt, term = k_macro(
                            run_nodes,
                            node_index,
                            steps_to_end,
                            completion_flat,
                            gids,
                            t,
                            dt,
                        )
                        kids = k_children(
                            child_indptr, child_indices, term
                        )
                        n_macro += 1
                        n_children += 1
                        # (Forest: every child's sole parent — a run
                        # terminal committed in the last column — is
                        # done, so all gathered children are ready.)
                        new = np.concatenate((nxt, kids))
                        if prio_enc is None:
                            nfr = np.sort(new)
                            nsz = nfr.size
                            fr_contig[j] = bool(
                                nsz == 0 or nfr[-1] - nfr[0] == nsz - 1
                            )
                        else:
                            nfr = np.sort(prio_enc[new])
                            nsz = nfr.size
                        frontiers[j] = nfr
                        c = gids.size
                        ready_per_job[j] = nsz
                        unfinished[j] -= c * dt
                        ready_total += nsz - c
                        k += c * dt
                    total_left -= k
                    stats.steps += dt
                    stats.fast_forwarded_steps += dt
                    stats.macro_steps += 1
                    stats.compressed_steps += dt
                    stats.selections += k
                    t += dt
                    continue
            finish = t + 1
            k = 0
            for j in commit_jobs:
                fr = frontiers[j]
                assert fr is not None  # commit_jobs have live frontiers
                gids = fr if prio_enc is None else fr % n_total
                if fr_contig[j]:
                    # Contiguous CSR rows: concatenated children are one
                    # slice (the common layered shape).
                    completion_flat[gids] = finish
                    kids = child_indices[
                        child_indptr[gids[0]] : child_indptr[gids[-1] + 1]
                    ]
                else:
                    kids = k_commit(
                        child_indptr,
                        child_indices,
                        completion_flat,
                        gids,
                        finish,
                    )
                    n_commit += 1
                if not is_forest:
                    np.subtract.at(indeg, kids, 1)
                    kids = np.unique(kids[indeg[kids] == 0])
                # (For forests every child's sole parent just completed.)
                if prio_enc is None:
                    # Sort to keep the frontier-ascending invariant
                    # (np.unique output above is already sorted).
                    nfr = np.sort(kids) if is_forest else kids
                    ksz = nfr.size
                    fr_contig[j] = bool(
                        ksz == 0 or nfr[-1] - nfr[0] == ksz - 1
                    )
                else:
                    nfr = np.sort(prio_enc[kids])
                    ksz = nfr.size
                frontiers[j] = nfr
                taken = gids.size
                ready_per_job[j] = ksz
                unfinished[j] -= taken
                ready_total += ksz - taken
                k += taken
            if trunc_job >= 0:
                # Priority commit: resolve the mid-job truncation with
                # the flat kernel. Frontiers are pre-sorted in tie-break
                # order — by encoded (priority, id) keys, or by gid when
                # the kernel is constant — so the cap-best nodes are a
                # plain prefix slice; the engine never consults the
                # scheduler and no per-step sort of the whole frontier
                # by priority is needed.
                j = trunc_job
                fr = frontiers[j]
                assert fr is not None  # trunc_job has ready work
                taken_enc = fr[:cap]
                rest = fr[cap:]
                gids = (
                    taken_enc if prio_enc is None else taken_enc % n_total
                )
                kids = k_commit(
                    child_indptr, child_indices, completion_flat, gids, finish
                )
                n_commit += 1
                if not is_forest:
                    np.subtract.at(indeg, kids, 1)
                    kids = np.unique(kids[indeg[kids] == 0])
                if prio_enc is not None:
                    kids = prio_enc[kids]
                new_fr = np.concatenate((rest, kids))
                new_fr.sort()
                frontiers[j] = new_fr
                nsz = new_fr.size
                if prio_enc is None:
                    fr_contig[j] = bool(
                        nsz == 0 or new_fr[-1] - new_fr[0] == nsz - 1
                    )
                ready_per_job[j] = nsz
                unfinished[j] -= cap
                ready_total += nsz - fr.size
                k += cap
                stats.kernel_steps += 1
            total_left -= k
            stats.steps += 1
            stats.fast_forwarded_steps += 1
            stats.selections += k
            t = finish
            continue

        # ------------------------------------------------------------------
        # Dispatch path: consult the scheduler.
        # ------------------------------------------------------------------
        if fault_injector is not None and fault_injector.should_crash(t):
            # Crash/restart: throw the scheduler's private state away and
            # rebuild it from the committed schedule prefix — the engine
            # state is authoritative. Arrivals replay in release order
            # (matching the original delivery order), then each job's live
            # ready frontier is delivered wholesale.
            scheduler.reset(instance, m)
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                scheduler.on_job_arrival(t, job_id, instance[job_id])
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                if unfinished[job_id] > 0:
                    nodes = state.ready_nodes(job_id)
                    if nodes.size:
                        scheduler.on_nodes_ready(t, job_id, nodes)

        raw = scheduler.select(t, cap_t)
        stats.select_calls += 1
        sel_arr: Optional[Array] = None
        gid_sel: Optional[Array] = None
        selection: Optional[list[tuple[int, int]]] = None
        if isinstance(raw, np.ndarray):
            # Array selections skip the per-pair list round-trip entirely:
            # (k, 2) rows of (job, local node), or — cheapest — a 1-D array
            # of flat gids over the instance CSR (no id split round-trip).
            if raw.ndim == 1 and raw.dtype.kind in "iu":
                gid_sel = raw
                k = int(raw.shape[0])
            elif raw.ndim == 2 and raw.shape[1] == 2 and raw.dtype.kind in "iu":
                sel_arr = raw
                k = int(raw.shape[0])
            else:
                raise SchedulerProtocolError(
                    f"{scheduler.name} returned a malformed selection array "
                    f"(shape {raw.shape}, dtype {raw.dtype}) at t={t}"
                )
        else:
            selection = list(raw)
            k = len(selection)
        if k > cap_t:
            raise SchedulerProtocolError(
                f"{scheduler.name} selected {k} > m={cap_t} nodes at t={t}"
            )
        finish = t + 1
        ready_jobs_in_order: list[int] = []
        ready_locals: list[Array] = []
        flat_ready_gids: Optional[Array] = None

        if 0 < k < _SCALAR_THRESHOLD:
            # Scalar path: tiny steps are cheaper without array dispatch.
            if selection is None:
                if sel_arr is not None:
                    selection = [(int(a), int(b)) for a, b in sel_arr.tolist()]
                else:
                    assert gid_sel is not None
                    selection = _pairs_from_gids(offsets, gid_sel)
            if track_indeg and indeg_list is None:
                indeg_list = indeg.tolist()
            newly_by_job: dict[int, list[int]] = {}
            for i, (job_id, node) in enumerate(selection):
                # Entries are applied in order, so on failure the reference
                # engine's failing index is exactly this one.
                try:
                    lo = offsets_list[job_id]
                    legal = (
                        job_id >= 0
                        and 0 <= node < offsets_list[job_id + 1] - lo
                        and ready_mask[lo + node]
                    )
                except (IndexError, TypeError):
                    raise _selection_error(
                        selection, i, state, t, scheduler
                    ) from None
                if not legal:
                    raise _selection_error(selection, i, state, t, scheduler)
                gid = lo + node
                ready_mask[gid] = False
                completion_flat[gid] = finish
                done_flat[gid] = True
                unfinished[job_id] -= 1
                ready_per_job[job_id] -= 1
                total_left -= 1
                ready_total -= 1
                # Children always live in the selecting job's id range (the
                # flat CSR concatenates per-job DAGs).
                if track_indeg:
                    assert indeg_list is not None
                    for child in child_indices[
                        child_indptr[gid] : child_indptr[gid + 1]
                    ].tolist():
                        left = indeg_list[child] - 1
                        indeg_list[child] = left
                        indeg[child] = left
                        if left == 0:
                            newly_by_job.setdefault(job_id, []).append(child - lo)
                else:
                    # Out-forest: the sole parent just completed, so every
                    # child is ready now.
                    for child in child_indices[
                        child_indptr[gid] : child_indptr[gid + 1]
                    ].tolist():
                        newly_by_job.setdefault(job_id, []).append(child - lo)
            flat_parts: list[Array] = []
            for job_id, locals_ in newly_by_job.items():
                locals_.sort()
                arr = np.array(locals_, dtype=_INT)
                garr = offsets[job_id] + arr
                ready_mask[garr] = True
                ready_per_job[job_id] += arr.size
                ready_total += arr.size
                if use_flat_ready:
                    flat_parts.append(garr)
                else:
                    ready_jobs_in_order.append(job_id)
                    ready_locals.append(arr)
            if flat_parts:
                if len(flat_parts) == 1:
                    flat_ready_gids = flat_parts[0]
                else:
                    flat_ready_gids = np.concatenate(flat_parts)
                    flat_ready_gids.sort()
        elif k:
            # Batched path: apply + validate the whole selection at once.
            if gid_sel is not None:
                # Flat-gid form: bounds come from the sorted copy, then one
                # readiness reduction and a sort-diff distinctness check.
                gids = gid_sel.astype(_INT, copy=False)
                sg = np.sort(gids)
                ok = bool(int(sg[0]) >= 0 and int(sg[-1]) < n_total) and bool(
                    ready_mask[gids].all() and (sg[1:] != sg[:-1]).all()
                )
                if ok:
                    jobs_sel = np.searchsorted(offsets, gids, side="right") - 1
            else:
                if sel_arr is not None:
                    ok = True
                    jobs_sel = sel_arr[:, 0].astype(_INT, copy=False)
                    nodes_sel = sel_arr[:, 1].astype(_INT, copy=False)
                else:
                    try:
                        sel = np.asarray(selection)
                        ok = (
                            sel.ndim == 2
                            and sel.shape[1] == 2
                            and sel.dtype.kind in "iu"
                        )
                    except (TypeError, ValueError):
                        ok = False
                    if ok:
                        jobs_sel = sel[:, 0].astype(_INT, copy=False)
                        nodes_sel = sel[:, 1].astype(_INT, copy=False)
                if ok:
                    if (jobs_sel < 0).any() or (jobs_sel >= n_jobs).any():
                        ok = False
                    else:
                        gids = offsets[jobs_sel] + nodes_sel
                        ok = bool(
                            (
                                (nodes_sel >= 0)
                                & (gids < offsets[jobs_sel + 1])
                            ).all()
                        )
                        if ok:
                            sg = np.sort(gids)
                            ok = bool(
                                ready_mask[gids].all()
                                # Distinctness via sort-diff (cheaper than
                                # np.unique, which also extracts values).
                                and (k < 2 or (sg[1:] != sg[:-1]).all())
                            )
            if not ok:
                if selection is None:
                    if sel_arr is not None:
                        selection = [
                            (int(a), int(b)) for a, b in sel_arr.tolist()
                        ]
                    else:
                        assert gid_sel is not None
                        selection = _pairs_from_gids(offsets, gid_sel)
                raise _diagnose_selection(selection, state, t, scheduler)
            completion_flat[gids] = finish
            done_flat[gids] = True
            ready_mask[gids] = False
            cnt = np.bincount(jobs_sel, minlength=n_jobs)
            unfinished -= cnt
            if track_per_job:
                ready_per_job -= cnt
            total_left -= k
            ready_total -= k
            if indeg_list is not None:
                indeg_list = None
            kids = k_children(child_indptr, child_indices, gids)
            n_children += 1
            if kids.size:
                if track_indeg:
                    np.subtract.at(indeg, kids, 1)
                if is_forest:
                    # Every child's sole parent just completed: all ready.
                    stream = kids
                    childs = np.sort(kids)
                else:
                    zero_mask = indeg[kids] == 0
                    zc = kids[zero_mask]
                    if zc.size:
                        # A multi-parent child hits zero on its *last*
                        # decrement; keep that occurrence only so callback
                        # order matches the reference loop exactly.
                        zpos = np.nonzero(zero_mask)[0]
                        order = np.lexsort((zpos, zc))
                        zc, zpos = zc[order], zpos[order]
                        last = np.ones(zc.size, dtype=bool)
                        last[:-1] = zc[1:] != zc[:-1]
                        zc, zpos = zc[last], zpos[last]
                        stream = zc[np.argsort(zpos, kind="stable")]
                        childs = zc  # ascending unique
                    else:
                        stream = childs = zc  # nothing enabled
                if childs.size:
                    ready_mask[childs] = True
                    ready_total += childs.size
                    if track_per_job:
                        sjobs = (
                            np.searchsorted(offsets, stream, side="right") - 1
                        )
                        ready_per_job += np.bincount(sjobs, minlength=n_jobs)
                    if use_flat_ready:
                        flat_ready_gids = childs
                    else:
                        # Group per job in first-enabled order, ascending.
                        ujobs, first = np.unique(sjobs, return_index=True)
                        for j in ujobs[np.argsort(first, kind="stable")].tolist():
                            lo, hi = offsets_list[j], offsets_list[j + 1]
                            a = np.searchsorted(childs, lo)
                            b = np.searchsorted(childs, hi)
                            ready_jobs_in_order.append(j)
                            ready_locals.append(childs[a:b] - lo)

        if observer is not None:
            if selection is None:
                if sel_arr is not None:
                    selection = [(int(a), int(b)) for a, b in sel_arr.tolist()]
                else:
                    assert gid_sel is not None
                    selection = _pairs_from_gids(offsets, gid_sel)
            observer.on_step(t, selection, state)
        stats.steps += 1
        stats.selections += k
        t = finish
        if flat_ready_gids is not None:
            scheduler.on_ready_gids(t, flat_ready_gids)
        else:
            if fault_injector is not None and ready_jobs_in_order:
                # Perturb the order delivery groups arrive in (the per-job
                # node arrays stay ascending — that part is contractual).
                order = fault_injector.delivery_order(
                    t, len(ready_jobs_in_order)
                )
                if order is not None:
                    ready_jobs_in_order = [
                        ready_jobs_in_order[int(i)] for i in order
                    ]
                    ready_locals = [ready_locals[int(i)] for i in order]
            for job_id, arr in zip(ready_jobs_in_order, ready_locals):
                scheduler.on_nodes_ready(t, job_id, arr)

    schedule = Schedule.from_flat(instance, m, completion_flat)
    for kname, count in (
        ("commit_frontier", n_commit),
        ("csr_children", n_children),
        ("chain_min_dt", n_min_dt),
        ("macro_fill", n_macro),
    ):
        if count:
            stats.kernel_dispatches[kname] = count
    stats.sim_seconds = time.perf_counter() - t_wall
    _GLOBAL_STATS.add(stats)
    object.__setattr__(schedule, "engine_stats", stats)
    return schedule


# ----------------------------------------------------------------------
# Batched multi-instance engine
# ----------------------------------------------------------------------

#: Element cap on one macro commit's ``(selected, Δt)`` chain block.
#: Splitting an over-budget macro window into several commits is pure
#: compression bookkeeping — the committed columns are identical — so this
#: only bounds peak memory, never results.
_MACRO_BLOCK_BUDGET = 1 << 22

#: Availability accepted by :func:`simulate_batch`: one spec shared by the
#: whole batch (an :class:`~repro.core.availability.AvailabilityTrace` or a
#: plain sequence of ints), or a per-instance sequence of such specs
#: (``None`` entries meaning "constant m" for that instance).
BatchAvailability = Union[
    AvailabilityLike, Sequence[Optional[AvailabilityLike]], None
]


def _normalize_batch_availability(
    availability: BatchAvailability, m: int, n: int
) -> Optional[list[Optional[AvailabilityTrace]]]:
    """Resolve a batch availability spec to per-instance traces.

    Returns ``None`` for the constant-``m`` case; otherwise a length-``n``
    list of validated traces (``None`` entries = constant ``m``).
    """
    if availability is None:
        return None
    if isinstance(availability, AvailabilityTrace):
        shared = as_trace(availability, m)
        return [shared] * n
    seq = list(availability)
    if all(isinstance(v, (int, np.integer)) for v in seq):
        shared = as_trace([int(v) for v in seq], m)
        return [shared] * n
    if len(seq) != n:
        raise ConfigurationError(
            f"per-instance availability has {len(seq)} entries for "
            f"{n} instances"
        )
    return [None if v is None else as_trace(v, m) for v in seq]


def _batch_priorities(
    scheduler: Scheduler, instances: Sequence[Instance], m: int
) -> list[Optional[Array]]:
    """Probe per-instance eligibility for the lockstep path.

    Mirrors :func:`simulate`'s list-rule setup: ``reset`` then
    :meth:`Scheduler.frontier_priorities` per instance. ``None`` entries
    mark instances that must fall back to per-instance runs: all of them
    when the job walk is not FIFO (:attr:`Scheduler.dynamic_job_order`).
    """
    if scheduler.dynamic_job_order:
        return [None] * len(instances)
    kernels: list[Optional[Array]] = []
    for inst in instances:
        scheduler.reset(inst, m)
        kernels.append(scheduler.frontier_priorities(inst))
    return kernels


def _simulate_batch_packed(
    batch: InstanceBatch,
    m: int,
    prio_full: Array,
    traces: Optional[list[Optional[AvailabilityTrace]]],
    max_steps: int,
    stats: EngineStats,
) -> Array:
    """Advance every instance of ``batch`` in lockstep; returns the
    batch-global completion array.

    Correctness rests on the priority-commit observation: under the FIFO
    frontier contract with a priority kernel, each instance's step-``t``
    selection is exactly its ``cap_t`` smallest ready nodes in
    ``(job id, kernel priority, node id)`` order — truncated or not. The
    engine therefore keeps ONE sorted array of ready *selection ranks*
    (the batch-global permutation ``sel_rank`` below); per step, each
    instance's selection is a prefix slice of its rank segment, and all B
    commits are single NumPy writes.
    """
    node_off = batch.node_off
    n_total = int(node_off[-1])
    n_inst = batch.n_instances
    is_forest = batch.all_out_forests

    # The lockstep engine's hot kernels, with local dispatch counters
    # folded into stats once at the end (same discipline as simulate()).
    k_commit = kernels.commit_frontier
    k_children = kernels.csr_children
    k_min_dt = kernels.chain_min_dt
    k_macro = kernels.macro_fill
    k_merge = kernels.merge_sorted
    k_take = kernels.batch_take
    n_commit = n_children = n_min_dt = n_macro = 0
    n_merge = n_take = 0

    # Batch-global selection order: instance-major because batch-global
    # job ids are; within a job, (priority, id) — exactly the per-instance
    # encoded-frontier order (see kernels.batch_select_order).
    order, sel_rank = kernels.batch_select_order(prio_full, batch.job_of_node)
    stats.kernel_dispatches["batch_select_order"] = (
        stats.kernel_dispatches.get("batch_select_order", 0) + 1
    )
    # Instance b's nodes occupy the contiguous rank range
    # [node_off[b], node_off[b+1]) — segment boundaries into the sorted
    # frontier come from one searchsorted against node_off.

    # Arrival schedule: every DAG root keyed by (release, selection rank).
    root_keys = sel_rank[batch.root_gids]
    arr_order = np.lexsort((root_keys, batch.root_release))
    arr_rel = batch.root_release[arr_order]
    arr_keys = root_keys[arr_order]
    n_roots = int(arr_rel.size)
    p = 0  # roots below this index have been delivered

    completion_flat = np.zeros(n_total, dtype=_INT)
    left = np.diff(node_off)  # per-instance unfinished counts
    total_left = int(left.sum())
    indeg = None if is_forest else batch.indegree.copy()
    child_indptr = batch.child_indptr
    child_indices = batch.child_indices
    fkeys = np.empty(0, dtype=_INT)  # sorted ranks of all ready nodes

    # Per-instance capacities: constant m, or a padded (B, L) prefix
    # matrix plus tail vector (rows without a trace are all-m).
    if traces is None:
        horizons = tails = cap_mat = None
        max_horizon = 0
    else:
        horizons = np.array(
            [0 if tr is None else tr.horizon for tr in traces], dtype=_INT
        )
        tails = np.array(
            [m if tr is None else tr.tail for tr in traces], dtype=_INT
        )
        max_horizon = int(horizons.max())
        cap_mat = np.full((n_inst, max_horizon), m, dtype=_INT)
        for b, tr in enumerate(traces):
            if tr is not None and tr.horizon:
                cap_mat[b, : tr.horizon] = tr.values

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; batched run "
                f"appears to be livelocked ({total_left} subjobs left)"
            )
        if p < n_roots and arr_rel[p] == t:
            q = int(np.searchsorted(arr_rel, t, side="right"))
            fkeys = k_merge(fkeys, arr_keys[p:q])
            n_merge += 1
            p = q
        if fkeys.size == 0:
            # The whole batch is idle: jump to the next arrival anywhere.
            if p >= n_roots:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{total_left} subjobs unfinished"
                )
            t = int(arr_rel[p])
            continue

        seg = np.searchsorted(fkeys, node_off)
        counts = np.diff(seg)
        if traces is None:
            caps = None
            k = np.minimum(counts, m)
        else:
            caps = tails.copy()
            live = horizons > t
            if live.any():
                caps[live] = cap_mat[live, t]
            k = np.minimum(counts, caps)
        total_k = int(k.sum())
        n_active = int(np.count_nonzero(left))

        if total_k == 0:
            # Every instance with ready work drew zero capacity: commit an
            # empty step (time still advances, like the per-instance engine).
            stats.steps += 1
            stats.fast_forwarded_steps += 1
            stats.record_batch_step(n_active)
            t += 1
            continue

        # Ragged prefix gather: instance b takes the first k[b] entries of
        # its frontier segment (= its forced/kernel selection this step).
        taken, remaining = k_take(fkeys, seg, k, total_k)
        n_take += 1
        gids = order[taken]
        truncated_any = bool(np.any((k < counts) & (k > 0)))

        # Batched macro-step: when every capacity-holding instance commits
        # its whole frontier, the pattern repeats for Δt steps bounded by
        # the next arrival, the shortest chain-run remainder among the
        # selected nodes, the window over which every instance's capacity
        # keeps its regime, and the macro block memory budget.
        dt = 1
        if is_forest and not truncated_any:
            if p < n_roots:
                dt = int(arr_rel[p]) - t
            else:
                dt = total_left  # chain remainders tighten below
            if dt > 1:
                assert batch.steps_to_end is not None
                dt = int(k_min_dt(batch.steps_to_end, gids, dt))
                n_min_dt += 1
            if dt > 1:
                dt = min(dt, max(1, _MACRO_BLOCK_BUDGET // total_k))
            if dt > 1 and traces is not None:
                committing = k > 0
                idle_front = (counts > 0) & ~committing
                span = 1
                while span < dt:
                    tk = t + span
                    if tk >= max_horizon:
                        ck = tails
                    else:
                        ck = tails.copy()
                        live = horizons > tk
                        ck[live] = cap_mat[live, tk]
                    ok = bool(
                        np.all(ck[committing] >= counts[committing])
                    ) and bool(np.all(ck[idle_front] == 0))
                    if not ok:
                        break
                    if tk >= max_horizon:
                        span = dt  # constant beyond every prefix
                        break
                    span += 1
                dt = span
        if dt > 1:
            assert batch.run_nodes is not None
            assert batch.node_index is not None
            assert batch.steps_to_end is not None
            # (total_k, Δt) chain block: column i holds the nodes every
            # committing instance is forced to run at step t + i.
            nxt, term = k_macro(
                batch.run_nodes,
                batch.node_index,
                batch.steps_to_end,
                completion_flat,
                gids,
                t,
                dt,
            )
            kids = k_children(child_indptr, child_indices, term)
            n_macro += 1
            n_children += 1
            new_keys = np.sort(sel_rank[np.concatenate((nxt, kids))])
            fkeys = k_merge(remaining, new_keys)
            n_merge += 1
            left -= k * dt
            total_left -= total_k * dt
            stats.steps += dt
            stats.fast_forwarded_steps += dt
            stats.macro_steps += 1
            stats.compressed_steps += dt
            stats.selections += total_k * dt
            stats.record_batch_step(n_active)
            t += dt
            continue

        kids = k_commit(child_indptr, child_indices, completion_flat, gids, t + 1)
        n_commit += 1
        if is_forest:
            newly = kids  # sole parent just completed: all ready
        else:
            assert indeg is not None
            np.subtract.at(indeg, kids, 1)
            newly = kids[indeg[kids] == 0]
            if newly.size:
                newly = np.unique(newly)
        new_keys = np.sort(sel_rank[newly])
        fkeys = k_merge(remaining, new_keys)
        n_merge += 1
        left -= k
        total_left -= total_k
        stats.steps += 1
        stats.fast_forwarded_steps += 1
        stats.selections += total_k
        if truncated_any:
            stats.kernel_steps += 1
        stats.record_batch_step(n_active)
        t += 1

    kd = stats.kernel_dispatches
    for kname, count in (
        ("commit_frontier", n_commit),
        ("csr_children", n_children),
        ("chain_min_dt", n_min_dt),
        ("macro_fill", n_macro),
        ("merge_sorted", n_merge),
        ("batch_take", n_take),
    ):
        if count:
            kd[kname] = kd.get(kname, 0) + count
    return completion_flat


def simulate_batch(
    instances: Sequence[Instance],
    m: int,
    scheduler: Scheduler,
    *,
    availability: BatchAvailability = None,
    max_steps: Optional[int] = None,
    batch: Optional[InstanceBatch] = None,
) -> list[Schedule]:
    """Run ``scheduler`` on many independent instances in lockstep.

    The batched engine packs the instances' flat-CSR layouts along a batch
    axis (:func:`~repro.core.instance.pack_instances`) and advances every
    eligible instance per time step with single NumPy passes — including a
    batched chain-run macro-step. Results are **bit-identical** to running
    :func:`simulate` per instance (enforced by the three-way property
    suite): eligibility is exactly the regime in which the per-instance
    engine never dispatches ``select`` — the scheduler is a list rule
    (:meth:`Scheduler.frontier_priorities` returns a kernel for the
    instance) with the FIFO job walk. Ineligible instances are
    transparently routed through per-instance :func:`simulate` (counted in
    :attr:`EngineStats.fallback_runs`).

    Parameters
    ----------
    instances:
        Independent instances; one schedule is returned per instance, in
        order.
    scheduler:
        A single scheduler instance, ``reset`` per probed/fallback run —
        the same reuse contract as consecutive :func:`simulate` calls.
    availability:
        One spec for the whole batch, or a per-instance sequence of specs
        (see :data:`BatchAvailability`).
    max_steps:
        As for :func:`simulate`; the default step bound covers the whole
        batch.
    batch:
        Optional pre-packed :class:`InstanceBatch` for ``instances``
        (reused across sweeps to skip packing); must pack exactly these
        instances.

    Returns
    -------
    list[Schedule]
        One validated-feasible schedule per instance. Batched runs share
        one :class:`EngineStats` block (attached to each of their
        schedules); fallback runs carry their own per-run stats.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    insts = tuple(instances)
    if not insts:
        return []
    traces = _normalize_batch_availability(availability, m, len(insts))
    kernels = _batch_priorities(scheduler, insts, m)
    eligible = [b for b, kern in enumerate(kernels) if kern is not None]

    if max_steps is None:
        # Same shape of guard as simulate()'s default, loosened so it costs
        # O(B) instead of a per-job Python scan: jobs are release-sorted so
        # jobs[-1] is the latest arrival, and span-sums are bounded by total
        # work (== flat n_nodes, cached and needed for packing anyway).
        max_steps = 16 + max(
            (inst.jobs[-1].release if inst.jobs else 0)
            + 2 * inst.flat_graph.n_nodes
            for inst in insts
        )
        if traces is not None:
            max_steps += max(
                (0 if tr is None else tr.horizon) + inst.flat_graph.n_nodes
                for tr, inst in zip(traces, insts)
            )

    stats = EngineStats()
    t_wall = time.perf_counter()
    results: list[Optional[Schedule]] = [None] * len(insts)

    if eligible:
        if batch is not None and len(eligible) == len(insts):
            if len(batch.instances) != len(insts) or any(
                a is not b for a, b in zip(batch.instances, insts)
            ):
                raise ConfigurationError(
                    "simulate_batch: `batch` does not pack these instances"
                )
            packed = batch
        else:
            packed = pack_instances([insts[b] for b in eligible])
        prio_full = np.concatenate([kernels[b] for b in eligible])
        sub_traces = (
            None if traces is None else [traces[b] for b in eligible]
        )
        completion_flat = _simulate_batch_packed(
            packed, m, prio_full, sub_traces, max_steps, stats
        )
        for view, b in zip(
            packed.completion_views(completion_flat), eligible
        ):
            schedule = Schedule.from_flat(insts[b], m, view)
            object.__setattr__(schedule, "engine_stats", stats)
            results[b] = schedule

    stats.fallback_runs = len(insts) - len(eligible)
    stats.sim_seconds = time.perf_counter() - t_wall
    _GLOBAL_STATS.add(stats)

    for b, kern in enumerate(kernels):
        if kern is None:
            results[b] = simulate(
                insts[b],
                m,
                scheduler,
                availability=None if traces is None else traces[b],
                max_steps=max_steps,
            )
    assert all(s is not None for s in results)
    return results  # type: ignore[return-value]


def _simulate_reference(
    instance: Instance,
    m: int,
    scheduler: Scheduler,
    *,
    max_steps: Optional[int] = None,
    availability: Optional[AvailabilityLike] = None,
    fault_injector: Optional[FaultHooks] = None,
) -> Schedule:
    """The original per-node simulation loop, kept verbatim as ground truth.

    The differential-equivalence tests assert that :func:`simulate`
    produces bit-identical completion arrays to this loop for every
    scheduler on a spread of seeded workloads — including runs under an
    availability trace and/or a fault injector, whose hooks fire in the
    exact same sequence here as in the vectorized engine. Not a hot path —
    it exists to pin semantics, not to be fast.
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    trace: Optional[AvailabilityTrace] = (
        None if availability is None else as_trace(availability, m)
    )
    if max_steps is None:
        total_span = sum(j.span for j in instance)
        max_steps = instance.horizon_hint + total_span + 16
        if trace is not None:
            max_steps += trace.horizon + instance.total_work

    completion = [np.zeros(job.dag.n, dtype=_INT) for job in instance]
    scheduler.reset(instance, m)
    if fault_injector is not None:
        fault_injector.begin_run()

    releases = instance.releases
    arrival_order = np.argsort(releases, kind="stable")
    next_arrival_idx = 0
    n_jobs = len(instance)

    ready_sets: list[set[int]] = [set() for _ in instance]
    indegrees = [job.dag.indegree.copy() for job in instance]
    done_arrays = [np.zeros(job.dag.n, dtype=bool) for job in instance]
    unfinished = np.array([job.dag.n for job in instance], dtype=_INT)
    child_indptrs = [job.dag.child_indptr for job in instance]
    child_indices = [job.dag.child_indices for job in instance]
    ready_total = 0
    total_left = int(unfinished.sum())

    def reference_error(
        selection: list[tuple[int, int]], index: int
    ) -> SchedulerProtocolError:
        job_id, node = selection[index]
        if not (0 <= job_id < n_jobs):
            return SchedulerProtocolError(
                f"{scheduler.name} selected unknown job {job_id} at t={t}"
            )
        if (job_id, node) in selection[:index]:
            return SchedulerProtocolError(
                f"{scheduler.name} selected ({job_id},{node}) twice at t={t}"
            )
        return SchedulerProtocolError(
            f"{scheduler.name} selected non-ready subjob ({job_id},{node}) at t={t}"
        )

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; scheduler "
                f"{scheduler.name} appears to be livelocked "
                f"({int(unfinished.sum())} subjobs left)"
            )
        while (
            next_arrival_idx < n_jobs
            and releases[arrival_order[next_arrival_idx]] == t
        ):
            job_id = int(arrival_order[next_arrival_idx])
            job = instance[job_id]
            scheduler.on_job_arrival(t, job_id, job)
            roots = job.dag.roots
            ready_sets[job_id].update(roots.tolist())
            ready_total += roots.size
            scheduler.on_nodes_ready(t, job_id, roots)
            next_arrival_idx += 1

        if ready_total == 0:
            if next_arrival_idx >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{int(unfinished.sum())} subjobs unfinished"
                )
            t = int(releases[arrival_order[next_arrival_idx]])
            continue

        cap_t = m if trace is None else trace.capacity_at(t)

        if fault_injector is not None and fault_injector.should_crash(t):
            # Crash/restart, mirroring the vectorized engine exactly:
            # reset, replay arrivals in release order, re-deliver each
            # unfinished job's live ready frontier.
            scheduler.reset(instance, m)
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                scheduler.on_job_arrival(t, job_id, instance[job_id])
            for idx in range(next_arrival_idx):
                job_id = int(arrival_order[idx])
                if unfinished[job_id] > 0 and ready_sets[job_id]:
                    scheduler.on_nodes_ready(
                        t,
                        job_id,
                        np.array(sorted(ready_sets[job_id]), dtype=_INT),
                    )

        raw = scheduler.select(t, cap_t)
        if isinstance(raw, np.ndarray) and raw.ndim == 1:
            # Flat-gid selections (see ``Selection``): decode to pairs —
            # the reference engine always works pairwise.
            selection = _pairs_from_gids(instance.flat_graph.offsets, raw)
        else:
            selection = list(raw)
        if len(selection) > cap_t:
            raise SchedulerProtocolError(
                f"{scheduler.name} selected {len(selection)} > m={cap_t} nodes at t={t}"
            )

        finish = t + 1
        newly_ready: dict[int, list[int]] = {}
        for i, (job_id, node) in enumerate(selection):
            try:
                ready_set = ready_sets[job_id]
            except (IndexError, TypeError):
                raise reference_error(selection, i) from None
            if job_id < 0 or node not in ready_set:
                raise reference_error(selection, i)
            ready_set.discard(node)
            ready_total -= 1
            completion[job_id][node] = finish
            done_arrays[job_id][node] = True
            unfinished[job_id] -= 1
            total_left -= 1
            indptr = child_indptrs[job_id]
            indeg = indegrees[job_id]
            for child in child_indices[job_id][indptr[node] : indptr[node + 1]]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    newly_ready.setdefault(job_id, []).append(int(child))
        t = finish
        groups = list(newly_ready.items())
        if fault_injector is not None and groups:
            order = fault_injector.delivery_order(t, len(groups))
            if order is not None:
                groups = [groups[int(i)] for i in order]
        for job_id, nodes in groups:
            arr = np.array(sorted(nodes), dtype=_INT)
            ready_sets[job_id].update(nodes)
            ready_total += len(nodes)
            scheduler.on_nodes_ready(t, job_id, arr)

    return Schedule(instance, m, completion)
