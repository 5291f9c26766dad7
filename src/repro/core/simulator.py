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

Two ways to run a step
----------------------

The *dispatch loop* (:func:`_dispatch_loop`) is that model written out one
node at a time: per-job ready sets and remaining indegrees, a ``select``
call per step, and each selected subjob applied and its children walked
in Python. It serves every scheduler that is not a list rule (Algorithm 𝒜,
work stealing, round robin, random tie-breaks) and every run with an
observer or a fault injector attached. :func:`_simulate_reference`, the
oracle the conformance matrix (``tests/properties/test_conformance.py``)
compares every other engine path against, runs the same loop for every
scheduler.

FIFO, LPF and SRPT are *list rules*: they walk released jobs by a job key
and take each job's ready subjobs by a per-node priority. A scheduler says
so with one value, :class:`ListRule`, returned by
:meth:`Scheduler.list_rule`; when it has one and no observer or fault
injector is attached, the engine runs the whole instance itself on the
flattened instance graph
(:attr:`~repro.core.instance.Instance.flat_graph`) with per-job frontier
arrays and never dispatches the scheduler. Each step commits whole
frontiers along the job walk and resolves a mid-job truncation as a prefix
of the truncated job's priority-sorted frontier. On chain-heavy out-forest
instances it additionally *macro-steps*: using the precomputed chain-run
decomposition (:attr:`~repro.core.instance.Instance.chain_layout`) it
detects that a forced selection will repeat verbatim for the next Δt steps
and commits all Δt schedule columns in one vectorized write (see
``docs/engine-internals.md``). Its schedules are held bit-identical to the
dispatch loop by the conformance matrix.

Per-run counters are collected in :class:`EngineStats` (attached to the
returned schedule as ``schedule.engine_stats``) and accumulated process-wide
(:func:`engine_stats_snapshot`).
"""

from __future__ import annotations

import abc
import operator
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Protocol, Sequence, Union

import numpy as np

from . import kernels
from .availability import AvailabilityLike, AvailabilityTrace, as_trace
from .exceptions import ConfigurationError, SchedulerProtocolError, SimulationError
from .instance import Instance, InstanceBatch, pack_instances
from .job import Job
from .schedule import Schedule
from .util import Array, encode_priorities

__all__ = [
    "ListRule",
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

#: A scheduler selection: a sequence of ``(job_id, node)`` integer pairs.
#: A ``(k, 2)`` integer array iterates as one.
Selection = Sequence[tuple[int, int]] | Array


@dataclass(frozen=True)
class ListRule:
    """A list rule: each step, walk the released jobs with ready work and
    take from each as many of its ready subjobs as capacity allows.

    ``priorities(job)`` orders a job's nodes: one int64 per node, smaller
    first, ties by ascending id (a tie-break's
    :meth:`~repro.schedulers.base.TieBreak.priority_kernel`); ``None`` for
    any job of an instance sends that run through the dispatch loop.
    ``by_remaining_work`` picks the job walk: ascending ``(unfinished
    subjobs, job id)`` (SRPT) if True, else arrival order, i.e. ascending
    job id (FIFO). Committing work never moves a job later in either walk,
    which is what macro windows and the streaming arena rely on.
    """

    priorities: Callable[[Job], Optional[Array]]
    by_remaining_work: bool = False


class Scheduler(abc.ABC):
    """Protocol every scheduling policy implements.

    Lifecycle: ``reset`` once per run, then :meth:`list_rule` unless an
    observer or fault injector is attached. If the scheduler is a list
    rule, the engine runs the whole instance itself and calls nothing
    else on it. Otherwise, at each time step the engine calls
    ``on_job_arrival`` for jobs with ``r_i == t``, ``on_nodes_ready`` for
    subjobs that became ready at ``t``, and finally ``select``.
    """

    #: Whether the policy inspects job DAGs beyond what a non-clairvoyant
    #: scheduler could observe (Section 3, "Online Setting"). Informational;
    #: experiment tables report it.
    clairvoyant: bool = False

    def list_rule(self) -> Optional[ListRule]:
        """The :class:`ListRule` that :meth:`select` follows, or ``None``.

        The one declaration that a scheduler is a list rule. Returning a
        rule hands every unobserved, unfaulted run to the engine: it
        commits every step itself, macro-steps chain runs on out-forests,
        and batches arrival walks in :func:`simulate_batch`; the scheduler
        gets no callback after :meth:`reset`. The rule must order jobs
        and nodes exactly as the scheduler's own :meth:`select` would.
        ``None`` (the default) means the engine dispatches :meth:`select`
        every step.
        """
        return None

    @abc.abstractmethod
    def reset(self, instance: Instance, m: int) -> None:
        """Prepare for a fresh simulation of ``instance`` on ``m``
        processors."""

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        """Job ``job_id`` was released at time ``t``."""

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        """``nodes`` (ascending local ids) of job ``job_id`` became ready
        at time ``t``.

        For a job arriving at ``t`` this is called (after
        :meth:`on_job_arrival`) with the DAG's roots; afterwards it is called
        with subjobs whose last predecessor completed at ``t``, one call per
        job. A crash rebuild (:meth:`FaultHooks.should_crash`) calls
        :meth:`reset`, replays :meth:`on_job_arrival` for every released
        job, and then calls this once per unfinished job with its whole
        ready frontier.
        """

    @abc.abstractmethod
    def select(self, t: int, capacity: int) -> Selection:
        """Return up to ``capacity`` ready subjobs to run during
        ``(t, t+1]`` as ``(job_id, node_id)`` integer pairs."""

    @property
    def name(self) -> str:
        return type(self).__name__


class SimulationObserver:
    """Optional per-step callback hook (used by analyses that need online
    state, e.g. measuring ready-set sizes over time). Passing an observer
    sends every step through the dispatch loop, so each is observed with
    its selection."""

    def on_step(
        self, t: int, selection: Selection, state: "EngineState"
    ) -> None:  # pragma: no cover - default no-op
        """Step ``t`` applied ``selection``. ``state`` is already past the
        step: the selected subjobs are done and the subjobs they enabled
        are ready."""


class FaultHooks(Protocol):
    """Hooks the engine consults when a fault injector is attached.

    The concrete implementation (:class:`repro.faults.FaultInjector`) lives
    outside the engine so the core never depends on workload/randomness
    plumbing; any object with this shape works. Attaching one sends the
    run through the dispatch loop (every step must be dispatched for the
    hooks to fire deterministically).

    Call order: ``begin_run`` once, then per dispatch step
    ``should_crash(t)`` and (when the step enabled at least one delivery
    group) ``delivery_order(t, n_groups)``, so one seeded injector drives
    the same faults on every run it is attached to.
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
        Time steps on which work was committed (list-rule path or
        dispatch loop).
    fast_forwarded_steps:
        Steps committed by the engine itself on the list-rule path (see
        :meth:`Scheduler.list_rule`), without a ``select`` dispatch.
    kernel_steps:
        The subset of ``fast_forwarded_steps`` that truncated a job
        mid-frontier and were resolved by the rule's node priorities
        (:attr:`ListRule.priorities`) instead of a dispatch.
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
        Scheduler ``select`` dispatches (dispatch-loop steps).
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
    """The dispatch loop's execution state, exposed read-only to observers.

    Per job: the set of ready subjobs (local node ids), the remaining
    indegree of every subjob, the count of unfinished subjobs, and whether
    the job has been released.
    """

    def __init__(self, instance: Instance, m: int) -> None:
        self.instance = instance
        self.m = m
        self.ready_sets: list[set[int]] = [set() for _ in instance]
        self.remaining_indegree: list[list[int]] = [
            job.dag.indegree.tolist() for job in instance
        ]
        self.unfinished_counts: list[int] = [job.dag.n for job in instance]
        self.released: list[bool] = [False] * len(instance)

    def ready_nodes(self, job_id: int) -> Array:
        """Ready subjobs of ``job_id`` as ascending local node ids."""
        return np.array(sorted(self.ready_sets[job_id]), dtype=_INT)

    @property
    def total_unfinished(self) -> int:
        return sum(self.unfinished_counts)

    def ready_count(self) -> int:
        return sum(len(ready) for ready in self.ready_sets)

    def unfinished_job_ids(self) -> list[int]:
        return [i for i, left in enumerate(self.unfinished_counts) if left > 0]


def _check_run(
    instance: Instance,
    m: int,
    availability: Optional[AvailabilityLike],
    max_steps: Optional[int],
) -> tuple[Optional[AvailabilityTrace], int]:
    """Validate a run's arguments: its availability trace (``None`` for a
    constant ``m``) and its livelock bound."""
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
    return trace, max_steps


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

    A list rule (see :meth:`Scheduler.list_rule`) with no observer or
    fault injector is run by the engine alone; every
    other run goes through the dispatch loop, one ``select`` per step (see
    the module docstring). The two give bit-identical schedules.

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
        Supplying one sends the run through the dispatch loop.
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
        delivery group order. Supplying one sends the run through the
        dispatch loop.

    Returns
    -------
    Schedule
        A complete, feasible schedule. Feasibility is enforced online; the
        returned object additionally passes ``Schedule.validate()``. The
        run's :class:`EngineStats` is attached as ``schedule.engine_stats``.
    """
    trace, max_steps = _check_run(instance, m, availability, max_steps)
    t_wall = time.perf_counter()
    stats = EngineStats()
    scheduler.reset(instance, m)
    # Observers and fault hooks need every step dispatched, so only an
    # unobserved, unfaulted run asks whether the scheduler is a list rule.
    rule = (
        scheduler.list_rule()
        if observer is None and fault_injector is None
        else None
    )
    prio_flat = None if rule is None else _flat_priorities(rule, instance)
    if rule is not None and prio_flat is not None:
        schedule = _simulate_list_rule(
            instance, m, scheduler.name, rule.by_remaining_work, prio_flat,
            trace, max_steps, stats,
        )
    else:
        schedule = _dispatch_loop(
            instance, m, scheduler, trace, max_steps, stats,
            observer, fault_injector,
        )
    stats.sim_seconds = time.perf_counter() - t_wall
    _GLOBAL_STATS.add(stats)
    object.__setattr__(schedule, "engine_stats", stats)
    return schedule


def _flat_priorities(rule: ListRule, instance: Instance) -> Optional[Array]:
    """``rule``'s node priorities concatenated in job order: one int64
    priority per global node. ``None`` when they are missing for any job,
    and for an empty instance: the run is then dispatched."""
    per_job: list[Array] = []
    for job in instance:
        prio = rule.priorities(job)
        if prio is None:
            return None
        per_job.append(prio)
    return np.concatenate(per_job) if per_job else None


def _simulate_list_rule(
    instance: Instance,
    m: int,
    name: str,
    by_remaining_work: bool,
    prio_flat: Array,
    trace: Optional[AvailabilityTrace],
    max_steps: int,
    stats: EngineStats,
) -> Schedule:
    """Run the list rule of scheduler ``name`` without dispatching it:
    its walk is SRPT's if ``by_remaining_work`` (else arrival order), and
    ``prio_flat`` holds its flat node priorities.

    Works on the flat instance CSR with one ready frontier array per live
    job. Each step commits whole ready frontiers along the job walk and
    lets the kernel pick the truncated job's share; on out-forests it
    macro-steps chain runs.
    """
    flat = instance.flat_graph
    # Debug backstop for lint rule RPR201 (compiled out under -O): the
    # shared CSR must still be frozen when a run starts.
    assert not flat.writable_arrays(), (
        "Instance.flat_graph arrays have lost writeable=False; "
        "something wrote through the shared CSR (see lint rule RPR201)"
    )
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
    # cost).
    offsets = flat.offsets
    child_indptr = flat.child_indptr
    child_indices = flat.child_indices
    indeg = flat.indegree.copy()
    completion_flat = np.zeros(flat.n_nodes, dtype=_INT)
    unfinished = np.diff(offsets)
    ready_per_job = np.zeros(n_jobs, dtype=_INT)
    # For pure out-forests every enabled child has exactly one parent, so
    # readiness never consults indegrees and their upkeep is skipped.
    is_forest = flat.all_out_forests

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
    # Encoded priority frontiers: with a non-constant kernel each frontier
    # is stored pre-sorted by the composite key
    # ``rank(priority) * n_total + gid`` — unique per node and lexicographic
    # in (priority, id) — so a mid-job truncation is a plain prefix slice
    # instead of a per-step argsort. Priorities are dense-ranked first so the
    # composite never overflows int64 whatever the kernel's magnitudes. A
    # constant kernel (e.g. Arbitrary's zeros) encodes to the identity:
    # ``prio_enc`` stays None and frontiers remain plain gid-sorted arrays
    # (preserving the contiguous-slice child gather).
    n_total = flat.n_nodes
    prio_enc = encode_priorities(prio_flat)
    # Chain-run macro-stepping (see docs/engine-internals.md): when the
    # forced whole-frontier selection would repeat verbatim for the next Δt
    # steps — every committed gid on a chain run, no arrival, no capacity
    # change — commit all Δt schedule columns in one vectorized write
    # instead of Δt loop iterations. Restricted to out-forest instances,
    # where no indegrees are kept at all.
    macro_ok = is_forest
    run_nodes: Optional[Array] = None
    node_index: Optional[Array] = None
    steps_to_end: Optional[Array] = None
    if macro_ok:
        chains = instance.chain_layout
        run_nodes = chains.run_nodes
        node_index = chains.node_index
        steps_to_end = chains.steps_to_end
    # Each live job's ready frontier is one array.
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
                f"{name} appears to be livelocked "
                f"({total_left} subjobs left)"
            )
        # Arrivals with r_i == t go straight into their frontiers; the
        # scheduler is never told (it is never dispatched either).
        while (
            next_arrival_idx < n_jobs
            and releases[arrival_order[next_arrival_idx]] == t
        ):
            job_id = int(arrival_order[next_arrival_idx])
            roots = instance[job_id].dag.roots
            fr = offsets[job_id] + roots  # roots are ascending
            if prio_enc is not None:
                frontiers[job_id] = np.sort(prio_enc[fr])
            else:
                frontiers[job_id] = fr
                fr_contig[job_id] = bool(fr[-1] - fr[0] == fr.size - 1)
            ready_per_job[job_id] += roots.size
            ready_total += roots.size
            next_arrival_idx += 1

        # Fast-forward through genuinely empty time (no ready work at all).
        if ready_total == 0:
            if next_arrival_idx >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{total_left} subjobs unfinished"
                )
            t = int(releases[arrival_order[next_arrival_idx]])
            continue

        # This step's allocation m_t (constant m without a trace).
        cap_t = (
            m
            if avail_vals is None
            else (avail_vals[t] if t < avail_len else avail_tail)
        )

        # Walk the jobs, commit whole ready frontiers while they fit, and
        # let the kernel pick the truncated job's share.
        while head < n_jobs and unfinished[head] == 0:
            head += 1
        cap = cap_t
        commit_jobs: list[int] = []
        trunc_job = -1
        walk: Iterable[int]
        if not by_remaining_work:
            walk = range(head, next_arrival_idx)
        else:
            # SRPT's walk: the jobs with ready work, stably sorted from
            # ascending ids by unfinished count.
            live = np.nonzero(ready_per_job[head:next_arrival_idx])[0]
            live += head
            walk = live[np.argsort(unfinished[live], kind="stable")].tolist()
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
                    kids = k_children(child_indptr, child_indices, term)
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
                fr_contig[j] = bool(ksz == 0 or nfr[-1] - nfr[0] == ksz - 1)
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
            gids = taken_enc if prio_enc is None else taken_enc % n_total
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

    for kname, count in (
        ("commit_frontier", n_commit),
        ("csr_children", n_children),
        ("chain_min_dt", n_min_dt),
        ("macro_fill", n_macro),
    ):
        if count:
            stats.kernel_dispatches[kname] = count
    return Schedule.from_flat(instance, m, completion_flat)


def _dispatch_loop(
    instance: Instance,
    m: int,
    scheduler: Scheduler,
    trace: Optional[AvailabilityTrace],
    max_steps: int,
    stats: EngineStats,
    observer: Optional[SimulationObserver],
    fault_injector: Optional[FaultHooks],
) -> Schedule:
    """Run an already ``reset`` scheduler one dispatched step at a time.

    Each step: deliver arrivals with ``r_i == t`` (``on_job_arrival``,
    then ``on_nodes_ready`` with the roots); let the fault injector crash
    and rebuild the scheduler; ask ``select(t, m_t)``; apply the selection
    one node at a time against the engine's own ready sets, walking each
    selected node's CSR row to find the children whose last predecessor
    just completed; mark those ready; show the step to the observer; and
    deliver them at ``t + 1`` as one ascending group per job, jobs in
    first-enabled order (the order the fault injector may perturb).
    """
    if fault_injector is not None:
        fault_injector.begin_run()
    state = EngineState(instance, m)
    ready_sets = state.ready_sets
    indegrees = state.remaining_indegree
    unfinished = state.unfinished_counts
    dags = [job.dag for job in instance]
    child_indptrs = [dag.child_indptr for dag in dags]
    child_indices = [dag.child_indices for dag in dags]
    completion = [[0] * dag.n for dag in dags]
    n_jobs = len(dags)
    releases = instance.releases.tolist()
    arrival_order = np.argsort(releases, kind="stable").tolist()
    next_arrival_idx = 0
    ready_total = 0
    total_left = sum(unfinished)
    index = operator.index

    t = 0
    while total_left:
        if t > max_steps:
            raise SimulationError(
                f"simulation exceeded max_steps={max_steps}; scheduler "
                f"{scheduler.name} appears to be livelocked "
                f"({total_left} subjobs left)"
            )
        while (
            next_arrival_idx < n_jobs
            and releases[arrival_order[next_arrival_idx]] == t
        ):
            job_id = arrival_order[next_arrival_idx]
            job = instance[job_id]
            state.released[job_id] = True
            scheduler.on_job_arrival(t, job_id, job)
            roots = job.dag.roots
            ready_sets[job_id].update(roots.tolist())
            ready_total += roots.size
            scheduler.on_nodes_ready(t, job_id, roots)
            next_arrival_idx += 1

        # Fast-forward through genuinely empty time (no ready work at all).
        if ready_total == 0:
            if next_arrival_idx >= n_jobs:
                raise SimulationError(
                    "no ready work and no future arrivals but "
                    f"{total_left} subjobs unfinished"
                )
            t = releases[arrival_order[next_arrival_idx]]
            continue

        cap_t = m if trace is None else trace.capacity_at(t)

        if fault_injector is not None and fault_injector.should_crash(t):
            # Crash/restart: throw the scheduler's private state away and
            # rebuild it from the committed schedule prefix — the engine
            # state is authoritative. Arrivals replay in release order
            # (matching the original delivery order), then each job's live
            # ready frontier is delivered wholesale.
            scheduler.reset(instance, m)
            arrived = arrival_order[:next_arrival_idx]
            for job_id in arrived:
                scheduler.on_job_arrival(t, job_id, instance[job_id])
            for job_id in arrived:
                if ready_sets[job_id]:
                    scheduler.on_nodes_ready(
                        t, job_id, state.ready_nodes(job_id)
                    )

        raw = scheduler.select(t, cap_t)
        stats.select_calls += 1
        try:
            selection = list(raw)
        except TypeError:
            raise SchedulerProtocolError(
                f"{scheduler.name} returned a non-iterable selection "
                f"{raw!r} at t={t}"
            ) from None
        k = len(selection)
        if k > cap_t:
            raise SchedulerProtocolError(
                f"{scheduler.name} selected {k} > m={cap_t} nodes at t={t}"
            )
        finish = t + 1
        newly: dict[int, list[int]] = {}
        for pair in selection:
            try:
                job_id, node = pair
                job_id = index(job_id)
                node = index(node)
            except (TypeError, ValueError):
                raise SchedulerProtocolError(
                    f"{scheduler.name} selected {pair!r} at t={t}, not a "
                    "(job, node) integer pair"
                ) from None
            if not 0 <= job_id < n_jobs:
                raise SchedulerProtocolError(
                    f"{scheduler.name} selected unknown job {job_id} at t={t}"
                )
            ready = ready_sets[job_id]
            if node not in ready:
                done = completion[job_id]
                if 0 <= node < len(done) and done[node] == finish:
                    raise SchedulerProtocolError(
                        f"{scheduler.name} selected ({job_id},{node}) twice "
                        f"at t={t}"
                    )
                raise SchedulerProtocolError(
                    f"{scheduler.name} selected non-ready subjob "
                    f"({job_id},{node}) at t={t}"
                )
            ready.remove(node)
            completion[job_id][node] = finish
            unfinished[job_id] -= 1
            indptr = child_indptrs[job_id]
            lo = indptr[node]
            hi = indptr[node + 1]
            if lo == hi:
                continue
            indeg = indegrees[job_id]
            enabled: list[int] = []
            for child in child_indices[job_id][lo:hi].tolist():
                left = indeg[child] - 1
                indeg[child] = left
                if left == 0:
                    enabled.append(child)
            if enabled:
                group = newly.get(job_id)
                if group is None:
                    newly[job_id] = enabled
                else:
                    group += enabled
        total_left -= k
        ready_total -= k
        for job_id, nodes in newly.items():
            nodes.sort()
            ready_sets[job_id].update(nodes)
            ready_total += len(nodes)
        if observer is not None:
            observer.on_step(t, selection, state)
        stats.steps += 1
        stats.selections += k
        t = finish
        if newly:
            groups = list(newly.items())
            if fault_injector is not None:
                # Perturb the order delivery groups arrive in (the per-job
                # node arrays stay ascending — that part is contractual).
                order = fault_injector.delivery_order(t, len(groups))
                if order is not None:
                    groups = [groups[int(i)] for i in order]
            for job_id, nodes in groups:
                scheduler.on_nodes_ready(t, job_id, np.array(nodes, dtype=_INT))

    return Schedule(
        instance, m, [np.array(done, dtype=_INT) for done in completion]
    )


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
    :meth:`Scheduler.list_rule` per instance, and the rule's flat node
    priorities. ``None`` entries mark instances that must fall back to
    per-instance runs: all of them unless the scheduler is a list rule
    with the arrival walk.
    """
    kernels: list[Optional[Array]] = []
    for inst in instances:
        scheduler.reset(inst, m)
        rule = scheduler.list_rule()
        if rule is None or rule.by_remaining_work:
            return [None] * len(instances)
        kernels.append(_flat_priorities(rule, inst))
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
) -> list[Schedule]:
    """Run ``scheduler`` on many independent instances in lockstep.

    The batched engine packs the instances' flat-CSR layouts along a batch
    axis (:func:`~repro.core.instance.pack_instances`) and advances every
    eligible instance per time step with single NumPy passes — including a
    batched chain-run macro-step. Results are **bit-identical** to running
    :func:`simulate` per instance (enforced by the conformance matrix's
    ``batch`` row): eligibility is exactly the regime in which the per-instance
    engine never dispatches ``select`` and the job walk is arrival order —
    the scheduler's :meth:`Scheduler.list_rule` has node priorities for
    the instance and ``by_remaining_work`` False. Ineligible instances are
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
    """The oracle: the dispatch loop for every scheduler, list rules
    included.

    :func:`simulate` runs this same loop for every scheduler that is not a
    list rule and for every observed or faulted run; the conformance
    matrix holds its list-rule engine, faulted runs, :func:`simulate_batch`
    and the streaming engine bit-identical to it on a spread of seeded
    workloads, availability traces included. The run is not counted in the
    process-wide :class:`EngineStats`.
    """
    trace, max_steps = _check_run(instance, m, availability, max_steps)
    scheduler.reset(instance, m)
    return _dispatch_loop(
        instance, m, scheduler, trace, max_steps, EngineStats(),
        None, fault_injector,
    )
