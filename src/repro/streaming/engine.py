"""The streaming engine: long-lived scheduling over an unbounded stream.

Where :func:`repro.core.simulate` materializes a whole :class:`Instance`
up front, this engine consumes an :class:`~repro.workloads.arrivals.
ArrivalSource` one arrival at a time and **retires** each job the step it
completes, so resident state is bounded by the live window (tracked as a
high-water mark in :class:`~repro.streaming.metrics.StreamMetrics`) no
matter how many subjobs the stream pushes.

Semantics match the batch engine exactly: at integer step ``t`` the
engine admits arrivals with release ``<= t``, grants ``m_t`` processors
(an :class:`~repro.core.AvailabilityTrace` or the constant ``m``), walks
the live jobs in policy order taking whole ready frontiers until capacity
runs out (the last job truncated by its intra-job priority kernel), and
completes the committed subjobs at ``t + 1``. The supported policies are
the repo's kernelized schedulers:

* ``fifo`` — arrival order across jobs, ascending node id within a job
  (:class:`~repro.schedulers.base.ArbitraryTieBreak`);
* ``lpf``  — arrival order across jobs, maximum-height first within a job
  (:class:`~repro.schedulers.base.LongestPathTieBreak`);
* ``srpt`` — ascending ``(remaining subjobs, arrival)`` across jobs.

Ready nodes within a job are ordered by the same encoded key as the
batch engine's priority commits — ``dense_rank(priority) * n + node``, an
int64 key lexicographic in ``(priority, node)``, from the shared
:func:`~repro.core.util.encode_priorities` — so a mid-job truncation is a
prefix slice, and the property suite pins the streaming run bit-identical
to ``simulate`` on any materialized prefix.

Every live job is packed in one resident
:class:`~repro.streaming.arena.StreamArena` SoA, and the whole live
frontier is one flat array in policy order (jobs by job key, then nodes
by in-job key), so a step commits the prefix ``front[:m_t]``, gathers
its children in one ``csr_children`` pass, and re-sorts only the jobs it
touched. On top of it, **epoch macro-stepping** detects windows where
every walk is forced — no arrival lands before ``t + Δt``, granted
capacity is constant and covers the whole frontier, every live DAG is an
out-forest, and every frontier chain runs at least ``Δt`` more steps —
and commits all ``Δt`` steps as one ``macro_fill`` block write,
reconstructing the per-step metrics exactly (see
:meth:`~repro.streaming.metrics.StreamMetrics.note_macro`). The property
suite pins the engine to ``simulate`` on per-job flows, retirement
order, and every summary field.

Crash safety: :meth:`StreamingEngine.snapshot` captures the full logical
state — arrival cursor, per-live-job done masks, metrics accumulators —
and :meth:`StreamingEngine.from_snapshot` rebuilds the scheduler state
from it (frontiers and indegrees are *recomputed* from done mask + DAG,
the same reconstruct-from-committed-prefix discipline the engine's
crash/restart path uses for :class:`~repro.faults.FaultInjector`). The
engine itself reads no wall clock and draws no entropy, so a restored run
replays the exact step sequence of an uninterrupted one.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional

import numpy as np

from ..core import kernels
from ..core.availability import AvailabilityLike, AvailabilityTrace, as_trace
from ..core.exceptions import ConfigurationError, SimulationError
from ..core.job import Job
from ..core.simulator import EngineStats
from ..core.util import Array, encode_priorities
from ..schedulers.base import ArbitraryTieBreak, LongestPathTieBreak, TieBreak
from ..workloads.arrivals import ArrivalSource
from .arena import SRPT_INDEX_LIMIT, SRPT_REMAINING_LIMIT, StreamArena
from .metrics import StreamMetrics

__all__ = [
    "STREAM_POLICIES",
    "STREAM_SNAPSHOT_VERSION",
    "StreamStallError",
    "StreamingEngine",
]

_INT = np.int64
_EMPTY = np.empty(0, dtype=_INT)

#: Snapshot schema version (bumped on any incompatible layout change;
#: :meth:`StreamingEngine.from_snapshot` rejects other versions).
STREAM_SNAPSHOT_VERSION = 1

#: Policies the streaming engine can run (all kernelized, all pure).
STREAM_POLICIES = ("fifo", "lpf", "srpt")


class StreamStallError(SimulationError):
    """The stream stopped making progress (livelock / stalled step).

    Raised instead of spinning: the engine bounds the number of
    consecutive zero-commit steps it will tolerate while work is live
    (the availability trace's horizon plus one — beyond the explicit
    prefix the tail grants ``>= 1`` processor, so a longer streak can
    only mean a logic error or a pathological configuration).
    """


def _encode_priorities(dag: Any, release: int, tie_break: TieBreak) -> Optional[Array]:
    """Per-node encoded priority keys (``dense_rank * n + node``).

    Returns ``None`` for a constant kernel (FIFO/arbitrary) — callers
    then use the node ids themselves as keys, so decoding is uniformly
    ``key % n``.
    """
    kernel = tie_break.priority_kernel(Job(dag, release))
    if kernel is None:  # pragma: no cover - every stream policy is kernelized
        raise ConfigurationError(
            "streaming policies require a priority kernel "
            f"({type(tie_break).__name__} returned None)"
        )
    return encode_priorities(np.asarray(kernel, dtype=_INT))


class StreamingEngine:
    """Incremental scheduler over an :class:`ArrivalSource`.

    Parameters
    ----------
    source:
        The arrival stream (index-pure; see :mod:`repro.workloads.arrivals`).
    m:
        Processor count (capacity ceiling when a trace is given).
    policy:
        One of :data:`STREAM_POLICIES`.
    availability:
        Optional fluctuating allocation (trace or int sequence, as for
        :func:`repro.core.simulate`).
    max_live_subjobs / max_live_jobs:
        Admission bounds: an arrival that would push the live window past
        either bound is **shed** — deterministically, newest-arrival-first
        (the arrival that overflows is the one rejected) — and counted in
        the metrics. ``None`` disables the bound.
    max_jobs:
        Stop pulling from the source after this many arrivals (admitted
        or shed); bounds an unbounded stream for finite runs.
    max_zero_commit_steps:
        Override the stall bound (consecutive zero-commit steps tolerated
        while jobs are live). Default: the availability horizon plus one.
    on_retire:
        Optional callback ``(job_index, flow)`` invoked as each job
        retires (tests and tick hooks; the engine stores nothing per
        retired job).
    """

    def __init__(
        self,
        source: ArrivalSource,
        m: int,
        *,
        policy: str = "fifo",
        availability: Optional[AvailabilityLike] = None,
        max_live_subjobs: Optional[int] = None,
        max_live_jobs: Optional[int] = None,
        max_jobs: Optional[int] = None,
        max_zero_commit_steps: Optional[int] = None,
        on_retire: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if m < 1:
            raise ConfigurationError("m must be >= 1")
        if policy not in STREAM_POLICIES:
            raise ConfigurationError(
                f"unknown stream policy {policy!r}; choose from {STREAM_POLICIES}"
            )
        for bound_name, bound in (
            ("max_live_subjobs", max_live_subjobs),
            ("max_live_jobs", max_live_jobs),
            ("max_jobs", max_jobs),
        ):
            if bound is not None and bound < 1:
                raise ConfigurationError(f"{bound_name} must be >= 1 (or None)")
        self._source = source
        self.m = int(m)
        self._policy = policy
        self._tie_break: TieBreak = (
            LongestPathTieBreak() if policy == "lpf" else ArbitraryTieBreak()
        )
        self._trace: Optional[AvailabilityTrace] = (
            None if availability is None else as_trace(availability, self.m)
        )
        self._max_live_subjobs = max_live_subjobs
        self._max_live_jobs = max_live_jobs
        limits = [
            bound for bound in (source.n_jobs, max_jobs) if bound is not None
        ]
        self._job_limit: Optional[int] = min(limits) if limits else None
        if max_zero_commit_steps is not None and max_zero_commit_steps < 1:
            raise ConfigurationError("max_zero_commit_steps must be >= 1 (or None)")
        self._stall_limit = (
            max_zero_commit_steps
            if max_zero_commit_steps is not None
            else (self._trace.horizon + 1 if self._trace is not None else 1)
        )
        self._on_retire = on_retire
        self._arena = StreamArena(policy)

        self.t = 0
        self.metrics = StreamMetrics()
        self.stats = EngineStats()
        self._live_subjobs = 0
        self._next_index = 0
        self._next_release: Optional[int] = (
            source.gap_before(0)
            if self._job_limit is None or self._job_limit > 0
            else None
        )
        self._draining = False
        self._zero_commit_streak = 0

    # -- public state ----------------------------------------------------

    @property
    def live_jobs(self) -> int:
        return self._arena.live_jobs

    @property
    def live_subjobs(self) -> int:
        return self._live_subjobs

    @property
    def policy(self) -> str:
        return self._policy

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def complete(self) -> bool:
        """No live work and no further arrivals."""
        return self.live_jobs == 0 and self._next_release is None

    @property
    def fingerprint(self) -> str:
        """Stable hash of (source, m, policy, availability, bounds) —
        embedded in snapshots so a resume under a different configuration
        is rejected instead of silently diverging."""
        trace = (
            None
            if self._trace is None
            else (tuple(self._trace.values), self._trace.tail)
        )
        descriptor = (
            STREAM_SNAPSHOT_VERSION,
            self._source.fingerprint(),
            self.m,
            self._policy,
            trace,
            self._max_live_jobs,
            self._max_live_subjobs,
            self._job_limit,
        )
        return hashlib.sha256(repr(descriptor).encode("utf-8")).hexdigest()

    def begin_drain(self) -> None:
        """Stop admitting arrivals; the run ends once live work finishes.

        Idempotent. Used by the service layer's SIGTERM/SIGINT graceful
        shutdown: drain, emit the final tick, checkpoint, exit.
        """
        self._draining = True
        self._next_release = None

    # -- stepping --------------------------------------------------------

    def step(self, *, t_limit: Optional[int] = None) -> bool:
        """Advance one time step (or an epoch macro-window of them).

        Returns ``False`` once the stream is complete — no live work and
        no future arrivals — and ``True`` otherwise.

        ``t_limit`` caps how far an epoch macro-commit may advance ``t``
        (exclusive of nothing: the step never moves past ``t_limit``).
        The service layer passes the next tick/checkpoint boundary so a
        macro-stepped run crosses every boundary at exactly the same
        ``t`` values as a per-step run.
        """
        t = self.t
        self._admit(t)
        if self.live_jobs == 0:
            if self._next_release is None:
                return False
            # Idle gap: no live work until the next arrival.
            self.metrics.note_idle_skip(self._next_release - t)
            self.t = self._next_release
            return True
        capacity = (
            self.m if self._trace is None else self._trace.capacity_at(t)
        )
        dt = self._try_epoch(t, capacity, t_limit)
        if dt:
            # Metrics/stats for all dt steps were reconstructed in
            # _try_epoch; the window always commits work.
            self._zero_commit_streak = 0
            self.t = t + dt
            return True
        committed = self._commit(t, capacity)
        self.stats.stream_arena_steps += 1
        self.metrics.note_step(committed, capacity)
        self.stats.stream_steps += 1
        if committed:
            self.stats.steps += 1
            self.stats.selections += committed
            self._zero_commit_streak = 0
        else:
            self._zero_commit_streak += 1
            if self._zero_commit_streak > self._stall_limit:
                raise StreamStallError(self._stall_diagnosis(t, capacity))
        self.t = t + 1
        return True

    def run(self, *, max_steps: Optional[int] = None) -> bool:
        """Step until the stream completes; ``True`` when it did.

        ``max_steps`` bounds the number of :meth:`step` calls (idle skips
        count as one step), returning ``False`` if the budget runs out.
        """
        remaining = max_steps
        while remaining is None or remaining > 0:
            if not self.step():
                return True
            if remaining is not None:
                remaining -= 1
        return False

    # -- internals -------------------------------------------------------

    def _admit(self, t: int) -> None:
        while self._next_release is not None and self._next_release <= t:
            index = self._next_index
            dag = self._source.dag_at(index)
            n = int(dag.n)
            if self._would_overflow(n):
                self.metrics.note_shed(n)
                self.stats.stream_shed += 1
            else:
                self._admit_job(index, self._next_release, dag)
            self._advance_cursor()

    def _admit_job(
        self, index: int, release: int, dag: Any, done: Optional[Array] = None
    ) -> None:
        """Place one job in the arena (``done`` given: a restored job)."""
        arena = self._arena
        n = int(dag.n)
        if self._policy == "srpt" and (
            index >= SRPT_INDEX_LIMIT or n >= SRPT_REMAINING_LIMIT
        ):
            raise ConfigurationError(
                "srpt packs (remaining, index) into one int64 job key, "
                f"which bounds a stream to index < {SRPT_INDEX_LIMIT} and "
                f"n < {SRPT_REMAINING_LIMIT} (got index={index}, n={n}); "
                "srpt streams beyond those bounds are unsupported"
            )
        enc = _encode_priorities(dag, release, self._tie_break)
        arena.admit(index, release, dag, enc, done=done)
        self._live_subjobs += n
        if done is None:
            # Restore-path admissions (done mask given) re-seat jobs the
            # original run already counted; metrics come from the snapshot.
            self.metrics.note_admission(n, arena.live_jobs, self._live_subjobs)

    def _would_overflow(self, n: int) -> bool:
        if (
            self._max_live_jobs is not None
            and self.live_jobs + 1 > self._max_live_jobs
        ):
            return True
        return (
            self._max_live_subjobs is not None
            and self._live_subjobs + n > self._max_live_subjobs
        )

    def _advance_cursor(self) -> None:
        self._next_index += 1
        if self._draining or (
            self._job_limit is not None and self._next_index >= self._job_limit
        ):
            self._next_release = None
        else:
            assert self._next_release is not None
            self._next_release += self._source.gap_before(self._next_index)

    def _retire_slot(self, slot: int, finish: int) -> None:
        """Retire one completed arena slot."""
        arena = self._arena
        n = int(arena.slot_n[slot])
        index = int(arena.slot_index[slot])
        flow = finish - int(arena.slot_release[slot])
        self.metrics.record_completion(flow)
        self.metrics.note_retirement(n)
        self.stats.stream_retired += 1
        self._live_subjobs -= n
        arena.retire(slot)
        if self._on_retire is not None:
            self._on_retire(index, flow)

    def _commit(self, t: int, capacity: int) -> int:
        """One streaming step: commit the prefix ``front[:capacity]``.

        Walking jobs in policy order and granting whole frontiers until
        capacity runs out (the last job truncated in its in-job order)
        takes exactly a prefix of the policy-ordered ``front``. The step
        stamps the prefix, gathers its children over the window-global
        CSR, and re-seats the touched jobs' ready nodes ahead of the rest
        (see :meth:`StreamArena.advance`).
        """
        if capacity <= 0:
            return 0
        arena = self._arena
        taken = arena.front[:capacity]
        k = int(taken.size)
        if k == 0:  # pragma: no cover - live slots stay ready
            return 0
        slots, counts = arena.jobs_of(taken)
        arena.done_stamp[taken] = t + 1
        children = kernels.csr_children(arena.indptr, arena.indices, taken)
        dispatches = self.stats.kernel_dispatches
        dispatches["csr_children"] = dispatches.get("csr_children", 0) + 1
        newly = _EMPTY
        if children.size:
            # A committed node's child is never done (it still carries the
            # edge being decremented), so the update below cannot resurrect
            # finished work — including for slots retiring this step, whose
            # final frontier is all leaves.
            if arena.nonforest_live == 0:
                arena.indegree[children] -= 1
                newly = children[arena.indegree[children] == 0]
            else:
                np.subtract.at(arena.indegree, children, 1)
                newly = np.unique(children[arena.indegree[children] == 0])
        arena.advance(k, slots, counts, newly)
        fin = slots[arena.slot_n_done[slots] == arena.slot_n[slots]]
        for s in fin.tolist():  # policy order
            self._retire_slot(s, t + 1)
        return k

    def _capacity_run(self, t: int, bound: int) -> int:
        """Steps from ``t`` over which granted capacity is provably
        constant, capped at ``bound`` (the trace tail is constant
        forever, so beyond the horizon the cap is the only limit)."""
        if self._trace is None:
            return bound
        values = self._trace.values
        horizon = self._trace.horizon
        if t >= horizon:
            return bound
        now = values[t]
        dt = 1
        while dt < bound:
            step_t = t + dt
            upcoming = values[step_t] if step_t < horizon else self._trace.tail
            if upcoming != now:
                break
            dt += 1
        return dt

    def _try_epoch(self, t: int, capacity: int, t_limit: Optional[int]) -> int:
        """Commit an epoch macro-window; returns its length (0 = no window).

        A window ``[t, t + dt)`` qualifies when every per-step decision is
        forced, making the whole block one ``macro_fill`` write:

        * every live DAG is an out-forest, so interior chain commits hand
          exactly one successor to the next step's frontier (children have
          indegree 1 — no cross-chain coupling);
        * capacity is constant over the window and covers the whole
          frontier (``F <= c``), so every walk takes every ready node and
          policy order is irrelevant;
        * no arrival releases before ``t + dt``;
        * ``dt`` is at most the shortest chain remainder in the frontier,
          so run terminals commit only in the final column — the frontier
          holds exactly ``F`` chains all window, no job retires mid-window,
          and each step commits exactly ``F`` of ``c`` (which is what
          :meth:`StreamMetrics.note_macro` replays, bit-identically).
        """
        arena = self._arena
        if arena.nonforest_live:
            return 0
        front = arena.front
        total = int(front.size)
        if total == 0 or total > capacity:
            return 0
        bound = 2**62
        if self._next_release is not None:
            bound = min(bound, self._next_release - t)
        if t_limit is not None and t_limit > t:
            bound = min(bound, t_limit - t)
        if bound < 2:
            return 0
        dispatches = self.stats.kernel_dispatches
        dt = kernels.chain_min_dt(arena.steps_left, front, bound)
        # Counted here, not after the dt gate: an aborted window probe
        # still dispatched the kernel.
        dispatches["chain_min_dt"] = dispatches.get("chain_min_dt", 0) + 1
        dt = self._capacity_run(t, dt)
        if dt < 2:
            return 0
        nxt, term = kernels.macro_fill(
            arena.run_nodes,
            arena.run_pos,
            arena.steps_left,
            arena.done_stamp,
            front,
            t,
            dt,
        )
        dispatches["macro_fill"] = dispatches.get("macro_fill", 0) + 1
        slots, sizes = arena.jobs_of(front)
        arena.note_commits(slots, _INT(dt) * sizes)
        if term.size:
            children = kernels.csr_children(arena.indptr, arena.indices, term)
            dispatches["csr_children"] = dispatches.get("csr_children", 0) + 1
            if children.size:
                arena.indegree[children] -= 1
                newly = children[arena.indegree[children] == 0]
                nxt = np.concatenate([nxt, newly])
        # The window moved every chain head dt steps: the new front is the
        # continuation heads plus the newly ready children (at most
        # ``total`` entries), in policy order.
        arena.front = arena.policy_sort(nxt)
        fin_mask = arena.slot_n_done[slots] == arena.slot_n[slots]
        fin = slots[fin_mask]
        if fin.size:
            if self._policy == "srpt":
                # Final-step policy order among retiring jobs: remaining
                # equals the (window-constant) frontier size.
                fin = fin[np.lexsort((arena.slot_index[fin], sizes[fin_mask]))]
            for s in fin.tolist():
                self._retire_slot(s, t + dt)
        self.metrics.note_macro(total, capacity, dt)
        self.stats.steps += dt
        self.stats.selections += total * dt
        self.stats.stream_steps += dt
        self.stats.stream_epoch_steps += 1
        self.stats.stream_epoch_compressed += dt
        return dt

    def _stall_diagnosis(self, t: int, capacity: int) -> str:
        return (
            f"stream stalled at t={t}: {self._zero_commit_streak} consecutive "
            f"zero-commit steps (limit {self._stall_limit}) with "
            f"{self.live_jobs} live jobs / {self._live_subjobs} live subjobs, "
            f"capacity_now={capacity}, next_release={self._next_release}"
        )

    # -- snapshot / restore ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Versioned, picklable snapshot of the full logical state.

        Per live job only the index, release, and a packed done-bitmask
        are stored; DAGs, priority kernels, frontiers, and indegrees are
        re-derived on restore (the source is index-pure). Entries are in
        arrival order, which :meth:`from_snapshot` preserves.
        """
        return {
            "version": STREAM_SNAPSHOT_VERSION,
            "fingerprint": self.fingerprint,
            "t": self.t,
            "next_index": self._next_index,
            "next_release": self._next_release,
            "draining": self._draining,
            "zero_commit_streak": self._zero_commit_streak,
            "live_subjobs": self._live_subjobs,
            "live": self._arena.snapshot_live(),
            "metrics": self.metrics.state(),
        }

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict[str, Any],
        source: ArrivalSource,
        m: int,
        *,
        policy: str = "fifo",
        availability: Optional[AvailabilityLike] = None,
        max_live_subjobs: Optional[int] = None,
        max_live_jobs: Optional[int] = None,
        max_jobs: Optional[int] = None,
        max_zero_commit_steps: Optional[int] = None,
        on_retire: Optional[Callable[[int, int], None]] = None,
    ) -> "StreamingEngine":
        """Rebuild an engine mid-stream from :meth:`snapshot` output.

        The configuration must match the snapshotting run's — the
        embedded fingerprint is checked, so a resume under a different
        source/policy/capacity/bounds raises instead of mixing runs.
        """
        engine = cls(
            source,
            m,
            policy=policy,
            availability=availability,
            max_live_subjobs=max_live_subjobs,
            max_live_jobs=max_live_jobs,
            max_jobs=max_jobs,
            max_zero_commit_steps=max_zero_commit_steps,
            on_retire=on_retire,
        )
        version = snapshot.get("version")
        if version != STREAM_SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"unsupported stream snapshot version {version!r} "
                f"(this build reads version {STREAM_SNAPSHOT_VERSION})"
            )
        if snapshot.get("fingerprint") != engine.fingerprint:
            raise ConfigurationError(
                "stream snapshot fingerprint mismatch: the checkpoint was "
                "written under a different source/policy/capacity "
                "configuration; resume with the original settings"
            )
        engine.t = int(snapshot["t"])
        engine._next_index = int(snapshot["next_index"])
        next_release = snapshot["next_release"]
        engine._next_release = None if next_release is None else int(next_release)
        engine._draining = bool(snapshot["draining"])
        engine._zero_commit_streak = int(snapshot["zero_commit_streak"])
        engine.metrics = StreamMetrics.from_state(snapshot["metrics"])
        for entry in snapshot["live"]:
            engine._restore_live(entry)
        if engine._live_subjobs != int(snapshot["live_subjobs"]):
            raise ConfigurationError(
                "stream snapshot is inconsistent: restored live-subjob "
                f"count {engine._live_subjobs} != recorded "
                f"{snapshot['live_subjobs']} (source changed under the "
                "checkpoint?)"
            )
        return engine

    def _restore_live(self, entry: dict[str, Any]) -> None:
        index = int(entry["index"])
        dag = self._source.dag_at(index)
        if int(dag.n) != int(entry["n"]):
            raise ConfigurationError(
                f"stream snapshot is inconsistent: job {index} has "
                f"{dag.n} nodes now but {entry['n']} at checkpoint time "
                "(source changed under the checkpoint)"
            )
        done = np.unpackbits(
            np.frombuffer(entry["done"], dtype=np.uint8), count=int(dag.n)
        ).astype(bool)
        self._admit_job(index, int(entry["release"]), dag, done=done)
