"""Algorithm 𝒜: the clairvoyant O(1)-competitive out-forest scheduler.

Section 5.3 (semi-batched, knows OPT) and Section 5.4 (general arrivals via
batching + guess-and-double) of the paper.

The structure of 𝒜, per the paper:

* Jobs arriving at the same (batched) time are treated as one merged
  out-forest job — a *cohort* here.
* When a cohort arrives, 𝒜 computes its LPF schedule on ``m/α`` processors
  (``S_i``). For its first ``2·(OPT/2) = OPT`` time units — the *head* — the
  cohort is executed *verbatim* from ``S_i`` on a dedicated group of ``m/α``
  processors (phase 1 in its first window, phase 2 in its second).
* Afterwards the unprocessed remainder of ``S_i`` — the *tail*, which by
  Lemma 5.2 is a fully packed ``m/α``-wide rectangle — is replayed by the
  Most-Children algorithm. Tails of unfinished cohorts are served in FIFO
  order, each receiving ``m_t = min(remaining processors, m/α)``.

Integrality: the paper assumes ``α | m`` and ``2 | OPT``. We use
``group = m // α`` and ``half = ceil(OPT / 2)`` and require arrivals at
multiples of ``half``; this only perturbs constants (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import Scheduler, Selection
from ..core.util import Array
from .lpf import lpf_schedule
from .mc import MostChildrenReplayer

__all__ = [
    "SemiBatchedOutTreeScheduler",
    "GeneralOutTreeScheduler",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
]

#: Constants fixed by the paper's analysis (Theorem 5.6): α = 4, β = 258.
DEFAULT_ALPHA = 4
DEFAULT_BETA = 258


@dataclass
class _Member:
    """One original job's contribution to a cohort.

    ``local_ids[k]`` is the node id, in the original job's DAG, of the
    cohort sub-DAG node ``k`` (restarted cohorts carry only the unexecuted
    remainder of a job, so this mapping is not the identity in general).
    """

    job_id: int
    local_ids: Array


@dataclass
class _Cohort:
    """A merged batch of jobs with a precomputed LPF schedule."""

    release: int
    members: list[_Member]
    dag: DAG
    steps: list[Array] = field(default_factory=list)  # LPF steps (union ids)
    remaining: int = 0
    replayer: Optional[MostChildrenReplayer] = None
    head_steps: int = 0

    def __post_init__(self) -> None:
        # Union id -> job id and original node id, built once: to_global
        # runs for every cohort node the scheduler picks.
        self._job_ids: list[int] = []
        self._node_ids: list[int] = []
        for member in self.members:
            self._job_ids += [member.job_id] * member.local_ids.size
            self._node_ids += member.local_ids.tolist()

    def to_global(self, union_node: int) -> tuple[int, int]:
        """Map a union node id to ``(job_id, original node id)``."""
        return self._job_ids[union_node], self._node_ids[union_node]

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def ensure_replayer(self) -> MostChildrenReplayer:
        """Build the MC replayer over the tail (steps beyond the head)."""
        if self.replayer is None:
            tail = self.steps[self.head_steps :]
            self.replayer = MostChildrenReplayer(tail, self.dag)
        return self.replayer


class _OutTreeBase(Scheduler):
    """Shared machinery: cohort execution (head replay + MC tails) and a
    mirror of the engine's ready/done state for readiness filtering."""

    clairvoyant = True

    def __init__(self, alpha: int = DEFAULT_ALPHA) -> None:
        if alpha < 3:
            raise ConfigurationError(
                "alpha must be >= 3 so head phases leave processors for tails "
                "(the paper requires alpha > 2 and uses alpha = 4)"
            )
        self.alpha = int(alpha)
        self._group = 0
        self._m = 0
        self._cohorts: list[_Cohort] = []
        self._ready: list[set[int]] = []
        self._done: list[Array] = []
        self._instance: Optional[Instance] = None

    # -- engine mirror --------------------------------------------------

    def reset(self, instance: Instance, m: int) -> None:
        if m < self.alpha:
            raise ConfigurationError(
                f"m={m} must be at least alpha={self.alpha} so that "
                "m // alpha >= 1 processors per group"
            )
        if not instance.is_out_forest:
            raise ConfigurationError(
                "Algorithm A is defined for out-forest jobs (Section 5)"
            )
        self._instance = instance
        self._m = m
        self._group = m // self.alpha
        self._cohorts = []
        self._ready = [set() for _ in instance]
        self._done = [np.zeros(j.dag.n, dtype=bool) for j in instance]

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        self._ready[job_id].update(int(v) for v in nodes)

    def _mark_selected(self, selection: list[tuple[int, int]]) -> None:
        for job_id, node in selection:
            self._ready[job_id].discard(node)
            self._done[job_id][node] = True

    # -- cohort construction ---------------------------------------------

    def _build_cohort(self, release: int, members: list[_Member], half: int) -> _Cohort:
        """Merge member sub-DAGs, compute LPF on m/alpha processors, and set
        the head length to ``2 * half`` steps (>= OPT time units)."""
        assert self._instance is not None, "reset() runs before cohorts form"
        dags: list[DAG] = []
        for member in members:
            job = self._instance[member.job_id]
            if member.local_ids.size == job.dag.n and np.array_equal(
                member.local_ids, np.arange(job.dag.n)
            ):
                dags.append(job.dag)
            else:
                sub, ids = job.dag.induced_subgraph(member.local_ids)
                member.local_ids = ids
                dags.append(sub)
        union, _ = DAG.disjoint_union(dags)
        cohort = _Cohort(release=release, members=members, dag=union)
        if union.n:
            sched = lpf_schedule(union, self._group)
            # Single job released at 0: steps occupy t = 1..makespan densely.
            cohort.steps = [
                nodes for _, nodes in sched.job_steps(0)
            ]
            cohort.remaining = union.n
        cohort.head_steps = min(2 * half, len(cohort.steps))
        return cohort

    # -- the per-step selection rule ---------------------------------------

    def _select_from_cohorts(self, t: int) -> list[tuple[int, int]]:
        selection: list[tuple[int, int]] = []
        used = 0
        # Phases 1 and 2: cohorts still inside their head window execute the
        # corresponding LPF step verbatim on their dedicated group.
        for cohort in self._cohorts:
            if cohort.finished or t < cohort.release:
                continue
            k = t - cohort.release  # 0-based relative step index
            if k < cohort.head_steps:
                nodes = cohort.steps[k]
                for u in nodes:
                    pair = cohort.to_global(int(u))
                    selection.append(pair)
                cohort.remaining -= len(nodes)
                used += len(nodes)
        # Phase 3: FIFO over cohorts past their head window, each replayed by
        # MC with m_t = min(remaining processors, m/alpha).
        remaining = self._m - used
        for cohort in self._cohorts:
            if remaining <= 0:
                break
            if cohort.finished or t < cohort.release + cohort.head_steps:
                continue
            replayer = cohort.ensure_replayer()
            if replayer.finished:
                continue
            m_t = min(remaining, self._group)

            def _is_ready(union_node: int, cohort: _Cohort = cohort) -> bool:
                job_id, node = cohort.to_global(union_node)
                return node in self._ready[job_id]

            picks = replayer.select(m_t, _is_ready)
            for u in picks:
                selection.append(cohort.to_global(u))
            cohort.remaining -= len(picks)
            remaining -= len(picks)
        self._mark_selected(selection)
        return selection


class SemiBatchedOutTreeScheduler(_OutTreeBase):
    """Section 5.3: super-clairvoyant 𝒜 for semi-batched instances.

    Requires a priori knowledge of ``opt`` (the optimal maximum flow) and
    that every release time is a multiple of ``half = ceil(opt / 2)``.
    Theorem 5.6: with ``alpha = 4`` the maximum flow is at most
    ``β·OPT/2 = 129·OPT``.

    Parameters
    ----------
    opt:
        The optimal maximum flow of the instance (or any upper bound —
        using a larger value only loosens the guarantee proportionally).
    alpha:
        Processor-group divisor (paper: 4).
    beta:
        Guarantee constant (paper: 258); informational — it does not affect
        scheduling decisions, only the bound ``beta * opt / 2``.
    """

    def __init__(
        self, opt: int, alpha: int = DEFAULT_ALPHA, beta: int = DEFAULT_BETA
    ) -> None:
        super().__init__(alpha=alpha)
        if opt < 1:
            raise ConfigurationError("opt must be a positive integer")
        self.opt = int(opt)
        self.beta = int(beta)
        self.half = -(-self.opt // 2)  # ceil(opt / 2)

    @property
    def name(self) -> str:
        return f"AlgA-semibatched[opt={self.opt},a={self.alpha}]"

    def flow_guarantee(self) -> int:
        """The Theorem 5.6 bound on any job's flow: ``beta * opt / 2``."""
        return -(-self.beta * self.opt // 2)

    def reset(self, instance: Instance, m: int) -> None:
        super().reset(instance, m)
        if not instance.is_semi_batched(self.half):
            raise ConfigurationError(
                f"instance is not semi-batched: releases must be multiples of "
                f"half = ceil(opt/2) = {self.half}"
            )
        self._pending: dict[int, list[_Member]] = {}

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        member = _Member(job_id, np.arange(job.dag.n, dtype=np.int64))
        self._pending.setdefault(t, []).append(member)

    def select(self, t: int, capacity: int) -> Selection:
        # Form cohorts for any arrivals delivered since the last step.
        for release in sorted(self._pending):
            self._cohorts.append(
                self._build_cohort(release, self._pending[release], self.half)
            )
        self._pending.clear()
        self._cohorts.sort(key=lambda c: c.release)
        return self._select_from_cohorts(t)


class GeneralOutTreeScheduler(_OutTreeBase):
    """Section 5.4: the full clairvoyant algorithm for arbitrary arrivals.

    Combines two reductions on top of the semi-batched core:

    * **Batching** — jobs arriving in ``((i-1)·AOPT, i·AOPT]`` are delayed
      and merged into a cohort at ``i·AOPT`` (epoch-relative), making the
      input semi-batched for an optimal value of at most ``2·AOPT``.
    * **Guess-and-double** — ``AOPT`` starts at ``initial_guess`` and
      doubles whenever some cohort's flow (from enrollment) reaches
      ``beta * AOPT``, the Theorem 5.6 guarantee for the batched input; on
      doubling the scheduler *restarts*: the unexecuted remainders of all
      live cohorts re-enter as a fresh merged arrival.

    Theorem 5.7 bounds the competitive ratio of this combination by
    ``12 · 129 = 1548``; empirically (see EXPERIMENTS.md) the measured
    ratios are far smaller.

    Parameters
    ----------
    beta:
        Violation threshold multiplier. The paper's analysis needs
        ``beta > 256`` (with ``alpha = 4``); smaller values still yield a
        correct scheduler, just with a different (possibly better in
        practice) doubling cadence — E10 ablates this.
    """

    def __init__(
        self,
        alpha: int = DEFAULT_ALPHA,
        beta: int = DEFAULT_BETA,
        initial_guess: int = 1,
    ) -> None:
        super().__init__(alpha=alpha)
        if beta < 2:
            raise ConfigurationError("beta must be >= 2")
        if initial_guess < 1:
            raise ConfigurationError("initial_guess must be >= 1")
        self.beta = int(beta)
        self.initial_guess = int(initial_guess)

    @property
    def name(self) -> str:
        return f"AlgA[a={self.alpha},b={self.beta}]"

    def reset(self, instance: Instance, m: int) -> None:
        super().reset(instance, m)
        self.aopt = self.initial_guess
        self.epoch_start = 0
        self.n_restarts = 0
        self._waiting: list[_Member] = []  # enrolled at the next boundary
        self._waiting_release = 0

    # -- epoch helpers ---------------------------------------------------

    @property
    def half(self) -> int:
        """Window length of the current epoch (= AOPT; the batched input has
        optimal value at most 2·AOPT, so windows are OPT'/2 = AOPT)."""
        return self.aopt

    def _next_boundary(self, t: int) -> int:
        """Smallest epoch boundary >= t."""
        rel = t - self.epoch_start
        return self.epoch_start + (-(-rel // self.half)) * self.half

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        member = _Member(job_id, np.arange(job.dag.n, dtype=np.int64))
        self._enqueue(member, t)

    def _enqueue(self, member: _Member, t: int) -> None:
        boundary = self._next_boundary(t)
        if self._waiting and self._waiting_release != boundary:
            # A boundary passed without select() running (cannot happen:
            # select runs every step once any job is released), flush first.
            self._flush_waiting()
        self._waiting_release = boundary
        self._waiting.append(member)

    def _flush_waiting(self) -> None:
        if self._waiting:
            self._cohorts.append(
                self._build_cohort(self._waiting_release, self._waiting, self.half)
            )
            self._cohorts.sort(key=lambda c: c.release)
            self._waiting = []

    # -- guess-and-double ------------------------------------------------

    def _violated(self, t: int) -> bool:
        """True iff some live cohort's flow from enrollment reached the
        Theorem 5.6 guarantee ``beta * AOPT`` for the current guess."""
        threshold = self.beta * self.aopt
        return any(
            not c.finished and t - c.release >= threshold for c in self._cohorts
        )

    def _restart(self, t: int) -> None:
        """Double AOPT and re-enroll every live cohort's remainder as one
        fresh arrival at the start of the new epoch."""
        self.aopt *= 2
        self.n_restarts += 1
        self.epoch_start = t
        survivors: list[_Member] = []
        for cohort in self._cohorts:
            if cohort.finished:
                continue
            for member in cohort.members:
                job_id = member.job_id
                left = member.local_ids[~self._done[job_id][member.local_ids]]
                if left.size:
                    survivors.append(_Member(job_id, left))
        self._cohorts = [c for c in self._cohorts if c.finished]
        # Waiting jobs re-enroll under the new epoch geometry as well.
        waiting, self._waiting = self._waiting, []
        for member in survivors + waiting:
            self._enqueue(member, t)

    def select(self, t: int, capacity: int) -> Selection:
        if self._violated(t):
            self._restart(t)
        if self._waiting and t >= self._waiting_release:
            self._flush_waiting()
        return self._select_from_cohorts(t)
