"""FIFO scheduling with pluggable intra-job tie-breaking.

The paper's FIFO (Section 3, "FIFO in DAGs"): at each time ``t`` schedule an
arbitrary set of ready subjobs subject to (1) if fewer than ``m`` subjobs are
ready, schedule all of them, and (2) a ready subjob may only be skipped in
favour of subjobs that arrived no later.

This implementation satisfies both constraints by construction: it walks
unfinished jobs in arrival order, taking as many ready subjobs from each as
capacity allows; *which* subjobs are taken when a job is truncated is decided
by the :class:`~repro.schedulers.base.TieBreak` policy — exactly the
"intra-job scheduling" knob the paper shows is decisive (Sections 1 and 4).

Bookkeeping is O(log n) amortized per event: arrivals append (or
``bisect.insort`` on out-of-order ids) into the sorted unfinished list, and
job completions use lazy deletion with periodic compaction instead of an
O(n) ``list.remove`` per finished job.

Two vectorized layers sit on top (``docs/engine-internals.md``):

* ready structures come from :func:`~repro.schedulers.base.make_ready_queue`
  — a :class:`~repro.schedulers.base.BucketReadyQueue` whenever the
  tie-break has a priority kernel, the pure-Python
  :class:`~repro.schedulers.base.ReadyHeap` otherwise; and
* :meth:`FIFOScheduler.frontier_priorities` hands the engine a flat kernel
  over all jobs whenever the tie-break is pure and has one. That makes
  FIFO a list rule: with no observer or fault injector attached the engine
  runs the whole instance itself (forced and truncated steps alike, with
  chain-run macro-steps on out-forests) and never dispatches the
  scheduler.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import Scheduler, Selection
from ..core.util import Array
from .base import (
    ArbitraryTieBreak,
    ReadyQueue,
    TieBreak,
    flat_priority_kernel,
    make_ready_queue,
)

__all__ = ["FIFOScheduler"]


class FIFOScheduler(Scheduler):
    """First-In-First-Out over jobs; ``tie_break`` within a job.

    Parameters
    ----------
    tie_break:
        Intra-job selection policy. Defaults to
        :class:`~repro.schedulers.base.ArbitraryTieBreak` (the paper's
        "arbitrary FIFO", and the policy its Section 4 lower bound defeats).
    seed:
        Forwarded to ``tie_break.reset`` (relevant for random tie-breaks).
    """

    def __init__(
        self,
        tie_break: Optional[TieBreak] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.tie_break = tie_break if tie_break is not None else ArbitraryTieBreak()
        self._seed = seed
        self.clairvoyant = self.tie_break.clairvoyant
        self._heaps: list[Optional[ReadyQueue]] = []
        self._unfinished: list[int] = []
        self._n_finished = 0
        self._remaining: Array = np.empty(0, dtype=np.int64)

    @property
    def name(self) -> str:
        return f"FIFO[{self.tie_break.name}]"

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Concatenated per-job priority kernels: FIFO's walk with this
        tie-break as a list rule. ``None`` (dispatch every step) for an
        impure tie-break or a custom ``key()``-only one."""
        return flat_priority_kernel(self.tie_break, instance)

    def reset(self, instance: Instance, m: int) -> None:
        self.tie_break.reset(self._seed)
        self._heaps = [None] * len(instance)
        # Job ids are assigned in (release, submission) order by Instance, so
        # ascending id *is* FIFO arrival order.
        self._unfinished = []
        self._n_finished = 0
        self._remaining = np.array([j.work for j in instance], dtype=np.int64)

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        self._heaps[job_id] = make_ready_queue(job, self.tie_break)
        # Arrivals come in release order, which is id order except for
        # same-time ties — append when possible, insort otherwise.
        if not self._unfinished or job_id > self._unfinished[-1]:
            self._unfinished.append(job_id)
        else:
            insort(self._unfinished, job_id)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        heap = self._heaps[job_id]
        assert heap is not None, "ready nodes for a job that never arrived"
        heap.push_all(nodes)

    def select(self, t: int, capacity: int) -> Selection:
        selection: list[tuple[int, int]] = []
        remaining = self._remaining
        for job_id in self._unfinished:
            if remaining[job_id] == 0:  # lazily deleted
                continue
            if capacity <= 0:
                break
            heap = self._heaps[job_id]
            assert heap is not None, "unfinished job without a heap"
            taken = heap.pop_up_to(capacity)
            capacity -= len(taken)
            selection.extend((job_id, node) for node in taken)
            remaining[job_id] -= len(taken)
            if remaining[job_id] == 0:
                self._n_finished += 1
        # Compact once dead entries dominate, keeping walks amortized O(live).
        if self._n_finished and self._n_finished * 2 >= len(self._unfinished):
            self._unfinished = [j for j in self._unfinished if remaining[j] > 0]
            self._n_finished = 0
        return selection
