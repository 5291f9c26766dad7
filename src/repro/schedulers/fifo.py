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

Bookkeeping is O(log n) amortized per event: a job enters the sorted
unfinished list (an append, or ``bisect.insort`` on out-of-order ids) with
the first ready frontier it receives, and job completions use lazy
deletion with periodic compaction instead of an O(n) ``list.remove`` per
finished job. A crash rebuild replays every released job and re-delivers
each unfinished one's frontier; FIFO recounts a job's remaining work from
that frontier, so a finished job never re-enters the walk.

Each job's ready subjobs wait in a :class:`~repro.schedulers.base.ReadyHeap`
ordered by the tie-break's ``key()``. FIFO is a list rule:
:meth:`FIFOScheduler.list_rule` names the arrival walk and the
tie-break's priority kernel, and when the tie-break has one, with no
observer or fault injector attached, the engine runs the whole instance
itself (forced and truncated steps alike, with chain-run macro-steps on
out-forests) and never dispatches the scheduler
(``docs/engine-internals.md``). The rule's walk and the dispatched
:meth:`~FIFOScheduler.select`'s come from one attribute, so SRPT
(:class:`~repro.schedulers.srpt.SRPTScheduler`) is this class with the
other walk.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import ListRule, Scheduler, Selection
from ..core.util import Array
from .base import ArbitraryTieBreak, ReadyHeap, TieBreak, _unfinished_work

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

    #: The job walk of :meth:`list_rule` and :meth:`select`: SRPT's
    #: ``(unfinished, job id)`` when True, arrival order otherwise.
    _by_remaining_work = False

    def __init__(
        self,
        tie_break: Optional[TieBreak] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.tie_break = tie_break if tie_break is not None else ArbitraryTieBreak()
        self._seed = seed
        # Walking by remaining work needs each job's size: clairvoyant.
        self.clairvoyant = self.tie_break.clairvoyant or self._by_remaining_work
        self._heaps: list[Optional[ReadyHeap]] = []
        self._unfinished: list[int] = []
        self._n_finished = 0
        self._remaining: Array = np.empty(0, dtype=np.int64)

    @property
    def name(self) -> str:
        return f"FIFO[{self.tie_break.name}]"

    def list_rule(self) -> ListRule:
        """This scheduler's walk, with the tie-break's priority kernel as
        node priorities (a tie-break without one is dispatched every
        step)."""
        return ListRule(self.tie_break.priority_kernel, self._by_remaining_work)

    def reset(self, instance: Instance, m: int) -> None:
        self.tie_break.reset(self._seed)
        self._heaps = [None] * len(instance)
        # Job ids are assigned in (release, submission) order by Instance, so
        # ascending id *is* FIFO arrival order.
        self._unfinished = []
        self._n_finished = 0
        self._remaining = np.zeros(len(instance), dtype=np.int64)

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        self._heaps[job_id] = ReadyHeap(job, self.tie_break)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        heap = self._heaps[job_id]
        assert heap is not None, "ready nodes for a job that never arrived"
        if self._remaining[job_id] == 0:
            # The job's first frontier since its arrival or a crash
            # rebuild: count its work from there and enter it in the walk.
            # A replayed job that gets no frontier has finished.
            self._remaining[job_id] = _unfinished_work(heap.job.dag, nodes)
            # Frontiers come in release order, which is id order except
            # for same-time ties — append when possible, insort otherwise.
            if not self._unfinished or job_id > self._unfinished[-1]:
                self._unfinished.append(job_id)
            else:
                insort(self._unfinished, job_id)
        heap.push_all(nodes)

    def select(self, t: int, capacity: int) -> Selection:
        selection: list[tuple[int, int]] = []
        remaining = self._remaining
        walk = self._unfinished
        if self._by_remaining_work:
            # SRPT's walk: a stable sort of the id-sorted list by remaining
            # work; lazily deleted jobs (0 left) sort first and are skipped.
            walk = sorted(walk, key=remaining.__getitem__)
        for job_id in walk:
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
