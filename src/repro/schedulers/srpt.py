"""Shortest-Remaining-Work-First — the ℓ1-optimizing foil to FIFO.

The paper's introduction contrasts the maximum-flow (ℓ∞) objective it
studies with average flow (ℓ1). The classical ℓ1 heuristic is SRPT-style
prioritization: always serve the job closest to finishing. It is the
perfect foil for FIFO in fairness experiments (E14): SRPT compresses mean
flow but *starves* large jobs, blowing up maximum flow — the reason the
paper calls FIFO "the right policy" for ℓ∞.

This scheduler orders jobs by (remaining work, arrival) and fills
processors job by job, with a pluggable intra-job tie-break like FIFO's.
It is clairvoyant in the weak sense of knowing remaining work (a
non-clairvoyant variant could use elapsed work — not modeled here).

List-rule path
--------------

SRPT's job order is *not* FIFO, but it is a pure function of engine
state: remaining work is exactly the engine's authoritative per-job
unfinished count. The scheduler therefore declares
:attr:`~repro.core.Scheduler.dynamic_job_order` and hands the engine its
walk (:meth:`~repro.core.Scheduler.fast_path_job_order`). With a
:attr:`~repro.schedulers.base.TieBreak.pure` tie-break that has a priority
kernel, :meth:`SRPTScheduler.frontier_priorities` returns the concatenated
kernels and SRPT is a list rule: the engine recomputes the (remaining
work, job id) walk each step from its own counts, commits whole frontiers
along it, resolves mid-job truncations with the kernel, and macro-steps
chain runs — ``select`` is never dispatched. Macro windows are sound
because the walk key is monotone: committed jobs' remaining work only
decreases while excluded jobs' stays constant, so the committed prefix
cannot be overtaken inside a window.

When the engine *does* dispatch (an impure or kernel-less tie-break, an
observer, or a fault injector), :meth:`SRPTScheduler.select` walks jobs by
(remaining work, id) over per-job
:func:`~repro.schedulers.base.make_ready_queue` structures — FIFO's ready
structure, which pops in exactly the kernel order when one exists.
"""

from __future__ import annotations

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

__all__ = ["SRPTScheduler"]

_INT = np.int64


class SRPTScheduler(Scheduler):
    """Serve jobs in order of least remaining work (ties: arrival order).

    Parameters
    ----------
    tie_break:
        Intra-job selection policy (default
        :class:`~repro.schedulers.base.ArbitraryTieBreak`).
    seed:
        Forwarded to ``tie_break.reset`` (relevant for random tie-breaks).
    """

    clairvoyant = True
    dynamic_job_order = True

    def __init__(
        self,
        tie_break: Optional[TieBreak] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.tie_break = tie_break if tie_break is not None else ArbitraryTieBreak()
        self._seed = seed
        self._heaps: list[Optional[ReadyQueue]] = []
        self._remaining: Array = np.empty(0, dtype=_INT)
        self._alive: list[int] = []

    @property
    def name(self) -> str:
        return f"SRPT[{self.tie_break.name}]"

    def frontier_priorities(self, instance: Instance) -> Optional[Array]:
        """Concatenated per-job priority kernels: SRPT's walk with this
        tie-break as a list rule. ``None`` (dispatch every step) for an
        impure tie-break or a custom ``key()``-only one."""
        return flat_priority_kernel(self.tie_break, instance)

    def fast_path_job_order(
        self, jobs: list[int], unfinished: Array
    ) -> list[int]:
        """The SRPT walk: least remaining work first, ties by job id —
        computed from the engine's authoritative unfinished counts, which
        equal this scheduler's own remaining-work counters at every
        dispatch boundary."""
        return sorted(jobs, key=lambda j: (int(unfinished[j]), j))

    def reset(self, instance: Instance, m: int) -> None:
        self.tie_break.reset(self._seed)
        self._heaps = [None] * len(instance)
        self._remaining = np.array([j.work for j in instance], dtype=_INT)
        self._alive = []

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        self._heaps[job_id] = make_ready_queue(job, self.tie_break)
        self._alive.append(job_id)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        heap = self._heaps[job_id]
        assert heap is not None, "ready nodes for a job that never arrived"
        heap.push_all(nodes)

    def select(self, t: int, capacity: int) -> Selection:
        order = sorted(self._alive, key=lambda j: (int(self._remaining[j]), j))
        selection: list[tuple[int, int]] = []
        finished: list[int] = []
        for job_id in order:
            if capacity <= 0:
                break
            heap = self._heaps[job_id]
            assert heap is not None, "alive job without a heap"
            taken = heap.pop_up_to(capacity)
            capacity -= len(taken)
            selection.extend((job_id, node) for node in taken)
            self._remaining[job_id] -= len(taken)
            if self._remaining[job_id] == 0:
                finished.append(job_id)
        for job_id in finished:
            self._alive.remove(job_id)
        return selection
