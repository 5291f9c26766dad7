"""Generic work-conserving baselines.

Any scheduler that never idles a processor while ready subjobs exist has the
*span-reduction property* the paper discusses in Section 1 (idling implies
every unfinished job's remaining span shrinks). These baselines bracket FIFO
in the experiment tables:

* :class:`GlobalArbitraryScheduler` — fill processors with the smallest
  ready (job, node) pairs; since job ids follow release order, this is
  FIFO with the arbitrary (ascending node id) tie-break.
* :class:`RoundRobinScheduler` — rotate one subjob at a time over
  unfinished jobs (maximal fairness at the subjob level).
* :class:`RandomScheduler` — fill processors with a uniform random subset
  of ready subjobs.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.simulator import Scheduler, Selection
from ..core.util import Array
from .fifo import FIFOScheduler

__all__ = [
    "GlobalArbitraryScheduler",
    "RoundRobinScheduler",
    "RandomScheduler",
]


class GlobalArbitraryScheduler(FIFOScheduler):
    """Deterministic work-conserving fill: the ``capacity`` smallest ready
    ``(job id, node id)`` pairs. Job ids are in release order, so this is
    FIFO with :class:`~repro.schedulers.base.ArbitraryTieBreak`: it serves
    jobs oldest first, and within a job by ascending node id."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def name(self) -> str:
        return "Greedy[arbitrary]"


class RandomScheduler(Scheduler):
    """Work-conserving fill with a uniformly random ready subset."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed

    @property
    def name(self) -> str:
        return "Greedy[random]"

    def reset(self, instance: Instance, m: int) -> None:
        self._ready: set[tuple[int, int]] = set()
        self._rng = np.random.default_rng(self._seed)

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        self._ready.update((job_id, int(v)) for v in nodes)

    def select(self, t: int, capacity: int) -> Selection:
        pool = sorted(self._ready)
        if len(pool) > capacity:
            idx = self._rng.choice(len(pool), size=capacity, replace=False)
            pool = [pool[i] for i in idx]
        self._ready.difference_update(pool)
        return pool


class RoundRobinScheduler(Scheduler):
    """Deal processors one subjob at a time over unfinished jobs, rotating
    the starting job each step (subjob-level processor sharing)."""

    @property
    def name(self) -> str:
        return "RoundRobin"

    def reset(self, instance: Instance, m: int) -> None:
        self._ready: dict[int, list[int]] = {}
        self._cursor = 0

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        bucket = self._ready.setdefault(job_id, [])
        for v in nodes:
            heapq.heappush(bucket, int(v))

    def select(self, t: int, capacity: int) -> Selection:
        job_ids = sorted(jid for jid, bucket in self._ready.items() if bucket)
        if not job_ids:
            return []
        start = self._cursor % len(job_ids)
        order = job_ids[start:] + job_ids[:start]
        self._cursor += 1
        selection: list[tuple[int, int]] = []
        while len(selection) < capacity:
            progressed = False
            for job_id in order:
                if len(selection) >= capacity:
                    break
                bucket = self._ready[job_id]
                if bucket:
                    selection.append((job_id, heapq.heappop(bucket)))
                    progressed = True
            if not progressed:
                break
        return selection
