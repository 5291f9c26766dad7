"""Randomized work stealing — the scheduler real fork-join runtimes use.

The paper's introduction motivates the model with Cilk/TBB-style runtimes,
whose underlying scheduler is randomized work stealing (Blumofe–Leiserson
1999; multiprogrammed variant Arora–Blumofe–Plaxton 1998). This module
provides a faithful *simulation-level* work-stealing policy as a baseline:

* each of the ``m`` processors owns a deque of ready subjobs;
* when a subjob completes, its newly enabled children are pushed onto the
  bottom of the executing processor's deque (preserving the depth-first
  "busy-leaves" behaviour that makes work stealing efficient);
* an idle processor pops from the bottom of its own deque, or *steals from
  the top* of a uniformly random victim's deque;
* roots of a newly arrived job are pushed to a random processor (one whole
  job enters at one worker, as when a program is submitted to a runtime).

Processor identity is irrelevant to the model's objective (Section 3), but
it is what defines this policy, so the scheduler tracks it internally and
still emits plain ``(job, node)`` selections.

Work stealing is *work-conserving up to steal misses*: a processor that
fails ``steal_attempts`` random steals in a step stays idle even if work
exists elsewhere — exactly the slack the ABP analysis charges for. Setting
``steal_attempts >= m`` with ``deterministic_fallback=True`` recovers a
fully work-conserving variant.

Implementation notes
--------------------

Deques hold *global* node ids over the instance CSR; ownership of
newly-enabled children is one flat Python list indexed by gid (``-1`` =
unowned, claimed by the arrival's entry worker). Delivery and selection
touch a handful of nodes per call, so the ownership tables are Python
lists built once in ``reset``: a list lookup is several times cheaper than
a NumPy call on one to three elements. For out-forest instances ownership
resolves lazily: each pick records the worker that ran it, and delivery
looks up the executing worker of the sole parent (general DAGs walk each
pick's CSR row and register its children eagerly). Per step the policy
does one batched RNG draw for all idle workers' steal probes, and decodes
its gid picks into ``(job, node)`` pairs by bisecting the job offsets.

Within a step, every worker first pops its own deque and only then the
idle ones steal (in worker order, probes drawn from one batch per step).
This is the natural sequentialization of "busy workers keep their own
work; idle workers steal concurrently"; per-seed streams differ from a
strictly interleaved obtain loop, but the policy and its guarantees are
unchanged — runs remain deterministic and reproducible per seed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import Scheduler, Selection
from ..core.util import Array

__all__ = ["WorkStealingScheduler"]

_INT = np.int64


class WorkStealingScheduler(Scheduler):
    """Randomized work stealing over ``m`` simulated workers.

    Parameters
    ----------
    seed:
        RNG seed (victim selection and job placement).
    steal_attempts:
        Random victims probed per idle worker per step (default 2).
    deterministic_fallback:
        If True, an idle worker whose random probes all failed scans all
        deques deterministically — making the policy work-conserving (and
        the ``check_work_conserving`` invariant applicable).
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        *,
        steal_attempts: int = 2,
        deterministic_fallback: bool = False,
    ) -> None:
        if steal_attempts < 1:
            raise ValueError("steal_attempts must be >= 1")
        self._seed = seed
        self.steal_attempts = int(steal_attempts)
        self.deterministic_fallback = bool(deterministic_fallback)

    @property
    def name(self) -> str:
        kind = "wc" if self.deterministic_fallback else f"p{self.steal_attempts}"
        return f"WorkSteal[{kind}]"

    def reset(self, instance: Instance, m: int) -> None:
        self._rng = np.random.default_rng(self._seed)
        self._instance = instance
        self._m = m
        flat = instance.flat_graph
        self._offsets: list[int] = flat.offsets.tolist()
        self._deques: list[deque[int]] = [deque() for _ in range(m)]
        n = flat.n_nodes
        self._parent_of: Optional[list[int]] = None
        if flat.all_out_forests:
            # Forests: each node has one parent, so child ownership is
            # "worker that ran my parent". Each pick writes ``_ran_by`` (k
            # writes per step) instead of walking its children. Roots point
            # at the sentinel slot ``n``, which stays -1 (= entry worker).
            parent_of = np.full(n + 1, n, dtype=_INT)
            parent_of[flat.child_indices] = np.repeat(
                np.arange(n, dtype=_INT), np.diff(flat.child_indptr)
            )
            self._parent_of = parent_of.tolist()
            self._ran_by = [-1] * (n + 1)
        else:
            self._child_indptr: list[int] = flat.child_indptr.tolist()
            self._child_indices: list[int] = flat.child_indices.tolist()
            #: gid -> worker that executed its most recent completed parent
            #: (-1: no parent executed yet; lands at the entry worker).
            self._owner = [-1] * n
        self._entry_worker = 0
        self._steals = 0
        self._steal_misses = 0

    # -- event handlers ----------------------------------------------------

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        # The whole job enters at one random worker.
        self._entry_worker = int(self._rng.integers(0, self._m))

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        base = self._offsets[job_id]
        gids = [base + v for v in nodes.tolist()]
        parent_of = self._parent_of
        if parent_of is not None:
            ran_by = self._ran_by
            owners = [ran_by[parent_of[gid]] for gid in gids]
        else:
            owner = self._owner
            owners = [owner[gid] for gid in gids]
        deques = self._deques
        entry = self._entry_worker
        for gid, worker in zip(gids, owners):
            deques[worker if worker >= 0 else entry].append(gid)  # bottom

    # -- per-step policy -----------------------------------------------------

    def select(self, t: int, capacity: int) -> Selection:
        deques = self._deques
        m = self._m
        picked: list[int] = []
        workers: list[int] = []
        idle: list[int] = []
        add_pick = picked.append
        add_worker = workers.append
        for worker in range(m if m <= capacity else capacity):
            own = deques[worker]
            if own:
                add_pick(own.pop())  # bottom: depth-first on own work
                add_worker(worker)
            else:
                idle.append(worker)
        if idle:
            # One batched draw covers every idle worker's probes this step.
            probes = self._rng.integers(
                0, m, size=(len(idle), self.steal_attempts)
            )
            for worker, row in zip(idle, probes.tolist()):
                got = -1
                for victim in row:
                    if victim != worker and deques[victim]:
                        self._steals += 1
                        got = deques[victim].popleft()  # steal from the top
                        break
                    self._steal_misses += 1
                if got < 0 and self.deterministic_fallback:
                    for victim in range(m):
                        if victim != worker and deques[victim]:
                            got = deques[victim].popleft()
                            break
                if got >= 0:
                    add_pick(got)
                    add_worker(worker)
        # Children enabled by these executions will belong to their worker.
        if self._parent_of is not None:
            # Forests resolve ownership lazily at delivery (on_nodes_ready)
            # from the executing worker recorded here.
            ran_by = self._ran_by
            for gid, worker in zip(picked, workers):
                ran_by[gid] = worker
        else:
            # General DAGs pre-register through the CSR; the engine only
            # delivers the children that actually become ready. A child with
            # several parents ends up owned by the last parent to register —
            # fine for a baseline policy.
            indptr = self._child_indptr
            indices = self._child_indices
            owner = self._owner
            for gid, worker in zip(picked, workers):
                for kid in indices[indptr[gid] : indptr[gid + 1]]:
                    owner[kid] = worker
        offsets = self._offsets
        selection: list[tuple[int, int]] = []
        for gid in picked:
            job = bisect_right(offsets, gid) - 1
            selection.append((job, gid - offsets[job]))
        return selection

    # -- introspection -------------------------------------------------------

    @property
    def steal_count(self) -> int:
        """Successful steals so far (for experiment tables)."""
        return self._steals

    @property
    def steal_miss_count(self) -> int:
        """Failed steal probes so far."""
        return self._steal_misses
