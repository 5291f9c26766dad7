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
newly-enabled children is one flat int64 array indexed by gid (``-1`` =
unowned, claimed by the arrival's entry worker). For out-forest instances
ownership resolves lazily: selections record which worker ran each node
(one scatter), and delivery looks up the executing worker of the sole
parent — no per-step CSR child gather at all (general DAGs keep the gather
and register children eagerly). Per step the policy does one batched RNG
draw for all idle workers' steal probes, and decodes its gid picks into
``(job, node)`` pairs with one ``searchsorted`` over the CSR offsets.

Within a step, every worker first pops its own deque and only then the
idle ones steal (in worker order, probes drawn from one batch per step).
This is the natural sequentialization of "busy workers keep their own
work; idle workers steal concurrently"; per-seed streams differ from a
strictly interleaved obtain loop, but the policy and its guarantees are
unchanged — runs remain deterministic and reproducible per seed.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..core.instance import Instance
from ..core.job import Job
from ..core.simulator import Scheduler, Selection
from ..core.util import Array, csr_gather

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
        self._offsets = flat.offsets
        self._child_indptr = flat.child_indptr
        self._child_indices = flat.child_indices
        self._deques: list[deque[int]] = [deque() for _ in range(m)]
        n = flat.n_nodes
        #: gid -> worker that executed its most recent completed parent
        #: (-1: no parent executed yet; such nodes land at the entry worker).
        self._owner: Array = np.full(n, -1, dtype=_INT)
        self._parent_of: Optional[Array] = None
        if flat.all_out_forests:
            # Forest fast path: each node has one parent, so child ownership
            # is "worker that ran my parent". Record executions in a flat
            # ``_ran_by`` scatter (k writes per step) instead of gathering
            # each selection's children through the CSR. Roots point at the
            # sentinel slot ``n``, which stays -1 (= entry worker) forever.
            parent_of = np.full(n + 1, n, dtype=_INT)
            parent_of[flat.child_indices] = np.repeat(
                np.arange(n, dtype=_INT), np.diff(flat.child_indptr)
            )
            self._parent_of = parent_of
            self._ran_by: Array = np.full(n + 1, -1, dtype=_INT)
        self._entry_worker = 0
        self._steals = 0
        self._steal_misses = 0

    # -- event handlers ----------------------------------------------------

    def on_job_arrival(self, t: int, job_id: int, job: Job) -> None:
        # The whole job enters at one random worker.
        self._entry_worker = int(self._rng.integers(0, self._m))

    def on_nodes_ready(self, t: int, job_id: int, nodes: Array) -> None:
        gids = self._offsets[job_id] + np.asarray(nodes, dtype=_INT)
        deques = self._deques
        entry = self._entry_worker
        if self._parent_of is not None:
            owners = self._ran_by[self._parent_of[gids]]
        else:
            owners = self._owner[gids]
        for gid, worker in zip(gids.tolist(), owners.tolist()):
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
        if not picked:
            return []
        gids = np.array(picked, dtype=_INT)
        w = np.array(workers, dtype=_INT)
        # Children enabled by these executions will belong to their worker.
        if self._parent_of is not None:
            # Forests resolve ownership lazily at delivery (on_nodes_ready)
            # from the executing worker recorded here.
            self._ran_by[gids] = w
        else:
            # General DAGs pre-register through the CSR; the engine only
            # delivers the children that actually become ready. A child with
            # several parents ends up owned by the last parent to register —
            # fine for a baseline policy.
            kids, counts = csr_gather(
                self._child_indptr, self._child_indices, gids
            )
            if kids.size:
                self._owner[kids] = np.repeat(w, counts)
        jobs = np.searchsorted(self._offsets, gids, side="right") - 1
        nodes = gids - self._offsets[jobs]
        return list(zip(jobs.tolist(), nodes.tolist()))

    # -- introspection -------------------------------------------------------

    @property
    def steal_count(self) -> int:
        """Successful steals so far (for experiment tables)."""
        return self._steals

    @property
    def steal_miss_count(self) -> int:
        """Failed steal probes so far."""
        return self._steal_misses
