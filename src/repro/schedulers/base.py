"""Scheduler building blocks: intra-job tie-break policies and the ready heap.

The paper's central negative result (Section 4) is that *intra-job*
selection — which ready subjobs of a job to run when the job gets fewer
processors than it has ready subjobs — is where FIFO can go fatally wrong.
We therefore make the tie-break an explicit, pluggable policy object:

* :class:`ArbitraryTieBreak` — deterministic "arbitrary" choice (ascending
  node id). The Section 4 adversarial family is constructed against exactly
  this policy.
* :class:`ReverseTieBreak` — descending node id (a different arbitrary
  choice, useful to show the lower bound is about *adaptivity*, not one
  unlucky order).
* :class:`RandomTieBreak` — uniformly random among ready subjobs.
* :class:`DepthTieBreak` — prefer deeper subjobs; non-clairvoyant (a
  runtime learns a node's depth when it becomes ready).
* :class:`LongestPathTieBreak` — prefer subjobs of maximum height ``H(j)``
  (the LPF rule of Section 5.1); clairvoyant.
* :class:`MostChildrenTieBreak` — prefer subjobs with most children;
  clairvoyant (children counts are unknown before execution).

Priority kernels and the ready heap
-----------------------------------

Every built-in tie-break above except :class:`RandomTieBreak` orders
nodes by ``(scalar(node), node)`` for some per-node integer scalar, and
:meth:`TieBreak.priority_kernel` exposes that scalar as a precomputed
int64 array over the whole DAG. A kernel is the one declaration that a
tie-break is precomputable: FIFO and SRPT name it as the node priorities
of their :class:`~repro.core.simulator.ListRule`, and the engine then
runs the whole instance as a list rule without dispatching the scheduler
(see ``docs/engine-internals.md``).

A dispatched run (an observer or fault injector attached, or a tie-break
without a kernel) keeps each job's ready subjobs in a :class:`ReadyHeap`
ordered by :meth:`TieBreak.key`, and so does the reference engine
``_simulate_reference``. The conformance matrix
(``tests/properties/test_conformance.py``) holds the list-rule path equal
to the reference, which checks every kernel against its ``key()``.
"""

from __future__ import annotations

import abc
import heapq
from typing import Any, Iterable, Optional

import numpy as np

from ..core.dag import DAG
from ..core.job import Job
from ..core.util import Array, csr_gather

__all__ = [
    "TieBreak",
    "ArbitraryTieBreak",
    "ReverseTieBreak",
    "RandomTieBreak",
    "DepthTieBreak",
    "LongestPathTieBreak",
    "MostChildrenTieBreak",
    "ReadyHeap",
]

_INT = np.int64


class TieBreak(abc.ABC):
    """Priority rule for choosing among the ready subjobs of one job.

    ``key(job, node)`` returns a sortable priority; *smaller keys are
    scheduled first*. Keys must be stable for the lifetime of a run
    (they are computed once, when a node becomes ready).
    """

    #: True if the rule consults information a non-clairvoyant runtime
    #: would not have (full DAG shape).
    clairvoyant: bool = False

    def reset(self, seed: Optional[int] = None) -> None:
        """Reinitialize any internal state (e.g. RNG) before a run."""

    @abc.abstractmethod
    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        """Priority key for ``node`` of ``job`` (smaller = sooner)."""

    def priority_kernel(self, job: Job) -> Optional[Array]:
        """Vectorized form of :meth:`key`: one int64 priority per node.

        Contract: sorting nodes by ``(kernel[v], v)`` ascending must order
        them exactly as sorting by ``(key(job, v), v)`` — smaller priority
        is scheduled sooner, ties broken by ascending node id. Returning an
        array makes the FIFO and SRPT schedulers built on this tie-break
        list rules; their dispatched runs still order by ``key()``, and the
        conformance matrix holds the two equal. ``None`` (the default) means
        "no kernel": every run dispatches the scheduler, which orders
        ready subjobs by per-node ``key()`` calls through
        :class:`ReadyHeap`. A key that consumes hidden state per call (an
        RNG stream) cannot be precomputed and must not return a kernel.
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__.replace("TieBreak", "").lower() or "tiebreak"


class ArbitraryTieBreak(TieBreak):
    """Deterministic arbitrary order: ascending node id.

    This realizes the paper's "arbitrary FIFO": the adversarial instances of
    Section 4 assign key subjobs the largest ids within their layer, so this
    policy always leaves exactly the key subjob unscheduled.
    """

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (node,)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return np.zeros(job.dag.n, dtype=_INT)


class ReverseTieBreak(TieBreak):
    """Descending node id — a second deterministic 'arbitrary' order."""

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-node,)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -np.arange(job.dag.n, dtype=_INT)


class RandomTieBreak(TieBreak):
    """Uniformly random priority per ready subjob.

    Each ``key`` call takes the next double of the RNG stream, so keys
    depend on call order and a rebuild re-draws them. There is no priority
    kernel: a run with this tie-break dispatches the scheduler every step.
    The doubles are drawn ``_KEY_BLOCK`` at a time: ``rng.random(k)``
    returns the same doubles, in the same order, as ``k`` scalar draws.
    """

    _KEY_BLOCK = 1024

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self.reset()

    def reset(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(self._seed if seed is None else seed)
        self._keys: list[float] = []  # the block's undrawn doubles, last first

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        if not self._keys:
            self._keys = self._rng.random(self._KEY_BLOCK).tolist()[::-1]
        return (self._keys.pop(), node)


class DepthTieBreak(TieBreak):
    """Prefer subjobs of larger depth (discovered online, hence
    non-clairvoyant): a heuristic proxy for "keep going deep"."""

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.depth[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.depth


class LongestPathTieBreak(TieBreak):
    """The LPF rule: prefer subjobs of maximum height ``H(j)``
    (Section 5.1). Clairvoyant: heights require knowing the whole DAG."""

    clairvoyant = True

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.height[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.height


class MostChildrenTieBreak(TieBreak):
    """Prefer subjobs with the most children (a greedy width-preserving
    rule, related in spirit to the MC algorithm of Section 5.2)."""

    clairvoyant = True

    def key(self, job: Job, node: int) -> tuple[Any, ...]:
        return (-int(job.dag.outdegree[node]), node)

    def priority_kernel(self, job: Job) -> Optional[Array]:
        return -job.dag.outdegree


class ReadyHeap:
    """Min-heap of ready subjobs of a single job, ordered by a tie-break.

    Nodes are pushed exactly once (when they become ready) and popped
    exactly once (when scheduled), so no lazy-deletion bookkeeping is
    needed. :attr:`job` is the job whose subjobs it holds.
    """

    __slots__ = ("_heap", "job", "_policy")

    def __init__(self, job: Job, policy: TieBreak) -> None:
        self._heap: list[tuple[tuple[Any, ...], int]] = []
        self.job = job
        self._policy = policy

    def push_all(self, nodes: Iterable[int]) -> None:
        for node in nodes:
            heapq.heappush(self._heap, (self._policy.key(self.job, int(node)), int(node)))

    def pop(self) -> int:
        return heapq.heappop(self._heap)[1]

    def pop_up_to(self, k: int) -> list[int]:
        """Pop at most ``k`` nodes in priority order."""
        out: list[int] = []
        while self._heap and len(out) < k:
            out.append(heapq.heappop(self._heap)[1])
        return out

    def peek(self) -> int:
        return self._heap[0][1]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _unfinished_work(dag: DAG, frontier: Array) -> int:
    """Subjobs left in a job whose whole ready frontier is ``frontier``.

    Every unfinished subjob descends from a ready one, and no descendant
    of a ready subjob has run, so the count is the size of the frontier's
    descendant closure. A fresh arrival's frontier is its roots, whose
    closure is the whole DAG. FIFO and SRPT count a job's remaining work
    this way from the first frontier they receive after its arrival or a
    crash rebuild.
    """
    if np.array_equal(frontier, dag.roots):
        return dag.work
    seen = np.zeros(dag.n, dtype=bool)
    fresh = frontier
    while fresh.size:
        seen[fresh] = True
        children, _ = csr_gather(dag.child_indptr, dag.child_indices, fresh)
        fresh = np.unique(children[~seen[children]])
    return int(np.count_nonzero(seen))

