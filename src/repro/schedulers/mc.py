"""The Most-Children (MC) replay algorithm (Section 5.2).

MC's input is a feasible single-job schedule ``S`` (for us: the tail of an
LPF schedule on ``m/α`` processors, which by Lemma 5.2 is fully packed except
possibly at its last step). MC re-executes the subjobs of ``S`` online, under
a fluctuating processor allocation ``m_t``: at each step it takes subjobs
from the earliest incomplete level of ``S``, preferring subjobs with the most
children in the next level. Lemma 5.5 guarantees MC never wastes a granted
processor before it finishes.

The implementation adds one practical refinement the paper's prose leaves
implicit: a subjob can only be *run* when all its predecessors completed in a
strictly earlier step, so selection filters through a readiness predicate
(supplied by whoever owns ground truth — the simulation engine).

**A reproduction finding.** The Lemma 5.5 proof's dichotomy ("every picked
subjob of the level had a child in the next level, or no leftover does")
implicitly assumes MC's historical picks always followed pure max-children
order. Same-step enabling can *force* a deviation: when a level's
max-children subjob is the child of a subjob scheduled in this very step,
MC must take a lower-priority sibling instead. After such a forced
deviation, the literal busy property can fail — randomized search over LPF
tails of small out-forests finds concrete counterexamples (pinned in
``tests/unit/test_mc_lemma55_gap.py``). Two measures repair it in practice:

* ties in children count are broken by **height** (keeps the enabling
  spine moving — the LPF idea applied inside MC); and
* a **work-conserving fallback**: if the level-ordered scan leaves granted
  processors unused, a second sweep takes any ready unprocessed subjob
  from deeper levels.

With both in place, MC is *work-conserving*: it schedules
``min(m_t, ready subjobs)`` at every step — the strongest property any
scheduler can have, and what ``check_mc_busy`` verifies by default. The
*literal* lemma statement (always ``m_t`` unless finished) can still fail
on rare inputs where every remaining subjob is the child of a subjob
scheduled in that very step, a state no scheduler can fill; E5 measures
its frequency (a fraction of a percent of random packed tails) and
``check_mc_busy(strict=True)`` detects it. The constants of Theorem 5.6
absorb such one-off slot losses; the asymptotic story is unaffected.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.util import Array, csr_gather

__all__ = ["MostChildrenReplayer"]

_always_ready: Callable[[int], bool] = lambda node: True


def _checked_levels(steps: Sequence[Array], n: int) -> list[Array]:
    """``steps`` as int64 arrays, once each is known to be a non-empty list
    of integer node ids in ``[0, n)`` and no node appears twice."""
    levels = []
    seen: set[int] = set()
    for idx, nodes in enumerate(steps):
        arr = np.asarray(nodes)
        if arr.size == 0:
            raise ConfigurationError(f"step {idx} of the input schedule is empty")
        if arr.ndim != 1:
            raise ConfigurationError(
                f"step {idx} of the input schedule is not a flat list of node ids"
            )
        ids = arr.tolist()
        if arr.dtype.kind not in "iu":  # checked after the empty step: [] is a float array
            node = next((v for v in ids if not (isinstance(v, float) and v.is_integer())), ids[0])
            raise ConfigurationError(
                f"step {idx} of the input schedule holds node {node!r}, not an integer id"
            )
        low, high = min(ids), max(ids)
        if low < 0 or high >= n:
            raise ConfigurationError(
                f"step {idx} of the input schedule holds node {low if low < 0 else high}, "
                f"outside the job's nodes [0, {n})"
            )
        dup = seen.intersection(ids)
        if dup:
            raise ConfigurationError(f"node {next(iter(dup))} appears twice in S")
        seen.update(ids)
        levels.append(arr.astype(np.int64, copy=False))
    return levels


class MostChildrenReplayer:
    """Replays the node sets of a schedule ``S`` under varying allocation.

    Parameters
    ----------
    steps:
        The per-time node sets of ``S`` in time order (the actual time
        stamps are irrelevant; only the level structure matters).
    dag:
        The job's DAG, used to count children in the next level (the MC
        priority) — note MC is clairvoyant.
    """

    def __init__(self, steps: Sequence[Array], dag: DAG) -> None:
        self._dag = dag
        self._levels: list[list[tuple[int, int, int]]] = []  # (-children, -height, node) heaps
        self._level_remaining: list[int] = []
        self._remaining = 0
        levels = _checked_levels(steps, dag.n)
        for idx, arr in enumerate(levels):
            nxt = levels[idx + 1] if idx + 1 < len(levels) else np.empty(0, dtype=np.int64)
            counts = self._children_in_next(arr, nxt)
            # Priority: most children in the next level, then greatest
            # height (see the module docstring's reproduction finding),
            # then id. Build each level already sorted (one vectorized
            # lexsort) — a sorted list satisfies the heap invariant, so no
            # heapify / per-entry tuple comparisons are needed.
            heights = dag.height[arr]
            order = np.lexsort((arr, -heights, -counts))
            heap = list(
                zip(
                    (-counts[order]).tolist(),
                    (-heights[order]).tolist(),
                    arr[order].tolist(),
                )
            )
            self._levels.append(heap)
            self._level_remaining.append(len(heap))
            self._remaining += len(heap)
        self._first_incomplete = 0

    def _children_in_next(self, nodes: Array, nxt: Array) -> Array:
        """For each node, its number of children scheduled in the next
        level of ``S`` (the MC priority)."""
        kids, counts = csr_gather(
            self._dag.child_indptr, self._dag.child_indices, nodes
        )
        if kids.size == 0:
            return np.zeros(nodes.size, dtype=np.int64)
        member = np.isin(kids, nxt).astype(np.int64)
        ends = np.cumsum(counts)
        starts = ends - counts
        out = np.zeros(nodes.size, dtype=np.int64)
        nonempty = counts > 0
        if nonempty.any():
            sums = np.add.reduceat(member, starts[nonempty])
            out[nonempty] = sums
        return out

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True iff every subjob of ``S`` has been selected."""
        return self._remaining == 0

    @property
    def remaining(self) -> int:
        return self._remaining

    @property
    def n_levels(self) -> int:
        return len(self._levels)

    def select(
        self, m_t: int, is_ready: Callable[[int], bool] = _always_ready
    ) -> list[int]:
        """Pick up to ``m_t`` subjobs per the MC rule.

        Walks levels starting from the earliest incomplete one, popping
        ready subjobs in (children, height) priority order. The primary
        scan stops at the first level that is nonempty but yielded no
        ready subjob; a work-conserving fallback sweep then takes any
        ready subjob from deeper levels (module docstring).
        """
        if m_t < 0:
            raise ConfigurationError("m_t must be >= 0")
        out: list[int] = []
        stash: list[tuple[int, list[tuple[int, int, int]]]] = []

        def drain_level(level: int) -> int:
            """Pop ready subjobs of ``level`` in priority order; stash the
            blocked ones. Returns how many were picked."""
            heap = self._levels[level]
            picked_here = 0
            blocked: list[tuple[int, int, int]] = []
            while heap and len(out) < m_t:
                entry = heapq.heappop(heap)
                if is_ready(entry[-1]):
                    out.append(entry[-1])
                    picked_here += 1
                    self._level_remaining[level] -= 1
                    self._remaining -= 1
                else:
                    blocked.append(entry)
            if blocked:
                stash.append((level, blocked))
            return picked_here

        level = self._first_incomplete
        while len(out) < m_t and level < len(self._levels):
            picked_here = drain_level(level)
            if picked_here == 0 and self._level_remaining[level] > 0:
                break  # nonempty level with nothing ready: MC order stops
            level += 1
        # Work-conserving fallback (see module docstring): the strict
        # level order above can strand granted processors when a level's
        # remaining subjobs were all enabled this very step; sweep the
        # deeper levels for anything ready rather than idle.
        if len(out) < m_t:
            sweep = level + 1
            while len(out) < m_t and sweep < len(self._levels):
                drain_level(sweep)
                sweep += 1
        for lvl, blocked in stash:
            for entry in blocked:
                heapq.heappush(self._levels[lvl], entry)
        # Maintain the first-incomplete pointer (stash restores may not move
        # it backwards because blocked nodes were never counted as done).
        while (
            self._first_incomplete < len(self._levels)
            and self._level_remaining[self._first_incomplete] == 0
        ):
            self._first_incomplete += 1
        return out
