"""Resident SoA arena: the streaming engine's vectorized live window.

:class:`StreamArena` packs every live job of a
:class:`~repro.streaming.engine.StreamingEngine` into one mutable
structure-of-arrays — the streaming counterpart of the batch engine's
:class:`~repro.core.instance.InstanceBatch`, with two differences the
batch layout does not need:

* **Admission appends.** A new job's node block lands at the node tail
  and its (offset-shifted) CSR rows land at the edge tail, using the
  same :func:`~repro.core.instance.concat_csr_blocks` packing invariant:
  because node rows and edge targets are appended together, a single
  ``indptr`` array stays valid across every block, including the holes
  left by retired jobs (a dead block's rows still point at its old edge
  slice; nothing ever gathers them again).
* **Retirement holes + amortized compaction.** Retiring a job is O(1):
  the slot is marked dead and its id pushed on a free list for reuse.
  Node/edge space is reclaimed lazily — when an admission needs room and
  the dead span covers at least half the buffer (or exceeds the live
  span), :meth:`_compact` rebuilds the live blocks front-to-back in
  arrival order. Each compaction reclaims at least half the buffer, so
  its O(live + dead) cost amortizes to O(1) per admitted node, and the
  buffer capacity tracks roughly twice the live-node high-water mark
  (``live_subjob_hwm``) instead of the stream length.

Per-node state: encoded int64 priority keys (``dense_rank(priority) * n
+ node``; a constant kernel stores ``arange(n)``), indegrees, done
*stamps* (int64, nonzero == done — stamps rather than bools so
:func:`~repro.core.kernels.macro_fill` can write completion times
straight into the done array during epoch macro-stepping), and the
chain-run arrays (``run_nodes`` / ``run_pos`` / ``steps_left``) shifted
into arena-global ids. Only epoch windows read the chain-run arrays, and
few steps qualify for one, so admission leaves them unfilled: the arena
keeps the slot's DAG until :meth:`StreamArena.fill_runs` writes its
block, at the slot's offset of that moment, the first time a window
probe passes the engine's single-child gate with the job on the
frontier.

**The policy-ordered frontier.** Every stream policy is one list rule
(:class:`~repro.core.simulator.ListRule`): order jobs by a job key, then
ready nodes by an in-job key. ``front`` is the whole live frontier — one
flat int64 array of ready arena gids — stored in exactly that order, so a
step's decision is the prefix ``front[:m_t]``:

* jobs are grouped in ascending ``slot_key``: the arrival index under the
  arrival walk, and ``remaining * 2**32 + arrival index`` under SRPT's
  walk (ascending ``(remaining subjobs, index)``);
* within a job, entries ascend in ``enc`` — the node id under a constant
  kernel, ``(priority rank, node)`` otherwise — which is the order a
  truncated job gives up its ready nodes in.

A step only re-orders the jobs it touched. Those jobs form a prefix of
the job order, and committing work can only move a job *earlier*:
arrival keys are static, and ``remaining`` only decreases. So every
touched job still precedes every untouched one after the step, and a step
sorts just the touched entries — the partially taken job's leftover plus
the newly ready nodes — and puts them ahead of the untouched remainder
(:meth:`advance`). Under the arrival walk the job order is also the block
order (admission appends, compaction keeps arrival order), and while no
live job holds a ranked key (``ranked_live == 0``) the in-job order is the
node order, so policy order is then plain ascending gid order.
"""

from __future__ import annotations

import bisect
from typing import Any, Optional

import numpy as np

from ..core.instance import concat_csr_blocks
from ..core.util import Array, csr_gather

__all__ = ["StreamArena"]

_INT = np.int64

#: Initial node/edge buffer capacity (grows geometrically).
_MIN_NODE_CAP = 1024

#: Initial slot-axis capacity.
_MIN_SLOT_CAP = 64

#: SRPT job keys are ``remaining * 2**32 + index``; the engine validates
#: both factors against these bounds at admission.
SRPT_INDEX_LIMIT = 1 << 32
SRPT_REMAINING_LIMIT = 1 << 30


class StreamArena:
    """Mutable SoA packing of the live window (see module docstring).

    ``by_remaining_work`` fixes the job walk of the frontier order:
    SRPT's if True, arrival order otherwise
    (:attr:`~repro.core.simulator.ListRule.by_remaining_work`).

    Node-axis arrays (all int64, capacity-padded; a job's block is
    ``[slot_off[s], slot_off[s] + slot_n[s])``):

    ``indptr`` / ``indices``
        The live window's concatenated CSR (edge targets arena-global).
    ``enc``
        Per-node encoded priority key (``rank * n + node``); the in-job
        order of ``front``.
    ``done_stamp``
        Nonzero once the node committed (the value is the completion
        time; only the zero/nonzero distinction is semantic).
    ``indegree``
        Remaining-parent counts, decremented as parents commit while a
        non-forest job is live. Steps with only out-forests live skip
        the update: a committed forest node's children have it as their
        only parent, so they are ready at once. A forest child's count
        is therefore still its initial 1 when its parent commits, which
        keeps the non-forest update exact for every node.
    ``slot_of``
        Node -> owning slot.
    ``run_nodes`` / ``run_pos`` / ``steps_left``
        Arena-global chain-run decomposition (epoch macro-stepping);
        a block holds don't-care values until :meth:`fill_runs` fills
        it.

    ``front`` is the ready set in policy order, and ``slot_key`` the
    per-slot job key it is grouped by. ``ranked_live`` counts the live
    jobs admitted with encoded keys (a non-constant kernel).
    """

    def __init__(self, by_remaining_work: bool) -> None:
        self._srpt = by_remaining_work
        self._alloc_nodes(_MIN_NODE_CAP)
        self._alloc_edges(_MIN_NODE_CAP)
        self.indptr = np.zeros(_MIN_NODE_CAP + 1, dtype=_INT)
        self.front = np.empty(0, dtype=_INT)
        self.slot_index = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_release = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_off = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_n = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_n_done = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_key = np.zeros(_MIN_SLOT_CAP, dtype=_INT)
        self.slot_live = np.zeros(_MIN_SLOT_CAP, dtype=bool)
        self._slot_forest = np.zeros(_MIN_SLOT_CAP, dtype=bool)
        self._slot_ranked = np.zeros(_MIN_SLOT_CAP, dtype=bool)
        # Per slot: the DAG whose chain-run block is not filled yet, or
        # None once filled or retired.
        self._runs_pending: list[Any] = [None] * _MIN_SLOT_CAP
        self._node_tail = 0
        self._edge_tail = 0
        self._slot_tail = 0
        # Retired slot ids awaiting reuse (see the suppression at the
        # grow site in :meth:`retire` for the boundedness argument).
        self._free_slots: list[int] = []
        self.live_jobs = 0
        self.live_nodes = 0
        self.nonforest_live = 0
        self.ranked_live = 0
        self.compactions = 0

    # -- allocation ------------------------------------------------------

    def _alloc_nodes(self, cap: int) -> None:
        self.enc = np.zeros(cap, dtype=_INT)
        self.done_stamp = np.zeros(cap, dtype=_INT)
        self.indegree = np.zeros(cap, dtype=_INT)
        self.slot_of = np.zeros(cap, dtype=_INT)
        self.run_nodes = np.zeros(cap, dtype=_INT)
        self.run_pos = np.zeros(cap, dtype=_INT)
        self.steps_left = np.zeros(cap, dtype=_INT)

    def _alloc_edges(self, cap: int) -> None:
        self.indices = np.zeros(cap, dtype=_INT)

    @property
    def node_capacity(self) -> int:
        """Current node-buffer capacity (compaction keeps this within a
        small constant of the live-node high-water mark)."""
        return int(self.enc.size)

    def _grow_nodes(self, need: int) -> None:
        cap = self.enc.size
        while cap < need:
            cap *= 2
        keep = self._node_tail
        names = (
            "enc", "done_stamp", "indegree", "slot_of",
            "run_nodes", "run_pos", "steps_left",
        )
        old = [getattr(self, name) for name in names]
        old_indptr = self.indptr
        self._alloc_nodes(cap)
        for src, name in zip(old, names):
            getattr(self, name)[:keep] = src[:keep]
        self.indptr = np.zeros(cap + 1, dtype=_INT)
        self.indptr[: keep + 1] = old_indptr[: keep + 1]

    def _grow_edges(self, need: int) -> None:
        cap = self.indices.size
        while cap < need:
            cap *= 2
        old = self.indices
        self._alloc_edges(cap)
        self.indices[: self._edge_tail] = old[: self._edge_tail]

    def _ensure_room(self, n: int, e: int) -> None:
        if (
            self._node_tail + n <= self.enc.size
            and self._edge_tail + e <= self.indices.size
        ):
            return
        dead = self._node_tail - self.live_nodes
        # Compact instead of growing when it reclaims at least half the
        # buffer (or the holes already outweigh the live span) — this is
        # what keeps steady-state capacity keyed to the live HWM.
        if 2 * dead >= self.enc.size or dead > self.live_nodes:
            self._compact()
        if self._node_tail + n > self.enc.size:
            self._grow_nodes(self._node_tail + n)
        if self._edge_tail + e > self.indices.size:
            self._grow_edges(self._edge_tail + e)

    def _new_slot(self) -> int:
        if self._free_slots:
            return self._free_slots.pop()
        if self._slot_tail == self.slot_n.size:
            cap = 2 * self.slot_n.size
            for name in (
                "slot_index", "slot_release", "slot_off", "slot_n",
                "slot_n_done", "slot_key", "slot_live", "_slot_forest",
                "_slot_ranked",
            ):
                src = getattr(self, name)
                buf = np.zeros(cap, dtype=src.dtype)
                buf[: src.size] = src
                setattr(self, name, buf)
            self._runs_pending = self._runs_pending + [None] * (cap - self._slot_tail)
        slot = self._slot_tail
        self._slot_tail += 1
        return slot

    # -- admission / retirement ------------------------------------------

    def admit(
        self,
        index: int,
        release: int,
        dag: Any,
        enc: Optional[Array],
        done: Optional[Array] = None,
    ) -> int:
        """Append one job's block and insert its ready nodes into
        ``front`` at the job's policy position; returns its slot id.

        ``enc`` is the encoded priority array (``None`` for a constant
        kernel — node ids are stored, so the in-job order is node order).
        ``done`` (restore path) rebuilds indegrees and the ready frontier
        from the snapshot's done mask.
        """
        n = int(dag.n)
        e = int(dag.child_indices.size)
        self._ensure_room(n, e)
        slot = self._new_slot()
        lo = off = self._node_tail
        hi = off + n
        self.indptr[lo : hi + 1] = self._edge_tail + dag.child_indptr
        self.indices[self._edge_tail : self._edge_tail + e] = (
            dag.child_indices + off
        )
        self.enc[lo:hi] = np.arange(n, dtype=_INT) if enc is None else enc
        self.slot_of[lo:hi] = slot
        self._runs_pending[slot] = dag
        indeg = np.asarray(dag.indegree, dtype=_INT).copy()
        forest = bool(dag.is_out_forest)
        if done is None:
            n_done = 0
            self.done_stamp[lo:hi] = 0
            ready = np.asarray(dag.roots, dtype=_INT)
        else:
            n_done = int(done.sum())
            self.done_stamp[lo:hi] = done.astype(_INT)
            done_nodes = np.nonzero(done)[0].astype(_INT)
            if done_nodes.size:
                children, _ = csr_gather(
                    dag.child_indptr, dag.child_indices, done_nodes
                )
                if children.size:
                    if forest:
                        indeg[children] -= 1
                    else:
                        np.subtract.at(indeg, children, 1)
            ready = np.nonzero(~done & (indeg == 0))[0].astype(_INT)
        self.indegree[lo:hi] = indeg
        if enc is not None:
            ready = ready[np.argsort(enc[ready])]
        key = index
        if self._srpt:
            key += (n - n_done) * SRPT_INDEX_LIMIT
        self.slot_index[slot] = index
        self.slot_release[slot] = release
        self.slot_off[slot] = off
        self.slot_n[slot] = n
        self.slot_n_done[slot] = n_done
        self.slot_key[slot] = key
        self.slot_live[slot] = True
        self._slot_forest[slot] = forest
        self._slot_ranked[slot] = enc is not None
        front = self.front
        pos = bisect.bisect_right(front, key, key=self._job_key)
        self.front = np.concatenate((front[:pos], ready + off, front[pos:]))
        self._node_tail += n
        self._edge_tail += e
        self.live_jobs += 1
        self.live_nodes += n
        if not forest:
            self.nonforest_live += 1
        if enc is not None:
            self.ranked_live += 1
        return slot

    def retire(self, slot: int) -> None:
        """Release a completed slot: O(1), space reclaimed on compaction."""
        n = int(self.slot_n[slot])
        self.slot_live[slot] = False
        self._runs_pending[slot] = None
        self._free_slots.append(slot)  # repro-lint: disable=RPR009 (bounded: free-list length never exceeds the slot-axis high-water mark — _new_slot recycles before growing the axis, so entries track retired-not-yet-reused slots within a fixed capacity)
        self.live_jobs -= 1
        self.live_nodes -= n
        if not self._slot_forest[slot]:
            self.nonforest_live -= 1
        if self._slot_ranked[slot]:
            self.ranked_live -= 1

    def order_arrival(self) -> Array:
        """Live slots in admission (ascending arrival index) order."""
        live = np.flatnonzero(self.slot_live[: self._slot_tail])
        return live[np.argsort(self.slot_index[live])]

    # -- the policy-ordered frontier --------------------------------------

    def _job_key(self, gid: Any) -> Any:
        return self.slot_key[self.slot_of[gid]]

    def jobs_of(self, gids: Array) -> tuple[Array, Array]:
        """Run-length split of a nonempty ``front`` slice: the slots it
        covers, in policy order, and how many entries each holds."""
        owners = self.slot_of[gids]
        # Flag every run start, plus the end of the slice.
        change = np.empty(owners.size + 1, dtype=bool)
        change[0] = change[-1] = True
        np.not_equal(owners[1:], owners[:-1], out=change[1:-1])
        bounds = change.nonzero()[0]
        return owners[bounds[:-1]], bounds[1:] - bounds[:-1]

    def note_commits(self, slots: Array, counts: Array) -> None:
        """Count ``counts[i]`` committed subjobs into ``slots[i]`` (SRPT
        keys drop with ``remaining``)."""
        self.slot_n_done[slots] += counts
        if self._srpt:
            self.slot_key[slots] -= counts * SRPT_INDEX_LIMIT

    def policy_sort(self, gids: Array) -> Array:
        """``gids`` in policy order (ascending ``(slot_key, enc)``)."""
        if not self._srpt and self.ranked_live == 0:
            return np.sort(gids)
        return gids[np.lexsort((self.enc[gids], self.slot_key[self.slot_of[gids]]))]

    def advance(self, k: int, slots: Array, counts: Array, newly: Array) -> None:
        """Drop the committed prefix ``front[:k]`` (``slots``/``counts``
        from :meth:`jobs_of`, not yet passed to :meth:`note_commits`) and
        re-seat its jobs' ready nodes: the last job's leftover plus
        ``newly``, sorted, ahead of the untouched remainder."""
        front = self.front
        rest = k
        if k < front.size and self.slot_of[front[k]] == slots[-1]:
            # The last job was cut mid-frontier; its leftover is the run
            # that follows the prefix (found under the step-start keys).
            rest = bisect.bisect_right(
                front, self.slot_key[slots[-1]], lo=k, key=self._job_key
            )
        self.note_commits(slots, counts)
        if newly.size == 0:
            # Every fully taken job finished, so the cut job's leftover
            # (if any) is the only touched entry and already heads the
            # untouched rest.
            self.front = front[k:]
        else:
            touched = self.policy_sort(np.concatenate((front[k:rest], newly)))
            self.front = np.concatenate((touched, front[rest:]))

    # -- chain runs ------------------------------------------------------

    def fill_runs(self, slots: Array) -> None:
        """Fill the chain-run blocks of ``slots`` that are still pending,
        at each slot's current offset."""
        pending = self._runs_pending
        for s in slots.tolist():
            dag = pending[s]
            if dag is None:
                continue
            pending[s] = None
            runs = dag.chain_runs
            lo = int(self.slot_off[s])
            hi = lo + int(dag.n)
            self.run_nodes[lo:hi] = runs.order + lo
            self.run_pos[lo:hi] = runs.index_of + lo
            self.steps_left[lo:hi] = runs.steps_to_end

    # -- compaction ------------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the node/edge buffers with live blocks front-to-back.

        Blocks keep their arrival order (admission offsets are monotone,
        so this is also ascending-offset order); slot ids are stable —
        only ``slot_off`` and the arena-global node values shift, and
        ``front`` keeps its order with each gid moved by its block shift.
        """
        order = self.order_arrival()
        offs = self.slot_off[order].copy()
        ns = self.slot_n[order].copy()
        new_off = np.zeros(order.size + 1, dtype=_INT)
        np.cumsum(ns, out=new_off[1:])
        shift = np.zeros(self.slot_n.size, dtype=_INT)
        shift[order] = new_off[:-1] - offs
        self.front = self.front + shift[self.slot_of[self.front]]
        cap = self.enc.size
        old = {
            "enc": self.enc, "done_stamp": self.done_stamp,
            "indegree": self.indegree, "run_nodes": self.run_nodes,
            "run_pos": self.run_pos, "steps_left": self.steps_left,
        }
        old_indptr, old_indices = self.indptr, self.indices
        self._alloc_nodes(cap)
        copy_names = ("enc", "done_stamp", "indegree", "steps_left")
        for i in range(order.size):
            src = int(offs[i])
            dst = int(new_off[i])
            n = int(ns[i])
            shift_i = dst - src
            for name in copy_names:
                getattr(self, name)[dst : dst + n] = old[name][src : src + n]
            self.slot_of[dst : dst + n] = order[i]
            self.run_nodes[dst : dst + n] = old["run_nodes"][src : src + n] + shift_i
            self.run_pos[dst : dst + n] = old["run_pos"][src : src + n] + shift_i
        new_indptr, new_indices = concat_csr_blocks(
            (
                old_indptr[int(offs[i]) : int(offs[i]) + int(ns[i]) + 1]
                - old_indptr[int(offs[i])],
                old_indices[
                    int(old_indptr[int(offs[i])]) : int(
                        old_indptr[int(offs[i]) + int(ns[i])]
                    )
                ]
                - int(offs[i]),
                int(new_off[i]),
            )
            for i in range(order.size)
        )
        self.indptr = np.zeros(cap + 1, dtype=_INT)
        self.indptr[: new_indptr.size] = new_indptr
        edge_cap = self.indices.size
        self._alloc_edges(max(edge_cap, new_indices.size))
        self.indices[: new_indices.size] = new_indices
        self.slot_off[order] = new_off[:-1]
        self._node_tail = int(new_off[-1])
        self._edge_tail = int(new_indices.size)
        self.compactions += 1

    # -- snapshots -------------------------------------------------------

    def snapshot_live(self) -> list[dict[str, Any]]:
        """Per-live-job snapshot entries in arrival order: index,
        release, n and the packed done mask."""
        out = []
        for s in self.order_arrival().tolist():
            off = int(self.slot_off[s])
            n = int(self.slot_n[s])
            out.append(
                {
                    "index": int(self.slot_index[s]),
                    "release": int(self.slot_release[s]),
                    "n": n,
                    "done": np.packbits(
                        self.done_stamp[off : off + n] != 0
                    ).tobytes(),
                }
            )
        return out
