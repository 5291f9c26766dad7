"""The engine's named hot kernels: plain NumPy array passes.

The simulation engine (:mod:`repro.core.simulator`) and the streaming
engine spend their time in a handful of array kernels: the per-step
frontier advance (completion commit + CSR child gather), the chain-run
Δt scan, the macro-step block fill, the sorted-frontier merge, and the
batched engine's ragged prefix gather and selection-rank permutation.
Each is one function here, imported directly by its callers, and each
call is counted by name in
:attr:`~repro.core.simulator.EngineStats.kernel_dispatches` so
``--engine-stats`` shows which kernels served a run.

Every function is a *pure extraction* of code that previously lived
inline in :mod:`repro.core.simulator` — same operations, same order, same
dtypes — so the engine is bit-identical to the pre-extraction loop by
construction.

Kernel signatures (all arrays are 1-D ``int64`` unless noted):

``csr_children(indptr, indices, nodes) -> children``
    Concatenated CSR child rows of ``nodes``, in node order (each row
    ascending — the CSR is canonical).
``commit_frontier(indptr, indices, completion, gids, finish) -> children``
    Write ``completion[gids] = finish`` then gather the children — the
    per-step frontier advance.
``chain_min_dt(steps_to_end, gids, bound) -> int``
    ``min(bound, steps_to_end[gids].min())`` — the chain-run Δt scan.
``macro_fill(run_nodes, node_index, steps_to_end, completion, gids, t, dt)
-> (nxt, term)``
    Commit the ``(len(gids), dt)`` chain block: node ``i``'s next ``dt``
    chain steps complete at ``t+1 .. t+dt``. Returns the continuation
    heads (runs longer than ``dt``, in ``gids`` order) and the run
    terminals committed in the last column (rest of ``gids``, in order).
``merge_sorted(a, b) -> merged``
    Merge two sorted arrays with disjoint values in O(len).
``batch_take(fkeys, seg, k, total_k) -> (taken, remaining)``
    Ragged prefix gather: segment ``b`` of ``fkeys`` (bounds ``seg``)
    contributes its first ``k[b]`` entries to ``taken``; ``remaining`` is
    everything else, order preserved. ``total_k == k.sum()``.
``batch_select_order(prio, job_of_node) -> (order, sel_rank)``
    The batch-global selection permutation: stable sort by
    ``(job_of_node, prio, id)`` and its inverse rank array.
``arena_gather(fbuf, starts, k, total_k) -> taken``
    Streaming-arena prefix gather: slice ``i`` of the resident frontier
    buffer (starting at ``starts[i]``) contributes its first ``k[i]``
    keys, concatenated in slice order. ``total_k == k.sum()``. Unlike
    ``batch_take`` the buffer is *mutable and resident*: the caller
    shifts the (at most one) partially-taken slice in place, so no
    ``remaining`` array is materialized.
``arena_commit(fbuf, offsets, sizes, slots, seg, new_keys) -> None``
    Streaming-arena frontier merge, in place: for each arena slot
    ``slots[i]``, merge the sorted new keys ``new_keys[seg[i]:seg[i+1]]``
    (unsorted on input; values disjoint from the resident keys) into the
    sorted resident slice ``fbuf[offsets[slots[i]] : ... + sizes[slots[i]]]``,
    growing it by the segment length. Slot capacities are guaranteed by
    the arena layout (a slot's region holds ``n`` keys).

The two arena kernels served the streaming arena's former per-slot
frontier regions. The arena now keeps one policy-ordered frontier that
needs neither, so nothing dispatches them; they stay listed in
:data:`KERNEL_NAMES` because the repo benchmark builds its per-kernel
dispatch metrics from that tuple, and go when the benchmark drops those
two metrics.

Lint rule RPR008 holds these kernels to the vectorized discipline
(``KERNEL_STYLE``): no Python-level loops, no object-dtype arrays.
"""

from __future__ import annotations

import numpy as np

from .util import Array, csr_gather

__all__ = [
    "KERNEL_NAMES",
    "KERNEL_STYLE",
    "csr_children",
    "commit_frontier",
    "chain_min_dt",
    "macro_fill",
    "merge_sorted",
    "batch_take",
    "batch_select_order",
    "arena_gather",
    "arena_commit",
]

#: Every kernel, by the name its dispatches are counted under.
KERNEL_NAMES = (
    "csr_children",
    "commit_frontier",
    "chain_min_dt",
    "macro_fill",
    "merge_sorted",
    "batch_take",
    "batch_select_order",
    "arena_gather",
    "arena_commit",
)

#: Kernels in this module are whole-array passes; RPR008 flags any
#: Python-level loop that would silently de-vectorize them.
KERNEL_STYLE = "vectorized"

_INT = np.int64


def csr_children(indptr: Array, indices: Array, nodes: Array) -> Array:
    """Concatenated CSR child rows of ``nodes`` (counts discarded)."""
    values, _ = csr_gather(indptr, indices, nodes)
    return values


def commit_frontier(
    indptr: Array, indices: Array, completion: Array, gids: Array, finish: int
) -> Array:
    """Complete ``gids`` at ``finish`` and gather their children."""
    completion[gids] = finish
    values, _ = csr_gather(indptr, indices, gids)
    return values


def chain_min_dt(steps_to_end: Array, gids: Array, bound: int) -> int:
    """Tighten ``bound`` by the shortest chain-run remainder in ``gids``."""
    r = int(steps_to_end[gids].min())
    return r if r < bound else bound


def macro_fill(
    run_nodes: Array,
    node_index: Array,
    steps_to_end: Array,
    completion: Array,
    gids: Array,
    t: int,
    dt: int,
) -> tuple[Array, Array]:
    """Commit ``dt`` forced chain steps for every gid in one block write."""
    starts = node_index[gids]
    span_idx = np.arange(dt, dtype=_INT)
    # (c, Δt) block of chain nodes: column i holds the nodes forced at
    # step t + i; the times row broadcasts across the c committed slots.
    nodes = run_nodes[starts[:, None] + span_idx]
    completion[nodes] = t + 1 + span_idx
    rem = steps_to_end[gids]
    cont = rem > dt
    nxt = run_nodes[starts[cont] + dt]
    term = run_nodes[starts[~cont] + (dt - 1)]
    return nxt, term


def merge_sorted(a: Array, b: Array) -> Array:
    """Merge two sorted int64 arrays with disjoint values in O(len)."""
    if b.size == 0:
        return a
    if a.size == 0:
        return b
    slots = np.searchsorted(a, b) + np.arange(b.size, dtype=_INT)
    out = np.empty(a.size + b.size, dtype=a.dtype)
    out[slots] = b
    keep = np.ones(out.size, dtype=bool)
    keep[slots] = False
    out[keep] = a
    return out


def batch_take(
    fkeys: Array, seg: Array, k: Array, total_k: int
) -> tuple[Array, Array]:
    """Take the first ``k[b]`` keys of each frontier segment.

    Ragged prefix gather: output slot ``i`` maps to its segment's start
    plus the slot's offset within that segment's quota.
    """
    csum = np.cumsum(k)
    idx = (
        np.repeat(seg[:-1], k)
        + np.arange(total_k, dtype=_INT)
        - np.repeat(csum - k, k)
    )
    taken = fkeys[idx]
    keep = np.ones(fkeys.size, dtype=bool)
    keep[idx] = False
    remaining = fkeys[keep]
    return taken, remaining


def _ragged_positions(starts: Array, counts: Array, total: int) -> Array:
    """Flat indices of ``counts[i]`` consecutive slots from ``starts[i]``."""
    csum = np.cumsum(counts)
    return (
        np.repeat(starts, counts)
        + np.arange(total, dtype=_INT)
        - np.repeat(csum - counts, counts)
    )


def arena_gather(fbuf: Array, starts: Array, k: Array, total_k: int) -> Array:
    """Take the first ``k[i]`` keys of each resident frontier slice."""
    return fbuf[_ragged_positions(starts, k, total_k)]


def arena_commit(
    fbuf: Array,
    offsets: Array,
    sizes: Array,
    slots: Array,
    seg: Array,
    new_keys: Array,
) -> None:
    """Merge per-slot key batches into the resident sorted frontiers.

    All slots merge in one pass: resident and new keys are lifted to
    composite keys ``lane * base + key`` (``lane`` = position in
    ``slots``, ``base`` > every key), merged with the disjoint-value
    sorted merge, then written back slot-contiguously. The lift keeps
    lanes separated, so one global merge is ``len(slots)`` independent
    per-slot merges.
    """
    counts = np.diff(seg)
    old = sizes[slots]
    offs = offsets[slots]
    have = fbuf[_ragged_positions(offs, old, int(old.sum()))]
    base = 1 + max(int(have.max(initial=0)), int(new_keys.max(initial=0)))
    if slots.size > (2**63 - 1) // base:
        # Composite keys would overflow int64 (needs ~1e9 slots at n=1e5
        # nodes/job — far beyond any real live window). Degrade to
        # per-slot merges rather than corrupt keys.
        for i in range(slots.size):  # repro-lint: disable=RPR008 (int64-overflow escape hatch: per-slot merge when lane*base composite keys cannot fit; unreachable at realistic live-window sizes)
            lo, hi = int(seg[i]), int(seg[i + 1])
            off, size = int(offs[i]), int(old[i])
            merged = merge_sorted(
                fbuf[off : off + size].copy(), np.sort(new_keys[lo:hi])
            )
            fbuf[off : off + merged.size] = merged
        return
    lane_old = np.repeat(np.arange(slots.size, dtype=_INT), old)
    lane_new = np.repeat(np.arange(slots.size, dtype=_INT), counts)
    merged = merge_sorted(
        lane_old * base + have, np.sort(lane_new * base + new_keys)
    )
    grown = old + counts
    fbuf[_ragged_positions(offs, grown, int(grown.sum()))] = merged % base


def batch_select_order(prio: Array, job_of_node: Array) -> tuple[Array, Array]:
    """Batch-global selection order and its inverse rank permutation.

    Instance-major because batch-global job ids are; within a job,
    (priority, id) — exactly the per-instance encoded-frontier order.
    lexsort is stable, so ties keep ascending id.
    """
    order = np.lexsort((prio, job_of_node)).astype(_INT)
    sel_rank = np.empty(order.size, dtype=_INT)
    sel_rank[order] = np.arange(order.size, dtype=_INT)
    return order, sel_rank
