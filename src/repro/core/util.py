"""Low-level array utilities shared across the core data structures.

These helpers implement the handful of vectorized primitives that the
schedulers and DAG algorithms are built on, following the scientific-Python
optimization guidance: keep construction code simple, and vectorize the bulk
operations (multi-range gathers, segmented reductions) that sit on hot paths.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any, Optional, TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "Array",
    "as_int_array",
    "build_csr",
    "csr_gather",
    "csr_counts",
    "encode_priorities",
    "segment_max",
    "repeat_by_counts",
    "check_nonnegative_int",
]

_INT = np.int64

#: The repo-wide ndarray annotation. The element type is deliberately left
#: open: every hot-path helper normalizes to int64 via :func:`as_int_array`,
#: and pinning dtypes in the type system buys churn, not safety.
Array: TypeAlias = npt.NDArray[Any]


def as_int_array(values: Iterable[int] | Array) -> Array:
    """Return ``values`` as a contiguous ``int64`` ndarray (no copy if
    already one)."""
    arr = np.ascontiguousarray(values, dtype=_INT)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    return arr


def check_nonnegative_int(value: int | np.integer[Any], name: str) -> int:
    """Validate that ``value`` is a non-negative integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)


def build_csr(
    n: int, sources: Array, targets: Array
) -> tuple[Array, Array]:
    """Build a CSR adjacency (indptr, indices) for ``n`` nodes from parallel
    ``sources``/``targets`` edge arrays.

    The returned ``indices`` rows are sorted by target id within each source,
    which makes the representation canonical (two DAGs with the same edge set
    produce identical arrays).
    """
    sources = as_int_array(sources)
    targets = as_int_array(targets)
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have the same length")
    if sources.size:
        if sources.min() < 0 or sources.max() >= n:
            raise ValueError("edge source out of range")
        if targets.min() < 0 or targets.max() >= n:
            raise ValueError("edge target out of range")
    counts = np.bincount(sources, minlength=n).astype(_INT)
    indptr = np.zeros(n + 1, dtype=_INT)
    np.cumsum(counts, out=indptr[1:])
    # Sort edges by (source, target) so each CSR row is sorted.
    order = np.lexsort((targets, sources))
    indices = targets[order]
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def csr_counts(indptr: Array, nodes: Array) -> Array:
    """Per-node row lengths for the given ``nodes``."""
    return indptr[nodes + 1] - indptr[nodes]


def csr_gather(
    indptr: Array, indices: Array, nodes: Array
) -> tuple[Array, Array]:
    """Gather the concatenated CSR rows of ``nodes``.

    Returns ``(values, counts)`` where ``values`` is the concatenation of
    ``indices[indptr[u]:indptr[u+1]]`` for each ``u`` in ``nodes`` (in order)
    and ``counts[i]`` is the length contributed by ``nodes[i]``.

    This is the vectorized multi-range gather used by the level-synchronous
    graph algorithms; it avoids a Python-level loop over frontier nodes.
    """
    nodes = as_int_array(nodes)
    counts = csr_counts(indptr, nodes)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=_INT), counts
    # For output slot k, find which node it belongs to and its offset within
    # that node's row, then index straight into `indices`.
    ends = np.cumsum(counts)
    starts = ends - counts
    node_for_slot = np.repeat(np.arange(nodes.size, dtype=_INT), counts)
    within = np.arange(total, dtype=_INT) - starts[node_for_slot]
    values = indices[indptr[nodes][node_for_slot] + within]
    return values, counts


def repeat_by_counts(values: Array, counts: Array) -> Array:
    """``np.repeat`` wrapper with dtype normalization (hot-path helper)."""
    return np.repeat(as_int_array(values), as_int_array(counts))


def segment_max(values: Array, counts: Array, empty: int = 0) -> Array:
    """Max of each consecutive segment of ``values`` whose lengths are given
    by ``counts``; empty segments yield ``empty``.

    Used to compute ``height[u] = 1 + max(height[children(u)])`` one
    depth-level at a time without a per-node Python loop.
    """
    counts = as_int_array(counts)
    out = np.full(counts.size, empty, dtype=_INT)
    nonempty = counts > 0
    if not nonempty.any():
        return out
    ends = np.cumsum(counts)
    starts = (ends - counts)[nonempty]
    out[nonempty] = np.maximum.reduceat(values, starts)
    return out


def encode_priorities(prio: Array) -> Optional[Array]:
    """Composite int64 keys ``dense_rank(prio) * n + arange(n)``.

    The keys are unique and lexicographic in ``(priority, id)``, so a
    frontier sorted by key is sorted by priority with ties broken by id,
    and dense ranking keeps them in int64 whatever the priorities'
    magnitudes. A constant (or empty) ``prio`` returns ``None``: its
    encoding would be the identity, and an O(n) ``min``/``max`` scan
    skips the ranking sort.
    """
    n = prio.size
    if n == 0 or int(prio.min()) == int(prio.max()):
        return None
    ranks = np.unique(prio, return_inverse=True)[1]
    return ranks.astype(_INT) * n + np.arange(n, dtype=_INT)


def stable_unique(values: Sequence[int] | Array) -> Array:
    """Unique values preserving first-occurrence order."""
    arr = as_int_array(values)
    _, first = np.unique(arr, return_index=True)
    return arr[np.sort(first)]
