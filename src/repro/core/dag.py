"""Immutable DAG representation for dynamic-multithreaded jobs.

The paper (Section 3) models a job as a DAG whose vertices ("subjobs") are
unit-time atomic computations and whose edges are precedence constraints.
This module provides that representation plus the derived quantities the
algorithms and analyses need:

* ``depth(j)``  — number of nodes on the path from a root to ``j`` (roots
  have depth 1), Section 5 notation ``D(j)``;
* ``height(j)`` — number of nodes on the longest path from ``j`` to a leaf
  (leaves have height 1), Section 5 notation ``H(j)``;
* ``span``      — number of vertices on the longest path (``P_i``);
* ``work``      — number of vertices (``W_i``);
* ``deeper_than(d)`` — ``W(d)``, the number of subjobs with depth strictly
  greater than ``d`` (used by the Lemma 5.1 lower bound and the
  Corollary 5.4 closed form).

Nodes are integers ``0..n-1``. The adjacency is stored twice in CSR form
(children and parents) as ``int64`` numpy arrays; all derived quantities are
computed once, on first access, by vectorized passes: ``depth`` and
``height`` by pointer doubling on out-forests and one depth level at a time
on other DAGs (``depth`` by a Kahn pass). Instances are immutable: every
combinator returns a new DAG.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from .exceptions import CycleError, GraphError, NotAForestError
from .util import Array, as_int_array, build_csr, csr_gather, check_nonnegative_int

__all__ = [
    "DAG",
    "ChainRuns",
    "chain",
    "antichain",
    "star",
    "complete_kary_tree",
    "spider",
    "caterpillar",
]

_INT = np.int64
_INT_INFO = np.iinfo(_INT)


def _as_ids(values: Any, what: str) -> Array:
    """``values`` as a C-contiguous ``int64`` array of the same shape.

    An integer array passes on its dtype alone (no copy if already
    ``int64``). Anything else, a float, string or ``uint64`` array or a
    list NumPy could not type as ``int64``, is read entry by entry, and a
    :class:`GraphError` names the first entry that is not an integer or
    lies outside int64.
    """
    try:
        arr = np.asarray(values)
    except ValueError:
        raise GraphError(f"{what}s do not form a rectangular array") from None
    kind = arr.dtype.kind
    if kind == "i" or (kind == "u" and arr.dtype.itemsize < 8):
        return np.asarray(arr, dtype=_INT, order="C")
    if arr.size == 0:
        return np.zeros(arr.shape, dtype=_INT)
    ids = []
    # The object array keeps each entry as given: NumPy typed [-1, 2**63]
    # as float64.
    for value in np.asarray(values, dtype=object).flat:
        try:
            ids.append(operator.index(value))
        except TypeError:
            raise GraphError(f"{what} {value!r} is not an integer") from None
        if not _INT_INFO.min <= ids[-1] <= _INT_INFO.max:
            raise GraphError(f"{what} {value!r} is outside int64")
    return np.array(ids, dtype=_INT).reshape(arr.shape)


def _counting_sort_order(keys: Array, n: int) -> Array:
    """The stable argsort of ``keys``, ids in ``[0, n)``, by LSD radix.

    NumPy's stable sort is a radix (counting) sort for integers of 16
    bits or fewer and a timsort for wider ones, so each 16-bit digit
    costs O(len) and ids below ``2**16`` take one digit.
    """
    order = keys.astype(np.uint16).argsort(kind="stable")  # the low digit
    for shift in range(16, (n - 1).bit_length(), 16):
        order = order[(keys[order] >> shift).astype(np.uint16).argsort(kind="stable")]
    return order


@dataclass(frozen=True)
class ChainRuns:
    """Chain-run decomposition of a DAG (engine macro-stepping input).

    A *chain run* is a maximal path ``v_0 → v_1 → ... → v_{k-1}`` in which
    every non-terminal node has exactly one child and every non-head node
    has exactly one parent. Runs partition the node set: a node whose sole
    parent branches (or that has zero / multiple parents) heads a new run,
    and a node with out-degree ≠ 1 — or whose sole child has another
    parent — terminates its run. Singleton runs are legal, so every node
    belongs to exactly one run and ``steps_to_end >= 1`` everywhere.

    While a run's current node is scheduled, the next ``steps_to_end - 1``
    selections of that slot are forced one-per-step — the property the
    simulator's macro-step commit exploits (``docs/engine-internals.md``).

    Attributes
    ----------
    order:
        ``(n,)`` all nodes grouped by run, path order within each run.
    indptr:
        ``(n_runs + 1,)`` run ``r`` occupies ``order[indptr[r]:indptr[r+1]]``.
    run_id:
        ``(n,)`` run index of each node.
    index_of:
        ``(n,)`` position of each node inside ``order``.
    steps_to_end:
        ``(n,)`` nodes from ``v`` through its run's terminal, inclusive.
    """

    order: Array
    indptr: Array
    run_id: Array
    index_of: Array
    steps_to_end: Array

    @property
    def n_runs(self) -> int:
        return int(self.indptr.size - 1)


class DAG:
    """An immutable unit-work precedence DAG.

    Parameters
    ----------
    n:
        Number of nodes. Nodes are ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs meaning *u must complete before v
        starts*. Duplicate edges are rejected.

    Notes
    -----
    Construction sorts the edges (duplicate check and both CSR arrays) and
    computes :attr:`depth`, which doubles as the eager cycle check, so a
    ``DAG`` object is always valid by the time user code holds it. The depth
    pass is O(n log span) in ``⌈log2 span⌉`` rounds on out-forests (every
    in-degree <= 1) and O(n + e) in ``span`` rounds of about ten NumPy calls
    on other DAGs; the whole construction is O(n log n + e log e). The
    lazily computed :attr:`height` takes the same number of rounds: also
    ``⌈log2 span⌉`` on out-forests, one per depth level on other DAGs.

    :meth:`from_parents` skips the edge sorts: it builds both CSR halves
    from the parent array in O(n), by a prefix sum, a bincount and a
    counting sort. The depth pass is the cycle check only for a parent
    array that does not prove acyclicity itself; when every parent id is
    below its child's, :attr:`depth` waits for its first reader, as
    :attr:`height` does.

    Every id must be an integer within int64: a float, string or oversized
    entry raises :class:`GraphError` naming it rather than being truncated.
    """

    __slots__ = (
        "n",
        "child_indptr",
        "child_indices",
        "parent_indptr",
        "parent_indices",
        "__dict__",  # for cached_property storage
    )

    def __init__(
        self, n: int, edges: Iterable[tuple[int, int]] | Array = ()
    ) -> None:
        self.n = check_nonnegative_int(n, "n")
        # An (e, 2) integer array skips the Python-tuple round trip (matters
        # when freezing multi-million-node DAGs); other iterables are listed.
        arr = _as_ids(
            edges if isinstance(edges, np.ndarray) else list(edges), "edge endpoint"
        )
        if arr.size:
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise GraphError("edges must be (u, v) pairs")
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = dst = np.empty(0, dtype=_INT)
        if src.size:
            if np.any(src == dst):
                raise CycleError("self-loop edge found")
            # Sorted pair keys put duplicates side by side (a sort is an
            # order of magnitude cheaper than NumPy 2's hash-based unique).
            pair_keys = np.sort(src * np.int64(self.n) + dst)
            if np.any(pair_keys[1:] == pair_keys[:-1]):
                raise GraphError("duplicate edge found")
        self.child_indptr, self.child_indices = build_csr(self.n, src, dst)
        self.parent_indptr, self.parent_indices = build_csr(self.n, dst, src)
        # Eager acyclicity check: computing depth visits every node.
        _ = self.depth

    # ------------------------------------------------------------------
    # Alternative constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_parents(cls, parents: Sequence[int]) -> "DAG":
        """Build an out-forest from a parent array.

        ``parents[i]`` is the (single) parent of node ``i``, or ``-1`` for a
        root. This is the natural encoding for trees and is used by every
        tree workload generator.

        Checks, in order: every entry is an integer within int64 and the
        array is 1-D (:class:`GraphError`), every id lies in ``[-1, n)``
        (:class:`GraphError`), and no node is its own parent or ancestor
        (:class:`CycleError`, as ``DAG(n, edges)`` raises it). The CSR
        arrays come straight from the parents: the parent half is
        ``cumsum(parents >= 0)`` and the kept parent ids, the child half a
        stable counting sort of the children by parent; both equal the
        edge constructor's byte for byte.

        Stores the in-degrees (``parents >= 0``) and ``is_out_forest``.
        Leaves :attr:`depth` to its first reader when every parent id is
        below its child's (one compare proves the array acyclic); any other
        array runs the depth pass now, as the cycle check.
        """
        parr = _as_ids(parents, "parent id")
        if parr.ndim != 1:
            raise GraphError(f"parents must be a 1-D array, got shape {parr.shape}")
        n = parr.size
        ids = np.arange(n, dtype=_INT)
        # A parent below its child rules out ids >= n, self-loops and cycles.
        parents_first = bool((parr < ids).all())
        if n and (parr.min() < -1 or (not parents_first and parr.max() >= n)):
            raise GraphError("parent id out of range")
        if not parents_first and (parr == ids).any():
            raise CycleError("self-loop edge found")
        has_parent = parr >= 0
        indegree = has_parent.astype(_INT)
        # ``add.accumulate`` is ``cumsum`` without its dispatch layers,
        # which cost more than the sum on a tree of a few hundred nodes.
        parent_indptr = np.zeros(n + 1, dtype=_INT)
        np.add.accumulate(indegree, out=parent_indptr[1:])
        parent_indices = parr[has_parent]
        child_indptr = np.zeros(n + 1, dtype=_INT)
        np.add.accumulate(np.bincount(parent_indices, minlength=n), out=child_indptr[1:])
        # Children are listed in id order, so a stable sort by parent keeps
        # each row sorted, as the edge constructor's lexsort does.
        child_indices = ids[has_parent][_counting_sort_order(parent_indices, n)]
        dag = cls.__new__(cls)
        dag.n = n
        dag.child_indptr, dag.child_indices = child_indptr, child_indices
        dag.parent_indptr, dag.parent_indices = parent_indptr, parent_indices
        for arr in (child_indptr, child_indices, parent_indptr, parent_indices, indegree):
            arr.setflags(write=False)
        vars(dag).update(indegree=indegree, is_out_forest=True)
        if not parents_first:
            _ = dag.depth
        return dag

    @classmethod
    def from_networkx(cls, graph: Any) -> "DAG":
        """Build from a ``networkx.DiGraph`` whose nodes are ``0..n-1``."""
        n = graph.number_of_nodes()
        if set(graph.nodes) != set(range(n)):
            raise GraphError("networkx graph nodes must be exactly 0..n-1")
        return cls(n, graph.edges())

    def to_networkx(self) -> Any:
        """Export to a ``networkx.DiGraph`` (for plotting / interop)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.edge_list())
        return g

    # ------------------------------------------------------------------
    # Basic structure queries
    # ------------------------------------------------------------------

    def children(self, u: int) -> Array:
        """Direct successors of ``u`` (sorted)."""
        return self.child_indices[self.child_indptr[u] : self.child_indptr[u + 1]]

    def parents(self, u: int) -> Array:
        """Direct predecessors of ``u`` (sorted)."""
        return self.parent_indices[self.parent_indptr[u] : self.parent_indptr[u + 1]]

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` tuples, sorted by ``(u, v)``."""
        sources = np.repeat(
            np.arange(self.n, dtype=_INT), np.diff(self.child_indptr)
        )
        return list(zip(sources.tolist(), self.child_indices.tolist()))

    @cached_property
    def indegree(self) -> Array:
        """Number of parents per node (read-only)."""
        deg = np.diff(self.parent_indptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def outdegree(self) -> Array:
        """Number of children per node (read-only)."""
        deg = np.diff(self.child_indptr)
        deg.setflags(write=False)
        return deg

    @cached_property
    def roots(self) -> Array:
        """Nodes with no predecessors, ascending."""
        r = np.nonzero(self.indegree == 0)[0]
        r.setflags(write=False)
        return r

    @cached_property
    def leaves(self) -> Array:
        """Nodes with no successors, ascending."""
        lv = np.nonzero(self.outdegree == 0)[0]
        lv.setflags(write=False)
        return lv

    @property
    def work(self) -> int:
        """Total number of subjobs (``W_i`` in the paper)."""
        return self.n

    @property
    def n_edges(self) -> int:
        return int(self.child_indices.size)

    # ------------------------------------------------------------------
    # Depth / height / span (level-synchronous vectorized passes)
    # ------------------------------------------------------------------

    @cached_property
    def depth(self) -> Array:
        """``D(j)``: nodes on the root→j path; roots have depth 1.

        Out-forests (every in-degree <= 1) take a pointer-doubling pass over
        the parent pointers: ``⌈log2 span⌉`` rounds of a gather and an add.
        Other DAGs take a vectorized Kahn pass, one round per depth level.
        Either raises :class:`CycleError` if the edge set is cyclic (this
        runs at construction time, except on a parent array whose parents
        precede their children, which cannot be cyclic), counting the nodes
        that no root reaches.
        """
        # The out-forest test is spelled out rather than read from the cached
        # ``is_out_forest``: caching it here would add it to the state of
        # every DAG, and so to every pickle of one.
        if np.all(self.indegree <= 1):
            return self._forest_depth()
        n = self.n
        depth = np.zeros(n, dtype=_INT)
        remaining = self.indegree.copy()
        frontier = np.nonzero(remaining == 0)[0]
        depth[frontier] = 1
        processed = frontier.size
        while frontier.size:
            kids, counts = csr_gather(self.child_indptr, self.child_indices, frontier)
            if kids.size == 0:
                break
            parent_depth = np.repeat(depth[frontier] + 1, counts)
            np.maximum.at(depth, kids, parent_depth)
            np.subtract.at(remaining, kids, 1)
            # A child may appear several times in `kids`; take each once.
            candidates = np.unique(kids)
            frontier = candidates[remaining[candidates] == 0]
            processed += frontier.size
        if processed != n:
            raise CycleError(f"graph has a cycle ({n - processed} nodes unreachable)")
        depth.setflags(write=False)
        return depth

    def _parent_jump(self) -> Array:
        """Out-forest parent pointers with the sentinel ``n`` past a root
        (``n + 1`` entries; the sentinel points at itself)."""
        n = self.n
        jump = np.full(n + 1, n, dtype=_INT)
        jump[:n][self.indegree == 1] = self.parent_indices
        return jump

    def _forest_depth(self) -> Array:
        """:attr:`depth` of an out-forest by pointer doubling.

        ``jump[v]`` is an ancestor of ``v`` (the sentinel ``n`` past a
        root) and ``hops[v]`` counts the nodes from ``v`` up to it; each
        round doubles the jump. A node still short of the sentinel after
        ``n`` hops lies on or below a cycle, which no root reaches.
        """
        n = self.n
        jump = self._parent_jump()
        hops = np.ones(n + 1, dtype=_INT)
        hops[n] = 0
        for _ in range(n.bit_length()):
            if jump.min() == n:
                break
            hops += hops[jump]
            jump = jump[jump]
        unreachable = int(np.count_nonzero(jump != n))
        if unreachable:
            raise CycleError(f"graph has a cycle ({unreachable} nodes unreachable)")
        depth = hops[:n]
        depth.setflags(write=False)
        return depth

    @cached_property
    def height(self) -> Array:
        """``H(j)``: nodes on the longest j→leaf path; leaves have height 1.

        Out-forests (every in-degree <= 1) take a pointer-doubling pass:
        ``⌈log2 span⌉`` rounds of a scatter-max and a gather. Other DAGs
        iterate depth levels from deepest to shallowest (a node's children
        always have strictly larger depth, so that is a valid reverse
        topological order), one round per level.
        """
        if np.all(self.indegree <= 1):
            return self._forest_height()
        n = self.n
        height = np.zeros(n, dtype=_INT)
        depth = self.depth
        if n == 0:
            height.setflags(write=False)
            return height
        order = np.argsort(depth, kind="stable")[::-1]  # deepest first
        level_starts = np.nonzero(np.diff(depth[order]) != 0)[0] + 1
        blocks = np.split(order, level_starts)
        from .util import segment_max

        for block in blocks:
            kids, counts = csr_gather(self.child_indptr, self.child_indices, block)
            height[block] = 1 + segment_max(height[kids], counts, empty=0)
        height.setflags(write=False)
        return height

    def _forest_height(self) -> Array:
        """:attr:`height` of an out-forest by pointer doubling.

        After ``k`` rounds ``best[v]`` is the largest depth among the nodes
        of ``v``'s subtree fewer than ``2**k`` hops below ``v``: a round
        pushes every node's ``best`` up to its ``2**k``-th ancestor
        ``jump[v]`` (the sentinel ``n`` past a root), then doubles the
        jump. Once every jump is past a root, ``best`` spans each whole
        subtree and ``height = best - depth + 1``.
        """
        n = self.n
        depth = self.depth
        jump = self._parent_jump()
        best = np.zeros(n + 1, dtype=_INT)
        best[:n] = depth
        while jump.min() < n:
            # In place: a value already raised this round is still the
            # depth of a descendant, so pushing it further up is harmless.
            np.maximum.at(best, jump, best)
            jump = jump[jump]
        height = best[:n] - depth + 1
        height.setflags(write=False)
        return height

    @property
    def span(self) -> int:
        """``P_i``: the number of vertices on the longest path."""
        if self.n == 0:
            return 0
        return int(self.depth.max())

    @cached_property
    def max_depth(self) -> int:
        """Maximum depth of any node (equals :attr:`span`)."""
        return self.span

    @cached_property
    def depth_counts(self) -> Array:
        """``depth_counts[d]`` = number of nodes with depth exactly ``d``
        (index 0 unused)."""
        counts = np.bincount(self.depth, minlength=self.span + 1).astype(_INT)
        counts.setflags(write=False)
        return counts

    def deeper_than(self, d: int) -> int:
        """``W(d)``: the number of subjobs with depth strictly greater than
        ``d`` (Section 5 notation ``W_i(d)``)."""
        d = check_nonnegative_int(d, "d")
        if d >= self.span:
            return 0
        return int(self.depth_counts[d + 1 :].sum())

    @cached_property
    def deeper_than_profile(self) -> Array:
        """Vector ``[W(0), W(1), ..., W(span)]`` (``W(span) == 0``)."""
        suffix = np.concatenate(
            [np.cumsum(self.depth_counts[::-1])[::-1][1:], np.zeros(1, dtype=_INT)]
        )
        suffix.setflags(write=False)
        return suffix

    @cached_property
    def topological_order(self) -> Array:
        """Any topological order (by nondecreasing depth, ties by id)."""
        order = np.lexsort((np.arange(self.n, dtype=_INT), self.depth))
        order.setflags(write=False)
        return order

    # ------------------------------------------------------------------
    # Shape predicates
    # ------------------------------------------------------------------

    @cached_property
    def is_out_forest(self) -> bool:
        """True iff every node has at most one parent."""
        return bool(np.all(self.indegree <= 1))

    @cached_property
    def is_out_tree(self) -> bool:
        """True iff the DAG is an out-forest with exactly one root (and is
        therefore connected)."""
        return self.is_out_forest and self.roots.size == 1 and self.n >= 1

    @cached_property
    def is_chain(self) -> bool:
        """True iff the DAG is a single directed path (sequential job)."""
        if self.n <= 1:
            return True
        return (
            self.is_out_tree
            and bool(np.all(self.outdegree <= 1))
        )

    @cached_property
    def chain_runs(self) -> ChainRuns:
        """The :class:`ChainRuns` decomposition (computed once, cached).

        Vectorized: chain links are one mask over the parent CSR, run heads
        resolve by pointer doubling (O(n log n) work, O(log n) passes), and
        in-run positions fall out of :attr:`depth` — a chain child is
        always exactly one level below its chain parent.
        """
        n = self.n
        # v's chain parent: its sole parent p, provided p has exactly one
        # child (then the edge p→v can never be scheduled other than
        # back-to-back under a forced frontier).
        link = np.full(n, -1, dtype=_INT)
        single = np.nonzero(self.indegree == 1)[0]
        if single.size:
            par = self.parent_indices[self.parent_indptr[single]]
            chained = self.outdegree[par] == 1
            link[single[chained]] = par[chained]
        head = np.where(link >= 0, link, np.arange(n, dtype=_INT))
        while True:
            nxt = head[head]
            if np.array_equal(nxt, head):
                break
            head = nxt
        heads, run_id = np.unique(head, return_inverse=True)
        run_id = run_id.astype(_INT, copy=False)
        indptr = np.zeros(heads.size + 1, dtype=_INT)
        np.cumsum(np.bincount(run_id, minlength=heads.size), out=indptr[1:])
        pos = self.depth - self.depth[head]
        index_of = indptr[run_id] + pos
        order = np.empty(n, dtype=_INT)
        order[index_of] = np.arange(n, dtype=_INT)
        steps_to_end = indptr[run_id + 1] - index_of
        for arr in (order, indptr, run_id, index_of, steps_to_end):
            arr.setflags(write=False)
        return ChainRuns(
            order=order,
            indptr=indptr,
            run_id=run_id,
            index_of=index_of,
            steps_to_end=steps_to_end,
        )

    def require_out_forest(self) -> None:
        """Raise :class:`NotAForestError` unless this is an out-forest."""
        if not self.is_out_forest:
            bad = int(np.nonzero(self.indegree > 1)[0][0])
            raise NotAForestError(
                f"node {bad} has {int(self.indegree[bad])} parents; out-forests "
                "require at most one"
            )

    def parent_array(self) -> Array:
        """Out-forest encoding: ``parent[i]`` or ``-1`` for roots.

        Raises :class:`NotAForestError` on general DAGs.
        """
        self.require_out_forest()
        parents = np.full(self.n, -1, dtype=_INT)
        has_parent = self.indegree == 1
        parents[has_parent] = self.parent_indices[
            self.parent_indptr[np.nonzero(has_parent)[0]]
        ]
        parents.setflags(write=False)
        return parents

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    @staticmethod
    def disjoint_union(dags: Sequence["DAG"]) -> tuple["DAG", Array]:
        """Disjoint union of ``dags``.

        Returns ``(union, offsets)`` where the nodes of ``dags[i]`` appear in
        the union as ``offsets[i] + local_id``. ``offsets`` has one extra
        entry equal to the union's node count, so
        ``offsets[i]:offsets[i+1]`` slices out component ``i``.
        """
        sizes = np.array([d.n for d in dags], dtype=_INT)
        offsets = np.zeros(len(dags) + 1, dtype=_INT)
        np.cumsum(sizes, out=offsets[1:])
        parts: list[Array] = []
        for off, d in zip(offsets[:-1].tolist(), dags):
            if not d.child_indices.size:
                continue
            part = np.empty((d.child_indices.size, 2), dtype=_INT)
            part[:, 0] = off + np.repeat(
                np.arange(d.n, dtype=_INT), np.diff(d.child_indptr)
            )
            part[:, 1] = off + d.child_indices
            parts.append(part)
        edges = (
            np.concatenate(parts) if parts else np.empty((0, 2), dtype=_INT)
        )
        return DAG(int(offsets[-1]), edges), offsets

    def series(self, other: "DAG") -> "DAG":
        """Series composition: every leaf of ``self`` precedes every root of
        ``other`` (used by the series-parallel workload builder)."""
        union, offsets = DAG.disjoint_union([self, other])
        off = int(offsets[1])
        extra = [
            (int(leaf), off + int(root))
            for leaf in self.leaves
            for root in other.roots
        ]
        return DAG(union.n, union.edge_list() + extra)

    def parallel(self, other: "DAG") -> "DAG":
        """Parallel composition: plain disjoint union."""
        union, _ = DAG.disjoint_union([self, other])
        return union

    def transitive_reduction(self) -> "DAG":
        """The minimal DAG with the same reachability (unique for DAGs).

        Redundant edges — those implied by a longer path — are removed.
        Precedence-equivalent: any feasible schedule for the reduction is
        feasible for the original and vice versa. Out-forests are already
        reduced (each node has a single parent). O(n·e) worst case; meant
        for analysis/visualization, not hot paths.
        """
        if self.is_out_forest:
            return self
        keep: list[tuple[int, int]] = []
        for u in range(self.n):
            kids = self.children(u)
            if kids.size <= 1:
                keep.extend((u, int(v)) for v in kids)
                continue
            kid_set = set(int(v) for v in kids)
            # v is redundant if reachable from another child of u.
            redundant: set[int] = set()
            for w in kids:
                reach = self.descendants(int(w))
                redundant.update(kid_set.intersection(reach.tolist()))
            keep.extend((u, v) for v in kid_set - redundant)
        return DAG(self.n, keep)

    def induced_subgraph(
        self, keep: Sequence[int] | Array
    ) -> tuple["DAG", Array]:
        """Subgraph induced on ``keep`` (edges with both endpoints kept).

        Returns ``(sub, original_ids)`` where node ``k`` of ``sub``
        corresponds to ``original_ids[k]`` of this DAG. The main use is the
        *remainder* of a partially executed job: if the removed nodes are
        downward-closed under "executed" (no kept node precedes a removed
        one), the remainder of an out-forest is again an out-forest whose
        new roots are exactly the subjobs whose parents have executed.
        """
        original_ids = np.unique(as_int_array(keep))
        if original_ids.size and (
            original_ids.min() < 0 or original_ids.max() >= self.n
        ):
            raise GraphError("induced_subgraph: node id out of range")
        new_id = np.full(self.n, -1, dtype=_INT)
        new_id[original_ids] = np.arange(original_ids.size, dtype=_INT)
        src = new_id[
            np.repeat(np.arange(self.n, dtype=_INT), np.diff(self.child_indptr))
        ]
        dst = new_id[self.child_indices]
        kept = (src >= 0) & (dst >= 0)
        edges = np.stack([src[kept], dst[kept]], axis=1)
        return DAG(int(original_ids.size), edges), original_ids

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def descendants(self, u: int) -> Array:
        """All nodes reachable from ``u`` (excluding ``u``), ascending."""
        seen = np.zeros(self.n, dtype=bool)
        frontier = self.children(u)
        while frontier.size:
            fresh = frontier[~seen[frontier]]
            seen[fresh] = True
            frontier, _ = csr_gather(self.child_indptr, self.child_indices, fresh)
            frontier = np.unique(frontier)
        return np.nonzero(seen)[0]

    def ancestors(self, u: int) -> Array:
        """All nodes that reach ``u`` (excluding ``u``), ascending."""
        seen = np.zeros(self.n, dtype=bool)
        frontier = self.parents(u)
        while frontier.size:
            fresh = frontier[~seen[frontier]]
            seen[fresh] = True
            frontier, _ = csr_gather(self.parent_indptr, self.parent_indices, fresh)
            frontier = np.unique(frontier)
        return np.nonzero(seen)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DAG):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.child_indptr, other.child_indptr)
            and np.array_equal(self.child_indices, other.child_indices)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.child_indices.tobytes(), self.child_indptr.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "out-tree" if self.is_out_tree else (
            "out-forest" if self.is_out_forest else "dag"
        )
        return (
            f"DAG(n={self.n}, edges={self.n_edges}, span={self.span}, kind={kind})"
        )


# ----------------------------------------------------------------------
# Canonical small shapes (deterministic builders)
# ----------------------------------------------------------------------


def chain(n: int) -> DAG:
    """A sequential job: path ``0 → 1 → ... → n-1``."""
    check_nonnegative_int(n, "n")
    return DAG(n, ((i, i + 1) for i in range(n - 1)))


def antichain(n: int) -> DAG:
    """A fully parallel job: ``n`` independent unit subjobs."""
    check_nonnegative_int(n, "n")
    return DAG(n, ())


def star(n_leaves: int) -> DAG:
    """A root (node 0) with ``n_leaves`` independent children."""
    check_nonnegative_int(n_leaves, "n_leaves")
    return DAG(n_leaves + 1, ((0, i) for i in range(1, n_leaves + 1)))


def complete_kary_tree(branching: int, levels: int) -> DAG:
    """Complete ``branching``-ary out-tree with ``levels`` levels.

    ``levels=1`` is a single node; each internal node has exactly
    ``branching`` children. Node ids follow BFS order (root = 0).
    """
    if branching < 1:
        raise ValueError("branching must be >= 1")
    check_nonnegative_int(levels, "levels")
    if levels == 0:
        return DAG(0)
    sizes = [branching**i for i in range(levels)]
    n = sum(sizes)
    parents = np.full(n, -1, dtype=_INT)
    ids = np.arange(1, n, dtype=_INT)
    parents[1:] = (ids - 1) // branching
    return DAG.from_parents(parents)


def spider(n_legs: int, leg_length: int) -> DAG:
    """A root with ``n_legs`` chains of ``leg_length`` nodes hanging off it.

    This is the canonical "one long sequential part plus parallel slack"
    shape when ``leg_length`` varies; with equal legs it stresses tie-breaks.
    """
    check_nonnegative_int(n_legs, "n_legs")
    check_nonnegative_int(leg_length, "leg_length")
    parents = [-1]
    for leg in range(n_legs):
        base = 1 + leg * leg_length
        for k in range(leg_length):
            parents.append(0 if k == 0 else base + k - 1)
    return DAG.from_parents(parents)


def caterpillar(spine: int, legs_per_node: int) -> DAG:
    """A chain of length ``spine`` where every spine node additionally has
    ``legs_per_node`` leaf children."""
    check_nonnegative_int(spine, "spine")
    check_nonnegative_int(legs_per_node, "legs_per_node")
    parents: list[int] = []
    spine_ids: list[int] = []
    prev = -1
    for _ in range(spine):
        parents.append(prev)
        prev = len(parents) - 1
        spine_ids.append(prev)
        for _ in range(legs_per_node):
            parents.append(prev)
    return DAG.from_parents(parents)
