"""Property-based tests for DAG invariants."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DAG, CycleError, GraphError

from .strategies import general_dags, out_forests, out_trees


@given(general_dags())
def test_depth_of_roots_is_one(dag):
    assert bool(np.all(dag.depth[dag.roots] == 1))


@given(general_dags())
def test_height_of_leaves_is_one(dag):
    assert bool(np.all(dag.height[dag.leaves] == 1))


@given(general_dags())
def test_edge_increases_depth_and_decreases_height(dag):
    for u, v in dag.edge_list():
        assert dag.depth[v] >= dag.depth[u] + 1
        assert dag.height[u] >= dag.height[v] + 1


@given(general_dags())
def test_span_consistency(dag):
    """max depth == max height == longest path length."""
    assert dag.span == int(dag.depth.max()) == int(dag.height.max())


@given(general_dags())
def test_depth_plus_height_bounded_by_span(dag):
    # Each node lies on a path of depth + height - 1 nodes <= span.
    assert bool(np.all(dag.depth + dag.height - 1 <= dag.span))


@given(general_dags())
def test_deeper_than_profile_monotone(dag):
    profile = dag.deeper_than_profile
    assert bool(np.all(np.diff(profile) <= 0))
    assert profile[0] <= dag.work
    assert profile[-1] == 0


@given(general_dags())
def test_deeper_than_zero_counts_non_roots(dag):
    assert dag.deeper_than(1) == dag.n - int((dag.depth == 1).sum())


@given(general_dags())
def test_topological_order_respects_edges(dag):
    pos = np.empty(dag.n, dtype=np.int64)
    pos[dag.topological_order] = np.arange(dag.n)
    for u, v in dag.edge_list():
        assert pos[u] < pos[v]


@given(general_dags())
def test_indegree_outdegree_sum_to_edges(dag):
    assert int(dag.indegree.sum()) == dag.n_edges
    assert int(dag.outdegree.sum()) == dag.n_edges


@given(out_trees())
def test_out_tree_predicates(tree):
    assert tree.is_out_tree
    assert tree.is_out_forest
    assert tree.roots.size == 1
    assert tree.n_edges == tree.n - 1


@given(out_forests())
def test_forest_parent_array_roundtrip(forest):
    rebuilt = DAG.from_parents(forest.parent_array())
    assert rebuilt == forest


@given(out_forests())
def test_forest_components_partition_nodes(forest):
    seen = set()
    for root in forest.roots:
        comp = set(forest.descendants(int(root)).tolist()) | {int(root)}
        assert not (seen & comp)
        seen |= comp
    assert seen == set(range(forest.n))


@given(general_dags(), st.integers(0, 30))
def test_deeper_than_matches_profile(dag, d):
    if d <= dag.span:
        assert dag.deeper_than(d) == int(dag.deeper_than_profile[d])
    else:
        assert dag.deeper_than(d) == 0


@given(out_trees(max_nodes=15))
def test_induced_subgraph_of_executed_prefix_is_forest(tree):
    """Removing a downward-closed 'executed' set from an out-tree leaves an
    out-forest (the guess-and-double restart relies on this)."""
    # Execute nodes in topological order up to half.
    order = tree.topological_order
    k = tree.n // 2
    remaining = np.sort(order[k:])
    if remaining.size == 0:
        return
    sub, ids = tree.induced_subgraph(remaining)
    assert sub.is_out_forest
    assert sub.n == remaining.size


def _reference_induced_subgraph(dag, keep):
    """``DAG.induced_subgraph`` as first written: one pass over
    ``edge_list()`` keeping each edge whose endpoints are both kept."""
    original_ids = np.unique(np.asarray(keep, dtype=np.int64))
    new_id = np.full(dag.n, -1, dtype=np.int64)
    new_id[original_ids] = np.arange(original_ids.size, dtype=np.int64)
    edges = []
    for u, v in dag.edge_list():
        if new_id[u] >= 0 and new_id[v] >= 0:
            edges.append((int(new_id[u]), int(new_id[v])))
    return DAG(int(original_ids.size), edges), original_ids


@given(general_dags(max_nodes=30), st.data())
@settings(max_examples=150)
def test_induced_subgraph_matches_per_edge_filter(dag, data):
    """The array-masked edge filter pickles byte for byte like the per-edge
    loop, for any keep set (empty, repeated or unsorted ids included)."""
    keep = data.draw(st.lists(st.integers(0, dag.n - 1), max_size=dag.n + 3))
    assert pickle.dumps(dag.induced_subgraph(keep)) == pickle.dumps(
        _reference_induced_subgraph(dag, keep)
    )


@given(general_dags(max_nodes=12))
def test_union_preserves_structure(dag):
    union, offsets = DAG.disjoint_union([dag, dag])
    assert union.n == 2 * dag.n
    assert union.span == dag.span
    assert union.deeper_than(0) == 2 * dag.deeper_than(0)


@given(out_trees(max_nodes=12), out_trees(max_nodes=12))
def test_series_span_adds(a, b):
    assert a.series(b).span == a.span + b.span


@given(out_trees(max_nodes=12), out_trees(max_nodes=12))
def test_parallel_span_maxes(a, b):
    assert a.parallel(b).span == max(a.span, b.span)


# -- out-forest depth and height (pointer doubling) against independent
# -- references ---------------------------------------------------------------


def _reference_depth(parents: list[int]) -> list[int]:
    """``depth[v] = 1 + depth[parent[v]]``, roots 1, by walking up from each
    node to the nearest node whose depth is already known."""
    depth = [0] * len(parents)
    for v in range(len(parents)):
        path = []
        u = v
        while u >= 0 and not depth[u]:
            path.append(u)
            u = parents[u]
        d = depth[u] if u >= 0 else 0
        for w in reversed(path):
            d += 1
            depth[w] = d
    return depth


def _reference_height(parents: list[int]) -> list[int]:
    """``height[v] = 1 + max(height[c] for c in children(v))``, leaves 1, by
    folding each node into its parent deepest first (a node's height is
    final before its parent reads it)."""
    depth = _reference_depth(parents)
    height = [1] * len(parents)
    for v in sorted(range(len(parents)), key=depth.__getitem__, reverse=True):
        p = parents[v]
        if p >= 0:
            height[p] = max(height[p], height[v] + 1)
    return height


def _relabel(parents: list[int], perm: list[int]) -> list[int]:
    """The same forest with node ``v`` renamed ``perm[v]``."""
    out = [-1] * len(parents)
    for v, p in enumerate(parents):
        out[perm[v]] = -1 if p < 0 else perm[p]
    return out


@st.composite
def relabelled_parent_arrays(draw, max_nodes: int = 60) -> list[int]:
    """A random out-forest's parent array under a random relabelling, so
    parents need not precede their children."""
    n = draw(st.integers(1, max_nodes))
    parents = [-1] + [draw(st.integers(-1, i - 1)) for i in range(1, n)]
    perm = draw(st.permutations(range(n)))
    return _relabel(parents, perm)


@given(relabelled_parent_arrays())
def test_forest_depth_matches_reference(parents):
    dag = DAG.from_parents(parents)
    assert dag.is_out_forest
    assert dag.depth.tolist() == _reference_depth(parents)
    assert dag.depth.dtype == np.int64
    assert not dag.depth.flags.writeable
    assert dag.height.tolist() == _reference_height(parents)
    assert dag.height.dtype == np.int64
    assert not dag.height.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 1023, 1024, 1025, 5000])
def test_forest_depth_of_relabelled_chains(n):
    perm = np.random.default_rng(n).permutation(n).tolist()
    parents = _relabel(list(range(-1, n - 1)), perm)
    dag = DAG.from_parents(parents)
    assert dag.depth.tolist() == _reference_depth(parents)
    assert dag.height.tolist() == _reference_height(parents)
    assert dag.span == n


@pytest.mark.parametrize(
    "parents,unreachable",
    [([1, 0], 2), ([1, 2, 0, 2], 4), ([1, 2, 0, -1, 3], 3)],
)
def test_cyclic_parent_arrays_count_unreachable_nodes(parents, unreachable):
    """The nodes whose ancestor chain never reaches a root: each cycle plus
    everything hanging below it (the count the Kahn pass reports)."""
    with pytest.raises(CycleError, match=rf"\({unreachable} nodes unreachable\)"):
        DAG.from_parents(parents)


# -- from_parents against the validated edge constructor --------------------

_CSR = ("child_indptr", "child_indices", "parent_indptr", "parent_indices")
_DERIVED = ("indegree", "depth", "height", "roots")
_RUNS = ("order", "indptr", "run_id", "index_of", "steps_to_end")


def _edges_of(parents: list[int]) -> list[tuple[int, int]]:
    return [(p, c) for c, p in enumerate(parents) if p >= 0]


def _via_edges(parents: list[int]) -> DAG:
    """``DAG(n, edges_of(parents))`` behind the range check ``from_parents``
    makes first: the edge list cannot tell a root's ``-1`` from a ``-2``."""
    n = len(parents)
    if n and (max(parents) >= n or min(parents) < -1):
        raise GraphError("parent id out of range")
    return DAG(n, _edges_of(parents))


def _outcome(build, parents):
    """Everything a caller can observe of ``build(parents)``: the error's
    type and message, or the arrays (values, dtype, read-only flag), the
    shape flags and the chain runs."""
    try:
        dag = build(parents)
    except GraphError as exc:
        return type(exc), str(exc)
    arrays = [getattr(dag, name) for name in _CSR + _DERIVED]
    runs = dag.chain_runs
    arrays += [getattr(runs, name) for name in _RUNS]
    return dag.n, dag.is_out_forest, [(a.tolist(), a.dtype, a.flags.writeable) for a in arrays]


@st.composite
def parent_arrays(draw, kind: str, max_nodes: int = 40) -> list[int]:
    """A parent array of one of four kinds: ``parents-first`` (every
    parent id below its child's), ``relabelled`` (a forest under a random
    renaming), ``arbitrary`` (ids in ``[-1, n)``: cycles and self-loops
    too) and ``out-of-range`` (ids in ``[-3, n + 3)``)."""
    if kind == "relabelled":
        return draw(relabelled_parent_arrays(max_nodes))
    n = draw(st.integers(0, max_nodes))
    if kind == "parents-first":
        return [draw(st.integers(-1, i - 1)) for i in range(n)]
    low, high = (-1, n - 1) if kind == "arbitrary" else (-3, n + 2)
    return draw(st.lists(st.integers(low, high), min_size=n, max_size=n))


@pytest.mark.parametrize("kind", ["parents-first", "relabelled", "arbitrary", "out-of-range"])
@given(data=st.data())
@settings(max_examples=150)
def test_from_parents_matches_validated_constructor(kind, data):
    parents = data.draw(parent_arrays(kind))
    given_as = data.draw(st.sampled_from([list, lambda p: np.array(p, dtype=np.int64)]))
    assert _outcome(DAG.from_parents, given_as(parents)) == _outcome(_via_edges, parents)


@given(parent_arrays("parents-first"), parent_arrays("arbitrary"))
def test_only_unproven_parent_arrays_run_the_depth_pass(parents_first, arbitrary):
    """A parents-first array is acyclic by construction, so its depth waits
    for a reader; any other array runs the depth pass as its cycle check."""
    dag = DAG.from_parents(parents_first)
    assert "depth" not in vars(dag)
    assert {"indegree", "is_out_forest"} <= set(vars(dag))
    if all(p < c for c, p in enumerate(arbitrary)):
        return
    try:
        dag = DAG.from_parents(arbitrary)
    except CycleError:
        return
    assert "depth" in vars(dag)
