"""Unit tests for the DAG representation and derived quantities."""

import numpy as np
import pytest

from repro.core import (
    DAG,
    CycleError,
    GraphError,
    NotAForestError,
    antichain,
    caterpillar,
    chain,
    complete_kary_tree,
    spider,
    star,
)


class TestConstruction:
    def test_empty_dag(self):
        d = DAG(0)
        assert d.n == 0 and d.span == 0 and d.work == 0

    def test_single_node(self):
        d = DAG(1)
        assert d.span == 1
        assert d.roots.tolist() == [0]
        assert d.leaves.tolist() == [0]

    def test_edges_recorded_both_directions(self, small_tree):
        assert small_tree.children(0).tolist() == [1, 2]
        assert small_tree.parents(4).tolist() == [2]
        assert small_tree.parents(0).size == 0

    def test_edge_list_roundtrip(self, small_tree):
        rebuilt = DAG(small_tree.n, small_tree.edge_list())
        assert rebuilt == small_tree

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            DAG(2, [(0, 0)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            DAG(2, [(0, 1), (1, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate"):
            DAG(2, [(0, 1), (0, 1)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(GraphError):
            DAG(3, [(0, 1, 2)])

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            DAG(2, [(0, 5)])

    def test_negative_n(self):
        with pytest.raises(ValueError):
            DAG(-1)

    @pytest.mark.parametrize(
        "edges,message",
        [
            # Truncated, this would be the edge (0, 1).
            pytest.param([(0, 1.5)], r"edge endpoint 1\.5 is not an integer", id="float"),
            pytest.param(
                np.array([[0, 1.0]]), r"edge endpoint 0\.0 is not an integer", id="float-array"
            ),
            pytest.param([(0, "1")], r"edge endpoint '1' is not an integer", id="string"),
            pytest.param(
                [(0, 2**70)], r"edge endpoint 1180591620717411303424 is outside int64", id="2**70"
            ),
            pytest.param(
                [(0, 1), (1, 2, 3)], r"edge endpoints do not form a rectangular array", id="ragged"
            ),
        ],
    )
    def test_bad_edge_arrays_name_the_entry(self, edges, message):
        with pytest.raises(GraphError, match=message):
            DAG(3, edges)

    def test_narrow_integer_edges_accepted(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.uint16)
        assert DAG(3, edges) == chain(3)


class TestFromParents:
    def test_tree(self):
        d = DAG.from_parents([-1, 0, 0, 1])
        assert d.is_out_tree
        assert d.children(0).tolist() == [1, 2]
        assert d.children(1).tolist() == [3]

    def test_forest(self):
        d = DAG.from_parents([-1, -1, 0, 1])
        assert d.is_out_forest and not d.is_out_tree
        assert d.roots.tolist() == [0, 1]

    def test_roundtrip_parent_array(self):
        parents = [-1, 0, 0, 2, 2, -1]
        d = DAG.from_parents(parents)
        assert d.parent_array().tolist() == parents

    def test_out_of_range_parent(self):
        with pytest.raises(GraphError):
            DAG.from_parents([-1, 7])

    def test_parent_cycle_detected(self):
        with pytest.raises(CycleError):
            DAG.from_parents([1, 0])

    @pytest.mark.parametrize(
        "parents,message",
        [
            # Truncated, this would be the 2-node tree [-1, 0].
            pytest.param([-1, 0.5], r"parent id 0\.5 is not an integer", id="float"),
            # Flattened, this would be the 4-node tree [-1, 0, 0, 1].
            pytest.param([[-1, 0], [0, 1]], r"1-D array, got shape \(2, 2\)", id="2-D"),
            # NumPy's int64 conversion raises a bare OverflowError here.
            pytest.param(
                [-1, 2**70], "parent id 1180591620717411303424 is outside int64", id="2**70"
            ),
            pytest.param(
                np.array([-1.0, 0.0]), r"parent id -1\.0 is not an integer", id="float-array"
            ),
            pytest.param([-1, "0"], r"parent id '0' is not an integer", id="string"),
            pytest.param(
                [-1, 2**63], r"parent id 9223372036854775808 is outside int64", id="2**63"
            ),
            pytest.param(
                np.array([2**64 - 1, 0], dtype=np.uint64), "is outside int64", id="uint64"
            ),
            pytest.param(np.array(0), r"1-D array, got shape \(\)", id="0-D"),
        ],
    )
    def test_bad_parent_arrays_name_the_entry(self, parents, message):
        with pytest.raises(GraphError, match=message):
            DAG.from_parents(parents)

    def test_empty_and_narrow_integer_parents_accepted(self):
        assert DAG.from_parents([]) == DAG(0)
        assert DAG.from_parents(np.array([-1, 0, 1], dtype=np.int8)) == chain(3)


class TestNetworkx:
    def test_roundtrip(self, small_tree):
        g = small_tree.to_networkx()
        assert g.number_of_nodes() == small_tree.n
        assert DAG.from_networkx(g) == small_tree

    def test_bad_node_labels(self):
        import networkx as nx

        g = nx.DiGraph()
        g.add_edge("a", "b")
        with pytest.raises(GraphError):
            DAG.from_networkx(g)


class TestDepthHeight:
    def test_small_tree_depths(self, small_tree):
        # 0 root; 1,2 at depth 2; 3,4 at depth 3; 5 at depth 4
        assert small_tree.depth.tolist() == [1, 2, 2, 3, 3, 4]

    def test_small_tree_heights(self, small_tree):
        # leaves 1,3,5 -> 1; 4 -> 2; 2 -> 3; 0 -> 4
        assert small_tree.height.tolist() == [4, 1, 3, 1, 2, 1]

    def test_diamond_depths(self, diamond):
        assert diamond.depth.tolist() == [1, 2, 2, 3]

    def test_diamond_heights(self, diamond):
        assert diamond.height.tolist() == [3, 2, 2, 1]

    def test_span_equals_longest_path(self, small_tree, diamond):
        assert small_tree.span == 4
        assert diamond.span == 3

    def test_depth_immutable(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.depth[0] = 9

    def test_chain_depth_height_mirror(self):
        d = chain(6)
        assert d.depth.tolist() == [1, 2, 3, 4, 5, 6]
        assert d.height.tolist() == [6, 5, 4, 3, 2, 1]

    def test_antichain(self):
        d = antichain(4)
        assert d.depth.tolist() == [1, 1, 1, 1]
        assert d.height.tolist() == [1, 1, 1, 1]
        assert d.span == 1

    def test_deep_unbalanced_height(self):
        # 0 -> 1, 0 -> 2, 2 -> 3: child of root at much deeper level.
        d = DAG(5, [(0, 1), (0, 2), (2, 3), (3, 4)])
        assert d.height[0] == 4
        assert d.height[1] == 1


class TestProfiles:
    def test_deeper_than(self, small_tree):
        # depths [1,2,2,3,3,4]
        assert small_tree.deeper_than(0) == 6
        assert small_tree.deeper_than(1) == 5
        assert small_tree.deeper_than(2) == 3
        assert small_tree.deeper_than(3) == 1
        assert small_tree.deeper_than(4) == 0
        assert small_tree.deeper_than(99) == 0

    def test_profile_vector(self, small_tree):
        assert small_tree.deeper_than_profile.tolist() == [6, 5, 3, 1, 0]

    def test_profile_matches_pointwise(self, kary):
        profile = kary.deeper_than_profile
        for d in range(kary.span + 1):
            assert profile[d] == kary.deeper_than(d)

    def test_depth_counts(self, kary):
        assert kary.depth_counts.tolist() == [0, 1, 2, 4, 8]

    def test_negative_d_rejected(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.deeper_than(-1)


class TestTopologicalOrder:
    def test_valid_order(self, diamond):
        order = diamond.topological_order
        pos = {int(v): i for i, v in enumerate(order)}
        for u, v in diamond.edge_list():
            assert pos[u] < pos[v]

    def test_is_permutation(self, kary):
        assert sorted(kary.topological_order.tolist()) == list(range(kary.n))


class TestPredicates:
    def test_out_tree(self, small_tree):
        assert small_tree.is_out_tree and small_tree.is_out_forest

    def test_diamond_not_forest(self, diamond):
        assert not diamond.is_out_forest and not diamond.is_out_tree

    def test_forest_not_tree(self):
        d = DAG.from_parents([-1, -1])
        assert d.is_out_forest and not d.is_out_tree

    def test_chain_is_chain(self):
        assert chain(4).is_chain
        assert chain(1).is_chain

    def test_tree_not_chain(self, small_tree):
        assert not small_tree.is_chain

    def test_require_out_forest(self, diamond):
        with pytest.raises(NotAForestError):
            diamond.require_out_forest()

    def test_parent_array_requires_forest(self, diamond):
        with pytest.raises(NotAForestError):
            diamond.parent_array()


class TestCombinators:
    def test_disjoint_union_offsets(self, small_tree, chain5):
        union, offsets = DAG.disjoint_union([small_tree, chain5])
        assert union.n == 11
        assert offsets.tolist() == [0, 6, 11]
        assert union.children(6).tolist() == [7]  # chain shifted by 6

    def test_union_preserves_spans(self, small_tree, chain5):
        union, _ = DAG.disjoint_union([small_tree, chain5])
        assert union.span == max(small_tree.span, chain5.span)

    def test_union_empty_list(self):
        union, offsets = DAG.disjoint_union([])
        assert union.n == 0 and offsets.tolist() == [0]

    def test_series_composition(self):
        d = chain(2).series(antichain(2))
        # leaves of chain(2) = {1}; roots of antichain = both
        assert d.n == 4
        assert d.children(1).tolist() == [2, 3]
        assert d.span == 3

    def test_parallel_composition(self):
        d = chain(2).parallel(chain(3))
        assert d.n == 5 and d.span == 3
        assert d.roots.size == 2

    def test_series_parallel_nesting(self):
        d = (chain(1).parallel(chain(1))).series(chain(1))
        assert d.span == 2
        assert d.parents(2).tolist() == [0, 1]


class TestInducedSubgraph:
    def test_remainder_after_prefix_execution(self, small_tree):
        # Execute {0, 1}: remainder {2,3,4,5} is an out-tree rooted at 2.
        sub, ids = small_tree.induced_subgraph([2, 3, 4, 5])
        assert ids.tolist() == [2, 3, 4, 5]
        assert sub.is_out_tree
        assert sub.span == 3

    def test_id_mapping(self, small_tree):
        sub, ids = small_tree.induced_subgraph([0, 2, 4])
        # edges kept: 0->2, 2->4 under new ids 0->1->2
        assert sub.edge_list() == [(0, 1), (1, 2)]
        assert ids.tolist() == [0, 2, 4]

    def test_duplicate_ids_deduplicated(self, small_tree):
        sub, ids = small_tree.induced_subgraph([3, 3, 3])
        assert sub.n == 1 and ids.tolist() == [3]

    def test_out_of_range(self, small_tree):
        with pytest.raises(GraphError):
            small_tree.induced_subgraph([99])


class TestReachability:
    def test_descendants(self, small_tree):
        assert small_tree.descendants(2).tolist() == [3, 4, 5]
        assert small_tree.descendants(5).size == 0

    def test_ancestors(self, small_tree):
        assert small_tree.ancestors(5).tolist() == [0, 2, 4]
        assert small_tree.ancestors(0).size == 0

    def test_diamond_reachability(self, diamond):
        assert diamond.ancestors(3).tolist() == [0, 1, 2]
        assert diamond.descendants(0).tolist() == [1, 2, 3]


class TestEqualityHash:
    def test_equal_same_edges(self, small_tree):
        other = DAG(6, [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)])
        assert small_tree == other
        assert hash(small_tree) == hash(other)

    def test_unequal_different_edges(self, small_tree):
        assert small_tree != DAG(6, [(0, 1)])

    def test_not_equal_other_type(self, small_tree):
        assert small_tree != 42


class TestBuilders:
    def test_chain(self):
        d = chain(4)
        assert d.is_chain and d.span == 4 and d.n == 4

    def test_chain_zero(self):
        assert chain(0).n == 0

    def test_star(self):
        d = star(5)
        assert d.n == 6 and d.span == 2
        assert d.outdegree[0] == 5

    def test_star_zero_leaves(self):
        assert star(0).n == 1

    def test_complete_kary(self):
        d = complete_kary_tree(3, 3)
        assert d.n == 1 + 3 + 9
        assert d.span == 3
        assert d.is_out_tree
        assert bool(np.all(d.outdegree[: 1 + 3] == 3))

    def test_kary_one_level(self):
        assert complete_kary_tree(5, 1).n == 1

    def test_kary_zero_levels(self):
        assert complete_kary_tree(2, 0).n == 0

    def test_kary_branching_validation(self):
        with pytest.raises(ValueError):
            complete_kary_tree(0, 3)

    def test_spider(self):
        d = spider(3, 4)
        assert d.n == 13 and d.span == 5 and d.is_out_tree
        assert d.outdegree[0] == 3

    def test_spider_no_legs(self):
        assert spider(0, 5).n == 1

    def test_caterpillar(self):
        d = caterpillar(4, 2)
        assert d.n == 12 and d.is_out_tree
        assert d.span == 5  # spine 4 + one leg

    def test_caterpillar_no_legs_is_chain(self):
        assert caterpillar(5, 0).is_chain

    def test_repr_mentions_kind(self, small_tree, diamond):
        assert "out-tree" in repr(small_tree)
        assert "dag" in repr(diamond)
