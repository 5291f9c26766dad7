"""Unit tests for the random tree generators."""

import hashlib
import math

import numpy as np
import pytest

from repro.core import ConfigurationError
from repro.workloads import (
    galton_watson_tree,
    layered_tree,
    random_attachment_tree,
    random_binary_tree,
    random_out_forest,
)


class TestRandomAttachment:
    def test_exact_size_and_shape(self):
        d = random_attachment_tree(50, seed=0)
        assert d.n == 50 and d.is_out_tree

    def test_deterministic_given_seed(self):
        assert random_attachment_tree(30, 7) == random_attachment_tree(30, 7)

    def test_different_seeds_differ(self):
        assert random_attachment_tree(30, 1) != random_attachment_tree(30, 2)

    def test_bias_controls_depth(self):
        deep = random_attachment_tree(200, 0, bias=5.0)
        shallow = random_attachment_tree(200, 0, bias=-5.0)
        assert deep.span > shallow.span

    def test_single_node(self):
        assert random_attachment_tree(1, 0).n == 1

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_attachment_tree(0)

    def test_accepts_generator(self):
        rng = np.random.default_rng(0)
        d1 = random_attachment_tree(10, rng)
        d2 = random_attachment_tree(10, rng)  # advances state
        assert d1.n == d2.n == 10


class TestRandomBinary:
    def test_shape(self):
        d = random_binary_tree(80, seed=3)
        assert d.n == 80 and d.is_out_tree
        assert int(d.outdegree.max()) <= 2

    def test_deterministic(self):
        assert random_binary_tree(40, 5) == random_binary_tree(40, 5)

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_binary_tree(0)


class TestGaltonWatson:
    def test_truncation(self):
        d = galton_watson_tree(100, seed=0, offspring_mean=3.0)
        assert 1 <= d.n <= 100
        assert d.is_out_tree

    def test_always_at_least_root(self):
        for seed in range(10):
            assert galton_watson_tree(50, seed).n >= 1

    def test_max_children_respected(self):
        d = galton_watson_tree(300, seed=1, offspring_mean=10.0, max_children=3)
        assert int(d.outdegree.max()) <= 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            galton_watson_tree(0)


class TestLayeredTree:
    def test_widths_realized(self):
        widths = [3, 5, 2, 7]
        d = layered_tree(widths, seed=0)
        assert d.n == sum(widths)
        assert d.depth_counts.tolist() == [0] + widths
        assert d.is_out_forest

    def test_level_ids_sequential(self):
        d = layered_tree([2, 3], seed=0)
        assert d.depth.tolist() == [1, 1, 2, 2, 2]

    def test_parents_in_previous_level(self):
        d = layered_tree([2, 4, 4], seed=1)
        for v in range(d.n):
            for p in d.parents(v):
                assert d.depth[p] == d.depth[v] - 1

    def test_rejects_empty_or_zero_width(self):
        with pytest.raises(ConfigurationError):
            layered_tree([])
        with pytest.raises(ConfigurationError):
            layered_tree([2, 0, 1])


class TestRandomOutForest:
    def test_total_size(self):
        d = random_out_forest(60, seed=0)
        assert d.n == 60 and d.is_out_forest

    def test_requested_tree_count(self):
        d = random_out_forest(40, seed=0, n_trees=5)
        assert d.roots.size == 5

    def test_more_trees_than_nodes_clamped(self):
        d = random_out_forest(3, seed=0, n_trees=10)
        assert d.roots.size <= 3

    def test_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            random_out_forest(0)


_BAD_ARGUMENTS = {
    "attachment-float-n": (lambda: random_attachment_tree(5.5), "n"),
    "attachment-str-n": (lambda: random_attachment_tree("7"), "n"),
    "binary-float-n": (lambda: random_binary_tree(2.0), "n"),
    "gw-float-max_nodes": (lambda: galton_watson_tree(3.5), "max_nodes"),
    "gw-negative-mean": (
        lambda: galton_watson_tree(10, offspring_mean=-1), "offspring_mean"
    ),
    "gw-nan-mean": (
        lambda: galton_watson_tree(10, offspring_mean=math.nan), "offspring_mean"
    ),
    "gw-inf-mean": (
        lambda: galton_watson_tree(10, offspring_mean=math.inf), "offspring_mean"
    ),
    "gw-str-mean": (
        lambda: galton_watson_tree(10, offspring_mean="2"), "offspring_mean"
    ),
    "gw-negative-max_children": (
        lambda: galton_watson_tree(10, max_children=-1), "max_children"
    ),
    "gw-float-max_children": (
        lambda: galton_watson_tree(10, max_children=2.5), "max_children"
    ),
    "layered-float-width": (lambda: layered_tree([2.5, 3]), "widths"),
    "layered-negative-width": (lambda: layered_tree([2, -1]), "widths"),
    "layered-int-widths": (lambda: layered_tree(5), "widths"),
    "forest-zero-n_trees": (lambda: random_out_forest(10, n_trees=0), "n_trees"),
    "forest-negative-n_trees": (
        lambda: random_out_forest(10, n_trees=-2), "n_trees"
    ),
    "forest-float-n_trees": (lambda: random_out_forest(10, n_trees=1.5), "n_trees"),
    "forest-float-n": (lambda: random_out_forest(4.0), "n"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_rejects_bad_argument(case):
    """Every bad size, width, count or rate raises a ConfigurationError that
    names the argument (not a NumPy error, a TypeError or a wrong tree)."""
    build, argument = _BAD_ARGUMENTS[case]
    with pytest.raises(ConfigurationError, match=rf"^{argument}\b"):
        build()


def test_numpy_arguments_accepted():
    assert random_attachment_tree(np.int64(6), 0) == random_attachment_tree(6, 0)
    assert galton_watson_tree(
        np.int32(40), 1, max_children=np.int64(2)
    ) == galton_watson_tree(40, 1, max_children=2)
    assert layered_tree([np.int64(2), np.int16(3)], 0) == layered_tree([2, 3], 0)
    assert layered_tree(np.array([2, 3]), 0) == layered_tree([2, 3], 0)
    assert random_out_forest(np.uint8(9), 2, n_trees=np.int64(3)).roots.size == 3


# -- the random streams --------------------------------------------------------
#
# Each generator makes one array draw per tree, generation or layer. These
# reference loops make one scalar draw per node, as the generators first did;
# an array draw must give the same tree and leave the Generator where the
# loop leaves it (random_out_forest and the experiments chain several
# generators on one Generator).


def _loop_attachment(rng, n):
    parents = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        parents[i] = rng.integers(0, i)
    return parents


def _loop_binary(rng, n):
    parents = np.full(n, -1, dtype=np.int64)
    open_slots = [0, 0]
    for i in range(1, n):
        k = int(rng.integers(0, len(open_slots)))
        open_slots[k], open_slots[-1] = open_slots[-1], open_slots[k]
        parents[i] = open_slots.pop()
        open_slots.extend([i, i])
    return parents


def _loop_galton_watson(rng, max_nodes, offspring_mean, max_children):
    parents = [-1]
    frontier = [0]
    while frontier and len(parents) < max_nodes:
        nxt = []
        for node in frontier:
            k = min(int(rng.poisson(offspring_mean)), max_children)
            for _ in range(k):
                if len(parents) >= max_nodes:
                    break
                parents.append(node)
                nxt.append(len(parents) - 1)
        frontier = nxt
    return np.array(parents, dtype=np.int64)


def _loop_layered(rng, widths):
    parents = [-1] * widths[0]
    prev_start = 0
    for k in range(1, len(widths)):
        prev = list(range(prev_start, prev_start + widths[k - 1]))
        prev_start = len(parents)
        for _ in range(widths[k]):
            parents.append(int(rng.choice(prev)))
    return np.array(parents, dtype=np.int64)


_GENERATORS = {
    "random_attachment_tree": lambda rng, n: random_attachment_tree(n, rng),
    "random_binary_tree": lambda rng, n: random_binary_tree(n, rng),
    "galton_watson_tree": lambda rng, n, mean, cap: galton_watson_tree(
        n, rng, offspring_mean=mean, max_children=cap
    ),
    "layered_tree": lambda rng, widths: layered_tree(list(widths), rng),
    "random_out_forest": lambda rng, n, trees: random_out_forest(
        n, rng, n_trees=trees
    ),
}

# random_out_forest chains attachment trees, so it has no loop of its own.
_LOOPS = {
    "random_attachment_tree": _loop_attachment,
    "random_binary_tree": _loop_binary,
    "galton_watson_tree": _loop_galton_watson,
    "layered_tree": _loop_layered,
}

_SIZES = [(n,) for n in (1, 2, 3, 4, 7, 31, 64, 257, 1000)]
_GRID = {
    "random_attachment_tree": _SIZES,
    "random_binary_tree": _SIZES,
    "galton_watson_tree": [
        (1, 1.8, 8), (2, 1.8, 8), (60, 1.8, 8), (500, 3.0, 8), (300, 10.0, 3),
        (200, 0.9, 8), (50, 0.0, 8), (50, 2.0, 0), (1000, 1.2, 2),
    ],
    "layered_tree": [
        ((1,),), ((5,),), ((3, 5, 2, 7),), ((1, 1, 1, 1),), ((64, 1, 64),),
        ((2,) * 12,), ((1, 300, 5),),
    ],
    "random_out_forest": [
        (1, None), (60, None), (40, 5), (3, 10), (500, 1), (257, 16),
    ],
}


def _grid_id(value):
    if isinstance(value, str):
        return value
    flat = [x for a in value for x in (a if isinstance(a, tuple) else (a,))]
    return "-".join(map(str, flat))


@pytest.mark.parametrize(
    "name,args", [(name, args) for name in _LOOPS for args in _GRID[name]], ids=_grid_id
)
def test_array_draws_match_per_node_draws(name, args):
    for seed in range(12):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = _GENERATORS[name](rng, *args)
        assert tree.parent_array().tolist() == _LOOPS[name](ref_rng, *args).tolist()
        assert rng.random() == ref_rng.random()


# SHA-256 over the grid's outputs (parent arrays, then the next
# rng.random()), recorded from the per-node loops. A NumPy release that draws
# arrays differently from scalars fails here, not in a golden table.
_STREAM_DIGESTS = {
    "galton_watson_tree": "b493a70f69895692e9b7f555cfd1aa3d999981451b3225b573175b4e495b41a6",
    "layered_tree": "580fefa2989bc5b1320aca124798d498046738af8604199ad8a00f397729a556",
    "random_attachment_tree": "8826ef948cefe1e8c42ea9ddf194ab4a93746e4d476c4d2de119f85800106bb0",
    "random_binary_tree": "ef882e34ad02bbcdffdea846d5441f68433cafd4998bbe4054d1f39fd09b7468",
    "random_out_forest": "1eea27f5e34e190d7f691903d6fa3c6a612579e6c464218ab31b0c8afe4cc6d8",
}


def _stream_digest(name):
    h = hashlib.sha256()
    for seed in range(8):
        for args in _GRID[name]:
            rng = np.random.default_rng(seed)
            h.update(_GENERATORS[name](rng, *args).parent_array().tobytes())
            h.update(np.float64(rng.random()).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_STREAM_DIGESTS))
def test_generator_streams_are_pinned(name):
    assert _stream_digest(name) == _STREAM_DIGESTS[name]
