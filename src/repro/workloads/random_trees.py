"""Random out-tree generators.

These produce the tree shapes the paper's introduction motivates (recursion
trees of dynamic-multithreaded programs) in randomized form, for sweeps in
the LPF-optimality and Algorithm-𝒜 experiments. All generators take a
``numpy.random.Generator`` (or an int seed) and are deterministic given it.

Each generator makes one array draw per tree, generation or layer, not one
scalar draw per node: node ``i`` of a random recursive tree picks its parent
with ``rng.integers(0, i)``, so the whole tree is one
``rng.integers(0, np.arange(1, n))``. NumPy fills an array draw element by
element from the same bit stream, so the trees, and the state the
``Generator`` is left in for the next draw, are exactly those of per-node
draws. ``tests/unit/test_workloads_random.py`` pins both against per-node
reference loops and against digests recorded from them.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.util import as_index
from .cache import cached_generator, int_seed_required

__all__ = [
    "random_attachment_tree",
    "random_binary_tree",
    "galton_watson_tree",
    "layered_tree",
    "random_out_forest",
]


def _rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def random_attachment_tree(
    n: int, seed=None, *, bias: float = 0.0
) -> DAG:
    """Random recursive tree: node ``i`` attaches to a random node ``< i``.

    ``bias > 0`` tilts attachment toward recent nodes (deeper, chain-like
    trees); ``bias < 0`` toward old nodes (shallow, star-like trees);
    ``bias = 0`` is the uniform random recursive tree (expected span
    Θ(log n)).
    """
    n = as_index(n, "n")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = _rng(seed)
    parents = np.full(n, -1, dtype=np.int64)
    if bias == 0.0:
        parents[1:] = rng.integers(0, np.arange(1, n))
    else:
        for i in range(1, n):
            weights = np.arange(1, i + 1, dtype=np.float64) ** bias
            weights /= weights.sum()
            parents[i] = rng.choice(i, p=weights)
    return DAG.from_parents(parents)


def random_binary_tree(n: int, seed=None) -> DAG:
    """Uniform-ish random binary out-tree grown by attaching each new node
    to a uniformly random node that still has fewer than two children."""
    n = as_index(n, "n")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = _rng(seed)
    parents = [-1]
    open_slots = [0, 0]  # node 0 has two free child slots
    # Node i picks among the i + 1 slots open when it attaches.
    picks = rng.integers(0, np.arange(2, n + 1)).tolist()
    for i, k in enumerate(picks, start=1):
        open_slots[k], open_slots[-1] = open_slots[-1], open_slots[k]
        parents.append(open_slots.pop())
        open_slots += (i, i)
    return DAG.from_parents(np.array(parents, dtype=np.int64))


def galton_watson_tree(
    max_nodes: int,
    seed=None,
    *,
    offspring_mean: float = 1.8,
    max_children: int = 8,
) -> DAG:
    """Galton–Watson branching tree, truncated at ``max_nodes``.

    Children counts are Poisson(``offspring_mean``) clipped to
    ``max_children``; generation proceeds breadth-first so truncation keeps
    the tree's upper levels intact. Always returns at least one node.
    """
    max_nodes = as_index(max_nodes, "max_nodes")
    max_children = as_index(max_children, "max_children")
    if max_nodes < 1:
        raise ConfigurationError("max_nodes must be >= 1")
    if max_children < 0:
        raise ConfigurationError("max_children must be >= 0")
    if not (
        isinstance(offspring_mean, numbers.Real)
        and 0 <= offspring_mean < math.inf
    ):
        raise ConfigurationError(
            f"offspring_mean must be a finite number >= 0, got {offspring_mean!r}"
        )
    rng = _rng(seed)
    generations = [np.full(1, -1, dtype=np.int64)]
    frontier = np.zeros(1, dtype=np.int64)
    size = 1
    while frontier.size and size < max_nodes:
        # Every frontier node draws its count, also past the truncation.
        counts = np.minimum(
            rng.poisson(offspring_mean, size=frontier.size), max_children
        )
        kids = np.repeat(frontier, counts)[: max_nodes - size]
        generations.append(kids)
        frontier = np.arange(size, size + kids.size, dtype=np.int64)
        size += kids.size
    return DAG.from_parents(np.concatenate(generations))


@cached_generator(safe=int_seed_required)
def layered_tree(widths: list[int], seed=None) -> DAG:
    """Out-forest with prescribed per-level widths: level ``k`` has
    ``widths[k]`` nodes, each attached to a random node of level ``k-1``.

    Any positive width profile is realizable as an out-forest (level-0
    nodes are roots), which makes this the building block of the
    packed-instance generator.
    """
    try:
        widths = [as_index(w, f"widths[{k}]") for k, w in enumerate(widths)]
    except TypeError:  # not a sequence at all
        widths = []
    if not widths or any(w < 1 for w in widths):
        raise ConfigurationError("widths must be a nonempty list of positive ints")
    rng = _rng(seed)
    layers = [np.full(widths[0], -1, dtype=np.int64)]
    prev_start = 0
    for prev_width, width in zip(widths, widths[1:]):
        layers.append(prev_start + rng.integers(0, prev_width, size=width))
        prev_start += prev_width
    return DAG.from_parents(np.concatenate(layers))


def random_out_forest(
    n: int,
    seed=None,
    *,
    n_trees: Optional[int] = None,
    bias: float = 0.0,
) -> DAG:
    """Out-forest of ``n`` nodes split over ``n_trees`` random attachment
    trees (default: a Poisson-ish number around ``sqrt(n)``)."""
    n = as_index(n, "n")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if n_trees is not None:
        n_trees = as_index(n_trees, "n_trees")
        if n_trees < 1:
            raise ConfigurationError("n_trees must be >= 1")
    rng = _rng(seed)
    if n_trees is None:
        n_trees = max(1, int(rng.integers(1, int(np.sqrt(n)) + 2)))
    n_trees = min(n_trees, n)
    sizes = np.full(n_trees, n // n_trees, dtype=np.int64)
    sizes[: n % n_trees] += 1
    dags = [random_attachment_tree(int(s), rng, bias=bias) for s in sizes if s > 0]
    union, _ = DAG.disjoint_union(dags)
    return union
