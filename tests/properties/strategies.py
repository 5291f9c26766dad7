"""Hypothesis strategies for DAGs, trees, and instances, and the shipped
tie-breaks split by whether they have a priority kernel."""

from __future__ import annotations

import inspect

import numpy as np
from hypothesis import strategies as st

from repro.core import DAG, Instance, Job, complete_kary_tree
from repro.schedulers import TieBreak

__all__ = [
    "KERNEL_TIE_BREAKS",
    "KEY_ONLY_TIE_BREAKS",
    "out_trees",
    "out_forests",
    "general_dags",
    "jobs",
    "instances",
    "forest_instances",
]


@st.composite
def out_trees(draw, min_nodes: int = 1, max_nodes: int = 25) -> DAG:
    """A rooted out-tree: node i > 0 attaches to a drawn parent < i."""
    n = draw(st.integers(min_nodes, max_nodes))
    parents = [-1]
    for i in range(1, n):
        parents.append(draw(st.integers(0, i - 1)))
    return DAG.from_parents(np.array(parents, dtype=np.int64))


@st.composite
def out_forests(draw, min_nodes: int = 1, max_nodes: int = 25) -> DAG:
    """An out-forest: node i is a root or attaches to a parent < i."""
    n = draw(st.integers(min_nodes, max_nodes))
    parents = [-1]
    for i in range(1, n):
        parents.append(draw(st.integers(-1, i - 1)))
    return DAG.from_parents(np.array(parents, dtype=np.int64))


@st.composite
def general_dags(draw, min_nodes: int = 1, max_nodes: int = 15) -> DAG:
    """A general DAG: edges only from lower to higher ids (acyclic by
    construction), each possible edge present with drawn probability."""
    n = draw(st.integers(min_nodes, max_nodes))
    edges = []
    for v in range(1, n):
        k = draw(st.integers(0, min(3, v)))
        parents = draw(
            st.lists(st.integers(0, v - 1), min_size=k, max_size=k, unique=True)
        )
        edges.extend((p, v) for p in parents)
    return DAG(n, edges)


@st.composite
def jobs(draw, dag_strategy=None, max_release: int = 20) -> Job:
    dag = draw(dag_strategy if dag_strategy is not None else general_dags())
    release = draw(st.integers(0, max_release))
    return Job(dag, release)


@st.composite
def instances(
    draw, min_jobs: int = 1, max_jobs: int = 4, dag_strategy=None, max_release: int = 20
) -> Instance:
    n = draw(st.integers(min_jobs, max_jobs))
    return Instance(
        [draw(jobs(dag_strategy=dag_strategy, max_release=max_release)) for _ in range(n)]
    )


def forest_instances(min_jobs: int = 1, max_jobs: int = 4, max_release: int = 20):
    return instances(
        min_jobs=min_jobs,
        max_jobs=max_jobs,
        dag_strategy=out_forests(),
        max_release=max_release,
    )


def _shipped_tie_breaks() -> list[type[TieBreak]]:
    """Every concrete ``TieBreak`` subclass defined under ``repro.schedulers``,
    so a new tie-break is tested with no edit to the tests."""
    found: set[type[TieBreak]] = set()
    stack = [TieBreak]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.schedulers.") and not inspect.isabstract(sub):
                found.add(sub)
    return sorted(found, key=lambda cls: cls.__name__)


_SHIPPED = _shipped_tie_breaks()
_PROBE = Job(complete_kary_tree(2, 3), 0)
#: Tie-breaks whose ``priority_kernel`` returns an array (list rules).
KERNEL_TIE_BREAKS = [c for c in _SHIPPED if c().priority_kernel(_PROBE) is not None]
#: Tie-breaks that order only through ``key()`` (dispatched every step).
KEY_ONLY_TIE_BREAKS = [c for c in _SHIPPED if c not in KERNEL_TIE_BREAKS]
