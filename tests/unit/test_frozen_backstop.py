"""Runtime backstop for lint rule RPR201.

The engine freezes the instance-level CSR (``Instance.flat_graph``) with
``writeable=False``. Static analysis catches writes in this repo's own
source; the backstop below checks the flags at the next engine
checkpoint, so it catches code anywhere else (user code, notebooks) that
turns writes back on. It cannot see a ufunc ``.at`` write
(``np.subtract.at(flat.indegree, idx, 1)``): NumPy 2.4 performs that on a
read-only array without raising and leaves the flag False, so only RPR201
guards against it. It is a plain ``assert`` — active in development and
CI, compiled out under ``python -O``.
"""

import numpy as np
import pytest

from repro.core import Instance, Job, Schedule, chain, simulate, star
from repro.core.schedule import _flat_graph_still_frozen
from repro.schedulers import FIFOScheduler

requires_debug = pytest.mark.skipif(
    not __debug__, reason="asserts compiled out under python -O"
)


def small_instance() -> Instance:
    return Instance([Job(star(3), release=0), Job(chain(2), release=1)])


def test_flat_graph_ships_frozen():
    flat = small_instance().flat_graph
    assert flat.writable_arrays() == []
    with pytest.raises(ValueError):
        flat.indegree[0] = 99


def test_writable_arrays_names_the_thawed_array():
    flat = small_instance().flat_graph
    flat.indegree.setflags(write=True)
    assert flat.writable_arrays() == ["indegree"]
    flat.offsets.setflags(write=True)
    assert flat.writable_arrays() == ["offsets", "indegree"]


def test_frozen_check_does_not_force_csr_construction():
    instance = small_instance()
    assert _flat_graph_still_frozen(instance)
    assert "flat_graph" not in instance.__dict__, (
        "the backstop must not materialize the lazy CSR"
    )
    instance.flat_graph  # force it
    assert _flat_graph_still_frozen(instance)


@requires_debug
def test_schedule_checkpoint_rejects_thawed_csr():
    instance = small_instance()
    instance.flat_graph.child_indices.setflags(write=True)
    completion = [np.zeros(job.dag.n, dtype=np.int64) for job in instance]
    with pytest.raises(AssertionError, match="RPR201"):
        Schedule(instance, 2, completion)


@requires_debug
def test_simulate_checkpoint_rejects_thawed_csr():
    instance = small_instance()
    instance.flat_graph.indegree.setflags(write=True)
    with pytest.raises(AssertionError):
        simulate(instance, 2, FIFOScheduler())


def test_refreezing_restores_normal_operation():
    instance = small_instance()
    flat = instance.flat_graph
    flat.indegree.setflags(write=True)
    flat.indegree.setflags(write=False)
    schedule = simulate(instance, 2, FIFOScheduler())
    assert schedule.is_complete
