"""SRPT as a list rule: contract and bit-identity tests.

SRPT's (remaining work, job id) walk is a pure function of the engine's
own unfinished counts (``dynamic_job_order``), so with a kernel tie-break
the engine recomputes it per step and never dispatches ``select``. With an
observer attached the engine dispatches SRPT's one ``select`` path instead,
and a fault injector's crash rebuilds the scheduler mid-run. Everything
here is checked bit-identical against ``_simulate_reference``.
"""

import numpy as np
import pytest

from repro.core import DAG, Instance, Job, SimulationObserver, chain, simulate
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector
from repro.schedulers.base import (
    ArbitraryTieBreak,
    DepthTieBreak,
    LongestPathTieBreak,
    RandomTieBreak,
)
from repro.schedulers.srpt import SRPTScheduler
from repro.workloads import poisson_instance, quicksort_tree


def _stream(seed=0, n_jobs=8, n=120):
    rng = np.random.default_rng(seed)
    dags = [quicksort_tree(int(rng.integers(30, n)), seed=seed * 31 + i)
            for i in range(n_jobs)]
    return poisson_instance(dags, rate=0.3, seed=seed)


def _chains(seed=0):
    rng = np.random.default_rng(seed + 9)
    jobs = [
        Job(
            DAG.from_parents(
                np.arange(-1, int(rng.integers(20, 60)) - 1, dtype=np.int64)
            ),
            int(rng.integers(0, 5)),
        )
        for _ in range(4)
    ]
    return Instance(jobs)


def _assert_identical(a, b):
    for x, y in zip(a.completion, b.completion):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize(
    "tie_break", [ArbitraryTieBreak, DepthTieBreak, LongestPathTieBreak]
)
@pytest.mark.parametrize("m", [1, 3, 16])
def test_fast_path_matches_heap_reference(tie_break, m):
    inst = _stream()
    fast = simulate(inst, m, SRPTScheduler(tie_break()))
    ref = _simulate_reference(inst, m, SRPTScheduler(tie_break()))
    _assert_identical(fast, ref)
    stats = fast.engine_stats
    assert stats.select_calls == 0, "kernel path dispatched select()"
    assert stats.fast_forwarded_steps == stats.steps


def test_contract_declared_only_on_kernel_path():
    inst = _stream(3)
    s = SRPTScheduler()
    s.reset(inst, 4)
    kernel = s.frontier_priorities(inst)
    assert kernel is not None
    assert kernel.shape == (inst.flat_graph.n_nodes,)

    random_tb = SRPTScheduler(RandomTieBreak(7), seed=7)
    random_tb.reset(inst, 4)
    assert random_tb.frontier_priorities(inst) is None  # no kernel


@pytest.mark.parametrize(
    "tie_break", [ArbitraryTieBreak, DepthTieBreak, LongestPathTieBreak]
)
@pytest.mark.parametrize("traced", [False, True], ids=["constant", "trace"])
def test_dispatched_select_matches_fast_path_and_reference(tie_break, traced):
    """An observer forces SRPT's one ``select`` path every step; it must
    agree with the list-rule run and with the reference loop."""
    inst = _stream(4)
    m = 3
    kwargs = {}
    if traced:
        rng = np.random.default_rng(7)
        kwargs["availability"] = rng.integers(0, m + 1, size=150).tolist()
    fast = simulate(inst, m, SRPTScheduler(tie_break()), **kwargs)
    observed = simulate(
        inst,
        m,
        SRPTScheduler(tie_break()),
        observer=SimulationObserver(),
        **kwargs,
    )
    ref = _simulate_reference(inst, m, SRPTScheduler(tie_break()), **kwargs)
    _assert_identical(fast, ref)
    _assert_identical(observed, ref)
    assert fast.engine_stats.select_calls == 0
    assert observed.engine_stats.select_calls == observed.engine_stats.steps


def test_random_tie_break_still_dispatches():
    inst = _stream(5)
    a = simulate(inst, 4, SRPTScheduler(RandomTieBreak(11), seed=11))
    b = simulate(inst, 4, SRPTScheduler(RandomTieBreak(11), seed=11))
    _assert_identical(a, b)  # seeded: reproducible
    assert a.engine_stats.select_calls > 0  # heap path, per-step dispatch


@pytest.mark.parametrize("m", [2, 7])
def test_parity_under_fluctuating_availability(m):
    """Capacity changes re-rank nothing but change the walk's cutoff —
    including zero-capacity steps the fast path must idle through."""
    inst = _stream(2)
    rng = np.random.default_rng(42)
    trace = rng.integers(0, m + 1, size=200).tolist()
    fast = simulate(inst, m, SRPTScheduler(), availability=trace)
    ref = _simulate_reference(inst, m, SRPTScheduler(), availability=trace)
    _assert_identical(fast, ref)


def test_macro_stepping_engages_on_chains():
    inst = _chains()
    fast = simulate(inst, 2, SRPTScheduler(DepthTieBreak()))
    ref = _simulate_reference(inst, 2, SRPTScheduler(DepthTieBreak()))
    _assert_identical(fast, ref)
    assert fast.engine_stats.macro_steps > 0, (
        "chain-heavy SRPT run never macro-stepped — the dynamic-order "
        "macro contract is not engaging"
    )


def test_fast_path_job_order_is_srpt_order():
    s = SRPTScheduler()
    unfinished = np.array([5, 3, 3, 9], dtype=np.int64)
    assert s.fast_path_job_order([0, 1, 2, 3], unfinished) == [1, 2, 0, 3]


ENGINES = pytest.mark.parametrize(
    "engine", [simulate, _simulate_reference], ids=["simulate", "reference"]
)


@ENGINES
def test_crash_rebuild_keeps_remaining_work(engine):
    """A rebuild recounts each job's remaining work from its re-delivered
    frontier. Restarting from full work would rank the 10-chain (4 left at
    t=5) behind the fresh 6-chain and stretch its flow from 11 to 16."""
    inst = Instance([Job(chain(10), 0), Job(chain(6), 5)])
    plain = engine(inst, 1, SRPTScheduler())
    crashes = FaultInjector(crash_times=(5,))
    crashed = engine(inst, 1, SRPTScheduler(), fault_injector=crashes)
    assert crashes.crashes == [5]
    _assert_identical(crashed, plain)
    assert crashed.max_flow == 11


@ENGINES
@pytest.mark.parametrize(
    "tie_break", [ArbitraryTieBreak, DepthTieBreak, LongestPathTieBreak]
)
def test_crash_only_runs_equal_the_uncrashed_schedule(engine, tie_break):
    """Crashes without delivery perturbation change nothing SRPT decides:
    finished jobs stay finished and unfinished ones keep their rank."""
    for seed in range(4):
        inst = _stream(seed, n_jobs=6, n=60)
        plain = simulate(inst, 3, SRPTScheduler(tie_break()))
        crashes = FaultInjector(crash_times=(4, 9, 17, 30))
        crashed = engine(
            inst, 3, SRPTScheduler(tie_break()), fault_injector=crashes
        )
        assert crashes.crashes, f"no crash fired (seed {seed})"
        _assert_identical(crashed, plain)
