"""SRPT as a list rule: contract and bit-identity tests.

SRPT's (remaining work, job id) walk is a pure function of the engine's
own unfinished counts (``ListRule.by_remaining_work``), so with a kernel
tie-break the engine recomputes it per step and never dispatches ``select``; a
fault injector's crash rebuilds the scheduler mid-run. The bit-identity
cases are slices of the conformance matrix
(``tests/properties/test_conformance.py``), checked against
``_simulate_reference``: the ``quicksort-stream`` family (Poisson streams
of quicksort trees), its traced twin, and chains.
"""

import numpy as np
import pytest

from repro.core import Instance, Job, chain, simulate
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector
from repro.schedulers import base
from repro.schedulers.base import RandomTieBreak
from repro.schedulers.srpt import SRPTScheduler
from repro.workloads import poisson_instance, quicksort_tree

from ..properties.test_conformance import conforming

#: Tie-break -> matrix column of SRPT with it.
TIE_BREAKS = {
    "ArbitraryTieBreak": "srpt-arbitrary",
    "DepthTieBreak": "srpt-depth",
    "LongestPathTieBreak": "srpt-longestpath",
}


def _stream(seed=0, n_jobs=8, n=120):
    rng = np.random.default_rng(seed)
    dags = [quicksort_tree(int(rng.integers(30, n)), seed=seed * 31 + i)
            for i in range(n_jobs)]
    return poisson_instance(dags, rate=0.3, seed=seed)


def _assert_identical(a, b):
    for x, y in zip(a.completion, b.completion):
        np.testing.assert_array_equal(np.asarray(x), np.asarray(y))


@pytest.mark.parametrize("tie_break", sorted(TIE_BREAKS))
@pytest.mark.parametrize("m", [1, 3, 16])
def test_fast_path_matches_heap_reference(tie_break, m):
    """The list-rule run equals the reference loop and never dispatches
    ``select`` (the matrix's "no dispatch" check)."""
    stats = conforming("quicksort-stream", TIE_BREAKS[tie_break], m=m, seed=0).stats["list"]
    assert stats["fast_forwarded_steps"] == stats["steps"] > 0


def test_contract_declared_only_on_kernel_path():
    inst = _stream(3)
    rule = SRPTScheduler().list_rule()
    assert rule.by_remaining_work
    for job in inst:
        assert rule.priorities(job).shape == (job.dag.n,)

    random_rule = SRPTScheduler(RandomTieBreak(7), seed=7).list_rule()
    assert all(random_rule.priorities(job) is None for job in inst)  # no kernel


@pytest.mark.parametrize("tie_break", sorted(TIE_BREAKS))
@pytest.mark.parametrize("traced", [False, True], ids=["constant", "trace"])
def test_dispatched_select_matches_fast_path_and_reference(tie_break, traced):
    """Every path agrees with the reference loop, under a constant ``m``
    and under the adversarial and random traces; the faulted path is the
    dispatched ``select`` every step."""
    if traced:
        tally = conforming("quicksort-stream-traced", TIE_BREAKS[tie_break], traces="traced")
    else:
        tally = conforming("quicksort-stream", TIE_BREAKS[tie_break], m=3)
    assert tally.stats["faulted"]["select_calls"] == tally.stats["faulted"]["steps"] > 0


def test_random_tie_break_still_dispatches():
    """A key-only tie-break: the reference loop is deterministic for a
    seed, and a batch falls back to the dispatched run."""
    tally = conforming("quicksort-stream", "srpt-random", m=3)
    assert tally.stats["batch"]["fallback_runs"] > 0
    assert tally.stats["faulted"]["select_calls"] > 0


@pytest.mark.parametrize("m", [2, 7])
def test_parity_under_fluctuating_availability(m):
    """Capacity changes re-rank nothing but change the walk's cutoff —
    including zero-capacity steps the fast path must idle through."""
    conforming("quicksort-stream-traced", "srpt-arbitrary", m=m, traces="traced")


def test_macro_stepping_engages_on_chains():
    stats = conforming("chains", "srpt-depth", m=2).stats["list"]
    assert stats["macro_steps"] > 0, (
        "chain-heavy SRPT run never macro-stepped — the dynamic-order "
        "macro contract is not engaging"
    )


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
@pytest.mark.parametrize("tie_break", sorted(TIE_BREAKS))
def test_crash_only_runs_equal_the_uncrashed_schedule(engine, tie_break):
    """Crashes without delivery perturbation change nothing SRPT decides:
    finished jobs stay finished and unfinished ones keep their rank."""
    make = getattr(base, tie_break)
    for seed in range(4):
        inst = _stream(seed, n_jobs=6, n=60)
        plain = _simulate_reference(inst, 3, SRPTScheduler(make()))
        crashes = FaultInjector(crash_times=(4, 9, 17, 30))
        crashed = engine(inst, 3, SRPTScheduler(make()), fault_injector=crashes)
        assert crashes.crashes, f"no crash fired (seed {seed})"
        # The last crash lands after a job has finished.
        assert min(int(c.max()) for c in plain.completion) <= crashes.crashes[-1]
        _assert_identical(crashed, plain)
