"""Golden-number regression tests.

Every generator and scheduler in the library is deterministic given its
seed, so the headline measurements are exact integers. Pinning them guards
against silent behavioural regressions (a change that alters these numbers
is either a bug or a deliberate semantic change that must update this file
and EXPERIMENTS.md together).
"""

import pytest

from repro.core import Instance, Job, simulate
from repro.schedulers import (
    ArbitraryTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    exact_opt,
    lpf_flow,
    single_forest_opt,
)
from repro.workloads import build_fifo_adversary, packed_instance, quicksort_tree


class TestAdversarialGolden:
    """The Theorem 4.2 family (EXPERIMENTS.md E3 table)."""

    @pytest.mark.parametrize(
        "m,expected_flow,expected_opt",
        [(8, 25, 9), (16, 62, 17), (32, 151, 33), (64, 360, 65)],
    )
    def test_fifo_flow_and_witness(self, m, expected_flow, expected_opt):
        adv = build_fifo_adversary(m, n_jobs=4 * m)
        assert adv.fifo_max_flow == expected_flow
        assert adv.opt_upper_bound == expected_opt

    def test_total_nodes_m8(self):
        adv = build_fifo_adversary(8, n_jobs=32)
        assert adv.instance.total_work == 2159

    def test_lpf_tiebreak_collapses_exactly_to_opt(self):
        adv = build_fifo_adversary(16, n_jobs=64)
        s = simulate(adv.instance, 16, FIFOScheduler(LongestPathTieBreak()))
        assert s.max_flow == 17


class TestLpfGolden:
    def test_quicksort_tree_seeded(self):
        dag = quicksort_tree(100, seed=1)
        assert (dag.n, dag.span) == (100, 14)
        assert single_forest_opt(dag, 4) == 27
        assert lpf_flow(dag, 4) == 27

    def test_known_counterexample_values(self):
        from repro.experiments.e11_dag_shaping_gap import known_counterexample

        dag, m = known_counterexample()
        assert lpf_flow(dag, m) == 5
        opt, _ = exact_opt(Instance([Job(dag, 0)]), m)
        assert opt == 4


class TestPackedGolden:
    def test_packed_witness_and_fifo(self):
        pk = packed_instance(m=8, n_jobs=6, flow=12, period=4, seed=0)
        assert pk.instance.total_work == 256
        assert pk.witness.max_flow == 12
        fifo = simulate(pk.instance, 8, FIFOScheduler(ArbitraryTieBreak()))
        assert fifo.max_flow == 12


class TestFigure1Golden:
    def test_packing_flows(self):
        from repro.experiments.e1_packing import figure1_dag

        dag = figure1_dag()
        assert lpf_flow(dag, 3) == 4
        assert single_forest_opt(dag, 3) == 4
