"""Unit tests for Algorithm 𝒜 (semi-batched core + guess-and-double)."""

import numpy as np
import pytest

from repro.core import ConfigurationError, DAG, Instance, Job, chain, simulate, star
from repro.schedulers import (
    GeneralOutTreeScheduler,
    SemiBatchedOutTreeScheduler,
    lpf_schedule,
    single_forest_opt,
)
from repro.workloads import (
    galton_watson_tree,
    random_attachment_tree,
    semi_batched_instance,
)


def _forest_instance(half, n=4, size=40, seed=0):
    rng = np.random.default_rng(seed)
    dags = [galton_watson_tree(size, rng) for _ in range(n)]
    return semi_batched_instance(dags, half)


class TestConfigValidation:
    def test_alpha_too_small(self):
        with pytest.raises(ConfigurationError, match="alpha"):
            SemiBatchedOutTreeScheduler(opt=4, alpha=2)

    def test_opt_positive(self):
        with pytest.raises(ConfigurationError, match="opt"):
            SemiBatchedOutTreeScheduler(opt=0)

    def test_m_at_least_alpha(self):
        sched = SemiBatchedOutTreeScheduler(opt=4, alpha=4)
        with pytest.raises(ConfigurationError, match="m="):
            simulate(_forest_instance(2), 3, sched)

    def test_rejects_non_forest(self, diamond):
        inst = Instance([Job(diamond, 0)])
        with pytest.raises(ConfigurationError, match="out-forest"):
            simulate(inst, 8, SemiBatchedOutTreeScheduler(opt=4))

    def test_rejects_off_grid_releases(self):
        inst = Instance([Job(chain(3), 0), Job(chain(3), 5)])
        with pytest.raises(ConfigurationError, match="semi-batched"):
            simulate(inst, 8, SemiBatchedOutTreeScheduler(opt=8))  # half=4

    def test_general_beta_validation(self):
        with pytest.raises(ConfigurationError):
            GeneralOutTreeScheduler(beta=1)

    def test_general_guess_validation(self):
        with pytest.raises(ConfigurationError):
            GeneralOutTreeScheduler(initial_guess=0)

    def test_flow_guarantee_value(self):
        s = SemiBatchedOutTreeScheduler(opt=10, beta=258)
        assert s.flow_guarantee() == 1290

    def test_half_rounding(self):
        assert SemiBatchedOutTreeScheduler(opt=7).half == 4
        assert SemiBatchedOutTreeScheduler(opt=8).half == 4


class TestSemiBatchedExecution:
    def test_feasible_end_to_end(self):
        inst = _forest_instance(half=8)
        sched = SemiBatchedOutTreeScheduler(opt=16, alpha=4)
        s = simulate(inst, 8, sched, max_steps=50_000)
        s.validate()

    def test_head_is_verbatim_lpf(self):
        """During the first 2*half steps after arrival, the cohort runs
        exactly its LPF[m/alpha] schedule."""
        dag = galton_watson_tree(60, 1)
        opt = 2 * single_forest_opt(dag, 8)
        half = -(-opt // 2)
        inst = Instance([Job(dag, 0)])
        sched = SemiBatchedOutTreeScheduler(opt=opt, alpha=4)
        s = simulate(inst, 8, sched, max_steps=50_000)
        reference = lpf_schedule(dag, 2)  # m//alpha = 2
        for v in range(dag.n):
            if reference.completion[0][v] <= 2 * half:
                assert s.completion[0][v] == reference.completion[0][v]

    def test_respects_flow_guarantee(self):
        inst = _forest_instance(half=8, n=6)
        sched = SemiBatchedOutTreeScheduler(opt=16, alpha=4)
        s = simulate(inst, 8, sched, max_steps=100_000)
        assert s.max_flow <= sched.flow_guarantee()

    def test_merges_same_time_arrivals(self):
        # Two jobs at t=0 become one cohort; still feasible & finite.
        inst = Instance([Job(star(10), 0), Job(chain(5), 0)])
        s = simulate(inst, 8, SemiBatchedOutTreeScheduler(opt=10), max_steps=10_000)
        s.validate()

    def test_name(self):
        assert "AlgA-semibatched" in SemiBatchedOutTreeScheduler(opt=4).name

    def test_clairvoyant(self):
        assert SemiBatchedOutTreeScheduler(opt=4).clairvoyant


class TestGeneralScheduler:
    def test_feasible_on_arbitrary_arrivals(self):
        rng = np.random.default_rng(2)
        jobs = [Job(random_attachment_tree(30, rng), int(r)) for r in [0, 3, 7, 11, 30]]
        inst = Instance(jobs)
        alg = GeneralOutTreeScheduler(alpha=4, beta=4)
        s = simulate(inst, 8, alg, max_steps=200_000)
        s.validate()

    def test_restarts_happen_with_small_guess(self):
        # Work far exceeding AOPT=1 forces at least one doubling.
        rng = np.random.default_rng(3)
        jobs = [Job(random_attachment_tree(200, rng), 0)]
        inst = Instance(jobs)
        alg = GeneralOutTreeScheduler(alpha=4, beta=4, initial_guess=1)
        s = simulate(inst, 8, alg, max_steps=200_000)
        s.validate()
        assert alg.n_restarts >= 1
        assert alg.aopt == 2**alg.n_restarts

    def test_large_initial_guess_avoids_restarts(self):
        rng = np.random.default_rng(4)
        jobs = [Job(random_attachment_tree(50, rng), 0)]
        inst = Instance(jobs)
        alg = GeneralOutTreeScheduler(alpha=4, beta=8, initial_guess=64)
        s = simulate(inst, 8, alg, max_steps=200_000)
        s.validate()
        assert alg.n_restarts == 0

    def test_restart_reschedules_remainder_completely(self):
        """After restarts every subjob still runs exactly once (validate()
        checks uniqueness + completeness)."""
        rng = np.random.default_rng(5)
        jobs = [Job(random_attachment_tree(120, rng), 0), Job(chain(40), 2)]
        inst = Instance(jobs)
        alg = GeneralOutTreeScheduler(alpha=4, beta=2, initial_guess=1)
        s = simulate(inst, 8, alg, max_steps=400_000)
        s.validate()
        assert alg.n_restarts >= 1

    def test_rejects_non_forest(self, diamond):
        inst = Instance([Job(diamond, 0)])
        with pytest.raises(ConfigurationError, match="out-forest"):
            simulate(inst, 8, GeneralOutTreeScheduler())

    def test_name(self):
        assert GeneralOutTreeScheduler(beta=8).name == "AlgA[a=4,b=8]"


class TestCohortMapping:
    def test_to_global_roundtrip(self):
        from repro.schedulers.outtree import _Cohort, _Member

        dag_a, dag_b = star(2), chain(3)
        union, _ = DAG.disjoint_union([dag_a, dag_b])
        cohort = _Cohort(
            release=0,
            members=[
                _Member(7, np.arange(dag_a.n)),
                _Member(9, np.arange(dag_b.n)),
            ],
            dag=union,
        )
        assert cohort.to_global(0) == (7, 0)
        assert cohort.to_global(2) == (7, 2)
        assert cohort.to_global(3) == (9, 0)
        assert cohort.to_global(5) == (9, 2)
