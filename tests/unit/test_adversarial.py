"""Unit tests for the Section 4 adversarial family."""

import math

import numpy as np
import pytest

from repro.core import ConfigurationError, simulate
from repro.schedulers import ArbitraryTieBreak, FIFOScheduler
from repro.workloads import build_fifo_adversary


@pytest.fixture(scope="module")
def adv8():
    return build_fifo_adversary(8, n_jobs=16)


class TestStructure:
    def test_releases_on_period(self, adv8):
        assert adv8.instance.releases.tolist() == [i * 9 for i in range(16)]

    def test_jobs_are_out_forests(self, adv8):
        """Layer-1 subjobs are all roots, so each job is an out-forest: the
        main tree hanging off layer 1's key plus single-node trees (the
        layer-1 leaves). Every component is an out-tree, matching the class
        Theorem 4.2 speaks about."""
        for job in adv8.instance:
            assert job.is_out_forest
            dag = job.dag
            # The non-root portion below the layer-1 key is a single tree.
            assert (dag.outdegree[dag.roots] > 0).sum() == 1

    def test_layer_count_is_m(self, adv8):
        for job in adv8.instance:
            assert job.span == 8  # m layers -> depth m

    def test_layer_sizes_within_bounds(self, adv8):
        for job in adv8.instance:
            counts = job.dag.depth_counts[1:]
            assert counts.min() >= 1
            assert counts.max() <= 9  # at most m+1 per layer

    def test_keys_have_largest_ids_in_layer(self, adv8):
        """The key of layer d (the unique internal node, except at the last
        layer) carries the largest node id of its layer."""
        for job in adv8.instance:
            dag = job.dag
            for d in range(1, dag.span):  # last layer has no key children
                level = np.nonzero(dag.depth == d)[0]
                internal = level[dag.outdegree[level] > 0]
                assert internal.size == 1
                assert int(internal[0]) == int(level.max())

    def test_non_keys_are_leaves(self, adv8):
        for job in adv8.instance:
            dag = job.dag
            for d in range(1, dag.span + 1):
                level = np.nonzero(dag.depth == d)[0]
                assert (dag.outdegree[level] > 0).sum() <= 1


class TestSchedules:
    def test_fifo_schedule_feasible(self, adv8):
        adv8.fifo_schedule.validate()

    def test_witness_feasible_and_bounded(self, adv8):
        adv8.opt_witness.validate()
        assert adv8.opt_witness.max_flow <= 9  # m + 1

    def test_ratio_exceeds_one(self, adv8):
        assert adv8.ratio_lower_bound > 1.5

    def test_replay_identity(self, adv8):
        replay = simulate(adv8.instance, 8, FIFOScheduler(ArbitraryTieBreak()))
        assert all(
            np.array_equal(a, b)
            for a, b in zip(replay.completion, adv8.fifo_schedule.completion)
        )

    def test_ratio_grows_with_m(self):
        r4 = build_fifo_adversary(4, 12).ratio_lower_bound
        r16 = build_fifo_adversary(16, 48).ratio_lower_bound
        assert r16 > r4 + 0.5

    def test_tracks_lg_bound(self):
        adv = build_fifo_adversary(32, n_jobs=128)
        target = math.log2(32) - math.log2(math.log2(32))
        assert adv.ratio_lower_bound >= target


class TestParameters:
    def test_custom_layer_count(self):
        adv = build_fifo_adversary(6, n_jobs=4, n_layers=3)
        assert all(j.span == 3 for j in adv.instance)

    def test_single_job(self):
        adv = build_fifo_adversary(5, n_jobs=1)
        assert len(adv.instance) == 1
        adv.fifo_schedule.validate()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_fifo_adversary(1, 4)
        with pytest.raises(ConfigurationError):
            build_fifo_adversary(4, 0)
        with pytest.raises(ConfigurationError):
            build_fifo_adversary(4, 2, n_layers=0)
        # Non-integers are named, never truncated or leaked as TypeError.
        for args, kwargs, name in [
            ((4, 2), {"period": 2.7}, "period"),
            ((4, 2), {"n_layers": 3.9}, "n_layers"),
            ((2.5, 2), {}, "m"),
            ((4, 2.0), {}, "n_jobs"),
            ((4, "2"), {}, "n_jobs"),
        ]:
            with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
                build_fifo_adversary(*args, **kwargs)

    def test_numpy_integer_arguments_accepted(self):
        adv = build_fifo_adversary(
            np.int64(4), np.int32(3), n_layers=np.uint8(3), period=np.int64(6)
        )
        plain = build_fifo_adversary(4, 3, n_layers=3, period=6)
        assert (adv.m, adv.period) == (4, 6)
        for a, b in zip(adv.fifo_schedule.completion, plain.fifo_schedule.completion):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "m,n_jobs,kwargs",
        [
            (4, 3, {"n_layers": 6}),
            (4, 3, {"n_layers": 5}),
            (6, 5, {"n_layers": 9, "period": 30}),
            (5, 7, {"n_layers": 7, "period": 40}),
        ],
    )
    def test_more_layers_than_m_has_no_witness(self, m, n_jobs, kwargs):
        """Past m layers the witness's leaves can overflow their step, so
        none is built; the FIFO schedule is still built, valid and exact."""
        adv = build_fifo_adversary(m, n_jobs, **kwargs)
        adv.fifo_schedule.validate()
        assert all(job.span == kwargs["n_layers"] for job in adv.instance)
        assert adv.opt_witness is None
        with pytest.raises(ConfigurationError, match="no OPT witness"):
            _ = adv.opt_upper_bound
        replay = simulate(adv.instance, m, FIFOScheduler(ArbitraryTieBreak()))
        for a, b in zip(replay.completion, adv.fifo_schedule.completion):
            assert np.array_equal(a, b)

    def test_max_steps_guard(self):
        with pytest.raises(ConfigurationError, match="exceeded"):
            build_fifo_adversary(8, n_jobs=32, max_steps=10)
