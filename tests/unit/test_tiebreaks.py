"""Unit tests for tie-break policies and the ready heap."""

import numpy as np
import pytest

from repro.core import Job
from repro.schedulers import (
    ArbitraryTieBreak,
    DepthTieBreak,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    RandomTieBreak,
    ReadyHeap,
    ReverseTieBreak,
)


@pytest.fixture
def job(small_tree):
    return Job(small_tree)


class TestKeys:
    def test_arbitrary_orders_by_id(self, job):
        tb = ArbitraryTieBreak()
        assert tb.key(job, 1) < tb.key(job, 4)
        assert not tb.clairvoyant

    def test_reverse_orders_descending(self, job):
        tb = ReverseTieBreak()
        assert tb.key(job, 4) < tb.key(job, 1)

    def test_lpf_prefers_height(self, job):
        tb = LongestPathTieBreak()
        # heights: node 0 -> 4, node 2 -> 3, node 1 -> 1
        assert tb.key(job, 0) < tb.key(job, 2) < tb.key(job, 1)
        assert tb.clairvoyant

    def test_depth_prefers_deeper(self, job):
        tb = DepthTieBreak()
        assert tb.key(job, 5) < tb.key(job, 0)  # depth 4 beats depth 1
        assert not tb.clairvoyant

    def test_most_children(self, job):
        tb = MostChildrenTieBreak()
        # node 0 and 2 have 2 children; node 1 none; tie broken by id
        assert tb.key(job, 0) < tb.key(job, 1)
        assert tb.key(job, 0) < tb.key(job, 2)

    def test_random_deterministic_with_seed(self, job):
        a = RandomTieBreak(7)
        b = RandomTieBreak(7)
        a.reset()
        b.reset()
        assert [a.key(job, i) for i in range(4)] == [b.key(job, i) for i in range(4)]

    def test_random_reset_reproduces(self, job):
        tb = RandomTieBreak(3)
        first = [tb.key(job, i) for i in range(5)]
        tb.reset()
        assert [tb.key(job, i) for i in range(5)] == first
        # Keys come in blocks; across block ends, and after a reset that
        # drops half a block, they are the scalar draws of a fresh stream.
        for _ in range(700):
            tb.key(job, 0)
        for reset_seed, seed in ((None, 3), (11, 11)):
            tb.reset(reset_seed)
            rng = np.random.default_rng(seed)
            keys = [tb.key(job, i % 6) for i in range(2500)]
            assert keys == [(rng.random(), i % 6) for i in range(2500)]

    def test_names(self):
        assert ArbitraryTieBreak().name == "arbitrary"
        assert LongestPathTieBreak().name == "longestpath"


class TestReadyHeap:
    def test_pop_order_follows_policy(self, job):
        heap = ReadyHeap(job, LongestPathTieBreak())
        heap.push_all([1, 3, 0, 2])
        assert heap.pop() == 0  # height 4
        assert heap.pop() == 2  # height 3

    def test_pop_up_to(self, job):
        heap = ReadyHeap(job, ArbitraryTieBreak())
        heap.push_all([4, 1, 3])
        assert heap.pop_up_to(2) == [1, 3]
        assert heap.pop_up_to(5) == [4]
        assert heap.pop_up_to(1) == []

    def test_len_bool_peek(self, job):
        heap = ReadyHeap(job, ArbitraryTieBreak())
        assert not heap and len(heap) == 0
        heap.push_all([2])
        assert heap and len(heap) == 1
        assert heap.peek() == 2
        assert len(heap) == 1  # peek does not pop
