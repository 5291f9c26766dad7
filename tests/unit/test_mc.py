"""Unit tests for the Most-Children replayer (Section 5.2)."""

import numpy as np
import pytest

from repro.core import ConfigurationError, DAG, chain, complete_kary_tree, star
from repro.schedulers import MostChildrenReplayer, lpf_schedule


def _steps_of(dag, width):
    sched = lpf_schedule(dag, width)
    return [nodes for _, nodes in sched.job_steps(0)]


class TestConstruction:
    def test_level_counts(self, kary):
        steps = _steps_of(kary, 4)
        r = MostChildrenReplayer(steps, kary)
        assert r.remaining == kary.n
        assert r.n_levels == len(steps)
        assert not r.finished

    def test_empty_step_rejected(self, kary):
        with pytest.raises(ConfigurationError, match="empty"):
            MostChildrenReplayer([np.array([0]), np.array([], dtype=np.int64)], kary)

    def test_duplicate_node_rejected(self, kary):
        with pytest.raises(ConfigurationError, match="twice"):
            MostChildrenReplayer([np.array([0]), np.array([0])], kary)

    @pytest.mark.parametrize(
        "last, problem",
        [([-1], "node -1"), ([7], "node 7"), ([3.7], "node 3.7"), ([[3]], "not a flat list")],
        ids=["negative", "past-the-end", "non-integer", "nested"],
    )
    def test_bad_node_id_rejected(self, last, problem):
        dag = DAG.from_parents([-1, 0, 0, 1])
        with pytest.raises(ConfigurationError, match=f"step 2 .*{problem}"):
            MostChildrenReplayer([[0], [1, 2], last], dag)

    def test_bad_node_id_rejected_by_check_mc_busy(self):
        from repro.analysis.invariants import check_mc_busy

        dag = DAG.from_parents([-1, 0, 0, 1])
        with pytest.raises(ConfigurationError, match="step 2 .* node 7"):
            check_mc_busy([[0], [1, 2], [7]], dag, [2] * 10)


class TestPriorities:
    def test_most_children_first(self):
        # Level 0: node 0 (two children in level 1) and node 3 (no children).
        dag = DAG(4, [(0, 1), (0, 2)])
        r = MostChildrenReplayer([np.array([0, 3]), np.array([1, 2])], dag)
        assert r.select(1) == [0]

    def test_tie_broken_by_id(self):
        dag = DAG(4, [(0, 2), (1, 3)])
        r = MostChildrenReplayer([np.array([0, 1]), np.array([2, 3])], dag)
        assert r.select(1) == [0]

    def test_children_counted_only_in_next_level(self):
        # node 0 has children in level 2 but NOT in level 1 -> count 0.
        dag = DAG(4, [(0, 3), (1, 2)])
        steps = [np.array([0, 1]), np.array([2]), np.array([3])]
        r = MostChildrenReplayer(steps, dag)
        assert r.select(1) == [1]  # node 1 has a child in the next level


class TestLevelAdvance:
    def test_rolls_into_next_level_same_step(self):
        dag = star(3)  # 0 -> 1,2,3
        steps = [np.array([0]), np.array([1, 2, 3])]
        r = MostChildrenReplayer(steps, dag)
        done = {0}
        # After 0 completes, a grant of 3 takes the whole next level.
        assert r.select(1) == [0]
        picks = r.select(3, lambda v: all(p in done for p in dag.parents(v)))
        assert sorted(picks) == [1, 2, 3]
        assert r.finished

    def test_blocked_children_not_picked_same_step(self):
        dag = chain(3)
        steps = [np.array([0]), np.array([1]), np.array([2])]
        r = MostChildrenReplayer(steps, dag)
        done = set()

        def ready(v):
            return all(p in done for p in dag.parents(v))

        picks = r.select(3, ready)  # only node 0 is ready
        assert picks == [0]
        done.update(picks)
        picks = r.select(3, ready)
        assert picks == [1]

    def test_blocked_nodes_restored(self):
        dag = chain(2)
        r = MostChildrenReplayer([np.array([0]), np.array([1])], dag)
        assert r.select(2, lambda v: v == 0) == [0]
        assert r.remaining == 1
        # Node 1 was stashed (unready) and must come back once ready.
        assert r.select(1) == [1]
        assert r.finished

    def test_zero_grant(self, kary):
        r = MostChildrenReplayer(_steps_of(kary, 4), kary)
        assert r.select(0) == []
        assert r.remaining == kary.n

    def test_negative_grant_rejected(self, kary):
        r = MostChildrenReplayer(_steps_of(kary, 4), kary)
        with pytest.raises(ConfigurationError):
            r.select(-1)


class TestFullReplay:
    @pytest.mark.parametrize("grant", [1, 2, 5])
    def test_replays_everything(self, grant, kary):
        steps = _steps_of(kary, 4)
        r = MostChildrenReplayer(steps, kary)
        done = set()
        for _ in range(10 * kary.n):
            if r.finished:
                break
            picks = r.select(
                grant, lambda v: all(int(p) in done for p in kary.parents(v))
            )
            done.update(picks)
        assert r.finished
        assert len(done) == kary.n

    def test_respects_precedence_throughout(self):
        dag = complete_kary_tree(3, 3)
        steps = _steps_of(dag, 5)
        r = MostChildrenReplayer(steps, dag)
        done: set[int] = set()
        while not r.finished:
            picks = r.select(
                4, lambda v: all(int(p) in done for p in dag.parents(v))
            )
            assert picks, "replayer stalled"
            for v in picks:
                assert all(int(p) in done for p in dag.parents(v))
            done.update(picks)
