"""Unit tests for the simulation engine: semantics, protocol enforcement."""

import numpy as np
import pytest

from repro.core import (
    ConfigurationError,
    Instance,
    Job,
    Scheduler,
    SchedulerProtocolError,
    SimulationError,
    SimulationObserver,
    chain,
    simulate,
    star,
)
from repro.core.simulator import _simulate_reference


class GreedyStub(Scheduler):
    """Minimal correct work-conserving scheduler for engine tests."""

    def reset(self, instance, m):
        self.ready = set()
        self.events: list[tuple] = []

    def on_job_arrival(self, t, job_id, job):
        self.events.append(("arrive", t, job_id))

    def on_nodes_ready(self, t, job_id, nodes):
        self.events.append(("ready", t, job_id, tuple(int(v) for v in nodes)))
        self.ready.update((job_id, int(v)) for v in nodes)

    def select(self, t, capacity):
        chosen = sorted(self.ready)[:capacity]
        self.ready.difference_update(chosen)
        return chosen


class TestEngineSemantics:
    def test_single_chain_runs_sequentially(self):
        inst = Instance([Job(chain(4), 0)])
        s = simulate(inst, 3, GreedyStub())
        assert s.completion[0].tolist() == [1, 2, 3, 4]

    def test_release_respected(self):
        inst = Instance([Job(chain(2), 5)])
        s = simulate(inst, 1, GreedyStub())
        assert s.completion[0].tolist() == [6, 7]

    def test_fast_forward_over_idle_gap(self):
        inst = Instance([Job(chain(1), 0), Job(chain(1), 1000)])
        s = simulate(inst, 1, GreedyStub(), max_steps=1100)
        assert s.completion[0][0] == 1
        assert s.completion[1][0] == 1001

    def test_arrival_events_delivered_once(self):
        stub = GreedyStub()
        inst = Instance([Job(star(2), 0), Job(chain(1), 2)])
        simulate(inst, 2, stub)
        arrivals = [e for e in stub.events if e[0] == "arrive"]
        assert arrivals == [("arrive", 0, 0), ("arrive", 2, 1)]

    def test_roots_ready_at_arrival(self):
        stub = GreedyStub()
        inst = Instance([Job(star(2), 3)])
        simulate(inst, 4, stub)
        assert ("ready", 3, 0, (0,)) in stub.events

    def test_children_ready_after_completion(self):
        stub = GreedyStub()
        inst = Instance([Job(chain(3), 0)])
        simulate(inst, 1, stub)
        ready_events = [e for e in stub.events if e[0] == "ready"]
        assert ready_events == [
            ("ready", 0, 0, (0,)),
            ("ready", 1, 0, (1,)),
            ("ready", 2, 0, (2,)),
        ]

    def test_capacity_limits_per_step(self):
        inst = Instance([Job(star(10), 0)])
        s = simulate(inst, 3, GreedyStub())
        usage = s.usage_profile()
        assert usage[1:].max() <= 3

    def test_result_validates(self, two_job_instance):
        s = simulate(two_job_instance, 2, GreedyStub())
        s.validate()

    def test_m_must_be_positive(self, two_job_instance):
        with pytest.raises(ConfigurationError):
            simulate(two_job_instance, 0, GreedyStub())


class LazyStub(GreedyStub):
    """Never schedules anything — must hit the max_steps guard."""

    def select(self, t, capacity):
        return []


class TestLivelockGuard:
    def test_lazy_scheduler_detected(self):
        inst = Instance([Job(chain(2), 0)])
        with pytest.raises(SimulationError, match="livelocked"):
            simulate(inst, 1, LazyStub(), max_steps=50)


class OverSelector(GreedyStub):
    def select(self, t, capacity):
        return [(0, v) for v in range(capacity + 1)]


class NonReadySelector(GreedyStub):
    def select(self, t, capacity):
        return [(0, 99)]


class DuplicateSelector(GreedyStub):
    def select(self, t, capacity):
        pick = sorted(self.ready)[:1]
        return pick + pick


class UnknownJobSelector(GreedyStub):
    def select(self, t, capacity):
        return [(42, 0)]


class FixedSelector(GreedyStub):
    """Returns the same (malformed) selection at every step."""

    def __init__(self, selection):
        self.selection = selection

    def select(self, t, capacity):
        return self.selection


#: Selections that are not a sequence of (job, node) integer pairs.
MALFORMED = {
    "triple": [(0, 0, 0)],
    "string": "ab",
    "none-entry": [None],
    "int-row-of-three": np.array([[0, 0, 0]]),
    "list-node": [[0, [0]]],
    "float-gids": np.array([0.0]),
    "float-pair": [(0.0, 0.5)],
    "float-node": [(0, 0.0)],
    "not-iterable": 7,
}


class TestProtocolEnforcement:
    @pytest.mark.parametrize(
        "bad,msg",
        [
            (OverSelector, "selected"),
            (NonReadySelector, "non-ready"),
            (DuplicateSelector, "twice"),
            (UnknownJobSelector, "unknown job"),
        ],
    )
    def test_bad_selections_rejected(self, bad, msg):
        inst = Instance([Job(star(5), 0)])
        with pytest.raises(SchedulerProtocolError, match=msg):
            simulate(inst, 3, bad())

    @pytest.mark.parametrize(
        "engine", [simulate, _simulate_reference], ids=["simulate", "reference"]
    )
    @pytest.mark.parametrize(
        "selection", list(MALFORMED.values()), ids=list(MALFORMED)
    )
    def test_malformed_selections_rejected(self, engine, selection):
        """Every entry must be a 2-item pair of integers; anything else is a
        protocol error naming the scheduler and the step, never a raw
        ValueError/TypeError and never a truncated float."""
        inst = Instance([Job(star(5), 0)])
        with pytest.raises(
            SchedulerProtocolError, match=r"^FixedSelector .* at t=0"
        ):
            engine(inst, 3, FixedSelector(selection))


class CountingObserver(SimulationObserver):
    def __init__(self):
        self.steps = []

    def on_step(self, t, selection, state):
        self.steps.append((t, len(selection), state.total_unfinished))


class TestObserver:
    def test_observer_sees_every_step(self):
        obs = CountingObserver()
        inst = Instance([Job(chain(3), 0)])
        simulate(inst, 1, GreedyStub(), observer=obs)
        assert [s[0] for s in obs.steps] == [0, 1, 2]
        # unfinished counts decrease to 0
        assert [s[2] for s in obs.steps] == [2, 1, 0]


class TestEngineState:
    def test_state_shapes(self, two_job_instance):
        from repro.core import EngineState

        state = EngineState(two_job_instance, 2)
        assert state.total_unfinished == two_job_instance.total_work
        assert state.ready_count() == 0
        assert state.unfinished_job_ids() == [0, 1]
