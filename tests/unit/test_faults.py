"""Unit tests for availability traces and engine fault injection
(`repro.core.availability`, `repro.faults`, and `simulate`'s
``availability``/``fault_injector`` parameters)."""

import numpy as np
import pytest

from repro.core import (
    AvailabilityTrace,
    ConfigurationError,
    Instance,
    Job,
    as_trace,
    chain,
    complete_kary_tree,
    simulate,
    star,
)
from repro.core.simulator import _simulate_reference
from repro.faults import (
    FaultInjector,
    adversarial_traces,
    availability_suite,
    random_trace,
)
from repro.schedulers import FIFOScheduler, LPFScheduler


class TestAvailabilityTrace:
    def test_basic_semantics(self):
        trace = AvailabilityTrace((3, 0, 1), tail=4)
        assert trace.horizon == 3
        assert trace.max_value == 3
        assert [trace.capacity_at(t) for t in range(5)] == [3, 0, 1, 4, 4]

    def test_prefix_pads_with_tail(self):
        trace = AvailabilityTrace((2, 1), tail=3)
        assert trace.prefix(4) == [2, 1, 3, 3]
        assert trace.prefix(1) == [2]

    def test_clamped(self):
        trace = AvailabilityTrace((5, 0, 3), tail=5)
        clamped = trace.clamped(2)
        assert clamped.values == (2, 0, 2)
        assert clamped.tail == 2

    def test_rejects_nonpositive_tail(self):
        with pytest.raises(ConfigurationError):
            AvailabilityTrace((1, 2), tail=0)

    def test_rejects_negative_values(self):
        with pytest.raises(ConfigurationError):
            AvailabilityTrace((1, -1), tail=2)

    def test_empty_values_allowed(self):
        trace = AvailabilityTrace((), tail=2)
        assert trace.horizon == 0
        assert trace.capacity_at(0) == 2


class TestAsTrace:
    def test_plain_sequence_gets_tail_m(self):
        trace = as_trace([2, 0, 1], 4)
        assert isinstance(trace, AvailabilityTrace)
        assert trace.values == (2, 0, 1)
        assert trace.tail == 4

    def test_trace_passthrough(self):
        trace = AvailabilityTrace((1, 2), tail=2)
        assert as_trace(trace, 3) is trace

    def test_rejects_value_above_m(self):
        with pytest.raises(ConfigurationError):
            as_trace([1, 5], 4)
        with pytest.raises(ConfigurationError):
            as_trace(AvailabilityTrace((5,), tail=2), 4)

    def test_rejects_tail_above_m(self):
        with pytest.raises(ConfigurationError):
            as_trace(AvailabilityTrace((1,), tail=8), 4)


class TestSimulateWithAvailability:
    def _instance(self):
        return Instance([Job(complete_kary_tree(2, 3), 0), Job(star(4), 2)])

    def test_constant_trace_matches_untraced_run(self):
        inst = self._instance()
        m = 3
        plain = simulate(inst, m, FIFOScheduler())
        traced = simulate(
            inst, m, FIFOScheduler(),
            availability=AvailabilityTrace((m,) * 10, tail=m),
        )
        assert all(
            np.array_equal(a, b)
            for a, b in zip(plain.completion, traced.completion)
        )

    def test_zero_capacity_prefix_delays_everything(self):
        inst = Instance([Job(chain(3), 0)])
        sched = simulate(
            inst, 2, FIFOScheduler(), availability=[0, 0, 0, 0]
        )
        sched.validate()
        # Nothing can run during the 4-step blackout; the chain needs 3
        # more steps once capacity returns.
        assert sched.makespan == 7

    def test_trickle_serializes_execution(self):
        inst = Instance([Job(star(5), 0)])  # work 6, span 2
        sched = simulate(
            inst, 4, FIFOScheduler(),
            availability=AvailabilityTrace((1,) * 50, tail=4),
        )
        sched.validate()
        assert sched.makespan == 6  # one node per step under the trickle

    def test_per_step_capacity_respected(self):
        inst = self._instance()
        trace = AvailabilityTrace((2, 0, 1, 3, 1, 2, 0, 3), tail=3)
        sched = simulate(inst, 3, FIFOScheduler(), availability=trace)
        sched.validate()
        counts = np.zeros(sched.makespan + 1, dtype=int)
        for comp in sched.completion:
            for t in comp:
                counts[int(t)] += 1
        # Nodes completing at time tau were dispatched at step tau - 1,
        # whose grant was capacity_at(tau - 1).
        for t in range(1, sched.makespan + 1):
            assert counts[t] <= trace.capacity_at(t - 1)

    def test_engine_and_reference_agree_under_trace(self):
        inst = self._instance()
        trace = AvailabilityTrace((3, 0, 1, 2, 0, 2) * 8, tail=3)
        for scheduler_cls in (FIFOScheduler, LPFScheduler):
            fast = simulate(inst, 3, scheduler_cls(), availability=trace)
            ref = _simulate_reference(
                inst, 3, scheduler_cls(), availability=trace
            )
            assert all(
                np.array_equal(a, b)
                for a, b in zip(fast.completion, ref.completion)
            )


class TestTraceGenerators:
    def test_random_trace_bounds_and_determinism(self):
        a = random_trace(5, 30, seed=9)
        b = random_trace(5, 30, seed=9)
        assert a == b
        assert a.tail == 5
        assert all(0 <= v <= 5 for v in a.values)

    def test_adversarial_patterns_cover_named_shapes(self):
        patterns = adversarial_traces(4, 12)
        assert set(patterns) >= {
            "constant", "trickle", "bursty", "sawtooth", "alternating",
            "blackout", "half-then-cut",
        }
        for trace in patterns.values():
            assert trace.horizon == 12
            assert trace.tail == 4
            assert trace.max_value <= 4

    def test_availability_suite_counts(self):
        names = [name for name, _ in availability_suite(3, 10, n_random=5)]
        assert len(names) == len(adversarial_traces(3, 10)) + 5
        assert len(set(names)) == len(names)


class TestFaultInjector:
    def test_rejects_bad_crash_rate(self):
        with pytest.raises(ValueError):
            FaultInjector(crash_rate=1.5)

    def test_exact_crash_times_fire_once_each(self):
        inst = Instance([Job(complete_kary_tree(2, 4), 0)])
        injector = FaultInjector(crash_times=(1, 3))
        sched = simulate(inst, 2, FIFOScheduler(), fault_injector=injector)
        sched.validate()
        assert injector.crashes == [1, 3]

    def test_begin_run_resets_state(self):
        injector = FaultInjector(crash_times=(0,), perturb_delivery=True, seed=4)
        inst = Instance([Job(star(4), 0), Job(chain(3), 0)])
        first = simulate(inst, 2, FIFOScheduler(), fault_injector=injector)
        crashes, perturbed = list(injector.crashes), injector.perturbed_steps
        second = simulate(inst, 2, FIFOScheduler(), fault_injector=injector)
        assert injector.crashes == crashes
        assert injector.perturbed_steps == perturbed
        assert all(
            np.array_equal(a, b)
            for a, b in zip(first.completion, second.completion)
        )

    def test_delivery_order_is_permutation(self):
        injector = FaultInjector(perturb_delivery=True, seed=1)
        injector.begin_run()
        order = injector.delivery_order(0, 5)
        assert sorted(int(i) for i in order) == [0, 1, 2, 3, 4]

    def test_no_perturbation_returns_none(self):
        injector = FaultInjector()
        injector.begin_run()
        assert injector.delivery_order(0, 3) is None

    def test_crash_recovery_produces_valid_identical_schedules(self):
        """A faulted run (the dispatch loop) validates and equals the
        unfaulted list-rule run: crashes and delivery order change nothing
        FIFO or LPF decide."""
        inst = Instance(
            [Job(complete_kary_tree(2, 4), 0), Job(star(6), 3)]
        )
        trace = AvailabilityTrace((3, 1, 0, 2) * 10, tail=3)
        for scheduler_cls in (FIFOScheduler, LPFScheduler):
            injector = FaultInjector(
                crash_times=(2, 5, 9), perturb_delivery=True, seed=11
            )
            faulted = simulate(
                inst, 3, scheduler_cls(),
                availability=trace, fault_injector=injector,
            )
            faulted.validate()
            assert injector.crashes  # faults actually fired
            plain = simulate(inst, 3, scheduler_cls(), availability=trace)
            assert all(
                np.array_equal(a, b)
                for a, b in zip(faulted.completion, plain.completion)
            )

    def test_crash_rate_draws_align_across_engines(self):
        """Two runs of one injector draw the same crashes, and both equal
        the uncrashed schedule."""
        inst = Instance([Job(complete_kary_tree(2, 4), 0)])
        injector = FaultInjector(crash_rate=0.3, seed=7)
        first = simulate(inst, 2, FIFOScheduler(), fault_injector=injector)
        first_crashes = list(injector.crashes)
        assert first_crashes
        second = simulate(inst, 2, FIFOScheduler(), fault_injector=injector)
        assert injector.crashes == first_crashes
        plain = simulate(inst, 2, FIFOScheduler())
        for run in (first, second):
            assert all(
                np.array_equal(a, b)
                for a, b in zip(run.completion, plain.completion)
            )
