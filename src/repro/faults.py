"""Fault injection for the simulation engine and its property suites.

The paper's robustness story is Lemma 5.5: Most-Children replay keeps every
*granted* processor busy under an adversarially fluctuating allocation
``m_t``. This module supplies the machinery to exercise that story — and
the engine's own fault tolerance — systematically:

* **availability traces** — random and adversarial ``m_t`` sequences fed to
  :func:`repro.core.simulate` via its ``availability`` parameter (the data
  type itself lives in :mod:`repro.core.availability`; the engine never
  imports this module);
* :class:`FaultInjector` — the concrete
  :class:`~repro.core.simulator.FaultHooks` implementation: kills and
  restarts the scheduler mid-run (the engine rebuilds its state from the
  committed schedule prefix) and perturbs ready-delivery group order where
  the determinism contract permits;
* :func:`run_chaos_trials` — the randomized chaos suite behind
  ``python -m repro chaos`` and the CI chaos job: for a seeded batch of
  instances/traces/fault plans it asserts schedule validity, list-rule ↔
  reference bit-identity, faulted ↔ unfaulted bit-identity, and the
  Lemma 5.5 busy property, reporting the seed of any violation for
  reproduction.

Everything here is deterministic given its seed (lint rule RPR003 applies:
no wall-clock or entropy reads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .core.availability import AvailabilityTrace
from .core.util import Array

__all__ = [
    "AvailabilityTrace",
    "FaultInjector",
    "ChaosReport",
    "adversarial_traces",
    "availability_suite",
    "random_trace",
    "run_chaos_trials",
]


# ----------------------------------------------------------------------
# Availability trace generators
# ----------------------------------------------------------------------


def random_trace(
    m: int, horizon: int, seed: Optional[int] = None, *, rng: Optional[np.random.Generator] = None
) -> AvailabilityTrace:
    """A uniformly random allocation ``m_t ~ U{0..m}`` over ``horizon``
    steps (tail ``m``: back to the full machine afterwards)."""
    if rng is None:
        rng = np.random.default_rng(seed)
    values = tuple(int(v) for v in rng.integers(0, m + 1, size=horizon))
    return AvailabilityTrace(values, tail=m)


def adversarial_traces(m: int, horizon: int) -> dict[str, AvailabilityTrace]:
    """Named hand-crafted adversarial allocation patterns.

    Each stresses a different failure mode of a replay scheduler: long
    starvation, single-processor trickles, sawtooth ramps, and abrupt
    full-to-nothing cuts (the shapes E5 uses, plus harsher blackout runs).
    """
    half = max(1, m // 2)
    patterns: dict[str, Sequence[int]] = {
        "constant": [m] * horizon,
        "trickle": [1] * horizon,
        "bursty": [
            (m if (k // 3) % 2 == 0 else max(0, m // 4)) for k in range(horizon)
        ],
        "sawtooth": [1 + (k % m) for k in range(horizon)],
        "alternating": [(m if k % 2 == 0 else 0) for k in range(horizon)],
        "blackout": [0 if k < horizon // 3 else m for k in range(horizon)],
        "half-then-cut": [
            (half if k < horizon // 2 else (k % 2)) for k in range(horizon)
        ],
    }
    return {
        name: AvailabilityTrace(tuple(int(v) for v in values), tail=m)
        for name, values in patterns.items()
    }


def availability_suite(
    m: int,
    horizon: int,
    n_random: int,
    seed: int = 0,
) -> Iterator[tuple[str, AvailabilityTrace]]:
    """Yield ``(name, trace)`` pairs: every adversarial pattern plus
    ``n_random`` seeded random traces (names carry the seed for repro)."""
    yield from adversarial_traces(m, horizon).items()
    rng = np.random.default_rng(seed)
    for i in range(n_random):
        yield f"random[{seed}:{i}]", random_trace(m, horizon, rng=rng)


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------


class FaultInjector:
    """Deterministic engine fault plan (implements ``FaultHooks``).

    Parameters
    ----------
    crash_times:
        Steps at which the scheduler is killed and rebuilt from the
        committed schedule prefix (exact-match on the dispatch step ``t``).
    crash_rate:
        Additional per-step crash probability (seeded; drawn once per
        dispatch step, so the two engines see identical decisions).
    perturb_delivery:
        Shuffle the order in which per-job ready-delivery groups reach the
        scheduler each step. Node arrays within a group stay ascending —
        that part of the delivery contract is load-bearing.
    seed:
        RNG seed for ``crash_rate`` draws and delivery shuffles.

    One injector instance drives one run at a time; ``begin_run`` (called
    by the engine) resets the RNG stream and the fired-fault log, so every
    run the same instance is passed to draws the same fault sequence.
    """

    def __init__(
        self,
        *,
        crash_times: Sequence[int] = (),
        crash_rate: float = 0.0,
        perturb_delivery: bool = False,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= crash_rate <= 1.0:
            raise ValueError(f"crash_rate must be in [0, 1], got {crash_rate}")
        self._crash_times = frozenset(int(t) for t in crash_times)
        self._crash_rate = float(crash_rate)
        self._perturb = bool(perturb_delivery)
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)
        #: Steps at which a crash actually fired in the current run.
        self.crashes: list[int] = []
        #: Number of delivery batches whose group order was shuffled.
        self.perturbed_steps: int = 0

    # -- FaultHooks --------------------------------------------------------

    def begin_run(self) -> None:
        self._rng = np.random.default_rng(self._seed)
        self.crashes = []
        self.perturbed_steps = 0

    def should_crash(self, t: int) -> bool:
        fire = t in self._crash_times
        if self._crash_rate > 0.0:
            # Always consume the draw so the decision stream is identical
            # across runs regardless of the crash_times hit pattern.
            fire = bool(self._rng.random() < self._crash_rate) or fire
        if fire:
            self.crashes.append(t)
        return fire

    def delivery_order(self, t: int, n_groups: int) -> Optional[Array]:
        if not self._perturb:
            return None
        self.perturbed_steps += 1
        return self._rng.permutation(n_groups)


# ----------------------------------------------------------------------
# Randomized chaos suite (CLI `repro chaos` + the CI chaos job)
# ----------------------------------------------------------------------


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos_trials` batch."""

    seed: int
    trials: int = 0
    traces_checked: int = 0
    mc_replays: int = 0
    injected_crashes: int = 0
    perturbed_steps: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"chaos[seed={self.seed}]: {status} — {self.trials} trials, "
            f"{self.traces_checked} trace runs, {self.mc_replays} MC "
            f"replays, {self.injected_crashes} injected crashes, "
            f"{self.perturbed_steps} perturbed delivery steps"
        )


def run_chaos_trials(
    seed: int,
    trials: int = 10,
    *,
    patterns: Optional[Sequence[str]] = None,
    n_nodes: int = 60,
) -> ChaosReport:
    """Run the randomized fault-injection validation suite.

    Each trial draws a random out-tree workload, then checks, under every
    selected availability pattern plus fresh random traces, for FIFO, LPF
    and SRPT (with the LPF tie-break):

    * the list-rule engine and the reference loop produce
      **bit-identical valid schedules** under the trace;
    * with an attached :class:`FaultInjector` (scheduler crash/restart +
      perturbed ready delivery) the run, which goes through the dispatch
      loop, is valid and **bit-identical to the unfaulted run**: neither
      crashes nor delivery order change what these list rules decide;
    * **Lemma 5.5**: MC replay of a packed LPF tail is work-conserving
      (never idles a granted processor) under the trace.

    ``patterns`` restricts the adversarial patterns by name (default: all).
    Violations are recorded (with the trial/pattern identifiers) rather
    than raised, so one seed reports every failure at once.
    """
    # Imports are local: faults must stay importable from the engine-layer
    # tests without dragging the full scheduler/workload surface in.
    from .analysis.invariants import check_mc_busy, head_tail_shape
    from .core import Instance, Job, simulate
    from .core.simulator import _simulate_reference
    from .schedulers import (
        FIFOScheduler,
        LongestPathTieBreak,
        LPFScheduler,
        SRPTScheduler,
        lpf_schedule,
    )
    from .workloads.random_trees import random_attachment_tree

    def srpt() -> SRPTScheduler:
        return SRPTScheduler(LongestPathTieBreak())

    report = ChaosReport(seed=seed)
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        report.trials += 1
        m = int(rng.integers(2, 9))
        jobs = [
            Job(
                random_attachment_tree(int(rng.integers(8, n_nodes + 1)), rng),
                int(rng.integers(0, 12)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ]
        instance = Instance(jobs)
        horizon = 4 * instance.total_work + 8
        suite = dict(adversarial_traces(m, horizon))
        if patterns is not None:
            unknown = set(patterns) - set(suite)
            if unknown:
                raise KeyError(f"unknown trace patterns: {sorted(unknown)}")
            suite = {name: suite[name] for name in patterns}
        for i in range(2):
            suite[f"random[{trial}:{i}]"] = random_trace(m, horizon, rng=rng)

        for name, trace in suite.items():
            tag = f"trial {trial} seed {seed} pattern {name!r} m={m}"
            crash_times = sorted(
                int(v) for v in rng.integers(0, horizon // 2, size=2)
            )
            injector = FaultInjector(
                crash_times=crash_times,
                perturb_delivery=True,
                seed=int(rng.integers(0, 2**31)),
            )
            for make_scheduler in (FIFOScheduler, LPFScheduler, srpt):
                scheduler = make_scheduler()
                plain = simulate(instance, m, scheduler, availability=trace)
                ref = _simulate_reference(
                    instance, m, make_scheduler(), availability=trace
                )
                faulted = simulate(
                    instance,
                    m,
                    make_scheduler(),
                    availability=trace,
                    fault_injector=injector,
                )
                report.traces_checked += 2
                report.injected_crashes += len(injector.crashes)
                report.perturbed_steps += injector.perturbed_steps
                for label, run, expected, pair in (
                    ("plain", plain, ref, "engine/reference"),
                    ("faulted", faulted, plain, "faulted/unfaulted"),
                ):
                    if not run.is_feasible():
                        report.failures.append(
                            f"invalid schedule [{label}] {scheduler.name}: {tag}"
                        )
                    if not all(
                        np.array_equal(a, b)
                        for a, b in zip(run.completion, expected.completion)
                    ):
                        report.failures.append(
                            f"{pair} divergence [{label}] "
                            f"{scheduler.name}: {tag}"
                        )

            # Lemma 5.5: MC replay of a packed LPF tail never idles a
            # granted processor (work-conserving strength; see the
            # reproduction finding in repro.schedulers.mc).
            dag = jobs[0].dag
            lpf = lpf_schedule(dag, m)
            shape = head_tail_shape(lpf, m)
            steps = [nodes for _, nodes in lpf.job_steps(0)]
            tail = steps[shape.head_length :]
            if tail:
                report.mc_replays += 1
                # Pad past the explicit horizon so zero-heavy traces cannot
                # exhaust the allocation list before the tail's work is done.
                allocations = trace.prefix(horizon + instance.total_work)
                if not check_mc_busy(tail, dag, allocations):
                    report.failures.append(f"MC busy violation: {tag}")
    return report
