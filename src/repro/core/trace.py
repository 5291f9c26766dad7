"""Execution tracing: per-step and per-job metrics from a live simulation.

:class:`MetricsCollector` plugs into :func:`repro.core.simulate` as an
observer and records what post-hoc schedule inspection cannot see — the
*online* state: how many subjobs were ready at each step (the scheduler's
instantaneous parallelism), how many jobs were alive, how much work was
backlogged. ``examples/cluster_report.py`` uses it for utilization and
backlog columns (no experiment table does); it is also the honest way to
measure "how far behind OPT the scheduler's outstanding work is", the
quantity the paper's Section 1 discussion and Section 6 induction revolve
around.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .simulator import EngineState, Selection, SimulationObserver
from .util import Array

__all__ = ["MetricsCollector", "TraceSummary"]


@dataclass(frozen=True)
class TraceSummary:
    """Aggregated metrics of one simulation run."""

    n_steps: int
    busy_processor_steps: int
    idle_processor_steps: int
    utilization: float  # busy / (busy + idle) over the active window
    max_ready: int  # peak instantaneous parallelism offered
    mean_ready: float
    max_alive_jobs: int
    max_backlog: int  # peak unfinished work while any job was alive
    first_step: int
    last_step: int


@dataclass
class MetricsCollector(SimulationObserver):
    """Records per-step online metrics during a simulation.

    Attributes (populated as the run progresses; numpy-friendly lists):

    * ``times`` — the time stamp ``t`` of each observed step;
    * ``scheduled`` — subjobs executed during ``(t, t+1]``;
    * ``ready_before`` — ready subjobs *remaining* after the selection
      (what the scheduler left on the table);
    * ``alive_jobs`` — released-but-unfinished jobs after the step;
    * ``backlog`` — total unfinished subjobs after the step.
    """

    times: list[int] = field(default_factory=list)
    scheduled: list[int] = field(default_factory=list)
    ready_after: list[int] = field(default_factory=list)
    alive_jobs: list[int] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    m: int = 0

    def on_step(self, t: int, selection: Selection, state: EngineState) -> None:
        self.m = state.m
        self.times.append(t)
        self.scheduled.append(len(selection))
        self.ready_after.append(state.ready_count())
        # The engine updates state before notifying; a job was alive *at*
        # this step if it still has work or just executed its last subjob.
        touched = {job_id for job_id, _ in selection}
        alive = sum(
            1
            for i in range(len(state.instance))
            if state.released[i]
            and (state.unfinished_counts[i] > 0 or i in touched)
        )
        self.alive_jobs.append(alive)
        self.backlog.append(state.total_unfinished)

    # ------------------------------------------------------------------

    def utilization_profile(self) -> Array:
        """Fraction of processors busy at each observed step."""
        if not self.times:
            return np.empty(0, dtype=float)
        return np.asarray(self.scheduled, dtype=float) / float(self.m)

    def summary(self) -> TraceSummary:
        """Aggregate the run (raises if no steps were observed)."""
        if not self.times:
            raise ValueError("no steps observed — pass the collector to simulate()")
        scheduled = np.asarray(self.scheduled, dtype=np.int64)
        ready_after = np.asarray(self.ready_after, dtype=np.int64)
        offered = scheduled + ready_after  # ready at selection time
        busy = int(scheduled.sum())
        idle = int((self.m - scheduled).sum())
        return TraceSummary(
            n_steps=len(self.times),
            busy_processor_steps=busy,
            idle_processor_steps=idle,
            utilization=busy / max(1, busy + idle),
            max_ready=int(offered.max()),
            mean_ready=float(offered.mean()),
            max_alive_jobs=int(max(self.alive_jobs)),
            # Backlog is recorded after the step; before-step backlog adds
            # back what the step executed.
            max_backlog=int(
                (np.asarray(self.backlog, dtype=np.int64) + scheduled).max()
            ),
            first_step=int(self.times[0]),
            last_step=int(self.times[-1]),
        )
