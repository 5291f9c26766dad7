"""E13 — runtime baselines: work stealing vs FIFO vs Algorithm 𝒜.

The paper's introduction grounds the model in real fork-join runtimes
(Cilk, TBB, OpenMP), whose scheduler is randomized work stealing — provably
great for *one* job's makespan, but with no fairness story across jobs.
This experiment places a faithful work-stealing simulation next to the
paper's algorithms on the multi-job maximum-flow objective:

* on a benign stream of recursion-tree jobs, work stealing's utilization is
  high but its **max flow** trails FIFO (it has no notion of job age, so an
  unlucky old job can starve behind younger work);
* on the adversarial family, work stealing — like every policy that
  doesn't deliberately shape jobs — sits between arbitrary FIFO and the
  clairvoyant shapers.

This is context the paper asserts informally; the table makes it
quantitative.
"""

from __future__ import annotations

import numpy as np

from ..analysis.competitive import OptReference
from ..core.simulator import simulate
from ..schedulers.base import ArbitraryTieBreak, LongestPathTieBreak
from ..schedulers.fifo import FIFOScheduler
from ..schedulers.worksteal import WorkStealingScheduler
from ..workloads.adversarial import build_fifo_adversary
from ..workloads.arrivals import poisson_instance
from ..workloads.recursive import quicksort_tree
from .runner import ExperimentResult

__all__ = ["run"]


def _measure(instance, m, scheduler_factory, ref):
    """One baseline run.

    Utilization is derived from the completion histogram instead of a
    per-step observer (which would force the slow path): subjobs finishing
    at ``t + 1`` were scheduled during step ``t``, and every scheduler here
    is work-conserving enough to schedule at least one ready subjob per
    active step, so the active window is exactly the steps with a
    completion.
    """
    scheduler = scheduler_factory()
    schedule = simulate(instance, m, scheduler)
    schedule.validate()
    counts = np.bincount(np.concatenate(schedule.completion))
    busy = int(counts.sum())
    active_steps = int(np.count_nonzero(counts))
    row = {
        "scheduler": scheduler.name,
        "max_flow": schedule.max_flow,
        "ratio": schedule.max_flow / ref.value,
        "utilization": busy / max(1, m * active_steps),
        "makespan": schedule.makespan,
    }
    if isinstance(scheduler, WorkStealingScheduler):
        row["steals"] = scheduler.steal_count
    else:
        row["steals"] = ""
    return row


def run(
    m: int = 16,
    n_jobs: int = 16,
    elements: int = 150,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E13",
        title="Runtime baselines: work stealing vs FIFO vs shaping",
        paper_artifact="Section 1 motivation / Section 2 related work",
    )
    rng = np.random.default_rng(seed)

    factories = [
        lambda: WorkStealingScheduler(seed=seed, steal_attempts=2),
        lambda: WorkStealingScheduler(seed=seed, deterministic_fallback=True),
        lambda: FIFOScheduler(ArbitraryTieBreak()),
        lambda: FIFOScheduler(LongestPathTieBreak()),
    ]

    # --- benign stream ----------------------------------------------------
    dags = [quicksort_tree(elements, rng) for _ in range(n_jobs)]
    stream = poisson_instance(dags, rate=m / (2.0 * elements), seed=rng)
    ref = OptReference.lower(stream, m)
    for make in factories:
        row = _measure(stream, m, make, ref)
        row["workload"] = "quicksort-stream"
        result.rows.append(row)

    # --- adversarial family -------------------------------------------------
    adv = build_fifo_adversary(m, n_jobs=3 * m)
    ref_a = OptReference.witness(adv.opt_witness)
    for make in factories:
        row = _measure(adv.instance, m, make, ref_a)
        row["workload"] = "adversarial"
        result.rows.append(row)

    result.columns = [
        "workload",
        "scheduler",
        "max_flow",
        "ratio",
        "utilization",
        "steals",
        "makespan",
    ]
    stream_rows = [r for r in result.rows if r["workload"] == "quicksort-stream"]
    by_name = {r["scheduler"]: r for r in stream_rows}
    result.add_claim(
        "age-aware FIFO beats pure work stealing on max flow "
        "(fairness costs nothing to FIFO, and work stealing ignores age)",
        by_name["FIFO[arbitrary]"]["max_flow"]
        <= by_name["WorkSteal[p2]"]["max_flow"],
    )
    adv_rows = {r["scheduler"]: r for r in result.rows if r["workload"] == "adversarial"}
    result.add_claim(
        "on the adversarial family the clairvoyant LPF tie-break beats "
        "every non-shaping policy",
        adv_rows["FIFO[longestpath]"]["max_flow"]
        <= min(
            adv_rows["WorkSteal[p2]"]["max_flow"],
            adv_rows["WorkSteal[wc]"]["max_flow"],
            adv_rows["FIFO[arbitrary]"]["max_flow"],
        ),
    )
    result.add_claim(
        "every schedule is feasible and fully validated",
        True,
        "enforced by engine + validate() in _measure",
    )
    return result
