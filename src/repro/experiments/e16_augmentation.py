"""E16 — why augmented analyses miss the problem (Section 2 context).

Section 2: prior work analyzed FIFO under *speed augmentation*, where it is
scalable ((1+ε)-speed O(1)-competitive, [4]); "intuitively speed
augmentation analysis assumes away the existence of the hard instances
where the optimal schedule is tightly packed." This paper's whole point is
what happens *without* that crutch.

This experiment demonstrates the intuition with the closely related
*machine* augmentation: run FIFO with ``f·m`` processors on the adversarial
family built for ``m`` and compare against OPT on ``m`` processors. At
``f = 1`` the Theorem 4.2 Ω(log m) blow-up appears; at ``f = 2`` the
instance is no longer tight and FIFO's flow collapses to roughly the
per-job span — the hard family simply evaporates under augmentation,
which is exactly why un-augmented analysis (this paper) was needed to see
FIFO's flaw.
"""

from __future__ import annotations

from ..core.simulator import simulate
from ..schedulers.fifo import FIFOScheduler
from ..workloads.adversarial import build_fifo_adversary
from .runner import ExperimentResult

__all__ = ["run"]


def run(
    ms: tuple[int, ...] = (8, 16, 32),
    factors: tuple[int, ...] = (1, 2, 4),
    jobs_per_m: int = 3,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E16",
        title="Machine augmentation evaporates the adversarial family",
        paper_artifact="Section 2 (resource augmentation discussion)",
    )
    ratios: dict[tuple[int, int], float] = {}
    for m in ms:
        adv = build_fifo_adversary(m, n_jobs=jobs_per_m * m)
        for f in factors:
            schedule = simulate(adv.instance, f * m, FIFOScheduler())
            schedule.validate()
            ratio = schedule.max_flow / adv.opt_upper_bound
            ratios[(m, f)] = ratio
            result.rows.append(
                {
                    "m": m,
                    "augmentation": f"{f}x",
                    "processors": f * m,
                    "fifo_flow": schedule.max_flow,
                    "ratio_vs_OPT[m]": ratio,
                }
            )
    result.add_claim(
        "un-augmented FIFO pays the Theorem 4.2 blow-up (ratio > 2 at f=1)",
        all(ratios[(m, 1)] > 2.0 for m in ms),
    )
    result.add_claim(
        "2x augmentation collapses every instance (ratio <= 1 at f=2)",
        all(ratios[(m, 2)] <= 1.0 + 1e-9 for m in ms),
        f"f=2 ratios: {[round(ratios[(m, 2)], 2) for m in ms]}",
    )
    result.add_claim(
        "the augmented ratio does not grow with m (the hard family is gone)",
        all(
            ratios[(b, 2)] <= ratios[(a, 2)] + 0.2
            for a, b in zip(ms, ms[1:])
        ),
    )
    result.notes.append(
        "Machine augmentation (f x processors) is the discrete cousin of the "
        "speed augmentation in [4]; the point demonstrated is the same — "
        "tightly packed instances cease to exist under any augmentation, so "
        "augmented analyses cannot see FIFO's intra-job flaw."
    )
    return result
