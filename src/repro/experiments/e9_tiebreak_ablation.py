"""E9 — intra-job tie-breaking is the decisive knob (Section 1 discussion).

The Section 4 lower bound is constructed against *one specific* arbitrary
choice. Replaying the *frozen* adversarial instances under different
intra-job tie-breaks shows where the damage comes from: the matching
arbitrary order realizes the Ω(log m) blow-up, random tie-breaking mostly
dodges it, and the clairvoyant LPF tie-break (which always picks the key
subjob — the one of maximum height) collapses the ratio to a small
constant. This supports the paper's takeaway that *shaping* (intra-job
policy) rather than job ordering is FIFO's fatal flaw.
"""

from __future__ import annotations

from ..analysis.competitive import OptReference
from ..core.simulator import simulate
from ..schedulers.base import (
    ArbitraryTieBreak,
    DepthTieBreak,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    RandomTieBreak,
    ReverseTieBreak,
)
from ..schedulers.fifo import FIFOScheduler
from ..workloads.adversarial import build_fifo_adversary
from .runner import ExperimentResult

__all__ = ["run"]


def run(
    ms: tuple[int, ...] = (16, 32, 64),
    jobs_per_m: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E9",
        title="FIFO tie-break ablation on the frozen adversarial family",
        paper_artifact="Section 1 / Section 4 discussion (intra-job scheduling)",
    )
    policies = [
        ("arbitrary(asc)", lambda: ArbitraryTieBreak()),
        ("arbitrary(desc)", lambda: ReverseTieBreak()),
        ("random", lambda: RandomTieBreak(seed)),
        ("depth", lambda: DepthTieBreak()),
        ("most-children", lambda: MostChildrenTieBreak()),
        ("LPF", lambda: LongestPathTieBreak()),
    ]
    per_policy: dict[str, list[float]] = {name: [] for name, _ in policies}
    for m in ms:
        adv = build_fifo_adversary(m, n_jobs=jobs_per_m * m)
        ref = OptReference.witness(adv.opt_witness)
        for name, make in policies:
            schedule = simulate(adv.instance, m, FIFOScheduler(make()))
            schedule.validate()
            ratio = schedule.max_flow / ref.value
            per_policy[name].append(ratio)
            result.rows.append(
                {
                    "m": m,
                    "tie_break": name,
                    "clairvoyant": FIFOScheduler(make()).clairvoyant,
                    "flow": schedule.max_flow,
                    "ratio": ratio,
                }
            )
    result.add_claim(
        "the matching arbitrary order is the worst policy at every m",
        all(
            per_policy["arbitrary(asc)"][k]
            >= max(v[k] for v in per_policy.values()) - 1e-9
            for k in range(len(ms))
        ),
    )
    result.add_claim(
        "the clairvoyant LPF tie-break stays within a small constant (<= 4)",
        all(r <= 4.0 for r in per_policy["LPF"]),
        f"max {max(per_policy['LPF']):.2f}",
    )
    result.add_claim(
        "LPF tie-break beats the matching arbitrary order at every m",
        all(
            lpf < arb
            for lpf, arb in zip(per_policy["LPF"], per_policy["arbitrary(asc)"])
        ),
    )
    result.notes.append(
        "Reversed/random/depth orders can still stumble (keys are not "
        "identifiable non-clairvoyantly); only the height-aware LPF rule "
        "reliably collapses the family."
    )
    return result
