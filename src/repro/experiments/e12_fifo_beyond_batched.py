"""E12 — beyond the batched assumption: probing the paper's conjecture.

Section 6's remark: *"The batched arrival assumption is used crucially in
the proof... Even relaxing this assumption slightly (e.g., new jobs can
arrive only every OPT/2 time steps...) causes the current proof to break
down"* — yet the authors conjecture FIFO is Θ(log m)-competitive on
general instances.

This experiment probes the conjecture where the proof fails: instances
with exactly known OPT whose arrivals come every ``⌈OPT/2⌉`` steps (the
remark's own example). Construction: each batch is a layered out-forest of
depth ``P`` with per-level widths ≤ ``m/2``, so

* solo OPT of each batch is exactly ``P`` (span ``P``; suffix work fits:
  ``d + ⌈W(d)/m⌉ ≤ P`` since widths ≤ m/2);
* overlapping consecutive batches fit side by side (≤ m/2 + m/2 = m wide),
  so the staggered witness gives OPT = P exactly.

We measure FIFO's ratio across ``m`` and report whether the Theorem 6.1
envelope — whose *proof* does not cover this regime — still contains the
measurements, and whether the Lemma 6.4/6.5-style invariants survive.
"""

from __future__ import annotations

import math

import numpy as np

from ..analysis.invariants import check_lemma_6_4
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from ..schedulers.fifo import FIFOScheduler
from ..schedulers.offline import single_forest_opt
from ..workloads.random_trees import layered_tree
from .runner import ExperimentResult, run_trials

__all__ = ["run", "semi_batched_known_opt"]


def semi_batched_known_opt(m: int, n_batches: int, depth: int, rng):
    """Instance with arrivals every ``⌈depth/2⌉`` and OPT exactly ``depth``.

    Returns ``(instance, opt, witness)``; the witness schedules batch ``i``'s
    level ``k`` at time ``r_i + k + 1`` (feasible because consecutive
    batches are each ≤ m/2 wide).
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    half = -(-depth // 2)
    jobs = []
    completions = []
    level_widths = []
    for i in range(n_batches):
        widths = [int(w) for w in rng.integers(1, max(2, m // 2) + 1, size=depth)]
        # Pin one batch (the first) to the full m/2-wide rectangle so some
        # batch's solo optimum attains depth exactly.
        if i == 0:
            widths = [max(1, m // 2)] * depth
        dag = layered_tree(widths, rng)
        assert single_forest_opt(dag, m) == depth
        jobs.append(Job(dag, i * half, label=f"semibatch{i}"))
        level_widths.append(widths)
    instance = Instance(jobs)
    for i, job in enumerate(instance):
        widths = level_widths[i]
        comp = np.zeros(job.dag.n, dtype=np.int64)
        start = 0
        for k, w in enumerate(widths):
            comp[start : start + w] = job.release + k + 1
            start += w
        completions.append(comp)
    witness = Schedule(instance, m, completions)
    witness.validate()
    return instance, depth, witness


def run(
    ms: tuple[int, ...] = (4, 8, 16, 32),
    n_batches: int = 12,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E12",
        title="FIFO beyond the batched assumption (conjecture probe)",
        paper_artifact="Section 6 closing remark + Conclusion open question 1",
    )
    rng = np.random.default_rng(seed)
    # Build every semi-batched instance up front, then run them through the
    # harness's batched sweep path (run_trials) — one per m, but routed via
    # simulate_batch so the Monte-Carlo engine counters apply
    # uniformly across experiments.
    built = []
    for m in ms:
        depth = 2 * m
        inst, opt, witness = semi_batched_known_opt(m, n_batches, depth, rng)
        built.append((m, depth, inst, opt, witness))
    scheds_by_m = {
        m: run_trials([inst], m, FIFOScheduler)[0]
        for m, _depth, inst, _opt, _witness in built
    }
    for m, depth, inst, opt, witness in built:
        sched = scheds_by_m[m]
        sched.validate()
        envelope = (math.ceil(math.log2(2 * m * opt)) + 1) * opt
        result.rows.append(
            {
                "family": "packed-semibatch",
                "m": m,
                "OPT_ref": f"{opt} (exact)",
                "arrivals_every": -(-opt // 2),
                "fifo_flow": sched.max_flow,
                "ratio": sched.max_flow / opt,
                "thm6.1_envelope": envelope,
                "within_envelope": sched.max_flow <= envelope,
                "lemma6.4_style": bool(check_lemma_6_4(sched, opt)),
            }
        )
        # The stressed regime: the Section 4 adversary releasing twice as
        # fast as the paper analyses (period ~ (m+1)/2). The adversary
        # adapts its layer sizes to FIFO's congestion; ratios divide by a
        # lower bound on OPT.
        from ..workloads.adversarial import build_fifo_adversary

        adv = build_fifo_adversary(
            m, n_jobs=3 * m, period=-(-(m + 1) // 2)
        )
        lb = adv.opt_lower_bound
        envelope_a = (math.ceil(math.log2(2 * m * lb)) + 1) * lb
        result.rows.append(
            {
                "family": "fast-adversary",
                "m": m,
                "OPT_ref": f"{lb} (lower)",
                "arrivals_every": adv.period,
                "fifo_flow": adv.fifo_max_flow,
                "ratio": adv.fifo_max_flow / lb,
                "thm6.1_envelope": envelope_a,
                "within_envelope": adv.fifo_max_flow <= envelope_a,
                "lemma6.4_style": bool(check_lemma_6_4(adv.fifo_schedule, lb)),
            }
        )
    exact_rows = [r for r in result.rows if r["family"] == "packed-semibatch"]
    fast_rows = [r for r in result.rows if r["family"] == "fast-adversary"]
    result.add_claim(
        "FIFO stays within the Theorem 6.1 envelope even though the proof "
        "does not cover OPT/2 arrivals (conjecture supported)",
        all(r["within_envelope"] for r in exact_rows),
    )
    result.add_claim(
        "the Lemma 6.4 work/idle invariant survives the relaxed arrivals "
        "(exact-OPT family)",
        all(r["lemma6.4_style"] for r in exact_rows),
    )
    result.add_claim(
        "even the doubly-fast adversary keeps FIFO within its envelope "
        "(measured against a lower bound — the conservative direction "
        "would be to fail, so passing is strong evidence)",
        all(r["within_envelope"] for r in fast_rows),
    )
    result.notes.append(
        "OPT is exact by construction (witness schedule validated); this "
        "is evidence, not proof — the point of the probe is that the "
        "behaviour the conjecture predicts is what the simulator shows."
    )
    return result
