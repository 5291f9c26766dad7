#!/usr/bin/env python
"""The Theorem 4.2 story: watch arbitrary FIFO fall behind by Θ(log m).

Builds the Section 4 adaptive adversarial family for a sweep of machine
sizes, certifies FIFO's competitive ratio against the explicit OPT witness
(flow ≤ m+1), and shows how the clairvoyant LPF tie-break — which always
picks the *key* subjob — collapses the same instances.

Run:  python examples/adversarial_fifo.py            (m up to 64, ~8 s)
      python examples/adversarial_fifo.py --full     (m up to 256, many minutes)

Most of the time goes to replaying the instances under the random and LPF
tie-breaks, not to building them: at m=128 (8.4M subjobs) the build takes
~3 s and the two replays ~50 s, with ~1.8 GB peak memory (2-vCPU host).
The m=256 instance has 67M subjobs and needs several times that memory.
"""

import argparse
import math

from repro.core import simulate
from repro.experiments.runner import format_table
from repro.schedulers import FIFOScheduler, LongestPathTieBreak, RandomTieBreak
from repro.viz import render_gantt
from repro.workloads import build_fifo_adversary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="sweep up to m=256")
    parser.add_argument("--jobs-per-m", type=int, default=4)
    args = parser.parse_args()
    ms = (8, 16, 32, 64, 128, 256) if args.full else (8, 16, 32, 64)

    # A tiny instance first, rendered, so the mechanism is visible: FIFO
    # keeps scheduling the parallel sublayer and leaving the key behind.
    small = build_fifo_adversary(4, n_jobs=3)
    print("m=4, 3 jobs — FIFO's own schedule (letters = jobs):")
    print(render_gantt(small.fifo_schedule))
    print("\nthe OPT witness packs the same jobs with flow <= m+1 = 5:")
    print(render_gantt(small.opt_witness))

    rows = []
    for m in ms:
        adv = build_fifo_adversary(m, n_jobs=args.jobs_per_m * m)
        lpf = simulate(adv.instance, m, FIFOScheduler(LongestPathTieBreak()))
        rnd = simulate(adv.instance, m, FIFOScheduler(RandomTieBreak(0)))
        rows.append(
            {
                "m": m,
                "jobs": len(adv.instance),
                "subjobs": adv.instance.total_work,
                "FIFO(arb)": adv.fifo_max_flow,
                "FIFO(rand)": rnd.max_flow,
                "FIFO(LPF)": lpf.max_flow,
                "OPT<=": adv.opt_upper_bound,
                "ratio>=": adv.ratio_lower_bound,
                "lgm-lglgm": math.log2(m) - math.log2(max(1.0001, math.log2(m))),
            }
        )
    print()
    print(format_table(rows))
    print(
        "\nratio>= certifies FIFO's competitive ratio from below; it climbs "
        "by ~0.9 per doubling of m — the Omega(log m) of Theorem 4.2 — while "
        "the height-aware tie-break pins the same instances at ratio 1."
    )


if __name__ == "__main__":
    main()
