"""E3 — regenerate the Theorem 4.2 table: FIFO's ratio grows as Omega(log m).

The sweep runs m = 8 ... 128, as in EXPERIMENTS.md (the m=128 instance has
8.4M subjobs and builds in a few seconds); run
``examples/adversarial_fifo.py --full`` for the m=256 row.
"""

from repro.experiments.e3_fifo_lower_bound import run


def test_e3_fifo_omega_log_m(regenerate):
    result = regenerate(run, ms=(8, 16, 32, 64, 128), jobs_per_m=4)
    ratios = [r["ratio>="] for r in result.rows]
    # Each doubling of m should add a roughly constant increment (~1).
    increments = [b - a for a, b in zip(ratios, ratios[1:])]
    assert all(0.3 <= inc <= 2.0 for inc in increments), increments
