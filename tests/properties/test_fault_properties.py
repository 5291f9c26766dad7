"""Fluctuating allocations and fault injection: the matrix's fault cells.

Acceptance-level properties, checked over 200+ availability traces
(every adversarial pattern plus seeded random traces, across several
machine sizes), as slices of the conformance matrix
(``test_conformance.py``):

* **Lemma 5.5** — Most-Children replay of a packed LPF tail never idles a
  granted processor, whatever the trace does;
* **engine integrity** — under every trace the list-rule engine produces
  a schedule that validates and is bit-identical to the reference loop;
  with an attached :class:`~repro.faults.FaultInjector` (scheduler
  crash/restart plus perturbed ready delivery) the run still validates and
  equals the unfaulted reference, since neither crashes nor delivery
  order change what FIFO, LPF or SRPT decide.
"""

import pytest

from .test_conformance import FAMILY, FAULTED_TRACES, conforming

#: Machine sizes of the ``fault-pair`` family; with 45 random traces and
#: the 7 adversarial patterns per size this yields 4 * (7 + 45) = 208
#: distinct traces.
MS = (2, 3, 5, 8)


def test_trace_count_meets_acceptance_floor():
    fam = FAMILY["fault-pair"]
    assert fam.machine_sizes() == MS
    assert sum(len(fam.traces(m)) - 1 for m in MS) >= 200


@pytest.mark.parametrize("m", MS)
def test_mc_replay_never_idles_granted_processors(m):
    """Lemma 5.5 (work-conserving form): replaying a packed LPF tail keeps
    every granted processor busy under a constant ``m`` and every one of
    the fault suite's traces at ``m``."""
    tally = conforming("mc-tree", "fifo-longestpath", m=m, checks=("lemma-5.5",))
    # Lemma 5.5 runs only on a non-empty tail: every schedule path had one.
    assert {path for path, *_ in tally.records} == {"ref", "list", "faulted", "batch"}


@pytest.mark.parametrize("m", MS)
def test_engine_matches_reference_and_validates_under_every_trace(m):
    conforming("fault-pair", "fifo-arbitrary", m=m, traces="any", paths=("list",))


@pytest.mark.parametrize("m", (2, 5))
@pytest.mark.parametrize(
    "column",
    ("fifo-arbitrary", "fifo-longestpath", "srpt-longestpath"),
    ids=("FIFOScheduler", "LPFScheduler", "SRPTScheduler"),
)
def test_injected_faults_keep_engines_bit_identical(m, column):
    """Crash/restart plus perturbed delivery under a constant ``m`` and the
    suite's first 12 traces (its adversarial patterns and 5 seeded random
    ones): the faulted run (the dispatch loop) must still validate and
    equal the unfaulted reference run bit for bit, and a crash fired in
    every run."""
    tally = conforming("fault-pair", column, m=m, traces="any", paths=("faulted",))
    stats = tally.stats["faulted"]
    assert stats["crashed_runs"] == stats["runs"] == 1 + FAULTED_TRACES
