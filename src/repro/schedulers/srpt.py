"""Shortest-Remaining-Work-First — the ℓ1-optimizing foil to FIFO.

The paper's introduction contrasts the maximum-flow (ℓ∞) objective it
studies with average flow (ℓ1). The classical ℓ1 heuristic is SRPT-style
prioritization: always serve the job closest to finishing. It is the
perfect foil for FIFO in fairness experiments (E14): SRPT compresses mean
flow but *starves* large jobs, blowing up maximum flow — the reason the
paper calls FIFO "the right policy" for ℓ∞.

This scheduler orders jobs by (remaining work, arrival) and fills
processors job by job, with a pluggable intra-job tie-break like FIFO's.
It is clairvoyant in the weak sense of knowing remaining work (a
non-clairvoyant variant could use elapsed work — not modeled here).

SRPT is FIFO with another job walk: its
:class:`~repro.core.simulator.ListRule` walks by ascending (unfinished
subjobs, job id), which the engine sorts from its own counts each step,
and the dispatched ``select`` it inherits from
:class:`~repro.schedulers.fifo.FIFOScheduler` sorts FIFO's id-sorted walk
by remaining work. A crash rebuild recounts each job's remaining work from
the ready frontier the engine re-delivers, so the walk resumes where the
crashed scheduler left it.
"""

from __future__ import annotations

from .fifo import FIFOScheduler

__all__ = ["SRPTScheduler"]


class SRPTScheduler(FIFOScheduler):
    """Serve jobs in order of least remaining work (ties: arrival order).

    Parameters
    ----------
    tie_break:
        Intra-job selection policy (default
        :class:`~repro.schedulers.base.ArbitraryTieBreak`).
    seed:
        Forwarded to ``tie_break.reset`` (relevant for random tie-breaks).
    """

    _by_remaining_work = True

    @property
    def name(self) -> str:
        return f"SRPT[{self.tie_break.name}]"
