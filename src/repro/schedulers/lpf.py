"""Longest-Path-First (Section 5.1).

LPF assigns ready subjobs to processors in order of decreasing height until
processors or ready subjobs run out. For a single out-forest job it is
*optimal* for maximum flow on ``m`` processors (Lemma 5.3), and on ``m/α``
processors it is α-competitive with the ``m``-processor optimum; moreover
after its last idle step the schedule is a fully packed rectangle
(Lemma 5.2) — the structural "shaping" property Algorithm 𝒜 exploits.

For multiple jobs, :class:`LPFScheduler` is FIFO with the LPF tie-break
(prioritize older jobs, break ties inside a job by height).
"""

from __future__ import annotations

from typing import Optional

from ..core.dag import DAG
from ..core.exceptions import ConfigurationError
from ..core.instance import Instance
from ..core.job import Job
from ..core.schedule import Schedule
from ..core.simulator import simulate
from .base import LongestPathTieBreak
from .fifo import FIFOScheduler

__all__ = ["LPFScheduler", "lpf_schedule", "lpf_flow"]


class LPFScheduler(FIFOScheduler):
    """FIFO across jobs, Longest-Path-First within a job (clairvoyant).

    A list rule like FIFO (heights are the LPF priority kernel, precomputed
    per job — see ``docs/engine-internals.md``): with no observer or fault
    injector the engine runs it without dispatching, and on chain-heavy
    out-forests (spider legs, rectangle tails) it compresses runs of forced
    LPF steps into single macro commits.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__(tie_break=LongestPathTieBreak(), seed=seed)

    @property
    def name(self) -> str:
        return "LPF"


def lpf_schedule(
    dag_or_job: DAG | Job, m: int, *, label: Optional[str] = None
) -> Schedule:
    """The schedule ``LPF(J, m)`` of a single job released at time 0.

    Accepts a bare :class:`~repro.core.dag.DAG` or a :class:`Job`
    (whose release time is ignored — Section 5.1 studies the job in
    isolation, so step ``t`` of the result is relative to the job's arrival).
    """
    if m <= 0:
        raise ConfigurationError("m must be positive")
    dag = dag_or_job.dag if isinstance(dag_or_job, Job) else dag_or_job
    job = Job(dag, 0, label=label)
    return simulate(Instance([job]), m, LPFScheduler())


def lpf_flow(dag_or_job: DAG | Job, m: int) -> int:
    """``F_max`` of the single-job LPF schedule on ``m`` processors."""
    return lpf_schedule(dag_or_job, m).max_flow
