"""Scheduling policies: FIFO variants, LPF, MC, Algorithm 𝒜, baselines and
the offline optimum/lower-bound solvers."""

from .base import (
    ArbitraryTieBreak,
    DepthTieBreak,
    LongestPathTieBreak,
    MostChildrenTieBreak,
    RandomTieBreak,
    ReadyHeap,
    ReverseTieBreak,
    TieBreak,
)
from .fifo import FIFOScheduler
from .lpf import LPFScheduler, lpf_flow, lpf_schedule
from .mc import MostChildrenReplayer
from .offline import (
    depth_profile_lower_bound,
    exact_opt,
    max_flow_lower_bound,
    single_forest_opt,
)
from .outtree import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    GeneralOutTreeScheduler,
    SemiBatchedOutTreeScheduler,
)
from .phased import PhasedOutForestScheduler
from .srpt import SRPTScheduler
from .worksteal import WorkStealingScheduler
from .workconserving import (
    GlobalArbitraryScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

__all__ = [
    "TieBreak",
    "ArbitraryTieBreak",
    "ReverseTieBreak",
    "RandomTieBreak",
    "DepthTieBreak",
    "LongestPathTieBreak",
    "MostChildrenTieBreak",
    "ReadyHeap",
    "FIFOScheduler",
    "LPFScheduler",
    "lpf_schedule",
    "lpf_flow",
    "MostChildrenReplayer",
    "SemiBatchedOutTreeScheduler",
    "GeneralOutTreeScheduler",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "GlobalArbitraryScheduler",
    "WorkStealingScheduler",
    "SRPTScheduler",
    "PhasedOutForestScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "depth_profile_lower_bound",
    "single_forest_opt",
    "max_flow_lower_bound",
    "exact_opt",
]
