"""Core model: DAGs, jobs, instances, schedules and the simulation engine.

These are the paper's Section 3 preliminaries turned into code. Everything
else in the library (schedulers, workloads, analyses, experiments) is built
on this subpackage.
"""

from .availability import AvailabilityTrace, as_trace
from .dag import (
    DAG,
    ChainRuns,
    antichain,
    caterpillar,
    chain,
    complete_kary_tree,
    spider,
    star,
)
from .exceptions import (
    ConfigurationError,
    CycleError,
    GraphError,
    InfeasibleScheduleError,
    NotAForestError,
    ReproError,
    ScheduleError,
    SchedulerProtocolError,
    SimulationError,
    SolverError,
)
from .instance import (
    FlatChainRuns,
    FlatInstanceGraph,
    Instance,
    InstanceBatch,
    pack_instances,
)
from .job import Job, merge_jobs
from .schedule import Schedule
from .simulator import (
    EngineState,
    EngineStats,
    FaultHooks,
    ListRule,
    Scheduler,
    SimulationObserver,
    accumulate_engine_stats,
    engine_stats_snapshot,
    reset_engine_stats,
    simulate,
    simulate_batch,
)
from .io import (
    load_instance_json,
    load_schedule_npz,
    save_instance_json,
    save_schedule_npz,
)
from .sp import SPNode, is_series_parallel, series_segments, sp_decomposition
from .trace import MetricsCollector, TraceSummary

__all__ = [
    "DAG",
    "Job",
    "Instance",
    "Schedule",
    "ListRule",
    "Scheduler",
    "SimulationObserver",
    "AvailabilityTrace",
    "FaultHooks",
    "as_trace",
    "EngineState",
    "EngineStats",
    "FlatInstanceGraph",
    "FlatChainRuns",
    "InstanceBatch",
    "pack_instances",
    "ChainRuns",
    "engine_stats_snapshot",
    "reset_engine_stats",
    "accumulate_engine_stats",
    "MetricsCollector",
    "TraceSummary",
    "SPNode",
    "is_series_parallel",
    "sp_decomposition",
    "series_segments",
    "save_instance_json",
    "load_instance_json",
    "save_schedule_npz",
    "load_schedule_npz",
    "simulate",
    "simulate_batch",
    "merge_jobs",
    "chain",
    "antichain",
    "star",
    "complete_kary_tree",
    "spider",
    "caterpillar",
    "ReproError",
    "GraphError",
    "CycleError",
    "NotAForestError",
    "ScheduleError",
    "InfeasibleScheduleError",
    "SimulationError",
    "SchedulerProtocolError",
    "ConfigurationError",
    "SolverError",
]
