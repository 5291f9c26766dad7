"""The program's layers as the benchmark sees them: what to wrap, what to report.

Layer names are module names. Span metrics (``*.self_s``, ``*.calls``)
come from the traced ops; counts come from the program's own
``EngineStats`` deltas around each op, which are exact and cost nothing,
so untraced runs record them too. Which end-to-end metric each layer
should move, and on which workload, is in :mod:`perfbench.workloads`.
"""

from __future__ import annotations

import importlib
import os
import statistics
from dataclasses import dataclass
from typing import Any, Iterable

from .tracing import OpSpans, Target, Tracer, by_op, module_functions

#: Modules whose public functions are workload generators.
GENERATOR_MODULES = (
    "repro.workloads.arrivals",
    "repro.workloads.enumerate_shapes",
    "repro.workloads.packed",
    "repro.workloads.phased",
    "repro.workloads.random_trees",
    "repro.workloads.recursive",
    "repro.workloads.seriesparallel",
)

ANALYSIS_MODULES = (
    "repro.analysis.bounds",
    "repro.analysis.competitive",
    "repro.analysis.fairness",
    "repro.analysis.invariants",
    "repro.analysis.stats",
    "repro.analysis.theory",
)


def _checkpoint_bytes(args: tuple, kwargs: dict, tracer: Tracer) -> None:
    path = kwargs.get("path", args[0] if args else None)
    tracer.add("streaming.checkpoint.bytes", os.path.getsize(path))


def targets() -> list[Target]:
    """Every wrapper a traced run installs (imports the modules named)."""
    fixed = [
        Target("experiments.run_experiment", "repro.experiments.registry:run_experiment"),
        Target("experiments.run_all", "repro.experiments.registry:run_all"),
        Target("experiments.repeat_experiment", "repro.experiments.runner:repeat_experiment"),
        Target("experiments.run_trials", "repro.experiments.runner:run_trials"),
        Target("core.dag.build", "repro.core.dag:DAG.__init__"),
        Target("core.dag.height", "repro.core.dag:DAG.height"),
        Target("core.dag.chain_runs", "repro.core.dag:DAG.chain_runs"),
        Target("core.instance.flat_graph", "repro.core.instance:Instance.flat_graph"),
        Target("core.instance.chain_layout", "repro.core.instance:Instance.chain_layout"),
        Target("core.instance.pack", "repro.core.instance:pack_instances"),
        Target("core.simulator.simulate", "repro.core.simulator:simulate"),
        Target("core.simulator.simulate_batch", "repro.core.simulator:simulate_batch"),
        Target("core.schedule.validate", "repro.core.schedule:Schedule.validate"),
        Target("schedulers.select", "repro.core.simulator:Scheduler.*select"),
        Target("schedulers.priorities", "repro.core.simulator:Scheduler.*frontier_priorities"),
        Target("schedulers.priorities", "repro.schedulers.base:TieBreak.*priority_kernel"),
        Target("streaming.engine.step", "repro.streaming.engine:StreamingEngine.step"),
        Target("streaming.arena.admit", "repro.streaming.arena:StreamArena.admit"),
        Target("streaming.arena.retire", "repro.streaming.arena:StreamArena.retire"),
        Target("streaming.checkpoint.snapshot", "repro.streaming.engine:StreamingEngine.snapshot"),
        Target(
            "streaming.checkpoint.save",
            "repro.streaming.checkpoint:save_checkpoint",
            after=_checkpoint_bytes,
        ),
        Target("streaming.service.serve", "repro.streaming.service:serve"),
    ]
    found = [
        Target(f"workloads.adversarial.{fn}", f"repro.workloads.adversarial:{fn}")
        for fn in module_functions(importlib.import_module("repro.workloads.adversarial"))
    ]
    groups = ((GENERATOR_MODULES, "workloads.generators"), (ANALYSIS_MODULES, "analysis"))
    for module_names, layer in groups:
        for module_name in module_names:
            module = importlib.import_module(module_name)
            found.extend(
                Target(f"{layer}.{fn}", f"{module_name}:{fn}") for fn in module_functions(module)
            )
    for target in fixed:
        importlib.import_module(target.where.split(":")[0])
    # Load every scheduler class so their overrides get wrapped.
    importlib.import_module("repro.schedulers")
    return fixed + found


# ----------------------------------------------------------------------
# Per-op records and the per-layer metrics
# ----------------------------------------------------------------------


@dataclass
class OpRecord:
    """One timed op: wall time, engine-counter delta and workload counts."""

    op: int
    traced: bool
    wall_s: float
    stats: Any  # repro.core.EngineStats delta
    counts: dict[str, float]


#: EngineStats field -> per-layer metric name.
ENGINE_COUNTS = {
    "steps": "core.simulator.steps",
    "fast_forwarded_steps": "core.simulator.fast_forwarded_steps",
    "kernel_steps": "core.simulator.kernel_steps",
    "macro_steps": "core.simulator.macro_steps",
    "compressed_steps": "core.simulator.compressed_steps",
    "select_calls": "core.simulator.select_calls",
    "resyncs": "core.simulator.resyncs",
    "batch_steps": "core.simulator.batch_steps",
    "fallback_runs": "core.simulator.fallback_runs",
    "selections": "core.simulator.selections",
    "stream_steps": "streaming.engine.stream_steps",
    "stream_arena_steps": "streaming.engine.arena_steps",
    "stream_epoch_steps": "streaming.engine.epoch_steps",
    "stream_epoch_compressed": "streaming.engine.epoch_compressed",
    "stream_retired": "streaming.engine.retired",
    "stream_shed": "streaming.engine.shed",
}

#: Span metrics: metric name -> (span-name prefix, "self_s" | "calls").
SPAN_METRICS = {
    "experiments.self_s": ("experiments", "self_s"),
    "experiments.run_trials.calls": ("experiments.run_trials", "calls"),
    "workloads.adversarial.calls": ("workloads.adversarial", "calls"),
    "workloads.adversarial.self_s": ("workloads.adversarial", "self_s"),
    "workloads.generators.self_s": ("workloads.generators", "self_s"),
    "core.dag.build.calls": ("core.dag.build", "calls"),
    "core.dag.build.self_s": ("core.dag.build", "self_s"),
    "core.dag.height.calls": ("core.dag.height", "calls"),
    "core.dag.height.self_s": ("core.dag.height", "self_s"),
    "core.dag.chain_runs.calls": ("core.dag.chain_runs", "calls"),
    "core.dag.chain_runs.self_s": ("core.dag.chain_runs", "self_s"),
    "core.instance.flat_graph.self_s": ("core.instance.flat_graph", "self_s"),
    "core.instance.chain_layout.self_s": ("core.instance.chain_layout", "self_s"),
    "core.instance.pack.self_s": ("core.instance.pack", "self_s"),
    "core.simulator.simulate.calls": ("core.simulator.simulate", "calls"),
    "core.simulator.simulate.self_s": ("core.simulator.simulate", "self_s"),
    "core.simulator.simulate_batch.calls": ("core.simulator.simulate_batch", "calls"),
    "core.simulator.simulate_batch.self_s": ("core.simulator.simulate_batch", "self_s"),
    "core.schedule.validate.self_s": ("core.schedule.validate", "self_s"),
    "schedulers.select.calls": ("schedulers.select", "calls"),
    "schedulers.select.self_s": ("schedulers.select", "self_s"),
    "schedulers.priorities.self_s": ("schedulers.priorities", "self_s"),
    "analysis.self_s": ("analysis", "self_s"),
    "streaming.engine.step.calls": ("streaming.engine.step", "calls"),
    "streaming.engine.step.self_s": ("streaming.engine.step", "self_s"),
    "streaming.arena.admit.calls": ("streaming.arena.admit", "calls"),
    "streaming.arena.admit.self_s": ("streaming.arena.admit", "self_s"),
    "streaming.arena.retire.self_s": ("streaming.arena.retire", "self_s"),
    "streaming.checkpoint.calls": ("streaming.checkpoint.save", "calls"),
    "streaming.service.self_s": ("streaming.service", "self_s"),
}

#: Span metrics read from the set-up repetitions (median over them): the
#: layers a workload's input generation runs through.
SETUP_SPAN_METRICS = {
    "setup.workloads.generators.self_s": ("workloads.generators", "self_s"),
    "setup.core.dag.build.calls": ("core.dag.build", "calls"),
    "setup.core.dag.build.self_s": ("core.dag.build", "self_s"),
    "setup.unattributed_s": ("bench.setup", "self_s"),
}


def kernel_names() -> tuple[str, ...]:
    from repro.core.kernels import KERNEL_NAMES

    return tuple(KERNEL_NAMES)


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    units.update({name: "count" for name in ENGINE_COUNTS.values()})
    units["core.simulator.fast_frac"] = "ratio"
    units["core.simulator.macro_compression"] = "ratio"
    units.update({f"core.kernels.{k}.dispatches": "count" for k in kernel_names()})
    units["streaming.engine.live_subjob_hwm"] = "count"
    units["streaming.checkpoint.pause_ms_p50"] = "ms"
    units["streaming.checkpoint.pause_ms_max"] = "ms"
    units["streaming.checkpoint.bytes"] = "bytes"
    for name in SETUP_SPAN_METRICS:
        units[name] = "s" if name.endswith("_s") else "count"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unattributed_s"] = "s"
    return units


#: Per-layer metrics that improve upward: work served by a faster path,
#: or work done. Every other per-layer metric improves downward.
HIGHER_IS_BETTER = {
    "core.simulator.fast_forwarded_steps",
    "core.simulator.kernel_steps",
    "core.simulator.macro_steps",
    "core.simulator.compressed_steps",
    "core.simulator.selections",
    "core.simulator.fast_frac",
    "core.simulator.macro_compression",
    "streaming.engine.arena_steps",
    "streaming.engine.epoch_steps",
    "streaming.engine.epoch_compressed",
    "streaming.engine.retired",
}


def median_or_zero(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _span_value(spans: OpSpans, prefix: str, kind: str) -> float:
    if kind == "self_s":
        return spans.self_s(prefix)
    dotted = prefix + "."
    return float(
        sum(n for name, n in spans.calls.items() if name == prefix or name.startswith(dotted))
    )


def engine_counts(stats: Any) -> dict[str, float]:
    """Per-layer counts of one op from its ``EngineStats`` delta."""
    out = {metric: float(getattr(stats, field)) for field, metric in ENGINE_COUNTS.items()}
    out["core.simulator.fast_frac"] = stats.fast_forwarded_steps / max(1, stats.steps)
    out["core.simulator.macro_compression"] = stats.compressed_steps / max(1, stats.macro_steps)
    for k in kernel_names():
        out[f"core.kernels.{k}.dispatches"] = float(stats.kernel_dispatches.get(k, 0))
    return out


def _checkpoint_pauses_ms(tracer: Tracer, spans: OpSpans) -> list[float]:
    """One pause per checkpoint: from its snapshot's start to its save's end."""
    snap_id = tracer.name_id("streaming.checkpoint.snapshot")
    save_id = tracer.name_id("streaming.checkpoint.save")
    pauses = []
    last_snapshot_start = None
    for i in spans.spans:  # in start order
        if tracer.name[i] == snap_id:
            last_snapshot_start = tracer.start[i]
        elif tracer.name[i] == save_id:
            begin = tracer.start[i] if last_snapshot_start is None else last_snapshot_start
            pauses.append((tracer.end[i] - begin) / 1e6)
            last_snapshot_start = None
    return pauses


def per_layer_metrics(
    records: list[OpRecord], tracer: Tracer, setup_ops: list[int]
) -> dict[str, float]:
    """Median per-op value of every per-layer metric of a traced run."""
    grouped = by_op(tracer)
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    op_spans = [grouped.get(r.op, OpSpans()) for r in traced]
    values: dict[str, float] = {}
    for metric, (prefix, kind) in SPAN_METRICS.items():
        values[metric] = median_or_zero(_span_value(s, prefix, kind) for s in op_spans)
    setup_spans = [grouped.get(op, OpSpans()) for op in setup_ops]
    for metric, (prefix, kind) in SETUP_SPAN_METRICS.items():
        values[metric] = median_or_zero(_span_value(s, prefix, kind) for s in setup_spans)
    per_op_counts = [dict(engine_counts(r.stats), **r.counts) for r in records]
    count_names = set().union(*per_op_counts) if per_op_counts else set()
    for metric in sorted(count_names):
        values[metric] = median_or_zero(c.get(metric, 0.0) for c in per_op_counts)
    values.setdefault("streaming.engine.live_subjob_hwm", 0.0)
    pauses = [_checkpoint_pauses_ms(tracer, s) for s in op_spans]
    values["streaming.checkpoint.pause_ms_p50"] = median_or_zero(
        statistics.median(p) for p in pauses if p
    )
    values["streaming.checkpoint.pause_ms_max"] = median_or_zero(max(p) for p in pauses if p)
    values["streaming.checkpoint.bytes"] = median_or_zero(
        tracer.added.get((r.op, "streaming.checkpoint.bytes"), 0.0) for r in traced
    )
    values["trace.unattributed_s"] = median_or_zero(s.self_s("bench.op") for s in op_spans)
    if traced and untraced:
        values["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in untraced)
            - 1.0
        )
    else:
        values["trace.overhead_frac"] = 0.0
    return values
