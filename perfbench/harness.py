"""The measurement loop: set-up, cold ops, checks and the result line.

Untraced runs (``--trace 0``) report the end-to-end metrics:

``op_s``           median wall time of one op;
``subjobs_per_s``  median over ops of subjobs scheduled / op wall time;
``setup_s``        imports (timed once, from the first line of ``run.py``)
                   plus the median of ``SETUP_REPEATS`` input generations
                   from the seed, each ending with the inputs serialized;
``peak_rss_mb``    peak resident set size up to the end of the last op
                   (set-up included), before the once-per-run checks.

Traced runs (``--trace 1``) alternate untraced and traced ops and report
the per-layer metrics of :mod:`perfbench.layers`; the ratio of the two
kinds' median op times is the tracing overhead. End-to-end numbers never
come from a traced run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional

import numpy as np

from repro.core import engine_stats_snapshot

from . import layers
from .tracing import NO_OP, Installer, Tracer, setup_op
from .workloads import Workload

#: Input generations per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3
#: Fewest ops a run makes, however short ``--seconds`` is.
MIN_OPS = 3
#: Fewest ops of a traced run: two untraced and two traced.
MIN_OPS_TRACED = 4

END_TO_END_UNITS = {
    "op_s": "s",
    "subjobs_per_s": "subjobs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibrate() -> float:
    """Seconds for a fixed Python and NumPy loop (a drift diagnostic)."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    values = np.arange(1_000_000, dtype=np.int64)[::-1].copy()
    values.sort()
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _scope(tracer: Optional[Tracer], op: int, name: str) -> Iterator[None]:
    """Stamp the spans of a block with ``op``, under one root span ``name``."""
    if tracer is None:
        yield
        return
    tracer.op = op
    try:
        with tracer.span(name):
            yield
    finally:
        tracer.op = NO_OP


def run_benchmark(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    t0: float,
    setup_repeats: int = SETUP_REPEATS,
    min_ops: int = MIN_OPS,
    trace_path: Optional[str] = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Measure ``workload``; returns ``(result, diagnostics)``.

    ``t0`` is the ``perf_counter`` reading taken when the process started
    its own work, so ``setup_s`` includes the imports.
    """
    imports_s = time.perf_counter() - t0
    calibration = [calibrate()]
    tracer = Tracer() if trace else None
    installer = (
        Installer(tracer, layers.targets(), packages=("repro", "perfbench"))
        if tracer is not None
        else None
    )
    problems: dict[int, list[str]] = {}

    setup_times = []
    blob = b""
    first_digest = None
    if installer is not None:
        installer.install()
    for k in range(setup_repeats):
        blob = b""  # keep only the newest serialized corpus
        gc.collect()
        with _scope(tracer, setup_op(k), "bench.setup"):
            start = time.perf_counter()
            blob = workload.setup(seed)
            setup_times.append(time.perf_counter() - start)
        digest = hashlib.sha256(blob).digest()
        if first_digest is None:
            first_digest = digest
        elif digest != first_digest:
            # Key -1: the problem belongs to set-up, not to an op.
            problems.setdefault(-1, []).append("set-up is not deterministic for the seed")

    records: list[layers.OpRecord] = []
    timed = 0.0
    op = 0
    while True:
        traced_op = trace and op % 2 == 1
        if installer is not None and traced_op and not installer.installed:
            installer.install()
        elif installer is not None and not traced_op and installer.installed:
            installer.restore()
        inputs = workload.load(blob)
        op_problems = workload.cold_violations(inputs)
        gc.collect()
        before = engine_stats_snapshot()
        with _scope(tracer if traced_op else None, op, "bench.op"):
            start = time.perf_counter()
            output = workload.run(inputs)
            wall = time.perf_counter() - start
        stats = engine_stats_snapshot().delta(before)
        op_problems += workload.check(op, blob, inputs, output, stats)
        if op_problems:
            problems[op] = op_problems
        records.append(layers.OpRecord(op, traced_op, wall, stats, workload.counts(output)))
        del inputs, output
        timed += wall
        op += 1
        if timed >= seconds and op >= (max(min_ops, MIN_OPS_TRACED) if trace else min_ops):
            break
    if installer is not None and installer.installed:
        installer.restore()
    peak_rss_mb = _peak_rss_mb()
    for index, found in workload.final_check(blob).items():
        problems.setdefault(index, []).extend(found)
    calibration.append(calibrate())

    failed = min(len(records), len(problems))
    result_metrics: dict[str, float]
    units: dict[str, str]
    if tracer is not None:
        result_metrics = layers.per_layer_metrics(
            records, tracer, [setup_op(k) for k in range(setup_repeats)]
        )
        units = layers.metric_units()
        if trace_path:
            os.makedirs(os.path.dirname(trace_path), exist_ok=True)
            tracer.write(trace_path)
    else:
        walls = [r.wall_s for r in records]
        result_metrics = {
            "op_s": statistics.median(walls),
            "subjobs_per_s": statistics.median(r.stats.selections / r.wall_s for r in records),
            "setup_s": imports_s + statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": result_metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    diagnostics = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "imports_s": imports_s,
        "setup_repeats_s": setup_times,
        "op_s": [r.wall_s for r in records],
        "traced_ops": [r.op for r in records if r.traced],
        "calibration_s": calibration,
        "engine_counts": layers.engine_counts(records[0].stats) if records else {},
        "problems": {str(k): v[:5] for k, v in sorted(problems.items())[:20]},
    }
    if tracer is not None:
        diagnostics["spans"] = len(tracer)
    return result, diagnostics


def print_result(result: dict[str, Any], diagnostics: dict[str, Any]) -> None:
    """Diagnostics first, the result JSON object as the last stdout line."""
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
