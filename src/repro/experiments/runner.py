"""Experiment plumbing: result containers and plain-text table formatting.

Every ``eN_*.run()`` returns an :class:`ExperimentResult`; the benchmark
harness prints ``result.render()`` (so ``pytest benchmarks/ | tee`` captures
the regenerated tables) and asserts ``result.claims_hold()``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from .supervisor import SupervisorConfig, fan_out

__all__ = [
    "Claim",
    "ExperimentResult",
    "format_table",
    "repeat_experiment",
    "run_trials",
]


@dataclass(frozen=True)
class Claim:
    """One checked assertion about an experiment's outcome."""

    description: str
    holds: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.holds else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"  [{mark}] {self.description}{suffix}"


@dataclass
class ExperimentResult:
    """A regenerated table/figure plus its checked claims."""

    experiment_id: str
    title: str
    paper_artifact: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    columns: Sequence[str] | None = None
    claims: list[Claim] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    figures: list[str] = field(default_factory=list)  # preformatted ASCII blocks

    def add_claim(self, description: str, holds: bool, detail: str = "") -> None:
        self.claims.append(Claim(description, bool(holds), detail))

    def claims_hold(self) -> bool:
        return all(c.holds for c in self.claims)

    def failed_claims(self) -> list[Claim]:
        return [c for c in self.claims if not c.holds]

    def render(self) -> str:
        lines = [
            "=" * 72,
            f"{self.experiment_id}: {self.title}",
            f"paper artifact: {self.paper_artifact}",
            "=" * 72,
        ]
        for fig in self.figures:
            lines.append(fig)
            lines.append("-" * 72)
        if self.rows:
            lines.append(format_table(self.rows, self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.claims:
            lines.append("claims:")
            lines.extend(c.render() for c in self.claims)
        return "\n".join(lines)


def _run_one_seed(task: tuple) -> "ExperimentResult":
    """Top-level worker for :func:`repeat_experiment` (must be picklable)."""
    run_fn, params, seed = task
    return run_fn(seed=seed, **params)


def _task_key(prefix: str, run_fn: Any, params: dict, seed: int) -> str:
    """Stable checkpoint-journal key for one ``(run_fn, params, seed)``
    task (same logical task across invocations → same key)."""
    name = f"{getattr(run_fn, '__module__', '?')}.{getattr(run_fn, '__qualname__', repr(run_fn))}"
    return (
        f"{prefix}|{name}|seed={seed}|{sorted(params.items())!r}"
    )


def _unpicklable_part(task: tuple) -> Optional[str]:
    """Name what makes ``task`` unshippable to workers (None if picklable)."""
    try:
        pickle.dumps(task)
        return None
    except Exception:
        pass
    run_fn, params, _seed = task
    try:
        pickle.dumps(run_fn)
    except Exception:
        name = getattr(run_fn, "__qualname__", None) or repr(run_fn)
        return f"run_fn {name!r}"
    for key, value in params.items():
        try:
            pickle.dumps(value)
        except Exception:
            return f"parameter {key}={value!r}"
    return "the task tuple"


def repeat_experiment(
    run_fn,
    seeds: Sequence[int],
    *,
    n_workers: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_dir: Optional[str | os.PathLike] = None,
    resume: bool = True,
    **params,
) -> tuple[list[ExperimentResult], dict[str, float]]:
    """Run an experiment across several seeds and aggregate its claims.

    Guards against seed luck: a claim that holds at the default seed but
    fails elsewhere is fragile. Returns ``(results, pass_rates)`` where
    ``pass_rates`` maps each claim description to the fraction of seeds on
    which it held. A claim is counted for every seed once it appears in
    *any* seed's result (a claim the experiment only emits on some seeds
    counts as not holding on the seeds that lack it). Only meaningful for
    experiments taking a ``seed`` parameter.

    Parameters
    ----------
    n_workers:
        When > 1, fan the seeds out over the persistent shared process
        pool (:func:`repro.experiments.pool.shared_pool` — reused across
        calls, workers inherit the parent's ``REPRO_CACHE_DIR``) under
        :func:`repro.experiments.supervisor.run_supervised`. Results
        come back in seed order regardless of completion order, so output
        is deterministic, and each worker's :class:`~repro.core.
        EngineStats` delta is folded into this process's accumulator.
        Falls back to serial execution — with a :class:`RuntimeWarning`
        naming the offending object — when the experiment closure cannot
        be pickled (e.g. a local lambda).
    supervisor:
        Fault-tolerance policy (per-task timeout, retries, pool-rebuild
        budget) for the parallel path; default
        :class:`~repro.experiments.supervisor.SupervisorConfig`.
    checkpoint_dir / resume:
        Journal completed seeds to ``checkpoint_dir`` (atomic writes) so
        an interrupted sweep can resume; with ``resume=True`` journaled
        seeds are served from disk instead of re-running. Keys include
        the experiment function, seed and parameters, so a changed sweep
        never reuses a stale entry.

    ``KeyboardInterrupt`` mid-sweep is re-raised after a clean pool
    shutdown; journaled seeds survive for the next (resumed) invocation.
    """
    tasks = [(run_fn, dict(params), seed) for seed in seeds]
    keys = [
        _task_key("repeat", run_fn, task_params, seed)
        for _, task_params, seed in tasks
    ]
    if n_workers is not None and n_workers > 1 and len(tasks) > 1:
        offender = _unpicklable_part(tasks[0])
        if offender is not None:
            warnings.warn(
                f"repeat_experiment: {offender} cannot be pickled for "
                "worker processes; running the seed sweep serially",
                RuntimeWarning,
                stacklevel=2,
            )
            n_workers = None
    else:
        n_workers = None
    results: list[ExperimentResult] = fan_out(
        _run_one_seed,
        tasks,
        keys,
        n_workers=n_workers,
        supervisor=supervisor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )

    # Key claims by description across ALL results, in first-seen order.
    descriptions: list[str] = []
    seen = set()
    for r in results:
        for c in r.claims:
            if c.description not in seen:
                seen.add(c.description)
                descriptions.append(c.description)
    rates: dict[str, float] = {}
    for desc in descriptions:
        holds = [
            any(c.description == desc and c.holds for c in r.claims)
            for r in results
        ]
        rates[desc] = sum(holds) / len(results)
    return results, rates


#: Most subjobs one :func:`run_trials` chunk packs into a single batch.
TRIAL_CHUNK_NODES = 1_000_000


def _chunk_by_nodes(instances: Sequence, budget: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks whose node totals stay within
    ``budget`` (each chunk holds at least one instance)."""
    spans: list[tuple[int, int]] = []
    start = 0
    nodes = 0
    for i, inst in enumerate(instances):
        size = inst.flat_graph.n_nodes
        if i > start and nodes + size > budget:
            spans.append((start, i))
            start, nodes = i, 0
        nodes += size
    spans.append((start, len(instances)))
    return spans


def _split_availability(availability: Any, instances: Sequence) -> list[Any]:
    """Per-instance availability entries aligned to ``instances`` — or the
    shared spec repeated — so contiguous chunks can slice it."""
    n = len(instances)
    if availability is None:
        return [None] * n
    if isinstance(availability, Sequence) and not isinstance(
        availability, (str, bytes)
    ):
        entries = list(availability)
        if len(entries) == n and not all(
            isinstance(v, int) for v in entries
        ):
            return entries
    return [availability] * n


def run_trials(
    instances: Sequence,
    m: int,
    scheduler_factory,
    *,
    availability: Any = None,
) -> list:
    """Run one scheduler over many independent trial instances, batched.

    The homogeneous-sweep fast path of the experiment harness: all trials
    share ``m`` and a scheduler configuration (``scheduler_factory`` builds
    a fresh instance per batch chunk), so eligible trials advance in
    lockstep through :func:`~repro.core.simulate_batch` instead of paying
    one Python engine loop per trial. Ineligible trials (not a list rule,
    or not the FIFO job walk) fall back to per-instance runs inside
    ``simulate_batch`` itself.

    The sweep is split into contiguous chunks of at most
    :data:`TRIAL_CHUNK_NODES` total subjobs, which bounds each batch's
    working set.

    Returns one :class:`~repro.core.Schedule` per instance, in order.
    """
    from ..core import simulate_batch

    insts = list(instances)
    if not insts:
        return []
    per_avail = _split_availability(availability, insts)
    schedules = []
    for start, stop in _chunk_by_nodes(insts, TRIAL_CHUNK_NODES):
        part = per_avail[start:stop]
        schedules.extend(
            simulate_batch(
                insts[start:stop],
                m,
                scheduler_factory(),
                availability=None if all(v is None for v in part) else part,
            )
        )
    return schedules


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(rows: list[dict[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render ``rows`` (list of dicts) as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(c[i]) for c in cells)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    ]
    return "\n".join([header, sep, *body])
