"""Supervised fault-tolerant execution for the experiment harness.

The persistent shared pool (:mod:`repro.experiments.pool`) makes sweeps
fast; this module makes them survive the failures a long sweep hits first:

* a **crashed worker** (``os._exit``, segfault, OOM-kill) poisons a
  ``ProcessPoolExecutor`` forever — every later submit raises
  ``BrokenProcessPool``. The supervisor force-rebuilds the shared pool and
  resubmits the unfinished tasks;
* a **hung worker** stalls an in-order ``pool.map`` indefinitely. Each
  task gets a per-task wall-clock timeout; on expiry the pool's workers
  are terminated (the only way to reclaim one wedged in a task), the pool
  is rebuilt, and the task retried;
* **transient task failures** are retried with exponential backoff plus
  seeded jitter, up to a bounded attempt budget; the terminal failure
  re-raises the task's own exception;
* after repeated pool-level failures the sweep **degrades to serial**
  in-process execution — slower, but it completes;
* with a **checkpoint directory**, every completed task's result is
  journaled atomically (tmp file + ``os.replace``, the workload-cache
  pattern) as a digest-framed pickle (:func:`~repro.core.io.frame_bytes`),
  so an interrupted sweep resumes where it stopped instead of restarting;
  a corrupt or truncated journal entry is a miss, recomputed with a
  ``RuntimeWarning`` naming the file;
* ``KeyboardInterrupt`` mid-sweep shuts the pool down cleanly and returns
  the partial results gathered so far (journaled ones included).

:func:`run_supervised` is the engine room; :func:`fan_out`, the one
sweep loop of ``repeat_experiment`` and ``run_all``, routes their
parallel and journaled paths through it.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..core import EngineStats, accumulate_engine_stats, engine_stats_snapshot
from ..core.io import load_framed_pickle, save_framed_pickle
from .pool import shared_pool, shutdown_shared_pool

__all__ = [
    "SupervisorConfig",
    "SupervisedOutcome",
    "TaskTimeoutError",
    "fan_out",
    "run_supervised",
]


class TaskTimeoutError(RuntimeError):
    """A task exceeded its per-attempt wall-clock timeout on every try."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/backoff/timeout policy for :func:`run_supervised`.

    Attributes
    ----------
    task_timeout:
        Per-attempt wall-clock budget in seconds (None: unbounded). A
        timeout marks the whole pool suspect: its workers are terminated
        and the pool rebuilt, because a ``ProcessPoolExecutor`` cannot
        cancel a running task any other way.
    max_retries:
        Re-attempts allowed per task after its first failure (so a task
        runs at most ``max_retries + 1`` times).
    backoff_base / backoff_cap:
        Exponential backoff between attempts of a failed task:
        ``min(cap, base * 2**(attempt-1))`` seconds.
    jitter:
        Symmetric multiplicative jitter applied to each backoff delay
        (``delay *= 1 + jitter * U[-1, 1]``), seeded — sweeps stay
        reproducible modulo wall-clock.
    max_pool_rebuilds:
        Pool rebuilds (after ``BrokenProcessPool`` or a timeout) tolerated
        before the sweep degrades to serial in-process execution.
    seed:
        Seed for the jitter stream.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.1
    backoff_cap: float = 2.0
    jitter: float = 0.25
    max_pool_rebuilds: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")


@dataclass
class SupervisedOutcome:
    """What :func:`run_supervised` did, beyond the results themselves.

    ``results`` is aligned with the input tasks; entries are ``None`` only
    when the sweep was interrupted before the task completed (check
    ``interrupted``).
    """

    results: list[Any]
    interrupted: bool = False
    retries: int = 0
    pool_rebuilds: int = 0
    degraded_to_serial: bool = False
    #: Indices whose results came from the checkpoint journal rather than a
    #: fresh run this invocation (callers that fold per-task side data — the
    #: runner's EngineStats deltas — skip these to avoid double counting).
    resumed_indices: list[int] = field(default_factory=list)

    @property
    def resumed(self) -> int:
        return len(self.resumed_indices)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None)


# ----------------------------------------------------------------------
# Checkpoint journal: one atomically-written framed pickle per task
# ----------------------------------------------------------------------

_JOURNAL_MAGIC = b"repro-journal:1\n"


def _journal_path(checkpoint_dir: Path, key: str) -> Path:
    digest = hashlib.sha256(key.encode()).hexdigest()[:32]
    return checkpoint_dir / f"{digest}.ckpt"


def _journal_load(checkpoint_dir: Path, key: str) -> tuple[bool, Any]:
    """``(hit, value)`` for ``key``; corrupt/truncated entries are misses."""
    path = _journal_path(checkpoint_dir, key)
    if not path.is_file():
        return False, None
    try:
        return True, load_framed_pickle(path, _JOURNAL_MAGIC)
    except Exception as exc:
        # Same contract as the workload cache: garbage bytes never become a
        # crash or a wrong answer — recompute, overwrite and warn.
        warnings.warn(
            f"checkpoint journal entry {path} is unreadable ({exc}); "
            "recomputing it",
            RuntimeWarning,
            stacklevel=3,
        )
        return False, None


def _journal_store(checkpoint_dir: Path, key: str, value: Any) -> None:
    """Write ``value`` atomically (a torn write must not corrupt resume).

    A value that cannot be journaled is still a result: a failed write
    warns and the task keeps its value. Besides ``OSError``, pickling
    raises ``PicklingError``, ``AttributeError`` (a local function),
    ``TypeError`` (a lock or generator), ``RecursionError`` and more,
    so any ``Exception`` counts as a failed write.
    """
    path = _journal_path(checkpoint_dir, key)
    try:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        save_framed_pickle(path, _JOURNAL_MAGIC, value)
    except Exception as exc:
        warnings.warn(
            f"checkpoint journal write failed for {path} "
            f"({type(exc).__name__}: {exc}); the sweep continues but this "
            "task will re-run on resume",
            RuntimeWarning,
            stacklevel=2,
        )


# ----------------------------------------------------------------------
# The supervised loop
# ----------------------------------------------------------------------


def _backoff_sleep(
    config: SupervisorConfig, attempt: int, rng: np.random.Generator
) -> None:
    delay = min(config.backoff_cap, config.backoff_base * 2 ** max(0, attempt - 1))
    delay *= 1.0 + config.jitter * float(rng.uniform(-1.0, 1.0))
    if delay > 0:
        time.sleep(delay)


def run_supervised(
    worker_fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    *,
    n_workers: int,
    config: Optional[SupervisorConfig] = None,
    keys: Optional[Sequence[str]] = None,
    checkpoint_dir: Optional[str | os.PathLike[str]] = None,
    resume: bool = True,
    local_fn: Optional[Callable[[Any], Any]] = None,
) -> SupervisedOutcome:
    """Run ``worker_fn`` over ``tasks`` with supervision (module docstring).

    Parameters
    ----------
    worker_fn:
        Module-level callable shipped to pool workers (must be picklable).
    n_workers:
        Fan-out width; ``<= 1`` executes serially in-process (still with
        retries and checkpointing).
    keys:
        Stable per-task identifiers, required with ``checkpoint_dir``
        (journal entries are addressed by key, so a re-invocation must
        derive the same key for the same logical task).
    checkpoint_dir / resume:
        Journal directory; with ``resume=True`` existing entries are
        served from disk, with ``resume=False`` they are ignored (and
        overwritten as tasks complete).
    local_fn:
        In-process twin of ``worker_fn`` used for serial execution and
        serial degradation (defaults to ``worker_fn``); :func:`fan_out`
        passes one that reports no EngineStats delta.

    Returns
    -------
    SupervisedOutcome
        Results aligned with ``tasks`` plus fault-handling telemetry.
        Permanent task failure re-raises the task's own exception
        (:class:`TaskTimeoutError` for timeouts); ``KeyboardInterrupt``
        returns the partial outcome with ``interrupted=True``.
    """
    config = config or SupervisorConfig()
    if local_fn is None:
        local_fn = worker_fn
    ckpt: Optional[Path] = None
    if checkpoint_dir is not None:
        ckpt = Path(checkpoint_dir)
        if keys is None:
            raise ValueError("checkpoint_dir requires per-task keys")
    if keys is not None and len(keys) != len(tasks):
        raise ValueError(f"{len(keys)} keys for {len(tasks)} tasks")

    outcome = SupervisedOutcome(results=[None] * len(tasks))
    rng = np.random.default_rng(config.seed)
    attempts = [0] * len(tasks)

    def record(idx: int, value: Any) -> None:
        outcome.results[idx] = value
        if ckpt is not None and keys is not None:
            _journal_store(ckpt, keys[idx], value)

    pending: list[int] = []
    for idx in range(len(tasks)):
        if ckpt is not None and keys is not None and resume:
            hit, value = _journal_load(ckpt, keys[idx])
            if hit:
                outcome.results[idx] = value
                outcome.resumed_indices.append(idx)
                continue
        pending.append(idx)

    def run_serial(indices: Sequence[int]) -> None:
        assert local_fn is not None
        for idx in indices:
            while True:
                attempts[idx] += 1
                try:
                    record(idx, local_fn(tasks[idx]))
                    break
                except KeyboardInterrupt:
                    outcome.interrupted = True
                    return
                except Exception:
                    if attempts[idx] > config.max_retries:
                        raise
                    outcome.retries += 1
                    _backoff_sleep(config, attempts[idx], rng)

    if n_workers <= 1:
        run_serial(pending)
        return outcome

    while pending:
        try:
            pool: ProcessPoolExecutor = shared_pool(n_workers)
            futures: dict[int, Future[Any]] = {
                idx: pool.submit(worker_fn, tasks[idx]) for idx in pending
            }
        except BrokenProcessPool:
            # The pool broke between the health check and the submits.
            outcome.pool_rebuilds += 1
            shutdown_shared_pool(force=True)
            if outcome.pool_rebuilds > config.max_pool_rebuilds:
                outcome.degraded_to_serial = True
                run_serial(pending)
                return outcome
            continue

        retry_round: list[int] = []
        rebuild = False
        try:
            for pos, idx in enumerate(pending):
                try:
                    record(idx, futures[idx].result(timeout=config.task_timeout))
                except concurrent.futures.TimeoutError:
                    # A wedged worker can only be reclaimed by killing it;
                    # everything not yet done goes back in the queue.
                    attempts[idx] += 1
                    if attempts[idx] > config.max_retries:
                        shutdown_shared_pool(force=True)
                        raise TaskTimeoutError(
                            f"task {keys[idx] if keys is not None else idx} "
                            f"exceeded {config.task_timeout}s on "
                            f"{attempts[idx]} attempts"
                        ) from None
                    rebuild = True
                    retry_round.append(idx)
                    retry_round.extend(
                        j
                        for j in pending[pos + 1 :]
                        if outcome.results[j] is None
                    )
                    break
                except BrokenProcessPool:
                    # Some worker died; the executor is poisoned for good.
                    # Charge an attempt to the task we were waiting on (the
                    # likeliest culprit) and resubmit everything unfinished.
                    attempts[idx] += 1
                    if attempts[idx] > config.max_retries:
                        shutdown_shared_pool(force=True)
                        raise
                    rebuild = True
                    retry_round.append(idx)
                    retry_round.extend(
                        j
                        for j in pending[pos + 1 :]
                        if outcome.results[j] is None
                    )
                    break
                except Exception:
                    attempts[idx] += 1
                    if attempts[idx] > config.max_retries:
                        raise
                    retry_round.append(idx)
        except KeyboardInterrupt:
            # Clean stop: drop queued work, reclaim workers, hand back what
            # finished (journaled results survive for a later resume).
            for fut in futures.values():
                fut.cancel()
            shutdown_shared_pool(force=True)
            outcome.interrupted = True
            return outcome

        if retry_round:
            outcome.retries += len(retry_round)
            if rebuild:
                outcome.pool_rebuilds += 1
                shutdown_shared_pool(force=True)
                if outcome.pool_rebuilds > config.max_pool_rebuilds:
                    outcome.degraded_to_serial = True
                    run_serial(retry_round)
                    return outcome
            _backoff_sleep(config, max(attempts[i] for i in retry_round), rng)
        pending = retry_round

    return outcome


# ----------------------------------------------------------------------
# The sweep loop shared by repeat_experiment and run_all
# ----------------------------------------------------------------------


def _with_stats(item: tuple[Callable[[Any], Any], Any]) -> tuple[Any, Any]:
    """Pool worker for :func:`fan_out`: ``fn(task)`` plus the engine effort
    it cost in the worker, as an :class:`~repro.core.EngineStats` delta
    the parent folds into its own accumulator."""
    fn, task = item
    before = engine_stats_snapshot()
    result = fn(task)
    return result, engine_stats_snapshot().delta(before)


def _local(item: tuple[Callable[[Any], Any], Any]) -> tuple[Any, Any]:
    """In-process twin of :func:`_with_stats`, with a zero delta: effort
    spent in this process already lands in its accumulator, and folding
    it back would double-count it."""
    fn, task = item
    return fn(task), EngineStats()


def fan_out(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    keys: Sequence[str],
    *,
    n_workers: Optional[int],
    supervisor: Optional[SupervisorConfig],
    checkpoint_dir: Optional[str | os.PathLike[str]],
    resume: bool,
) -> list[Any]:
    """``[fn(task) for task in tasks]``, supervised where asked.

    With ``n_workers > 1`` the tasks run on the shared pool under
    :func:`run_supervised` (``fn`` must be a picklable module-level
    function); otherwise, with ``checkpoint_dir``, serially under it,
    journaled by ``keys`` and with its retries; otherwise as a plain loop
    with no retries. Each freshly run task's EngineStats delta is folded
    into this process's accumulator. ``KeyboardInterrupt`` mid-sweep is
    re-raised after the supervisor's clean shutdown.
    """
    if (n_workers is None or n_workers <= 1) and checkpoint_dir is None:
        return [fn(task) for task in tasks]
    outcome = run_supervised(
        _with_stats,
        [(fn, task) for task in tasks],
        n_workers=n_workers or 1,
        config=supervisor,
        keys=keys,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        local_fn=_local,
    )
    resumed = set(outcome.resumed_indices)
    for idx, pair in enumerate(outcome.results):
        if pair is not None and idx not in resumed:
            accumulate_engine_stats(pair[1])
    if outcome.interrupted:
        raise KeyboardInterrupt
    return [result for result, _ in outcome.results]
