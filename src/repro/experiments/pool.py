"""Persistent shared process pool for the experiment harness.

``repeat_experiment`` and ``run_all`` used to build (and tear down) a fresh
``ProcessPoolExecutor`` per call; for the common pattern of many small
parallel calls — seed sweeps inside a benchmark session, repeated
``run_all`` invocations — worker spawn and interpreter warm-up dominated.
This module keeps ONE process-wide executor alive across calls:

* the pool is created lazily on first use and reused by every later call;
* it is recreated (the old one drained and shut down) when a caller asks
  for *more* workers than the live pool has, **or** when the live pool is
  unusable — broken (a worker died and poisoned the executor), or shut
  down behind our back — so one crash never wedges every later sweep;
* each worker runs an initializer that inherits the parent's
  ``REPRO_CACHE_DIR`` so all processes share one on-disk workload cache
  (generated DAGs are built once, not once per worker);
* an ``atexit`` hook shuts the pool down with the interpreter.

For hang recovery the supervised harness
(:mod:`repro.experiments.supervisor`) needs to reclaim workers stuck in a
task; ``shutdown_shared_pool(force=True)`` terminates worker processes
(escalating to SIGKILL for survivors) instead of waiting for them.

Worker processes re-import ``repro``; anything monkeypatched in the parent
(registries, experiment functions) is invisible to them — the same caveat
as any process pool, documented on :func:`repro.experiments.run_all`.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

__all__ = ["shared_pool", "shutdown_shared_pool"]

_CACHE_ENV_VAR = "REPRO_CACHE_DIR"

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers = 0
_atexit_registered = False


def _worker_init(cache_dir: Optional[str]) -> None:
    """Run in every worker at spawn: inherit the parent's workload cache
    directory (env vars may not propagate under spawn start methods)."""
    if cache_dir is not None:
        os.environ[_CACHE_ENV_VAR] = cache_dir


def _pool_unusable(pool: ProcessPoolExecutor) -> bool:
    """True when ``pool`` can no longer accept work.

    ``_broken`` is set (to a message) once a worker dies abruptly — every
    later ``submit`` would raise ``BrokenProcessPool`` forever;
    ``_shutdown_thread`` flips once ``shutdown()`` ran. Both are CPython
    implementation details, so read defensively: an attribute going away
    in a future version degrades to "looks healthy" and the submit-time
    exception still gets handled by the supervisor's rebuild path.
    """
    return bool(getattr(pool, "_broken", False)) or bool(
        getattr(pool, "_shutdown_thread", False)
    )


def shared_pool(n_workers: int) -> ProcessPoolExecutor:
    """Return the process-wide executor, sized for at least ``n_workers``.

    The live pool is reused whenever it already has enough workers *and*
    is still usable; a broken or externally shut down pool is replaced, as
    is one that is too small (after letting queued work finish). The pool
    is shared state: callers must not shut it down — use
    :func:`shutdown_shared_pool` (tests and the supervisor do) or let
    ``atexit`` handle it.
    """
    global _pool, _pool_workers, _atexit_registered
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if _pool is None or _pool_workers < n_workers or _pool_unusable(_pool):
        if _pool is not None:
            # A broken pool cannot drain; don't wait on its corpse.
            _pool.shutdown(wait=not _pool_unusable(_pool))
        _pool = ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_worker_init,
            initargs=(os.environ.get(_CACHE_ENV_VAR),),
        )
        _pool_workers = n_workers
        if not _atexit_registered:
            atexit.register(shutdown_shared_pool)
            _atexit_registered = True
    return _pool


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Forcefully stop a pool's worker processes (hang recovery).

    SIGTERM first, a bounded join, then SIGKILL for anything still alive.
    Reads the private ``_processes`` map defensively — if the attribute
    disappears in a future CPython, force-shutdown degrades to the plain
    (waiting) shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()
    for proc in list(processes.values()):
        proc.join(timeout=5)
        if proc.is_alive():  # pragma: no cover - needs a SIGTERM-immune task
            proc.kill()
            proc.join(timeout=5)


def shutdown_shared_pool(force: bool = False) -> None:
    """Shut down the shared executor (no-op when none is live).

    With ``force=True`` worker processes are terminated instead of joined
    — the only way to reclaim a worker wedged inside a hung task; queued
    futures are cancelled. The next :func:`shared_pool` call starts a
    fresh pool either way — callers that mutate ``REPRO_CACHE_DIR``
    mid-process (tests) call this so new workers pick the change up.
    """
    global _pool, _pool_workers
    if _pool is not None:
        if force:
            _terminate_workers(_pool)
            _pool.shutdown(wait=True, cancel_futures=True)
        else:
            _pool.shutdown(wait=True)
        _pool = None
        _pool_workers = 0
