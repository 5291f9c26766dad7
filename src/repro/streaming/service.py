"""The ``repro serve`` service loop: signals, watchdog, ticks, checkpoints.

This is the process-facing wrapper around
:class:`~repro.streaming.engine.StreamingEngine`. The engine itself is a
pure logical stepper; everything operational lives here:

* **Graceful drain** — the first ``SIGTERM``/``SIGINT`` stops admission
  (pending arrivals are never admitted) and lets live work finish; a
  second signal checkpoints immediately and exits with status 130.
* **Watchdog** — a daemon thread watching a per-step heartbeat on the
  wall clock (``time.perf_counter``). If no step completes within the
  stall timeout it prints a diagnosis to stderr and flags the loop, which
  raises :class:`~repro.streaming.engine.StreamStallError` (exit 3) at
  the next step boundary instead of hanging forever. The engine
  additionally bounds consecutive zero-commit steps logically, so a
  livelock is surfaced even with the watchdog disabled.
* **Metrics ticks** — incremental JSON lines on stdout every
  ``tick_every`` time steps (running max flow, per-decile flow
  histogram, windowed throughput/utilization, live-window sizes). A
  reader that goes away (``repro serve ... | head``) aborts the run like
  a second signal: checkpoint, ``metrics_out``, status 130.
* **Checkpoints** — atomic snapshots every ``checkpoint_every`` time
  steps (plus on drain/abort), written via
  :mod:`repro.streaming.checkpoint`. ``resume=True`` restores from the
  checkpoint file when present (and says on ``err`` that it starts fresh
  when not), and the resumed run's final metrics are
  bit-identical to an uninterrupted one — the property suite and the CI
  soak job (SIGKILL mid-run, then ``--resume``) both pin this.

Determinism note: only stderr carries wall-clock observations (elapsed
seconds, steps/second, watchdog output). Stdout ticks, the final summary
line, and the ``metrics_out`` JSON are pure functions of the stream.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Optional, TextIO

from ..core.availability import AvailabilityLike
from ..core.simulator import accumulate_engine_stats
from ..workloads.arrivals import ArrivalSource
from .checkpoint import save_checkpoint
from .engine import StreamingEngine, StreamStallError

__all__ = ["ServeControl", "Watchdog", "serve"]

#: Exit statuses of :func:`serve` (mirrored by the CLI).
EXIT_COMPLETE = 0
EXIT_STALLED = 3
EXIT_INTERRUPTED = 130


class ServeControl:
    """Signal-safe shutdown flags shared with the serve loop.

    The handlers only flip booleans (async-signal-safe); the loop reads
    them at step boundaries. First signal: drain. Second: abort.
    """

    def __init__(self) -> None:
        self.drain_requested = False
        self.abort_requested = False

    def on_signal(self, signum: int, frame: Any) -> None:
        if self.drain_requested:
            self.abort_requested = True
        else:
            self.drain_requested = True

    def install(self) -> list[tuple[int, Any]]:
        """Install handlers for SIGTERM/SIGINT; returns the previous
        handlers for restoration."""
        previous = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous.append((signum, signal.signal(signum, self.on_signal)))
        return previous

    @staticmethod
    def restore(previous: list[tuple[int, Any]]) -> None:
        for signum, handler in previous:
            signal.signal(signum, handler)


class Watchdog:
    """Wall-clock stall monitor for the serve loop.

    A daemon thread checks the heartbeat a few times per timeout window;
    if no :meth:`beat` lands within ``timeout`` seconds it invokes
    ``on_stall`` with a diagnosis (once) and latches :attr:`stalled`.
    The loop polls the latch at step boundaries and raises; if the
    process is wedged *inside* a step the printed diagnosis is still the
    operator's signal. Uses ``time.perf_counter`` only — the monotonic
    harness timer, never the wall-clock-of-day (lint rule RPR003).
    """

    def __init__(
        self,
        timeout: float,
        describe: Callable[[], str],
        on_stall: Callable[[str], None],
    ) -> None:
        if timeout <= 0:
            raise ValueError("watchdog timeout must be positive")
        self._timeout = float(timeout)
        self._describe = describe
        self._on_stall = on_stall
        self._last_beat = time.perf_counter()
        self._stop = threading.Event()
        self.stalled = False
        self.diagnosis = ""
        self._thread = threading.Thread(
            target=self._monitor, name="repro-serve-watchdog", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def beat(self) -> None:
        self._last_beat = time.perf_counter()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)

    def _monitor(self) -> None:
        interval = min(1.0, self._timeout / 4.0)
        while not self._stop.wait(interval):
            if time.perf_counter() - self._last_beat > self._timeout:
                self.diagnosis = (
                    f"no step completed for {self._timeout:.1f}s: "
                    + self._describe()
                )
                self.stalled = True
                self._on_stall(self.diagnosis)
                return


def _boundary_after(t: int, every: int) -> int:
    """The first multiple of ``every`` strictly greater than ``t``."""
    return (t // every + 1) * every


def serve(
    source: ArrivalSource,
    m: int,
    *,
    policy: str = "fifo",
    availability: Optional[AvailabilityLike] = None,
    max_live_subjobs: Optional[int] = None,
    max_live_jobs: Optional[int] = None,
    max_jobs: Optional[int] = None,
    max_zero_commit_steps: Optional[int] = None,
    tick_every: int = 10_000,
    checkpoint_path: Optional[str | os.PathLike] = None,
    checkpoint_every: int = 5_000,
    resume: bool = False,
    stall_timeout: Optional[float] = 30.0,
    metrics_out: Optional[str | os.PathLike] = None,
    quiet: bool = False,
    install_signals: bool = True,
    max_steps: Optional[int] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """Run the streaming service loop; returns the process exit status.

    ``max_steps`` bounds the number of engine steps and then behaves like
    an abort signal (checkpoint + status 130) — the in-process stand-in
    for a kill, used by tests.

    A ``BrokenPipeError`` from ``out`` (its reader went away) is an abort
    too: nothing more is written to ``out``, the checkpoint is saved,
    ``metrics_out`` is written, and the status is 130.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    engine_kwargs: dict[str, Any] = dict(
        policy=policy,
        availability=availability,
        max_live_subjobs=max_live_subjobs,
        max_live_jobs=max_live_jobs,
        max_jobs=max_jobs,
        max_zero_commit_steps=max_zero_commit_steps,
    )
    resumed = False
    if resume and checkpoint_path is not None and os.path.exists(checkpoint_path):
        from .checkpoint import load_checkpoint

        snapshot = load_checkpoint(checkpoint_path)
        engine = StreamingEngine.from_snapshot(snapshot, source, m, **engine_kwargs)
        resumed = True
        print(
            f"resumed from {checkpoint_path} at t={engine.t} "
            f"({engine.live_jobs} live jobs)",
            file=err,
        )
    else:
        if resume:
            print(f"no checkpoint at {checkpoint_path}; starting fresh", file=err)
        engine = StreamingEngine(source, m, **engine_kwargs)

    out_closed = False

    def emit(record: dict[str, Any]) -> None:
        """Write one JSON line to ``out`` unless quiet or its reader left."""
        nonlocal out_closed
        if quiet or out_closed:
            return
        try:
            print(json.dumps(record, sort_keys=True), file=out, flush=True)
        except BrokenPipeError:
            out_closed = True
            print(f"stdout closed at t={engine.t}; aborting", file=err)

    control = ServeControl()
    previous_handlers: list[tuple[int, Any]] = []
    if install_signals:
        previous_handlers = control.install()

    def _diagnose() -> str:
        return (
            f"t={engine.t} live_jobs={engine.live_jobs} "
            f"live_subjobs={engine.live_subjobs} draining={engine.draining}"
        )

    watchdog: Optional[Watchdog] = None
    if stall_timeout is not None and stall_timeout > 0:
        watchdog = Watchdog(
            stall_timeout,
            _diagnose,
            lambda diagnosis: print(f"watchdog: {diagnosis}", file=err),
        )
        watchdog.start()

    next_tick = _boundary_after(engine.t, tick_every) if tick_every > 0 else None
    next_ckpt = (
        _boundary_after(engine.t, checkpoint_every)
        if checkpoint_path is not None and checkpoint_every > 0
        else None
    )
    status = EXIT_COMPLETE
    steps_taken = 0
    start = time.perf_counter()
    try:
        while True:
            if (
                control.abort_requested
                or out_closed
                or (max_steps is not None and steps_taken >= max_steps)
            ):
                if checkpoint_path is not None:
                    save_checkpoint(checkpoint_path, engine.snapshot())
                    print(
                        f"interrupted at t={engine.t}; checkpoint saved to "
                        f"{checkpoint_path} (resume with --resume)",
                        file=err,
                    )
                status = EXIT_INTERRUPTED
                break
            if control.drain_requested and not engine.draining:
                engine.begin_drain()
                print(
                    f"drain requested at t={engine.t}: admission stopped, "
                    f"finishing {engine.live_jobs} live jobs "
                    "(signal again to abort)",
                    file=err,
                )
            # Cap epoch macro-windows at the next tick/checkpoint boundary
            # so a macro-stepped run crosses each boundary at the same t
            # as a per-step run (tick and checkpoint bit-identity).
            t_limit = None
            if next_tick is not None:
                t_limit = next_tick
            if next_ckpt is not None and (t_limit is None or next_ckpt < t_limit):
                t_limit = next_ckpt
            alive = engine.step(t_limit=t_limit)
            steps_taken += 1
            if watchdog is not None:
                watchdog.beat()
                if watchdog.stalled:
                    raise StreamStallError(watchdog.diagnosis)
            if not alive:
                break
            if next_tick is not None and engine.t >= next_tick:
                emit(
                    engine.metrics.tick(
                        engine.t, engine.live_jobs, engine.live_subjobs
                    )
                )
                next_tick = _boundary_after(engine.t, tick_every)
            if next_ckpt is not None and engine.t >= next_ckpt:
                assert checkpoint_path is not None
                save_checkpoint(checkpoint_path, engine.snapshot())
                next_ckpt = _boundary_after(engine.t, checkpoint_every)
    except StreamStallError as exc:
        print(f"stall: {exc}", file=err)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, engine.snapshot())
        status = EXIT_STALLED
    finally:
        if watchdog is not None:
            watchdog.stop()
        if install_signals:
            ServeControl.restore(previous_handlers)

    elapsed = time.perf_counter() - start
    engine.stats.sim_seconds += elapsed
    accumulate_engine_stats(engine.stats)

    summary: dict[str, Any] = {
        "t": engine.t,
        "policy": engine.policy,
        "m": engine.m,
        "source": source.name,
        "complete": engine.complete,
        "drained": engine.draining,
        "resumed": resumed,
        "status": status,
    }
    summary.update(engine.metrics.summary())
    if status == EXIT_COMPLETE and checkpoint_path is not None:
        # Final checkpoint: resuming a finished run reloads this state,
        # immediately completes, and reproduces the same summary.
        save_checkpoint(checkpoint_path, engine.snapshot())
    if metrics_out is not None:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, sort_keys=True, indent=2)
            handle.write("\n")
    emit(summary)
    print(
        f"serve: {summary['subjobs_completed']} subjobs in "
        f"{engine.metrics.steps} steps, {elapsed:.2f}s wall "
        f"({engine.metrics.steps / elapsed if elapsed > 0 else 0.0:.0f} steps/s), "
        f"live-subjob HWM {summary['live_subjob_hwm']}",
        file=err,
    )
    return status
