"""Long-lived streaming service mode (``repro serve``).

Layering:

* :mod:`repro.workloads.arrivals` — unbounded, index-pure arrival
  sources (Poisson, trace replay, adversarial drip).
* :mod:`repro.streaming.engine` — the incremental scheduling engine:
  bounded admission with deterministic shedding, one policy-ordered
  frontier over a resident arena (:mod:`repro.streaming.arena`),
  retirement of completed jobs, snapshot/restore.
* :mod:`repro.streaming.metrics` — O(1)-state incremental metrics
  (running max flow, log2 flow histogram, windowed throughput).
* :mod:`repro.streaming.checkpoint` — atomic, digest-framed on-disk
  checkpoints.
* :mod:`repro.streaming.service` — the operational loop: signals,
  watchdog, ticks, checkpoint cadence, resume.

See ``docs/serving.md`` for the full contract.
"""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .engine import (
    STREAM_POLICIES,
    STREAM_SNAPSHOT_VERSION,
    StreamingEngine,
    StreamStallError,
)
from .metrics import StreamMetrics
from .service import ServeControl, Watchdog, serve

__all__ = [
    "CheckpointError",
    "STREAM_POLICIES",
    "STREAM_SNAPSHOT_VERSION",
    "ServeControl",
    "StreamMetrics",
    "StreamStallError",
    "StreamingEngine",
    "Watchdog",
    "load_checkpoint",
    "save_checkpoint",
    "serve",
]
