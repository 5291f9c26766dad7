"""Crash-safety properties of the streaming engine.

The contract under test (docs/serving.md): a streaming run that is
checkpointed, killed, restored from the on-disk checkpoint, and drained
produces **bit-identical** final metrics to the same run left
uninterrupted — across every policy, drawn checkpoint epochs (up to
three kill/restore cycles in one run), and restricted availability
traces. The checkpoint round-trips through the real file format
(``save_checkpoint``/``load_checkpoint``), so framing and integrity
checks ride along. The runs are the conformance matrix's
``stream-resumed`` cells (``test_conformance.py``), whose flows must also
equal ``_simulate_reference``'s on the materialised stream prefix.
"""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.streaming import StreamingEngine, load_checkpoint, save_checkpoint
from repro.workloads.arrivals import PoissonSource

from .test_conformance import STREAM_POLICY, conforming

#: The Poisson, Galton-Watson and adversarial-drip stream families.
SOURCES = ("poisson", "galton", "drip")


def test_kill_restore_drain_is_bit_identical():
    """checkpoint → kill → restore → drain == uninterrupted, exactly."""
    for family in SOURCES:
        conforming(family, STREAM_POLICY, traces="any", paths=("stream-resumed",))


def test_streaming_matches_batch_simulate():
    """Per-job flows and retirement order of the streaming engine equal
    those of the reference loop on the same prefix."""
    for family in ("poisson", "drip", "poisson-40"):
        conforming(family, STREAM_POLICY, paths=("stream",), checks=("= ref",))


def test_resume_under_availability_trace():
    """Trace-restricted runs, killed at drawn steps, resume
    bit-identically (capacity gaps span the kill points)."""
    conforming("poisson-traced", STREAM_POLICY, traces="traced", paths=("stream-resumed",))


def test_fingerprint_mismatch_is_rejected(tmp_path):
    """A checkpoint resumes only under the configuration that wrote it."""
    source = PoissonSource(rate=0.5, seed=1, dag_nodes=8, n_jobs=10)
    engine = StreamingEngine(source, 3, policy="fifo")
    engine.step()
    path = tmp_path / "fp.ckpt"
    save_checkpoint(path, engine.snapshot())
    snapshot = load_checkpoint(path)
    other_source = PoissonSource(rate=0.5, seed=2, dag_nodes=8, n_jobs=10)
    for bad in (
        lambda: StreamingEngine.from_snapshot(snapshot, source, 4, policy="fifo"),
        lambda: StreamingEngine.from_snapshot(snapshot, source, 3, policy="srpt"),
        lambda: StreamingEngine.from_snapshot(
            snapshot, other_source, 3, policy="fifo"
        ),
    ):
        with pytest.raises(ConfigurationError):
            bad()
