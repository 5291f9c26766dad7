"""Unit tests for the stream-API arrival sources (`repro.workloads.arrivals`)."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.streaming import StreamingEngine
from repro.workloads.arrivals import (
    AdversarialDripSource,
    ArrivalSource,
    PoissonSource,
    TraceReplaySource,
    stream_prefix_instance,
)

SOURCES = {
    "poisson": lambda: PoissonSource(rate=0.5, seed=11, dag_nodes=10, n_jobs=20),
    "poisson-gw": lambda: PoissonSource(
        rate=0.2, seed=3, dag_nodes=16, family="galton-watson", n_jobs=20
    ),
    "poisson-layered": lambda: PoissonSource(
        rate=1.5, seed=7, dag_nodes=25, family="layered", n_jobs=20
    ),
    "drip": lambda: AdversarialDripSource(6, period=4, seed=5, n_jobs=20),
}


def _dag_signature(dag):
    return (dag.n, dag.child_indptr.tobytes(), dag.child_indices.tobytes())


@pytest.mark.parametrize("name", sorted(SOURCES))
class TestIndexPurity:
    def test_dag_at_is_pure(self, name):
        source = SOURCES[name]()
        for k in (0, 1, 7, 19):
            assert _dag_signature(source.dag_at(k)) == _dag_signature(
                source.dag_at(k)
            )

    def test_gap_before_is_pure_and_nonnegative(self, name):
        source = SOURCES[name]()
        for k in range(20):
            gap = source.gap_before(k)
            assert gap == source.gap_before(k)
            assert gap >= 0

    def test_out_of_order_access_matches_sequential(self, name):
        """Reading index 15 first must not change what index 3 yields —
        the checkpoint/resume path reads indices out of order."""
        probe = SOURCES[name]()
        probe.dag_at(15), probe.gap_before(15)
        fresh = SOURCES[name]()
        assert _dag_signature(probe.dag_at(3)) == _dag_signature(fresh.dag_at(3))
        assert probe.gap_before(3) == fresh.gap_before(3)

    def test_releases_nondecreasing(self, name):
        source = SOURCES[name]()
        releases = [source.release_of(k) for k in range(20)]
        assert releases == sorted(releases)

    def test_prefix_instance_matches_release_of(self, name):
        source = SOURCES[name]()
        instance = stream_prefix_instance(source, 12)
        assert len(instance.jobs) == 12
        for k, job in enumerate(instance):
            assert job.release == source.release_of(k)
            assert _dag_signature(job.dag) == _dag_signature(source.dag_at(k))

    def test_fingerprint_is_stable_and_seed_sensitive(self, name):
        source = SOURCES[name]()
        assert source.fingerprint() == SOURCES[name]().fingerprint()


def test_poisson_fingerprint_differs_across_seeds():
    a = PoissonSource(rate=0.5, seed=1, dag_nodes=10)
    b = PoissonSource(rate=0.5, seed=2, dag_nodes=10)
    assert a.fingerprint() != b.fingerprint()


def test_poisson_dags_vary_across_indices():
    source = PoissonSource(rate=0.5, seed=0, dag_nodes=30)
    signatures = {_dag_signature(source.dag_at(k)) for k in range(8)}
    assert len(signatures) > 1


def test_poisson_rejects_bad_parameters():
    with pytest.raises(Exception):
        PoissonSource(rate=0.0)
    with pytest.raises(Exception):
        PoissonSource(rate=0.5, dag_nodes=0)
    with pytest.raises(Exception):
        PoissonSource(rate=0.5, family="nope")


def test_release_of_bounds_checked():
    source = PoissonSource(rate=0.5, seed=0, dag_nodes=8, n_jobs=5)
    with pytest.raises(Exception):
        source.release_of(-1)
    with pytest.raises(Exception):
        source.release_of(5)


def test_drip_shape_targets_half_width():
    source = AdversarialDripSource(8, period=3, depth=4, seed=0)
    dag = source.dag_at(0)
    assert dag.n == 4 * 4  # ⌈m/2⌉ wide × depth layers
    assert source.gap_before(0) == 0
    assert source.gap_before(1) == 3


class TestTraceReplay:
    def _instance(self):
        return PoissonSource(rate=0.8, seed=9, dag_nodes=6, n_jobs=10).prefix_instance(
            10
        )

    def test_roundtrip_from_instance(self):
        instance = self._instance()
        source = TraceReplaySource.from_instance(instance)
        assert source.n_jobs == 10
        replayed = source.prefix_instance(10)
        for orig, rep in zip(instance, replayed):
            assert orig.release == rep.release
            assert _dag_signature(orig.dag) == _dag_signature(rep.dag)

    def test_fingerprint_tracks_content(self):
        instance = self._instance()
        a = TraceReplaySource.from_instance(instance)
        b = TraceReplaySource.from_instance(instance)
        assert a.fingerprint() == b.fingerprint()
        other = PoissonSource(rate=0.8, seed=10, dag_nodes=6, n_jobs=10)
        c = TraceReplaySource.from_instance(other.prefix_instance(10))
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_is_computed_once(self):
        instance = self._instance()
        source = TraceReplaySource.from_instance(instance)
        cached = source.fingerprint()
        assert source.fingerprint() is cached  # no re-hash per snapshot
        assert cached == TraceReplaySource.from_instance(instance).fingerprint()

    def test_resume_under_a_different_trace_is_rejected(self):
        source = TraceReplaySource.from_instance(self._instance())
        engine = StreamingEngine(source, 2)
        for _ in range(6):
            engine.step()
        snapshot = engine.snapshot()
        other = TraceReplaySource.from_instance(
            PoissonSource(rate=0.8, seed=10, dag_nodes=6, n_jobs=10).prefix_instance(10)
        )
        other.fingerprint()  # its own cached digest, not the original's
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            StreamingEngine.from_snapshot(snapshot, other, 2)
        resumed = StreamingEngine.from_snapshot(snapshot, source, 2)
        assert resumed.t == engine.t

    def test_rejects_decreasing_releases(self):
        instance = self._instance()
        jobs = list(instance)
        shuffled = [jobs[3], jobs[0]] + jobs[4:]
        with pytest.raises(Exception):
            TraceReplaySource(tuple(shuffled))


def test_abstract_base_requires_all_hooks():
    with pytest.raises(TypeError):
        ArrivalSource()  # type: ignore[abstract]
