"""Unit tests for the streaming engine, metrics, and checkpoint format."""

import hashlib
import json
import os
import pickle
import stat

import pytest

from repro.core.exceptions import ConfigurationError
from repro.streaming import (
    CheckpointError,
    StreamingEngine,
    StreamMetrics,
    StreamStallError,
    load_checkpoint,
    save_checkpoint,
    serve,
)
from repro.workloads.arrivals import AdversarialDripSource, PoissonSource


def _summary(engine):
    return json.dumps(engine.metrics.summary(), sort_keys=True)


# ----------------------------------------------------------------------
# Bounded memory: the high-water mark tracks the live window, not the
# stream length
# ----------------------------------------------------------------------


class TestBoundedState:
    def test_hwm_is_independent_of_stream_length(self):
        """10x the jobs must not move the live-subjob high-water mark:
        resident state is bounded by the live window (the 10⁷-subjob
        acceptance criterion, scaled down for CI)."""
        hwms = []
        for n_jobs in (40, 400):
            source = AdversarialDripSource(4, period=16, depth=4, seed=0, n_jobs=n_jobs)
            engine = StreamingEngine(source, 4, policy="fifo")
            engine.run()
            assert engine.complete
            hwms.append(engine.metrics.live_subjob_hwm)
        assert hwms[0] == hwms[1]

    def test_retirement_empties_the_live_window(self):
        source = PoissonSource(rate=0.5, seed=2, dag_nodes=10, n_jobs=30)
        engine = StreamingEngine(source, 4)
        engine.run()
        assert engine.live_jobs == 0
        assert engine.live_subjobs == 0
        assert engine.stats.stream_retired == 30

    def test_admission_bound_sheds_deterministically(self):
        source = PoissonSource(rate=5.0, seed=4, dag_nodes=20, n_jobs=60)
        runs = []
        for _ in range(2):
            engine = StreamingEngine(source, 2, max_live_subjobs=100)
            engine.run()
            assert engine.metrics.live_subjob_hwm <= 100
            assert engine.metrics.jobs_shed > 0
            assert (
                engine.metrics.jobs_admitted + engine.metrics.jobs_shed == 60
            )
            runs.append(_summary(engine))
        assert runs[0] == runs[1]

    def test_max_live_jobs_bound(self):
        source = PoissonSource(rate=5.0, seed=4, dag_nodes=8, n_jobs=40)
        engine = StreamingEngine(source, 2, max_live_jobs=3)
        engine.run()
        assert engine.metrics.live_job_hwm <= 3
        assert engine.metrics.jobs_shed > 0


# ----------------------------------------------------------------------
# Liveness guards
# ----------------------------------------------------------------------


class TestStallGuard:
    def test_zero_capacity_beyond_limit_raises(self):
        source = PoissonSource(rate=1.0, seed=0, dag_nodes=6, n_jobs=5)
        engine = StreamingEngine(
            source,
            4,
            availability=[0] * 50,
            max_zero_commit_steps=3,
        )
        with pytest.raises(StreamStallError):
            engine.run()

    def test_trace_horizon_default_allows_blackouts(self):
        """The default stall limit clears any finite-trace blackout: tail
        capacity >= 1 guarantees eventual progress."""
        source = PoissonSource(rate=1.0, seed=0, dag_nodes=6, n_jobs=5)
        engine = StreamingEngine(source, 4, availability=[0] * 30)
        engine.run()
        assert engine.complete

    def test_idle_gaps_are_skipped_not_stepped(self):
        source = PoissonSource(rate=0.01, seed=1, dag_nodes=4, n_jobs=3)
        engine = StreamingEngine(source, 4)
        engine.run()
        assert engine.metrics.idle_skipped_steps > 0
        # Skipped steps never enter the utilization denominator.
        assert engine.metrics.utilization() > 0.0

    def test_idle_jump_stops_at_t_limit(self):
        """An idle gap is skipped up to ``t_limit``, never past it; the
        split jumps add up to the unsplit run's skipped steps."""
        def source():
            return PoissonSource(0.02, 3, dag_nodes=4, n_jobs=5)

        engine = StreamingEngine(source(), 4)
        while True:
            t, t_limit = engine.t, (engine.t // 10 + 1) * 10
            if not engine.step(t_limit=t_limit):
                break
            assert t < engine.t <= t_limit
        unsplit = StreamingEngine(source(), 4)
        unsplit.run()
        assert engine.metrics.summary() == unsplit.metrics.summary()
        assert engine.metrics.idle_skipped_steps > 0


# ----------------------------------------------------------------------
# Engine configuration validation
# ----------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "policy, fingerprint",
        [
            ("fifo", "36b06c76512e69c37ff8f8e789447c93729cd3ddfae4bd5b1870610360c4b3db"),
            ("lpf", "ad2b97067bdbdb44133834a9f23a5daa047504f455fbda968841fb44b8f1ad55"),
            ("srpt", "d23ed482f745ee72171bcff83809204b840e485207c8befbbd9e9a81d952f9a2"),
        ],
    )
    def test_fingerprint_is_pinned(self, policy, fingerprint):
        """Fingerprints hash the policy name, so checkpoints written by
        earlier builds keep resuming."""
        source = PoissonSource(
            rate=0.5, seed=7, dag_nodes=64, family="attachment", n_jobs=3000
        )
        engine = StreamingEngine(source, 8, policy=policy, max_jobs=3000)
        assert engine.fingerprint == fingerprint

    def test_rejects_unknown_policy(self):
        source = PoissonSource(rate=0.5, seed=0, dag_nodes=4, n_jobs=2)
        with pytest.raises(ConfigurationError):
            StreamingEngine(source, 2, policy="lifo")

    def test_rejects_nonpositive_m(self):
        source = PoissonSource(rate=0.5, seed=0, dag_nodes=4, n_jobs=2)
        with pytest.raises(ConfigurationError):
            StreamingEngine(source, 0)

    def test_drain_stops_admission(self):
        source = PoissonSource(rate=0.5, seed=3, dag_nodes=8, n_jobs=50)
        engine = StreamingEngine(source, 4)
        for _ in range(5):
            engine.step()
        admitted_at_drain = engine.metrics.jobs_admitted
        engine.begin_drain()
        engine.run()
        assert engine.metrics.jobs_admitted == admitted_at_drain
        assert engine.live_jobs == 0


# ----------------------------------------------------------------------
# Checkpoint file format
# ----------------------------------------------------------------------


class _Killed(BaseException):
    """Stands in for a kill inside a save: no ``except Exception`` stops it."""


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


class TestCheckpointFormat:
    def _snapshot(self):
        source = PoissonSource(rate=0.5, seed=1, dag_nodes=8, n_jobs=10)
        engine = StreamingEngine(source, 3)
        for _ in range(4):
            engine.step()
        return engine.snapshot()

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s.ckpt"
        snapshot = self._snapshot()
        save_checkpoint(path, snapshot)
        assert load_checkpoint(path) == snapshot
        # The framing is fixed, so either version of the writer resumes
        # checkpoints written by the other: magic, length, digest, pickle.
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        assert path.read_bytes() == (
            b"repro-stream-ckpt:1\n"
            + len(payload).to_bytes(8, "little")
            + hashlib.sha256(payload).digest()
            + payload
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self._snapshot())
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self._snapshot())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        path = tmp_path / "s.ckpt"
        first = self._snapshot()
        save_checkpoint(path, first)
        second = dict(first, t=first["t"] + 1)
        save_checkpoint(path, second)
        assert load_checkpoint(path)["t"] == first["t"] + 1
        # The previous file stays as the next save's spare; nothing else.
        spare = tmp_path / "s.ckpt.spare"
        assert sorted(tmp_path.iterdir()) == sorted([path, spare])

    def test_saves_recycle_the_previous_file(self, tmp_path):
        path, spare = tmp_path / "s.ckpt", tmp_path / "s.ckpt.spare"
        save_checkpoint(path, {"t": 0})
        first = os.stat(path)
        save_checkpoint(path, {"t": 1})
        second = os.stat(path)
        assert os.path.samestat(os.stat(spare), first)
        assert not os.path.samestat(second, first)
        save_checkpoint(path, {"t": 2})
        assert os.path.samestat(os.stat(path), first)
        assert os.path.samestat(os.stat(spare), second)
        assert load_checkpoint(path) == {"t": 2}
        assert os.stat(spare).st_mode & 0o777 == 0o600 & ~_umask()

    def test_fsync_order(self, tmp_path, monkeypatch):
        """The data fsync comes before any rename; the directory fsync
        comes after the renames, inside the same save."""
        calls = []

        def record(name):
            real = getattr(os, name)

            def wrapper(*args, **kwargs):
                if name == "fsync":
                    is_dir = stat.S_ISDIR(os.fstat(args[0]).st_mode)
                    calls.append("fsync directory" if is_dir else "fsync data")
                else:
                    calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(os, name, wrapper)

        for name in ("write", "ftruncate", "fsync", "link", "replace", "unlink"):
            record(name)
        path = tmp_path / "s.ckpt"
        saves = []
        for t in range(3):
            save_checkpoint(path, {"t": t})
            saves.append(calls[:])
            calls.clear()
        data = ["write", "ftruncate", "fsync data"]
        assert saves[0] == [*data, "replace", "fsync directory"]  # no file to recycle yet
        swap = [*data, "link", "replace", "replace", "fsync directory"]
        assert saves[1:] == [swap, swap]

    # An interrupted save, as a kill would leave it: the os call raises
    # instead of running ("before") or once it has run ("after"). Calls
    # that only read or open are interrupted before they run.
    _WRITES = ("write", "ftruncate", "fsync", "link", "replace", "unlink")
    _INTERRUPTS = [
        *((call, "before") for call in ("lstat", "open", "pread", *_WRITES)),
        *((call, "after") for call in _WRITES),
    ]

    @pytest.mark.parametrize("earlier", ["1", "2", "3", "2+hold"])
    @pytest.mark.parametrize("call, when", _INTERRUPTS)
    def test_interrupted_save_leaves_old_or_new(self, tmp_path, earlier, call, when):
        """Interrupt the nth call of ``call`` in a save, for every n the
        save makes: ``path`` loads as the old or the new snapshot, the next
        two saves succeed, and only ``path`` and its spare remain.
        ``2+hold`` starts from the link a save killed after ``os.link``
        leaves behind."""
        saves = int(earlier[0])
        real = getattr(os, call)
        nth = 0
        while True:
            nth += 1
            directory = tmp_path / str(nth)
            path = directory / "s.ckpt"
            for t in range(saves):
                save_checkpoint(path, {"t": t})
            if earlier.endswith("+hold"):
                os.link(path, directory / "s.ckpt.hold")
            calls = 0

            def interrupted(*args, **kwargs):
                nonlocal calls
                calls += 1
                if calls == nth and when == "before":
                    raise _Killed
                result = real(*args, **kwargs)
                if calls == nth:
                    raise _Killed
                return result

            setattr(os, call, interrupted)
            try:
                save_checkpoint(path, {"t": saves})
            except _Killed:
                pass
            else:
                break  # every call of this kind has been interrupted once
            finally:
                setattr(os, call, real)
            assert load_checkpoint(path)["t"] in (saves - 1, saves)
            save_checkpoint(path, {"t": saves + 1})
            save_checkpoint(path, {"t": saves + 2})
            assert load_checkpoint(path) == {"t": saves + 2}
            assert sorted(directory.iterdir()) == [path, directory / "s.ckpt.spare"]
        if call != "unlink" or earlier.endswith("+hold"):
            assert nth > 1, f"the save never called os.{call}"

    def test_hard_links_and_symlink_targets_keep_their_bytes(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"t": 0})
        save_checkpoint(path, {"t": 1})
        backup = tmp_path / "backup.ckpt"
        os.link(path, backup)
        kept = backup.read_bytes()
        target = tmp_path / "target.ckpt"
        save_checkpoint(target, {"t": "target"})
        target_bytes = target.read_bytes()
        linked = tmp_path / "linked.ckpt"
        linked.symlink_to(target)
        for t in range(2, 6):
            save_checkpoint(path, {"t": t})
            save_checkpoint(linked, {"t": t})
        assert backup.read_bytes() == kept
        assert load_checkpoint(backup) == {"t": 1}
        assert target.read_bytes() == target_bytes
        assert not linked.is_symlink()
        assert load_checkpoint(path) == load_checkpoint(linked) == {"t": 5}

    @pytest.mark.parametrize("suffix", [".spare", ".hold"])
    @pytest.mark.parametrize("kind", ["text", "directory", "symlink"])
    def test_foreign_spare_or_hold_is_refused(self, tmp_path, suffix, kind):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"t": 0})
        save_checkpoint(path, {"t": 1})
        foreign = tmp_path / ("s.ckpt" + suffix)
        if foreign.exists():
            foreign.unlink()
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not yours")
        if kind == "text":
            foreign.write_bytes(b"user notes")
        elif kind == "directory":
            foreign.mkdir()
            (foreign / "inside.txt").write_bytes(b"kept")
        else:
            foreign.symlink_to(victim)
        before = foreign.lstat()
        with pytest.raises(CheckpointError, match="s.ckpt" + suffix):
            save_checkpoint(path, {"t": 2})
        assert os.path.samestat(foreign.lstat(), before)
        assert victim.read_bytes() == b"not yours"
        if kind == "text":
            assert foreign.read_bytes() == b"user notes"
        elif kind == "directory":
            assert [p.name for p in foreign.iterdir()] == ["inside.txt"]
        else:
            assert os.readlink(foreign) == str(victim)
        assert load_checkpoint(path) == {"t": 1}

    def test_saves_without_hard_links(self, tmp_path, monkeypatch):
        def no_link(*args, **kwargs):
            raise PermissionError("hard links are not supported here")

        monkeypatch.setattr(os, "link", no_link)
        path = tmp_path / "s.ckpt"
        for t in range(4):
            save_checkpoint(path, {"t": t})
            assert load_checkpoint(path) == {"t": t}
        assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestStreamMetrics:
    def test_state_roundtrip(self):
        metrics = StreamMetrics()
        metrics.note_admission(10, 1, 10)
        metrics.note_step(4, 4)
        metrics.record_completion(17)
        metrics.note_retirement(10)
        restored = StreamMetrics.from_state(metrics.state())
        assert restored.summary() == metrics.summary()
        assert restored.state() == metrics.state()

    def test_state_version_checked(self):
        state = StreamMetrics().state()
        state["version"] = 999
        with pytest.raises(ValueError):
            StreamMetrics.from_state(state)

    def test_flow_deciles_monotone(self):
        metrics = StreamMetrics()
        for flow in (1, 2, 3, 5, 9, 17, 33, 100, 1000):
            metrics.record_completion(flow)
        deciles = metrics.flow_deciles()
        assert deciles == sorted(deciles)
        assert deciles[-1] >= 511  # 1000 lands in the 2^10 bucket

    def test_tick_resets_window(self):
        metrics = StreamMetrics()
        metrics.note_step(3, 4)
        metrics.record_completion(5)
        tick = metrics.tick(10, live_jobs=1, live_subjobs=3)
        assert tick["window_utilization"] == 0.75
        second = metrics.tick(20, live_jobs=1, live_subjobs=3)
        assert second["window_utilization"] == 0.0
        assert second["window_throughput"] == 0.0


# ----------------------------------------------------------------------
# serve() in-process (no signals)
# ----------------------------------------------------------------------


class TestServeLoop:
    def test_interrupt_and_resume_reproduce_clean_run(self, tmp_path, capsys):
        import io

        source_kwargs = dict(rate=0.7, seed=6, dag_nodes=10, n_jobs=40)
        clean_out = tmp_path / "clean.json"
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            tick_every=0,
            metrics_out=clean_out,
            quiet=True,
            install_signals=False,
            stall_timeout=None,
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert status == 0

        ckpt = tmp_path / "serve.ckpt"
        resumed_out = tmp_path / "resumed.json"
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            tick_every=0,
            checkpoint_path=ckpt,
            checkpoint_every=10,
            max_steps=25,
            quiet=True,
            install_signals=False,
            stall_timeout=None,
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert status == 130
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            tick_every=0,
            checkpoint_path=ckpt,
            checkpoint_every=10,
            resume=True,
            metrics_out=resumed_out,
            quiet=True,
            install_signals=False,
            stall_timeout=None,
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert status == 0

        clean = json.loads(clean_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        clean.pop("resumed")
        resumed.pop("resumed")
        assert clean == resumed

    def test_ticks_inside_idle_gaps_land_on_their_boundaries(self):
        import io

        out = io.StringIO()
        status = serve(
            PoissonSource(0.02, 3, dag_nodes=4, n_jobs=5),
            4,
            tick_every=10,
            install_signals=False,
            stall_timeout=None,
            out=out,
            err=io.StringIO(),
        )
        assert status == 0
        ticks = [json.loads(line)["t"] for line in out.getvalue().splitlines()[:-1]]
        assert ticks == list(range(10, 10 * len(ticks) + 1, 10))
        assert ticks[-1] > 300  # the stream's idle gaps are crossed

    def test_resume_without_a_checkpoint_says_it_starts_fresh(self, tmp_path):
        import io

        source_kwargs = dict(rate=0.7, seed=6, dag_nodes=10, n_jobs=40)
        common = dict(install_signals=False, stall_timeout=None, tick_every=5)
        fresh = io.StringIO()
        assert serve(PoissonSource(**source_kwargs), 3, out=fresh, err=io.StringIO(), **common) == 0
        ckpt = tmp_path / "absent.ckpt"
        out, err = io.StringIO(), io.StringIO()
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            checkpoint_path=ckpt,
            resume=True,
            out=out,
            err=err,
            **common,
        )
        assert status == 0
        assert f"no checkpoint at {ckpt}; starting fresh" in err.getvalue().splitlines()
        assert out.getvalue() == fresh.getvalue()

    def test_stall_exit_status_and_checkpoint(self, tmp_path):
        import io

        source = PoissonSource(rate=1.0, seed=0, dag_nodes=6, n_jobs=5)
        ckpt = tmp_path / "stalled.ckpt"
        status = serve(
            source,
            4,
            availability=[0] * 50,
            max_zero_commit_steps=3,
            checkpoint_path=ckpt,
            tick_every=0,
            quiet=True,
            install_signals=False,
            stall_timeout=None,
            out=io.StringIO(),
            err=io.StringIO(),
        )
        assert status == 3
        # The stalled state was checkpointed for post-mortem/resume.
        assert load_checkpoint(ckpt)["t"] > 0

    def test_closed_stdout_aborts_with_checkpoint(self, tmp_path):
        """A reader that goes away (``repro serve ... | head``) aborts the
        run: status 130, the checkpoint and ``metrics_out`` are written,
        and resuming reproduces the clean run's summary."""
        import io

        class ClosingPipe(io.StringIO):
            """Accepts two tick lines, then behaves like a closed pipe."""

            def __init__(self):
                super().__init__()
                self.lines = 0

            def write(self, text):
                if self.lines >= 2:
                    raise BrokenPipeError(32, "Broken pipe")
                self.lines += text.count("\n")
                return super().write(text)

        source_kwargs = dict(rate=0.7, seed=6, dag_nodes=10, n_jobs=40)
        common = dict(install_signals=False, stall_timeout=None, tick_every=5)
        clean_out = tmp_path / "clean.json"
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            metrics_out=clean_out,
            out=io.StringIO(),
            err=io.StringIO(),
            **common,
        )
        assert status == 0

        ckpt = tmp_path / "serve.ckpt"
        aborted_out = tmp_path / "aborted.json"
        pipe, err = ClosingPipe(), io.StringIO()
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            checkpoint_path=ckpt,
            checkpoint_every=1000,
            metrics_out=aborted_out,
            out=pipe,
            err=err,
            **common,
        )
        assert status == 130
        assert pipe.getvalue().count("\n") == 2  # nothing after the close
        assert "stdout closed" in err.getvalue()
        aborted = json.loads(aborted_out.read_text())
        assert aborted["status"] == 130
        assert aborted["complete"] is False
        assert load_checkpoint(ckpt)["t"] == aborted["t"]

        resumed_out = tmp_path / "resumed.json"
        status = serve(
            PoissonSource(**source_kwargs),
            3,
            checkpoint_path=ckpt,
            checkpoint_every=1000,
            resume=True,
            metrics_out=resumed_out,
            out=io.StringIO(),
            err=io.StringIO(),
            **common,
        )
        assert status == 0
        clean = json.loads(clean_out.read_text())
        resumed = json.loads(resumed_out.read_text())
        assert clean.pop("resumed") is False
        assert resumed.pop("resumed") is True
        assert clean == resumed
