"""Tests for the supervised executor (`repro.experiments.supervisor`) and
the fault-recovery behavior of the shared process pool."""

import os
import re
import time

import pytest

from repro.experiments import (
    SupervisorConfig,
    TaskTimeoutError,
    run_supervised,
    shared_pool,
    shutdown_shared_pool,
)
from repro.core.io import load_framed_pickle
from repro.experiments.supervisor import _JOURNAL_MAGIC, _journal_path

#: Retry policy with near-zero backoff so failure tests stay fast.
FAST = SupervisorConfig(max_retries=3, backoff_base=0.001, backoff_cap=0.002)


# ----------------------------------------------------------------------
# Module-level worker functions (the fork start method ships these to
# pool workers by reference). Fault tasks are gated on a sentinel file so
# they misbehave exactly once and succeed on retry.
# ----------------------------------------------------------------------


def _double(x):
    return 2 * x


def _fail_unconditionally(x):
    raise RuntimeError(f"task {x} always fails")


def _crash_once(task):
    sentinel, x = task
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)  # hard worker death -> BrokenProcessPool in the parent
    return 2 * x


def _crash_always(task):
    os._exit(1)


def _crash_always_local(task):
    _sentinel, x = task
    return 2 * x


def _hang_once(task):
    sentinel, x = task
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(60)  # far beyond the test's task_timeout
    return 2 * x


def _hang_always(task):
    time.sleep(60)


def _raise_interrupt(task):
    sentinel, x = task
    if x == "boom" and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        raise KeyboardInterrupt
    return x


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_shared_pool()
    yield
    shutdown_shared_pool()


class TestConfigValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            SupervisorConfig(task_timeout=0)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError):
            SupervisorConfig(max_retries=-1)

    def test_rejects_out_of_range_jitter(self):
        with pytest.raises(ValueError):
            SupervisorConfig(jitter=2.0)


class TestSerialPath:
    def test_results_align_with_tasks(self):
        out = run_supervised(_double, [3, 1, 4], n_workers=1)
        assert out.results == [6, 2, 8]
        assert not out.interrupted and out.retries == 0

    def test_retries_then_succeeds(self, tmp_path):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return x

        out = run_supervised(flaky, [9], n_workers=1, config=FAST)
        assert out.results == [9]
        assert out.retries == 2

    def test_exhausted_retries_reraise_task_exception(self):
        with pytest.raises(RuntimeError, match="always fails"):
            run_supervised(
                _fail_unconditionally, [1], n_workers=1, config=FAST
            )


class TestCheckpointJournal:
    def test_resume_serves_journaled_results(self, tmp_path):
        keys = ["k0", "k1"]
        out = run_supervised(
            _double, [1, 2], n_workers=1, keys=keys, checkpoint_dir=tmp_path
        )
        assert out.results == [2, 4] and out.resumed == 0

        # A worker that would fail proves resumed entries skip execution.
        out2 = run_supervised(
            _fail_unconditionally, [1, 2], n_workers=1,
            keys=keys, checkpoint_dir=tmp_path,
        )
        assert out2.results == [2, 4]
        assert out2.resumed == 2 and out2.resumed_indices == [0, 1]

    def test_resume_false_ignores_journal(self, tmp_path):
        keys = ["a"]
        run_supervised(
            _double, [5], n_workers=1, keys=keys, checkpoint_dir=tmp_path
        )
        out = run_supervised(
            lambda x: -x, [5], n_workers=1,
            keys=keys, checkpoint_dir=tmp_path, resume=False,
        )
        assert out.results == [-5] and out.resumed == 0
        # ... and the journal entry was overwritten with the new value.
        out2 = run_supervised(
            _fail_unconditionally, [5], n_workers=1,
            keys=keys, checkpoint_dir=tmp_path,
        )
        assert out2.results == [-5]

    def test_corrupt_journal_entry_is_recomputed(self, tmp_path):
        keys = ["c"]
        run_supervised(
            _double, [7], n_workers=1, keys=keys, checkpoint_dir=tmp_path
        )
        path = _journal_path(tmp_path, "c")
        path.write_bytes(b"not a pickle")
        with pytest.warns(RuntimeWarning, match=re.escape(str(path))):
            out = run_supervised(
                _double, [7], n_workers=1, keys=keys, checkpoint_dir=tmp_path
            )
        assert out.results == [14] and out.resumed == 0

        # A low bit flipped mid-entry, inside the pickled string: the bytes
        # still unpickle, to another string, so only the digest can tell.
        task = "ab" * 64
        run_supervised(_double, [task], n_workers=1, keys=["f"], checkpoint_dir=tmp_path)
        path = _journal_path(tmp_path, "f")
        blob = path.read_bytes()
        mid = len(blob) // 2
        path.write_bytes(blob[:mid] + bytes([blob[mid] ^ 0x01]) + blob[mid + 1 :])
        with pytest.warns(RuntimeWarning, match=re.escape(str(path))):
            out = run_supervised(
                _double, [task], n_workers=1, keys=["f"], checkpoint_dir=tmp_path
            )
        assert out.results == [task * 2] and out.resumed == 0

    def test_truncated_journal_entry_is_recomputed(self, tmp_path):
        keys = ["t"]
        run_supervised(
            _double, [8], n_workers=1, keys=keys, checkpoint_dir=tmp_path
        )
        path = _journal_path(tmp_path, "t")
        path.write_bytes(path.read_bytes()[:2])
        out = run_supervised(
            _double, [8], n_workers=1, keys=keys, checkpoint_dir=tmp_path
        )
        assert out.results == [16] and out.resumed == 0

    def test_journal_writes_are_atomic(self, tmp_path):
        run_supervised(
            _double, [1], n_workers=1, keys=["k"], checkpoint_dir=tmp_path
        )
        leftovers = list(tmp_path.glob("*.tmp"))
        assert leftovers == []
        (entry,) = tmp_path.glob("*.ckpt")
        assert load_framed_pickle(entry, _JOURNAL_MAGIC) == 2

    def test_unpicklable_result_warns_and_is_kept(self, tmp_path):
        # Pickling a local function raises AttributeError; the task still
        # succeeded, so it is neither retried nor failed.
        def make_closure(x):
            def inner():
                return 3 * x

            return inner

        with pytest.warns(RuntimeWarning, match="journal write failed"):
            out = run_supervised(
                make_closure, [1], n_workers=1, config=FAST,
                keys=["k"], checkpoint_dir=tmp_path,
            )
        assert out.results[0]() == 3
        assert out.retries == 0
        assert list(tmp_path.iterdir()) == []  # no entry, no temporary file

    def test_checkpoint_requires_keys(self, tmp_path):
        with pytest.raises(ValueError, match="keys"):
            run_supervised(
                _double, [1], n_workers=1, checkpoint_dir=tmp_path
            )

    def test_key_count_must_match_tasks(self):
        with pytest.raises(ValueError, match="keys for"):
            run_supervised(_double, [1, 2], n_workers=1, keys=["only-one"])


class TestParallelFaults:
    def test_parallel_happy_path(self):
        out = run_supervised(_double, list(range(5)), n_workers=2)
        assert out.results == [0, 2, 4, 6, 8]
        assert out.pool_rebuilds == 0

    def test_worker_crash_rebuilds_pool_and_retries(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        tasks = [(sentinel, x) for x in range(4)]
        out = run_supervised(_crash_once, tasks, n_workers=2, config=FAST)
        assert out.results == [0, 2, 4, 6]
        assert out.pool_rebuilds >= 1
        assert out.retries >= 1

    def test_hung_task_times_out_and_recovers(self, tmp_path):
        sentinel = str(tmp_path / "hung")
        config = SupervisorConfig(
            task_timeout=1.0, max_retries=2,
            backoff_base=0.001, backoff_cap=0.002,
        )
        tasks = [(sentinel, x) for x in range(3)]
        start = time.monotonic()
        out = run_supervised(_hang_once, tasks, n_workers=2, config=config)
        elapsed = time.monotonic() - start
        assert out.results == [0, 2, 4]
        assert out.pool_rebuilds >= 1
        assert elapsed < 30  # recovered by killing the worker, not waiting

    def test_timeout_exhaustion_raises_task_timeout_error(self, tmp_path):
        config = SupervisorConfig(
            task_timeout=0.5, max_retries=0,
            backoff_base=0.001, backoff_cap=0.002,
        )
        with pytest.raises(TaskTimeoutError):
            run_supervised(_hang_always, [1], n_workers=2, config=config)

    def test_degrades_to_serial_after_rebuild_budget(self, tmp_path):
        config = SupervisorConfig(
            max_retries=5, max_pool_rebuilds=1,
            backoff_base=0.001, backoff_cap=0.002,
        )
        tasks = [(str(tmp_path / "s"), x) for x in range(3)]
        out = run_supervised(
            _crash_always, tasks, n_workers=2, config=config,
            local_fn=_crash_always_local,
        )
        assert out.degraded_to_serial
        assert out.results == [0, 2, 4]
        assert out.pool_rebuilds == config.max_pool_rebuilds + 1

    def test_keyboard_interrupt_returns_partial_results(self, tmp_path):
        sentinel = str(tmp_path / "interrupted")
        tasks = [(sentinel, "ok-1"), (sentinel, "boom"), (sentinel, "ok-2")]
        out = run_supervised(_raise_interrupt, tasks, n_workers=2)
        assert out.interrupted
        assert out.results[0] == "ok-1"
        assert out.results[1] is None

    def test_interrupt_preserves_journal_for_resume(self, tmp_path):
        sentinel = str(tmp_path / "resume")
        ckpt = tmp_path / "journal"
        keys = ["r0", "r1", "r2"]
        tasks = [(sentinel, "ok-1"), (sentinel, "boom"), (sentinel, "ok-2")]
        out = run_supervised(
            _raise_interrupt, tasks, n_workers=2,
            keys=keys, checkpoint_dir=ckpt,
        )
        assert out.interrupted
        # The sentinel now exists, so "boom" succeeds on the resumed run;
        # journaled tasks are served from disk.
        out2 = run_supervised(
            _raise_interrupt, tasks, n_workers=2,
            keys=keys, checkpoint_dir=ckpt,
        )
        assert not out2.interrupted
        assert out2.results == ["ok-1", "boom", "ok-2"]
        assert out2.resumed >= 1


class TestSharedPoolRecovery:
    def test_broken_pool_is_replaced_on_next_request(self):
        pool = shared_pool(2)
        with pytest.raises(BaseException):
            pool.submit(_crash_always, (None, 0)).result()
        fresh = shared_pool(2)
        assert fresh is not pool
        assert fresh.submit(_double, 21).result() == 42

    def test_externally_shutdown_pool_is_replaced(self):
        pool = shared_pool(2)
        pool.shutdown(wait=True)
        fresh = shared_pool(2)
        assert fresh is not pool
        assert fresh.submit(_double, 1).result() == 2

    def test_force_shutdown_reclaims_hung_worker(self, tmp_path):
        pool = shared_pool(1)
        pool.submit(_hang_always, 0)
        time.sleep(0.3)  # let the worker enter its sleep
        start = time.monotonic()
        shutdown_shared_pool(force=True)
        assert time.monotonic() - start < 30
        # The shared-pool entry point hands out a fresh, working pool.
        assert shared_pool(1).submit(_double, 2).result() == 4

    def test_atexit_hook_registered_once(self):
        import atexit

        from repro.experiments import pool as pool_mod

        shared_pool(1)
        assert pool_mod._atexit_registered
        # Re-registration is idempotent across pool rebuilds.
        shutdown_shared_pool()
        shared_pool(1)
        assert pool_mod._atexit_registered
        atexit.unregister(shutdown_shared_pool)  # avoid double unregister noise
        atexit.register(shutdown_shared_pool)
