"""Failure-injection tests: corrupted inputs, misbehaving schedulers,
checker negatives — the library must fail loudly and precisely."""

import re

import numpy as np
import pytest

from repro.core import (
    ConfigurationError,
    Instance,
    Job,
    ReproError,
    Schedule,
    ScheduleError,
    Scheduler,
    SchedulerProtocolError,
    antichain,
    chain,
    load_instance_json,
    load_schedule_npz,
    save_instance_json,
    save_schedule_npz,
    simulate,
    star,
)
from repro.schedulers import FIFOScheduler
from repro.streaming import CheckpointError, StreamingEngine, load_checkpoint, save_checkpoint
from repro.workloads import batched_instance
from repro.workloads.arrivals import PoissonSource


class TestCheckerNegatives:
    def test_lemma_6_5_detects_violation(self):
        """A hand-built schedule that parks the oldest job way too long
        must fail Lemma 6.5's clause (1)."""
        from repro.analysis import check_lemma_6_5

        opt = 2
        # 40 batches: enough that i - log tau > 0 (tau(1, 2) = 4 -> log 2).
        dags = [chain(2) for _ in range(40)]
        inst = batched_instance(dags, opt)
        m = 1
        # Schedule every job immediately except job 0, which is parked to
        # the very end (flow 80+). This violates the induction's clause (1)
        # at some batch time.
        completions = []
        horizon = 40 * opt
        for i, job in enumerate(inst):
            c = np.zeros(2, dtype=np.int64)
            if i == 0:
                c[:] = [horizon + 1, horizon + 2]
            else:
                c[:] = [job.release + 1, job.release + 2]
            completions.append(c)
        sched = Schedule(inst, m, completions)
        sched.validate()
        assert not check_lemma_6_5(sched, opt).ok
        # It is also NOT a FIFO schedule, consistent with the lemma failing
        # (Lemma 6.4 may or may not fail; 6.5's clause (1) must).

    def test_head_tail_reports_ragged_interior(self):
        from repro.analysis import head_tail_shape

        inst = Instance([Job(antichain(7), 0)])
        # widths: 2, 1, 2, 2 — interior dip at t=2.
        comp = np.array([1, 1, 2, 3, 3, 4, 4])
        sched = Schedule(inst, 2, [comp])
        shape = head_tail_shape(sched, 2)
        assert shape.last_idle_step == 2
        assert shape.head_length == 2

    def test_fairness_requires_complete_schedule(self):
        from repro.analysis import fairness_report
        from repro.core import ScheduleError

        inst = Instance([Job(chain(2), 0)])
        partial = Schedule(inst, 1, [np.array([1, 0])])
        with pytest.raises(ScheduleError):
            fairness_report(partial)


class TestCorruptArchives:
    def test_npz_with_wrong_completion_shape(self, tmp_path):
        inst = Instance([Job(star(3), 0)])
        sched = simulate(inst, 2, FIFOScheduler())
        path = tmp_path / "x.npz"
        save_schedule_npz(sched, path)
        # Corrupt: truncate one completion array.
        data = dict(np.load(path))
        data["job0_completion"] = data["job0_completion"][:-1]
        np.savez_compressed(path, **data)
        with pytest.raises(ScheduleError, match="corrupt schedule archive"):
            load_schedule_npz(path)

    def test_instance_json_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="corrupt instance file"):
            load_instance_json(path)


def _write_schedule(path):
    inst = Instance([Job(star(3), 0), Job(chain(4), 1)])
    save_schedule_npz(simulate(inst, 2, FIFOScheduler()), path)


def _write_instance(path):
    save_instance_json(Instance([Job(star(3), 0), Job(chain(4), 1)]), path)


def _write_checkpoint(path):
    engine = StreamingEngine(PoissonSource(rate=0.5, seed=1, dag_nodes=8, n_jobs=10), 3)
    engine.step()
    save_checkpoint(path, engine.snapshot())


def _flip_middle_byte(blob):
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] ^ 0x80]) + blob[mid + 1 :]


#: Input file format -> (file name, writer, loader, named error).
FILE_FORMATS = {
    "schedule-archive": ("s.npz", _write_schedule, load_schedule_npz, ScheduleError),
    "instance-json": ("i.json", _write_instance, load_instance_json, ConfigurationError),
    "checkpoint": ("c.ckpt", _write_checkpoint, load_checkpoint, CheckpointError),
}
CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "empty": lambda blob: b"",
    "flipped-byte": _flip_middle_byte,
    "text": lambda blob: b"not a repro file\n",
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("fmt", sorted(FILE_FORMATS))
def test_corrupt_file_raises_named_error(tmp_path, fmt, corruption):
    """Bad bytes at a file boundary raise the format's ``ReproError``
    subclass, naming the file, never a parser's own exception."""
    name, write, load, error = FILE_FORMATS[fmt]
    path = tmp_path / name
    write(path)
    path.write_bytes(CORRUPTIONS[corruption](path.read_bytes()))
    with pytest.raises(ReproError, match=re.escape(str(path))) as info:
        load(path)
    assert type(info.value) is error


@pytest.mark.parametrize("fmt", sorted(FILE_FORMATS))
def test_missing_file_raises_named_error(tmp_path, fmt):
    """A path that does not exist raises the format's ``ReproError``
    subclass naming it, not ``FileNotFoundError``."""
    name, _, load, error = FILE_FORMATS[fmt]
    path = tmp_path / name
    with pytest.raises(ReproError, match=re.escape(str(path))) as info:
        load(path)
    assert type(info.value) is error


class MidRunCrasher(Scheduler):
    """Behaves for two steps, then selects garbage."""

    def reset(self, instance, m):
        self.ready = set()
        self.steps = 0

    def on_nodes_ready(self, t, job_id, nodes):
        self.ready.update((job_id, int(v)) for v in nodes)

    def select(self, t, capacity):
        self.steps += 1
        if self.steps > 2:
            return [(0, 10_000)]
        chosen = sorted(self.ready)[:capacity]
        self.ready.difference_update(chosen)
        return chosen


class TestMisbehavingSchedulers:
    def test_mid_run_protocol_violation_caught(self):
        inst = Instance([Job(chain(10), 0)])
        with pytest.raises(SchedulerProtocolError, match="non-ready"):
            simulate(inst, 1, MidRunCrasher())

    def test_scheduler_exception_propagates(self):
        class Boom(Scheduler):
            def reset(self, instance, m):
                pass

            def select(self, t, capacity):
                raise RuntimeError("scheduler bug")

        inst = Instance([Job(chain(2), 0)])
        with pytest.raises(RuntimeError, match="scheduler bug"):
            simulate(inst, 1, Boom())

    def test_negative_job_id_rejected(self):
        class NegativeJob(Scheduler):
            def reset(self, instance, m):
                pass

            def select(self, t, capacity):
                return [(-1, 0)]

        inst = Instance([Job(chain(2), 0)])
        with pytest.raises(SchedulerProtocolError):
            simulate(inst, 1, NegativeJob())


class TestConfigErrorsEverywhere:
    """Constructor validation is uniform across the library."""

    def test_exceptions_share_base(self):
        from repro.core import ReproError

        for exc in (ConfigurationError, SchedulerProtocolError):
            assert issubclass(exc, ReproError)

    def test_infeasible_error_collects_violations(self):
        from repro.core import InfeasibleScheduleError

        inst = Instance([Job(chain(3), 0)])
        bad = Schedule(inst, 1, [np.array([3, 2, 1])])
        with pytest.raises(InfeasibleScheduleError) as err:
            bad.validate()
        assert err.value.violations
        assert "precedence" in str(err.value)
