"""Unit tests for serialization round-trips."""

import json

import numpy as np
import pytest

from repro.core import (
    DAG,
    ConfigurationError,
    Instance,
    Job,
    load_instance_json,
    load_schedule_npz,
    save_instance_json,
    save_schedule_npz,
    simulate,
    star,
)
from repro.core.io import (
    dag_from_dict,
    dag_to_dict,
    instance_from_dict,
    instance_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedulers import FIFOScheduler
from repro.workloads import build_fifo_adversary


@pytest.fixture
def instance(small_tree):
    return Instance([Job(small_tree, 0, "a"), Job(star(3), 2, "b")])


@pytest.fixture
def schedule(instance):
    return simulate(instance, 2, FIFOScheduler())


class TestDictRoundtrips:
    def test_dag(self, small_tree):
        assert dag_from_dict(dag_to_dict(small_tree)) == small_tree

    def test_dag_no_edges(self):
        d = DAG(3)
        assert dag_from_dict(dag_to_dict(d)) == d

    def test_instance(self, instance):
        back = instance_from_dict(instance_to_dict(instance))
        assert len(back) == len(instance)
        for a, b in zip(back, instance):
            assert a.dag == b.dag
            assert a.release == b.release
            assert a.label == b.label

    def test_schedule(self, schedule):
        back = schedule_from_dict(schedule_to_dict(schedule))
        assert back.m == schedule.m
        assert back.max_flow == schedule.max_flow
        for a, b in zip(back.completion, schedule.completion):
            assert np.array_equal(a, b)
        back.validate()

    def test_dict_is_json_safe(self, schedule):
        import json

        json.dumps(schedule_to_dict(schedule))


class TestFileRoundtrips:
    def test_instance_json(self, instance, tmp_path):
        path = tmp_path / "inst.json"
        save_instance_json(instance, path)
        back = load_instance_json(path)
        assert back.releases.tolist() == instance.releases.tolist()
        assert [j.label for j in back] == [j.label for j in instance]

    def test_schedule_npz(self, schedule, tmp_path):
        path = tmp_path / "sched.npz"
        save_schedule_npz(schedule, path)
        back = load_schedule_npz(path)
        assert back.m == schedule.m
        assert back.flows.tolist() == schedule.flows.tolist()
        back.validate()

    def test_npz_roundtrip_of_adversarial_family(self, tmp_path):
        adv = build_fifo_adversary(4, n_jobs=6)
        path = tmp_path / "adv.npz"
        save_schedule_npz(adv.fifo_schedule, path)
        back = load_schedule_npz(path)
        assert back.max_flow == adv.fifo_max_flow
        for a, b in zip(back.completion, adv.fifo_schedule.completion):
            assert np.array_equal(a, b)

    def test_npz_accepts_str_paths(self, schedule, tmp_path):
        path = str(tmp_path / "s.npz")
        save_schedule_npz(schedule, path)
        assert load_schedule_npz(path).max_flow == schedule.max_flow


class TestNonIntegerInput:
    """A non-integer count, release or endpoint makes a corrupt file, not
    a truncated instance: ``{"release": 2.7, "dag": {"n": 3, "edges": [[0,
    1.5], [1, "2"]]}}`` is not release 2 with edges (0, 1), (1, 2)."""

    @pytest.mark.parametrize(
        "job,bad",
        [
            ({"release": 2.7, "dag": {"n": 3, "edges": [[0, 1], [1, 2]]}}, "2.7"),
            ({"release": 2, "dag": {"n": 3, "edges": [[0, 1.5], [1, 2]]}}, "1.5"),
            ({"release": 2, "dag": {"n": 3, "edges": [[0, 1], [1, "2"]]}}, "'2'"),
            ({"release": 2, "dag": {"n": 3.0, "edges": [[0, 1], [1, 2]]}}, "3.0"),
        ],
        ids=["release", "float-endpoint", "string-endpoint", "float-n"],
    )
    def test_load_instance_json_rejects(self, tmp_path, job, bad):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"jobs": [job]}))
        with pytest.raises(ConfigurationError, match=rf"corrupt instance file .*got {bad}"):
            load_instance_json(path)
