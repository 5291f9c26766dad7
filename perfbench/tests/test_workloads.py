"""Tiny-size runs of each workload, their checks, and the command's contract."""

import json
import os
import pickle
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import layers
from perfbench.harness import END_TO_END_UNITS, run_benchmark
from perfbench.workloads import SWEEP_POLICIES, Serve, Sweep, Tables
from repro.core import simulate
from repro.experiments import EXPERIMENTS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def tiny(name, tmp_path):
    if name == "tables":
        # E7 dispatches select(), E12 steps simulate_batch: both path checks hold.
        return Tables(experiments=["E1", "E7", "E12"])
    if name == "sweep":
        return Sweep(trials=6, nodes=30, sample=2)
    return Serve(str(tmp_path), jobs=40, max_nodes=64, every=50)


def measure(workload, trace, seed=1, **kwargs):
    try:
        return run_benchmark(
            workload, seed, 0.0, trace, t0=time.perf_counter(), setup_repeats=2, min_ops=2, **kwargs
        )
    finally:
        workload.close()


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == ["tables", "serve"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.metric_units()
    for metric in BENCHMARK["per_layer"]:
        higher = metric["name"] in layers.HIGHER_IS_BETTER
        assert metric["better"] == ("higher" if higher else "lower")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", ["tables", "sweep", "serve"])
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    result, diagnostics = measure(tiny(name, tmp_path), trace=False)
    assert result["correct"], diagnostics["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["tables", "sweep", "serve"])
def test_tiny_traced_run_reports_every_per_layer_metric(name, tmp_path):
    trace_path = str(tmp_path / "trace.jsonl")
    result, diagnostics = measure(tiny(name, tmp_path), trace=True, trace_path=trace_path)
    assert result["correct"], diagnostics["problems"]
    assert set(result["metrics"]) == set(layers.metric_units())
    assert diagnostics["traced_ops"] == [1, 3]
    with open(trace_path, encoding="utf-8") as handle:
        names = {json.loads(line)["name"] for line in handle}
    assert {"bench.setup", "bench.op"} <= names
    values = {k: v["value"] for k, v in result["metrics"].items()}
    served_by = {
        "tables": "schedulers.select.calls",
        "sweep": "core.dag.height.calls",
        "serve": "streaming.checkpoint.calls",
    }
    assert values[served_by[name]] > 0


def test_tables_runs_the_registered_seeds_whatever_the_seed():
    # Some smoke claims hold only at some seeds (E13's fails at 17).
    assert pickle.loads(Tables().setup(17)) == list(EXPERIMENTS)


def test_a_second_seed_passes_every_check(tmp_path):
    result, diagnostics = measure(tiny("serve", tmp_path), trace=False, seed=2)
    assert result["correct"], diagnostics["problems"]


class WarmSweep(Sweep):
    """Hands every op inputs whose lazy analyses are already cached."""

    def load(self, blob):
        corpus = pickle.loads(blob)
        for instance in corpus:
            instance.flat_graph
            for job in instance:
                job.dag.height
        return corpus


def test_cold_input_guard_fails_ops_on_warm_inputs():
    result, diagnostics = measure(WarmSweep(trials=4, nodes=20, sample=2), trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any("not cold" in p for p in diagnostics["problems"]["0"])


class SerialSweep(Sweep):
    """Runs each trial alone, so the lockstep batch path serves nothing."""

    def run(self, corpus):
        return {
            name: [simulate(inst, self.M, factory()) for inst in corpus]
            for name, factory in SWEEP_POLICIES.items()
        }


def test_path_check_fails_ops_the_batch_path_did_not_serve():
    result, diagnostics = measure(SerialSweep(trials=4, nodes=20, sample=2), trace=False)
    assert not result["correct"]
    assert diagnostics["problems"]["0"] == ["path: no lockstep batch step served the sweep"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    args = ["--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
