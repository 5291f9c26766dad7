"""The bench-baseline tool: save / compare round trip on a stub bench."""

import importlib.util
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "save_baseline.py"


@pytest.fixture
def tool(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("save_baseline", _SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def tiny():
        from repro.core import Instance, Job
        from repro.schedulers import ArbitraryTieBreak, FIFOScheduler
        from repro.workloads import layered_tree

        inst = Instance([Job(layered_tree([4] * 10, seed=0), 0, "t")])
        return inst, (lambda: FIFOScheduler(ArbitraryTieBreak())), 4

    def tiny_sweep():
        def run():
            return 40

        return run

    def tiny_lint(rounds):
        # Fixed row: exercises the lint-bench loop and the generic compare
        # path without timing a real lint run inside a unit test.
        return {
            "subjobs": 5,
            "best_seconds": 0.001,
            "subjobs_per_sec": 5000.0,
            "cold_seconds": 0.01,
            "warm_speedup": 10.0,
        }

    monkeypatch.setattr(mod, "MICROBENCHES", {"tiny": tiny})
    monkeypatch.setattr(mod, "SWEEP_BENCHES", {"tiny_sweep": (tiny_sweep, 1)})
    # Same (factory, rounds) shape as SWEEP_BENCHES; tiny_sweep already
    # exercises that loop, so keep the real serve soaks and the adversary
    # build out of a unit test.
    monkeypatch.setattr(mod, "STREAM_BENCHES", {})
    monkeypatch.setattr(mod, "BUILD_BENCHES", {})
    monkeypatch.setattr(mod, "LINT_BENCHES", {"tiny_lint": tiny_lint})
    monkeypatch.setattr(mod, "BASELINE_PATH", tmp_path / "BENCH_engine.json")
    return mod


class TestSaveBaseline:
    def test_compare_without_baseline_errors(self, tool, capsys):
        assert tool.main(["--compare"]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_save_then_compare_passes(self, tool, capsys):
        assert tool.main(["--rounds", "1"]) == 0
        saved = json.loads(tool.BASELINE_PATH.read_text())
        assert saved["tiny"]["subjobs"] == 40
        assert saved["tiny"]["subjobs_per_sec"] > 0
        # Shrink the recorded throughputs so timing noise at this toy scale
        # cannot trip the 20% tolerance: we test the verdict, not the timer.
        for row in saved.values():
            row["subjobs_per_sec"] /= 10
        tool.BASELINE_PATH.write_text(json.dumps(saved))
        assert tool.main(["--compare", "--rounds", "1"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_large_regression_fails(self, tool, capsys):
        assert tool.main(["--rounds", "1"]) == 0
        saved = json.loads(tool.BASELINE_PATH.read_text())
        saved["tiny"]["subjobs_per_sec"] *= 1e6  # impossible baseline
        tool.BASELINE_PATH.write_text(json.dumps(saved))
        assert tool.main(["--compare", "--rounds", "1"]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_new_bench_without_baseline_entry_is_tolerated(self, tool, capsys):
        assert tool.main(["--rounds", "1"]) == 0
        saved = json.loads(tool.BASELINE_PATH.read_text())
        tool.BASELINE_PATH.write_text(json.dumps({"other": saved["tiny"]}))
        assert tool.main(["--compare", "--rounds", "1"]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_only_unknown_name_errors(self, tool, capsys):
        assert tool.main(["--only", "nope"]) == 2
        assert "unknown bench name" in capsys.readouterr().err

    def test_only_selects_and_save_merges(self, tool, capsys, monkeypatch):
        # This test is about which benches run and which rows are kept,
        # not about throughput. One-round timings of the sub-millisecond
        # stub flip the 20% tolerance on a busy host, so a fixed 1 ms tick
        # per clock read gives every timed run the same duration.
        ticks = itertools.count()
        monkeypatch.setattr(
            tool, "time", SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3)
        )
        assert tool.main(["--rounds", "1"]) == 0
        full = json.loads(tool.BASELINE_PATH.read_text())
        assert set(full) == {"tiny", "tiny_sweep", "tiny_lint"}
        # Partial re-record keeps the un-timed benches' entries intact.
        assert tool.main(["--rounds", "1", "--only", "tiny_sweep"]) == 0
        merged = json.loads(tool.BASELINE_PATH.read_text())
        assert set(merged) == {"tiny", "tiny_sweep", "tiny_lint"}
        assert merged["tiny"] == full["tiny"]
        # Partial compare only times (and reports) the selected bench.
        capsys.readouterr()
        assert tool.main(["--compare", "--rounds", "1", "--only", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert "tiny_sweep" not in out and "tiny_lint" not in out
