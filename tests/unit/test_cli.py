"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _parse_param, main


class TestParseParam:
    def test_int(self):
        assert _parse_param("m=8") == ("m", 8)

    def test_float(self):
        assert _parse_param("rate=0.5") == ("rate", 0.5)

    def test_string(self):
        assert _parse_param("mode=fast") == ("mode", "fast")

    def test_tuple(self):
        assert _parse_param("ms=8,16,32") == ("ms", (8, 16, 32))

    def test_missing_equals(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_param("nonsense")


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_e1(self, capsys):
        assert main(["run", "E1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "[PASS]" in out

    def test_run_with_params(self, capsys):
        assert main(["run", "E5", "--param", "width=4", "--param", "trials=1"]) == 0
        assert "Lemma 5.5" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 4.2" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_serve_resume_requires_checkpoint(self, capsys):
        assert main(["serve", "4", "--jobs", "3", "--resume"]) == 2
        captured = capsys.readouterr()
        assert "--checkpoint" in captured.err
        assert captured.out == ""


class TestReport:
    def test_report_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--only", "E1", "--output", str(out)]) == 0
        text = out.read_text()
        assert "## E1" in text and "[PASS]" in text
        assert "all claims hold" in capsys.readouterr().out

    def test_report_filters_unknown_ids(self, tmp_path):
        out = tmp_path / "r.md"
        assert main(["report", "--only", "E999", "--output", str(out)]) == 0
        assert "## " not in out.read_text()


class TestScale:
    def test_run_with_smoke_scale(self, capsys):
        assert main(["run", "E5", "--scale", "smoke"]) == 0
        assert "Lemma 5.5" in capsys.readouterr().out

    def test_scale_param_override_wins(self, capsys):
        # smoke preset sets trials=2; the explicit param overrides it.
        assert main(["run", "E5", "--scale", "smoke", "--param", "trials=1"]) == 0

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E5", "--scale", "enormous"])


class TestInspect:
    def _save(self, tmp_path):
        from repro.core import Instance, Job, chain, save_schedule_npz, simulate, star
        from repro.schedulers import FIFOScheduler

        inst = Instance([Job(star(5), 0, "a"), Job(chain(4), 2, "b")])
        schedule = simulate(inst, 3, FIFOScheduler())
        path = tmp_path / "s.npz"
        save_schedule_npz(schedule, path)
        return str(path), schedule

    def test_inspect_prints_metrics(self, tmp_path, capsys):
        path, schedule = self._save(tmp_path)
        assert main(["inspect", path]) == 0
        out = capsys.readouterr().out
        assert "max_flow" in out
        assert str(schedule.max_flow) in out

    def test_inspect_gantt_window(self, tmp_path, capsys):
        path, _ = self._save(tmp_path)
        assert main(["inspect", path, "--gantt", "--window", "1:3"]) == 0
        out = capsys.readouterr().out
        assert "p1" in out

    def test_inspect_missing_file(self, tmp_path):
        with pytest.raises(Exception):
            main(["inspect", str(tmp_path / "nope.npz")])
