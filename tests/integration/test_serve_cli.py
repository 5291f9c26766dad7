"""End-to-end tests of the ``repro serve`` CLI as a real subprocess.

A scaled-down version of the CI soak (``scripts/serve_soak.py``): run a
seeded finite Poisson stream to completion, run it again with
checkpoints and ``SIGKILL`` it mid-stream, resume with ``--resume``, and
assert the resumed run's final metrics JSON equals the clean run's
bit-for-bit. Also covers tick emission, graceful SIGTERM drain, and the
exit-status contract.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

STREAM_ARGS = [
    "4",
    "--source",
    "poisson",
    "--rate",
    "0.6",
    "--dag-nodes",
    "10",
    "--seed",
    "123",
    "--jobs",
    "400",
    "--tick-every",
    "0",
    "--quiet",
]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_serve(*argv: str, timeout: float = 300.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "serve", *argv],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=REPO_ROOT,
        timeout=timeout,
    )


def test_sigkill_then_resume_is_bit_identical(tmp_path):
    clean_json = tmp_path / "clean.json"
    result = run_serve(*STREAM_ARGS, "--metrics-out", str(clean_json))
    assert result.returncode == 0, result.stderr

    ckpt = tmp_path / "serve.ckpt"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *STREAM_ARGS,
            "--checkpoint",
            str(ckpt),
            "--checkpoint-every",
            "25",
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline and proc.poll() is None:
        if ckpt.exists():
            break
        time.sleep(0.05)
    assert ckpt.exists(), "no checkpoint appeared before the deadline"
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL

    resumed_json = tmp_path / "resumed.json"
    result = run_serve(
        *STREAM_ARGS,
        "--checkpoint",
        str(ckpt),
        "--resume",
        "--metrics-out",
        str(resumed_json),
    )
    assert result.returncode == 0, result.stderr
    assert "resumed from" in result.stderr

    clean = json.loads(clean_json.read_text())
    resumed = json.loads(resumed_json.read_text())
    assert clean.pop("resumed") is False
    assert resumed.pop("resumed") is True
    assert clean == resumed


def test_closed_stdout_exits_130_without_traceback(tmp_path):
    """`repro serve ... | head -n 1`: once the reader closes the pipe the
    run aborts with status 130, saves its checkpoint and metrics, and
    prints no traceback or exit-time "Exception ignored" line."""
    args = [a for a in STREAM_ARGS if a != "--quiet"]
    # A tick every step writes far more than a pipe buffer holds, so the
    # run cannot finish before the reader leaves.
    args[args.index("--tick-every") + 1] = "1"
    ckpt = tmp_path / "pipe.ckpt"
    out = tmp_path / "pipe.json"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *args,
            "--checkpoint",
            str(ckpt),
            "--metrics-out",
            str(out),
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    first = proc.stdout.readline()  # the `head -n 1` reader
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 130, stderr
    assert json.loads(first)["t"] == 1
    assert "Traceback" not in stderr
    assert "Exception ignored" not in stderr
    assert "stdout closed" in stderr
    assert ckpt.exists()
    assert json.loads(out.read_text())["status"] == 130


def test_max_steps_interrupt_exit_status(tmp_path):
    ckpt = tmp_path / "int.ckpt"
    result = run_serve(
        *STREAM_ARGS, "--checkpoint", str(ckpt), "--max-steps", "10"
    )
    assert result.returncode == 130
    assert ckpt.exists()
    assert "checkpoint saved" in result.stderr


def test_ticks_are_json_lines(tmp_path):
    args = [a for a in STREAM_ARGS if a != "--quiet"]
    # Replace the tick-every value (args are ["--tick-every", "0", ...]).
    args[args.index("--tick-every") + 1] = "40"
    result = run_serve(*args)
    assert result.returncode == 0, result.stderr
    lines = [ln for ln in result.stdout.splitlines() if ln.strip()]
    assert len(lines) >= 2  # at least one tick plus the final summary
    ticks = [json.loads(ln) for ln in lines[:-1]]
    assert all("window_throughput" in tick for tick in ticks)
    assert [tick["t"] for tick in ticks] == sorted(tick["t"] for tick in ticks)
    summary = json.loads(lines[-1])
    assert summary["complete"] is True
    assert summary["status"] == 0


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")
def test_sigterm_drains_gracefully(tmp_path):
    out = tmp_path / "drained.json"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "4",
            "--source",
            "poisson",
            "--rate",
            "0.4",
            "--dag-nodes",
            "10",
            "--seed",
            "7",
            "--jobs",
            "4000",
            "--tick-every",
            "0",
            "--quiet",
            "--metrics-out",
            str(out),
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    time.sleep(2.0)  # let it get past startup and admit some jobs
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    assert "drain requested" in stderr
    summary = json.loads(out.read_text())
    assert summary["drained"] is True
    # Drain stops admission: fewer jobs admitted than the stream holds.
    assert summary["jobs_admitted"] < 4000
    assert summary["jobs_completed"] == summary["jobs_admitted"]
