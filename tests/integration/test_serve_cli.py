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
import select
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


#: Runs ``repro serve`` (argv[4:]) with ``os.<argv[1]>`` wrapped so that
#: the process SIGKILLs itself right after the ``argv[3]``-th call whose
#: destination is ``argv[2]``: a kill inside a checkpoint save's
#: link/rename window, which a kill from outside seldom hits.
_KILL_IN_SAVE = """
import os, signal, sys
from repro.cli import main

name, dst, after = sys.argv[1], sys.argv[2], int(sys.argv[3])
real, hits = getattr(os, name), 0

def wrapper(src, target, **kwargs):
    global hits
    result = real(src, target, **kwargs)
    hits += target == dst
    if hits == after:
        os.kill(os.getpid(), signal.SIGKILL)
    return result

setattr(os, name, wrapper)
sys.exit(main(["serve", *sys.argv[4:]]))
"""


@pytest.mark.parametrize(
    "window, left",
    [("link", {"serve.ckpt", "serve.ckpt.spare", "serve.ckpt.hold"}),
     ("replace", {"serve.ckpt", "serve.ckpt.hold"})],
    ids=["link", "replace"],
)
@pytest.mark.parametrize("policy", ["fifo", "srpt"])
def test_kill_inside_a_save_then_resume_is_bit_identical(tmp_path, policy, window, left):
    """A SIGKILL right after a save's ``os.link(path, path.hold)``, or
    right after its ``os.replace(path.spare, path)``, leaves ``path`` a
    complete checkpoint; a fresh ``--resume`` reproduces the clean run."""
    args = [*STREAM_ARGS, "--policy", policy]
    clean_json = tmp_path / "clean.json"
    result = run_serve(*args, "--metrics-out", str(clean_json))
    assert result.returncode == 0, result.stderr

    ckpt = tmp_path / "serve.ckpt"
    dst = str(ckpt) + (".hold" if window == "link" else "")
    killed = subprocess.run(
        [sys.executable, "-c", _KILL_IN_SAVE, window, dst, "3", *args,
         "--checkpoint", str(ckpt), "--checkpoint-every", "25"],
        capture_output=True, text=True, env=_env(), cwd=REPO_ROOT, timeout=300,
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr
    assert {p.name for p in tmp_path.iterdir()} - {"clean.json"} == left

    resumed_json = tmp_path / "resumed.json"
    result = run_serve(
        *args, "--checkpoint", str(ckpt), "--resume", "--metrics-out", str(resumed_json)
    )
    assert result.returncode == 0, result.stderr
    assert "resumed from" in result.stderr
    clean = json.loads(clean_json.read_text())
    resumed = json.loads(resumed_json.read_text())
    assert (clean.pop("resumed"), resumed.pop("resumed")) == (False, True)
    assert clean == resumed
    assert {p.name for p in tmp_path.iterdir()} == {
        "clean.json", "resumed.json", "serve.ckpt", "serve.ckpt.spare"
    }


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
            "1",
            "--metrics-out",
            str(out),
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    # Signal from inside the run, not after a fixed sleep: on a fast
    # machine the whole stream ends within two seconds. The first tick
    # shows the handlers are installed and the run has begun; with a tick
    # every step and nobody reading, the pipe fills and holds the run near
    # its start until communicate() drains it.
    ready, _, _ = select.select([proc.stdout], [], [], 60.0)
    first = proc.stdout.readline() if ready else ""
    if not first:
        proc.kill()
        pytest.fail("no tick line within 60s: " + proc.communicate(timeout=30)[1])
    assert json.loads(first)["t"] == 1
    proc.send_signal(signal.SIGTERM)
    _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    assert "drain requested" in stderr
    summary = json.loads(out.read_text())
    assert summary["drained"] is True
    # Drain stops admission: fewer jobs admitted than the stream holds.
    assert summary["jobs_admitted"] < 4000
    assert summary["jobs_completed"] == summary["jobs_admitted"]
