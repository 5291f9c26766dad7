#!/usr/bin/env python
"""Crash-safety soak for `repro serve` (the CI soak job's driver).

Three phases over one seeded Poisson stream:

1. **Reference**: a clean, uninterrupted `repro serve` run; its final
   metrics JSON is the ground truth.
2. **Kill**: the same run with periodic checkpoints, SIGKILLed (not
   SIGTERM — no graceful drain, no atexit, nothing) once it is safely
   mid-stream.
3. **Resume**: `--resume` from the surviving checkpoint, run to
   completion.

The gate: phase 3's final metrics JSON must equal phase 1's **exactly**
(the `resumed` flag aside). Any drift — one job, one step, one histogram
bucket — fails the soak, because the resume contract is bit-identity,
not approximation.

Run locally:  python scripts/serve_soak.py --jobs 2000
CI (~60 s):   python scripts/serve_soak.py --jobs 60000 --kill-after 8
CI (~4 s):    python scripts/serve_soak.py --jobs 5000 --kill-after 2 --checkpoint-every 1
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _serve_cmd(args: argparse.Namespace, extra: list[str]) -> list[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "serve",
        str(args.m),
        "--source",
        "poisson",
        "--policy",
        args.policy,
        "--jobs",
        str(args.jobs),
        "--rate",
        str(args.rate),
        "--dag-nodes",
        str(args.dag_nodes),
        "--seed",
        str(args.seed),
        "--tick-every",
        "0",
        "--quiet",
        *extra,
    ]


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--m", type=int, default=8)
    parser.add_argument("--policy", default="fifo", choices=("fifo", "lpf", "srpt"))
    parser.add_argument("--jobs", type=int, default=20_000)
    parser.add_argument("--rate", type=float, default=0.5)
    parser.add_argument("--dag-nodes", type=int, default=12)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--kill-after",
        type=float,
        default=3.0,
        help="seconds into the killed run before SIGKILL lands",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=500, metavar="STEPS"
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)

    with tempfile.TemporaryDirectory(prefix="repro-soak-") as tmp:
        ref_json = os.path.join(tmp, "reference.json")
        resumed_json = os.path.join(tmp, "resumed.json")
        ckpt = os.path.join(tmp, "serve.ckpt")

        print(f"[1/3] clean reference run ({args.jobs} jobs) ...", flush=True)
        t0 = time.perf_counter()
        ref = _run(_serve_cmd(args, ["--metrics-out", ref_json]), env)
        print(f"      done in {time.perf_counter() - t0:.1f}s", flush=True)
        if ref.returncode != 0:
            print(ref.stderr, file=sys.stderr)
            print("FAIL: reference run did not complete", file=sys.stderr)
            return 1

        print(
            f"[2/3] checkpointed run, SIGKILL after ~{args.kill_after}s ...",
            flush=True,
        )
        proc = subprocess.Popen(
            _serve_cmd(
                args,
                [
                    "--checkpoint",
                    ckpt,
                    "--checkpoint-every",
                    str(args.checkpoint_every),
                ],
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.perf_counter() + args.kill_after
        while time.perf_counter() < deadline and proc.poll() is None:
            time.sleep(0.05)
        # Wait for at least one checkpoint before killing: a kill before
        # the first checkpoint would make phase 3 a fresh (still valid,
        # but untested) run.
        while proc.poll() is None and not os.path.exists(ckpt):
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            print(f"      killed (exit {proc.returncode})", flush=True)
            if proc.returncode != -signal.SIGKILL:
                print("FAIL: process did not die from SIGKILL", file=sys.stderr)
                return 1
        else:
            print(
                "      WARNING: run finished before the kill landed; "
                "resume still exercises the final checkpoint",
                flush=True,
            )
        if not os.path.exists(ckpt):
            print("FAIL: no checkpoint file survived the kill", file=sys.stderr)
            return 1

        print("[3/3] resume from checkpoint, run to completion ...", flush=True)
        t0 = time.perf_counter()
        res = _run(
            _serve_cmd(
                args,
                [
                    "--checkpoint",
                    ckpt,
                    "--checkpoint-every",
                    str(args.checkpoint_every),
                    "--resume",
                    "--metrics-out",
                    resumed_json,
                ],
            ),
            env,
        )
        print(f"      done in {time.perf_counter() - t0:.1f}s", flush=True)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            print("FAIL: resumed run did not complete", file=sys.stderr)
            return 1

        with open(ref_json, encoding="utf-8") as handle:
            reference = json.load(handle)
        with open(resumed_json, encoding="utf-8") as handle:
            resumed = json.load(handle)
        reference.pop("resumed", None)
        resumed.pop("resumed", None)
        if reference != resumed:
            drift = {
                key: (reference.get(key), resumed.get(key))
                for key in sorted(set(reference) | set(resumed))
                if reference.get(key) != resumed.get(key)
            }
            print(f"FAIL: resumed metrics drifted: {drift}", file=sys.stderr)
            return 1

        print(
            "PASS: resumed run reproduced the uninterrupted metrics "
            f"bit-identically (max_flow={reference['max_flow']}, "
            f"{reference['subjobs_completed']} subjobs, "
            f"live-subjob HWM {reference['live_subjob_hwm']})"
        )
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
