"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the experiment registry (id, paper artifact, description).
``run E3 [--scale smoke|default|full] [--param ms=8,16,32] [--engine-stats]``
    Run one experiment and print its regenerated table/figure; exits
    non-zero if any of its claims fail. ``--scale`` picks a parameter
    preset (smoke: seconds; full: the EXPERIMENTS.md headline sweeps);
    ``--param`` overrides individual entries; ``--engine-stats`` appends
    simulation-engine counters to the notes.
``all [--jobs N] [--only E1,E3] [--engine-stats] [--task-timeout S]
[--retries K] [--checkpoint DIR] [--no-resume]``
    Run every experiment (or the ``--only`` subset) at default scale;
    ``--jobs`` fans the runs out over worker processes with deterministic
    output order, supervised for fault tolerance (``--task-timeout``
    reclaims hung workers, crashes rebuild the pool, ``--retries`` bounds
    re-attempts). ``--checkpoint DIR`` journals completed experiments so a
    killed sweep resumes where it stopped (``--no-resume`` ignores the
    journal).
``chaos [--seed S] [--trials N] [--fault-trace P1,P2]``
    Run the randomized fault-injection suite (``repro.faults``): random
    workloads × adversarial/random availability traces × scheduler
    crash/restart and perturbed delivery, asserting schedule validity,
    engine/reference bit-identity and the Lemma 5.5 busy property. Prints
    the seed for reproduction; exits 1 on any violation.
``report [--output report.md] [--only E1,E3]``
    Run experiments and write a markdown report (rendered tables + claim
    outcomes per artifact).
``inspect schedule.npz [--gantt] [--window 0:40]``
    Load a saved schedule archive (``repro.core.save_schedule_npz``) and
    print its metrics, fairness report, and optionally the packing; a
    corrupt archive exits 2 with its named error.
``demo``
    A 30-second guided tour (Figure 1 packing + a tiny adversarial run).
``lint [paths...] [--format json] [--select RPR001] [--list-rules]``
    Run the repo's AST-based invariant checks (determinism, scheduler
    contracts, engine safety, picklability) over ``src`` or the given
    paths; exits 1 on violations. See ``docs/lint.md``.
``serve M [--source poisson|drip|trace] [--policy fifo|lpf|srpt] [--jobs N]
[--checkpoint PATH] [--resume] [--metrics-out PATH]``
    Long-lived streaming mode: schedule an unbounded arrival stream with
    bounded memory, incremental metrics ticks, graceful SIGTERM/SIGINT
    drain, and crash-safe checkpoints (kill → ``--resume`` reproduces an
    uninterrupted run's final metrics bit-identically). Exit status: 0
    complete/drained, 2 bad input (an unreadable ``--trace-path`` archive
    or ``--resume`` checkpoint, reported without a traceback), 130
    interrupted or stdout closed (checkpoint saved), 3 stalled.
    See ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any

__all__ = ["main"]


def _parse_param(raw: str) -> tuple[str, Any]:
    """Parse ``key=value`` where value is an int, float, or comma tuple."""
    if "=" not in raw:
        raise argparse.ArgumentTypeError(f"expected key=value, got {raw!r}")
    key, value = raw.split("=", 1)

    def scalar(tok: str):
        for cast in (int, float):
            try:
                return cast(tok)
            except ValueError:
                continue
        return tok

    if "," in value:
        return key, tuple(scalar(tok) for tok in value.split(",") if tok)
    return key, scalar(value)


def _cmd_list() -> int:
    from .experiments import EXPERIMENTS

    width = max(len(e.paper_artifact) for e in EXPERIMENTS.values())
    for exp_id, exp in EXPERIMENTS.items():
        print(f"{exp_id:<4} {exp.paper_artifact:<{width}}  {exp.description}")
    return 0


def _cmd_run(
    experiment_id: str,
    params: list[str],
    scale: str = "default",
    engine_stats: bool = False,
) -> int:
    from .experiments import EXPERIMENTS, run_experiment

    if experiment_id not in EXPERIMENTS:
        print(f"unknown experiment {experiment_id!r}; try `list`", file=sys.stderr)
        return 2
    kwargs = dict(_parse_param(p) for p in params)
    result = run_experiment(
        experiment_id, scale=scale, engine_stats=engine_stats, **kwargs
    )
    print(result.render())
    return 0 if result.claims_hold() else 1


def _cmd_all(
    scale: str = "default",
    jobs: int = 1,
    engine_stats: bool = False,
    only: str | None = None,
    task_timeout: float | None = None,
    retries: int | None = None,
    checkpoint: str | None = None,
    resume: bool = True,
) -> int:
    from .experiments import SupervisorConfig, run_all

    supervisor = None
    if task_timeout is not None or retries is not None:
        supervisor = SupervisorConfig(
            task_timeout=task_timeout,
            max_retries=retries if retries is not None else 2,
        )
    try:
        results = run_all(
            scale,
            n_workers=jobs if jobs > 1 else None,
            engine_stats=engine_stats,
            only=None if only is None else [tok.strip() for tok in only.split(",")],
            supervisor=supervisor,
            checkpoint_dir=checkpoint,
            resume=resume,
        )
    except KeyError as exc:
        print(f"{exc.args[0]}; try `list`", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted; completed experiments are journaled"
            + (f" in {checkpoint} (rerun to resume)" if checkpoint else ""),
            file=sys.stderr,
        )
        return 130
    status = 0
    for result in results:
        print(result.render())
        print()
        if not result.claims_hold():
            status = 1
    return status


def _cmd_chaos(
    seed: int | None, trials: int, fault_trace: str | None
) -> int:
    from .faults import run_chaos_trials

    if seed is None:
        # A fresh seed per invocation, drawn from the PID so the CLI stays
        # free of wall-clock/entropy reads (lint rule RPR003); CI passes an
        # explicit randomized seed instead.
        seed = os.getpid() % 100_000
    patterns = (
        None
        if fault_trace is None
        else [tok.strip() for tok in fault_trace.split(",") if tok.strip()]
    )
    try:
        report = run_chaos_trials(seed, trials, patterns=patterns)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(report.summary())
    if not report.ok:
        for failure in report.failures:
            print(f"  FAIL: {failure}")
        print(f"reproduce with: python -m repro chaos --seed {report.seed}")
        return 1
    return 0


def _cmd_report(output: str, only: str | None, scale: str = "default") -> int:
    from pathlib import Path

    from .experiments import EXPERIMENTS, run_experiment

    wanted = None if only is None else {tok.strip() for tok in only.split(",")}
    lines = [
        "# repro — regenerated experiment report",
        "",
        "One section per paper artifact; each ends with its checked claims.",
        "",
    ]
    status = 0
    for exp_id, exp in EXPERIMENTS.items():
        if wanted is not None and exp_id not in wanted:
            continue
        result = run_experiment(exp_id, scale=scale)
        ok = result.claims_hold()
        status = max(status, 0 if ok else 1)
        lines.append(f"## {exp_id} — {exp.description}")
        lines.append("")
        lines.append("```")
        lines.append(result.render())
        lines.append("```")
        lines.append("")
        print(f"{exp_id}: {'all claims hold' if ok else 'CLAIMS FAILED'}")
    Path(output).write_text("\n".join(lines))
    print(f"wrote {output}")
    return status


def _bad_input(exc: BaseException) -> int:
    """Report an unreadable input file by its named error: exit 2, no
    traceback."""
    print(f"repro: {exc}", file=sys.stderr)
    return 2


def _cmd_inspect(path: str, gantt: bool, window: str | None) -> int:
    from .analysis import fairness_report
    from .core import ReproError, load_schedule_npz
    from .experiments.runner import format_table
    from .viz import render_gantt

    try:
        schedule = load_schedule_npz(path)
    except ReproError as exc:
        return _bad_input(exc)
    schedule.validate()
    print(f"{path}: {schedule}")
    print(f"instance: {schedule.instance}")
    report = fairness_report(schedule)
    print(format_table([{
        "m": schedule.m,
        "max_flow": report.max_flow,
        "mean_flow": round(report.mean_flow, 2),
        "p95_flow": round(report.p95_flow, 2),
        "max_stretch": round(report.max_stretch, 2),
        "jain": round(report.jain_index, 3),
        "makespan": schedule.makespan,
    }]))
    if gantt:
        t_start, t_end = 1, min(schedule.makespan, 120)
        if window:
            lo, _, hi = window.partition(":")
            t_start, t_end = max(1, int(lo)), int(hi)
        print()
        print(render_gantt(schedule, t_start=t_start, t_end=t_end))
    return 0


def _cmd_demo() -> int:
    from .experiments import run_experiment
    from .experiments.runner import format_table
    from .workloads import build_fifo_adversary

    print(run_experiment("E1").render())
    print()
    print("A taste of Theorem 4.2 (FIFO vs the adaptive adversary):")
    rows = []
    for m in (4, 8, 16):
        adv = build_fifo_adversary(m, n_jobs=3 * m)
        rows.append(
            {
                "m": m,
                "FIFO flow": adv.fifo_max_flow,
                "OPT <=": adv.opt_upper_bound,
                "ratio >=": adv.ratio_lower_bound,
            }
        )
    print(format_table(rows))
    print("\nRun `python -m repro list` to see all experiments.")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .core import ConfigurationError, ReproError
    from .streaming import CheckpointError, serve
    from .workloads.arrivals import (
        AdversarialDripSource,
        PoissonSource,
        TraceReplaySource,
    )

    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return 2
    if args.source == "trace" and args.trace_path is None:
        print("--source trace requires --trace-path", file=sys.stderr)
        return 2
    if args.source == "poisson":
        source: Any = PoissonSource(
            rate=args.rate,
            seed=args.seed,
            dag_nodes=args.dag_nodes,
            family=args.family,
            n_jobs=args.jobs,
        )
    elif args.source == "drip":
        source = AdversarialDripSource(
            args.m,
            period=args.period,
            depth=args.depth,
            seed=args.seed,
            n_jobs=args.jobs,
        )
    else:  # trace
        from .core import load_schedule_npz

        try:
            instance = load_schedule_npz(args.trace_path).instance
        except ReproError as exc:
            return _bad_input(exc)
        source = TraceReplaySource.from_instance(instance)
    try:
        status = serve(
            source,
            args.m,
            policy=args.policy,
            max_live_subjobs=args.max_live_subjobs,
            max_live_jobs=args.max_live_jobs,
            max_jobs=args.jobs,
            tick_every=args.tick_every,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            stall_timeout=args.stall_timeout if args.stall_timeout > 0 else None,
            metrics_out=args.metrics_out,
            quiet=args.quiet,
            max_steps=args.max_steps,
        )
    except (CheckpointError, ConfigurationError) as exc:
        # An unreadable checkpoint, or one written under another
        # configuration, is bad input like a bad flag.
        return _bad_input(exc)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``repro serve ... | head``) and serve() already
        # aborted; point stdout at devnull so the interpreter's exit-time
        # flush of the undelivered line stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


def main(argv: list[str] | None = None) -> int:
    from .streaming import STREAM_POLICIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scheduling Out-Trees Online to "
        "Optimize Maximum Flow' (SPAA 2024)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list the experiment registry")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment_id", help="e.g. E3")
    run_p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable; "
        "comma lists become tuples, e.g. ms=8,16,32)",
    )
    run_p.add_argument(
        "--scale", choices=("smoke", "default", "full"), default="default"
    )
    run_p.add_argument(
        "--engine-stats",
        action="store_true",
        help="append simulation-engine counters to the experiment notes",
    )
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument(
        "--scale", choices=("smoke", "default", "full"), default="default"
    )
    all_p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N worker processes (deterministic order)",
    )
    all_p.add_argument(
        "--engine-stats",
        action="store_true",
        help="append simulation-engine counters to each experiment's notes",
    )
    all_p.add_argument(
        "--only", default=None, help="comma-separated experiment ids"
    )
    all_p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock budget per attempt; a hung worker "
        "is killed and the pool rebuilt (parallel runs only)",
    )
    all_p.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="K",
        help="re-attempts per failed experiment before giving up (default 2)",
    )
    all_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="journal completed experiments to DIR so a killed sweep "
        "can resume",
    )
    all_p.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing journal entries in --checkpoint DIR",
    )
    chaos_p = sub.add_parser(
        "chaos", help="run the randomized fault-injection suite"
    )
    chaos_p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="suite seed (printed for reproduction; default: PID-derived)",
    )
    chaos_p.add_argument(
        "--trials", type=int, default=10, help="number of workload trials"
    )
    chaos_p.add_argument(
        "--fault-trace",
        default=None,
        metavar="P1,P2",
        help="restrict adversarial availability patterns by name "
        "(e.g. blackout,sawtooth; default: all)",
    )
    report_p = sub.add_parser("report", help="write a markdown report")
    report_p.add_argument("--output", default="report.md")
    report_p.add_argument(
        "--only", default=None, help="comma-separated experiment ids"
    )
    report_p.add_argument(
        "--scale", choices=("smoke", "default", "full"), default="default"
    )
    inspect_p = sub.add_parser("inspect", help="inspect a saved schedule archive")
    inspect_p.add_argument("path")
    inspect_p.add_argument("--gantt", action="store_true")
    inspect_p.add_argument(
        "--window", default=None, metavar="START:END", help="time window to draw"
    )
    sub.add_parser("demo", help="a quick guided tour")
    serve_p = sub.add_parser(
        "serve", help="long-lived streaming mode over an arrival stream"
    )
    serve_p.add_argument("m", type=int, help="number of machines")
    serve_p.add_argument(
        "--source",
        choices=("poisson", "drip", "trace"),
        default="poisson",
        help="arrival stream family (default poisson)",
    )
    serve_p.add_argument(
        "--policy", choices=tuple(STREAM_POLICIES), default="fifo"
    )
    serve_p.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="stop admitting after N jobs, then drain (default: unbounded)",
    )
    serve_p.add_argument(
        "--rate",
        type=float,
        default=0.5,
        help="poisson: mean arrivals per time step",
    )
    serve_p.add_argument(
        "--dag-nodes", type=int, default=64, help="poisson: subjobs per job"
    )
    serve_p.add_argument(
        "--family",
        choices=("attachment", "galton-watson", "layered"),
        default="attachment",
        help="poisson: out-tree shape family",
    )
    serve_p.add_argument("--seed", type=int, default=0, help="stream seed")
    serve_p.add_argument(
        "--period", type=int, default=4, help="drip: steps between arrivals"
    )
    serve_p.add_argument(
        "--depth", type=int, default=None, help="drip: chain-layer depth"
    )
    serve_p.add_argument(
        "--trace-path",
        default=None,
        metavar="FILE.npz",
        help="trace: schedule archive whose instance arrivals are replayed",
    )
    serve_p.add_argument(
        "--max-live-subjobs",
        type=int,
        default=None,
        help="admission bound: shed arrivals past this many live subjobs",
    )
    serve_p.add_argument(
        "--max-live-jobs",
        type=int,
        default=None,
        help="admission bound: shed arrivals past this many live jobs",
    )
    serve_p.add_argument(
        "--tick-every",
        type=int,
        default=10_000,
        metavar="STEPS",
        help="emit a metrics tick every STEPS time steps (0 disables)",
    )
    serve_p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write atomic engine checkpoints to PATH (the previous one is "
        "kept beside it as PATH.spare and rewritten by the next save)",
    )
    serve_p.add_argument(
        "--checkpoint-every",
        type=int,
        default=5_000,
        metavar="STEPS",
        help="checkpoint cadence in time steps (default 5000)",
    )
    serve_p.add_argument(
        "--resume",
        action="store_true",
        help="restore from --checkpoint PATH (required) when it exists; "
        "otherwise say so on stderr and start fresh",
    )
    serve_p.add_argument(
        "--stall-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="watchdog: abort (exit 3) if no step completes for this long "
        "(0 disables)",
    )
    serve_p.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the final metrics summary as JSON to PATH",
    )
    serve_p.add_argument(
        "--quiet", action="store_true", help="suppress stdout ticks/summary"
    )
    serve_p.add_argument(
        "--max-steps",
        type=int,
        default=None,
        metavar="N",
        help="stop after N engine steps as if interrupted (testing aid)",
    )
    lint_p = sub.add_parser("lint", help="run the repo invariant checks")
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint_p)
    args = parser.parse_args(argv)

    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(
            args.experiment_id, args.param, args.scale, args.engine_stats
        )
    if args.command == "all":
        return _cmd_all(
            args.scale,
            args.jobs,
            args.engine_stats,
            args.only,
            task_timeout=args.task_timeout,
            retries=args.retries,
            checkpoint=args.checkpoint,
            resume=not args.no_resume,
        )
    if args.command == "chaos":
        return _cmd_chaos(args.seed, args.trials, args.fault_trace)
    if args.command == "report":
        return _cmd_report(args.output, args.only, args.scale)
    if args.command == "inspect":
        return _cmd_inspect(args.path, args.gantt, args.window)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "lint":
        from .lint.cli import run_lint

        return run_lint(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
