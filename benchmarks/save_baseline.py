"""Record / compare engine-throughput baselines.

``python benchmarks/save_baseline.py`` re-times the engine microbenchmarks
and writes their subjobs/sec to ``BENCH_engine.json`` next to this script.

``python benchmarks/save_baseline.py --compare`` re-times them and exits
non-zero if any microbench regressed more than 20% against the recorded
baseline — the guard the CI throughput job runs.

Timings use best-of-N (default N=3) wall-clock rounds: the minimum is the
least noisy estimator for a deterministic workload on a shared machine.

Besides the engine benches this also records the lint tooling bench
(``--only lint_warm_cache_src``): cold vs warm incremental-cache wall
time over ``src/repro``, with a byte-identical report check.

The ``serve_steady_state_*`` rows time the streaming engine on a
~2k-live-job Poisson chain soak. The ``serve_backlog_*`` rows replay a
pre-generated trace of 300 layered 1024-node jobs at ~4x overload on
m=16: a frontier of thousands of ready nodes, 16 committed per step.

The ``adversary_build_m32`` row times the Section 4 adversary's builder
(``build_fifo_adversary(32, n_jobs=64)``: its layer-granular FIFO
co-simulation, the freeze into DAGs, and both schedules' validation) and
checks the built instance still separates FIFO from OPT; its "subjobs" are
the built instance's total work. The ``dag_from_parents_serve_trees`` row
times ``DAG.from_parents`` alone over 2000 random-attachment parent arrays
with log-uniform sizes from 8 to 1024 nodes, the trees of perfbench
``serve``'s trace; the arrays are drawn before the timer starts and its
"subjobs" are the nodes built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"
REGRESSION_TOLERANCE = 0.20  # fail --compare below 80% of baseline throughput


def _packed_stream():
    from repro.core import Instance, Job
    from repro.workloads import layered_tree

    dags = [layered_tree([16] * 250, seed=s) for s in range(8)]
    return Instance([Job(d, 100 * i, f"r{i}") for i, d in enumerate(dags)])


def _irregular_stream():
    from repro.core import Instance, Job
    from repro.workloads import quicksort_tree

    dags = [quicksort_tree(1000, seed=s) for s in range(24)]
    return Instance([Job(d, 40 * i, f"q{i}") for i, d in enumerate(dags)])


def _bench_fifo_packed():
    from repro.schedulers import ArbitraryTieBreak, FIFOScheduler

    return _packed_stream(), (lambda: FIFOScheduler(ArbitraryTieBreak())), 16


def _bench_lpf_irregular():
    from repro.schedulers import FIFOScheduler, LongestPathTieBreak

    return _irregular_stream(), (lambda: FIFOScheduler(LongestPathTieBreak())), 16


def _bench_mc_irregular():
    from repro.schedulers import FIFOScheduler, MostChildrenTieBreak

    return _irregular_stream(), (lambda: FIFOScheduler(MostChildrenTieBreak())), 16


def _bench_srpt_irregular():
    from repro.schedulers import SRPTScheduler

    return _irregular_stream(), (lambda: SRPTScheduler()), 16


def _bench_fifo_random_irregular():
    from repro.schedulers import FIFOScheduler, RandomTieBreak

    return _irregular_stream(), (lambda: FIFOScheduler(RandomTieBreak(seed=0))), 16


def _bench_worksteal_irregular():
    from repro.schedulers import WorkStealingScheduler

    return _irregular_stream(), (lambda: WorkStealingScheduler(seed=0)), 16


def _parallel_chains():
    import numpy as np

    from repro.core import DAG, Instance, Job

    def chain(n):
        return DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))

    return Instance([Job(chain(4000), 0, f"c{i}") for i in range(16)])


def _spider_legs():
    import numpy as np

    from repro.core import DAG, Instance, Job

    parents = [-1]
    for _ in range(16):
        parents.append(0)
        for _ in range(2000 - 1):
            parents.append(len(parents) - 1)
    dag = DAG.from_parents(np.array(parents, dtype=np.int64))
    return Instance([Job(dag, 0, "spider")])


def _bench_fifo_parallel_chains():
    from repro.schedulers import ArbitraryTieBreak, FIFOScheduler

    return _parallel_chains(), (lambda: FIFOScheduler(ArbitraryTieBreak())), 16


def _bench_lpf_spider_legs():
    from repro.schedulers import FIFOScheduler, LongestPathTieBreak

    return _spider_legs(), (lambda: FIFOScheduler(LongestPathTieBreak())), 16


def _bench_fifo_adversarial_combs():
    from repro.schedulers import ArbitraryTieBreak, FIFOScheduler
    from repro.workloads import build_fifo_adversary

    instance = build_fifo_adversary(16, n_jobs=24, seed=0).instance
    return instance, (lambda: FIFOScheduler(ArbitraryTieBreak())), 16


#: name -> setup() returning (instance, scheduler_factory, m).
MICROBENCHES = {
    "fifo_on_packed_rectangles": _bench_fifo_packed,
    "lpf_on_irregular_trees": _bench_lpf_irregular,
    "mc_on_irregular_trees": _bench_mc_irregular,
    "srpt_on_irregular_trees": _bench_srpt_irregular,
    "fifo_random_on_irregular_trees": _bench_fifo_random_irregular,
    "worksteal_on_irregular_trees": _bench_worksteal_irregular,
    "fifo_on_parallel_chains": _bench_fifo_parallel_chains,
    "lpf_on_spider_legs": _bench_lpf_spider_legs,
    "fifo_on_adversarial_combs": _bench_fifo_adversarial_combs,
}

_SWEEP_TRIALS = 10_000
_sweep_instances_cache = None


def _sweep_instances():
    """The 10^4-trial sweep corpus (3 small out-forest jobs per trial),
    generated once and shared by every sweep bench so the batched and
    pool paths time the exact same instances."""
    global _sweep_instances_cache
    if _sweep_instances_cache is None:
        import numpy as np

        from repro.core import Instance, Job
        from repro.workloads import random_out_forest

        out = []
        for s in range(_SWEEP_TRIALS):
            rng = np.random.default_rng(s)
            jobs = [
                Job(
                    random_out_forest(40, seed=int(rng.integers(1 << 30))),
                    release=int(rng.integers(0, 10)),
                )
                for _ in range(3)
            ]
            out.append(Instance(jobs))
        _sweep_instances_cache = out
    return _sweep_instances_cache


def _pool_sweep_worker(task):
    """Per-trial pool dispatch: the pre-batching way `repeat_experiment`
    fanned independent trials out (module-level for picklability)."""
    import numpy as np

    from repro.core import simulate
    from repro.schedulers import ArbitraryTieBreak, FIFOScheduler

    instance, m = task
    schedule = simulate(instance, m, FIFOScheduler(ArbitraryTieBreak()))
    return sum(int(np.asarray(c).size) for c in schedule.completion)


def _sweep_bench_batched(tie_break_name):
    instances = _sweep_instances()  # generated in setup, outside the timer

    def run():
        from repro.core import simulate_batch
        from repro.schedulers import (
            ArbitraryTieBreak,
            FIFOScheduler,
            LongestPathTieBreak,
        )

        tb = (
            LongestPathTieBreak()
            if tie_break_name == "lpf"
            else ArbitraryTieBreak()
        )
        schedules = simulate_batch(instances, 4, FIFOScheduler(tb))
        stats = schedules[0].engine_stats
        assert stats is not None and stats.batch_steps > 0
        return sum(s.instance.total_work for s in schedules)

    return run


def _sweep_bench_pool():
    instances = _sweep_instances()

    def run():
        import os

        from repro.experiments import shared_pool

        pool = shared_pool(os.cpu_count() or 1)
        tasks = [(inst, 4) for inst in instances]
        return sum(pool.map(_pool_sweep_worker, tasks, chunksize=64))

    return run


#: Whole-sweep benches: name -> (setup() -> run(), rounds_cap). ``run``
#: executes the sweep and returns the subjob count it completed. The
#: ``pool_sweep`` entry is the pre-batching per-trial persistent-pool
#: path — the denominator of the batched engine's headline speedup — and
#: is capped at one round to keep ``--compare`` runs bounded.
SWEEP_BENCHES = {
    "batched_sweep_10k_fifo": (lambda: _sweep_bench_batched("fifo"), 3),
    "batched_sweep_10k_lpf": (lambda: _sweep_bench_batched("lpf"), 3),
    "pool_sweep_10k_fifo": (lambda: _sweep_bench_pool(), 1),
}


class _SteadyStream:
    """Index-pure arrival source over pre-built DAGs (Poisson gaps).

    DAG generation is hoisted out of the timed region — the bench times
    the streaming engine, not the workload generator — by cycling a
    fixed pool of chain DAGs under a real Poisson gap schedule.
    """

    def __init__(self, rate, seed, dags, n_jobs):
        from repro.workloads.arrivals import PoissonSource

        gaps = PoissonSource(rate=rate, seed=seed, dag_nodes=2, n_jobs=n_jobs)
        self._gaps = [gaps.gap_before(i) for i in range(n_jobs)]
        self._dags = dags
        self.n_jobs = n_jobs

    def dag_at(self, index):
        return self._dags[index % len(self._dags)]

    def gap_before(self, index):
        return self._gaps[index]

    def fingerprint(self):
        return f"bench-steady-{self.n_jobs}"


_steady_source_cache = None


def _steady_source():
    """The ~2k-live-job Poisson soak: rate-4 arrivals of ~500-node chain
    jobs, so the live window plateaus around 2,400 jobs whose frontiers
    are one node each — the resident arena's steady state, with the
    whole window walked every step. Built once, shared by every stream
    bench (the source is stateless and index-pure)."""
    global _steady_source_cache
    if _steady_source_cache is None:
        import numpy as np

        from repro.core import DAG

        rng = np.random.default_rng(0)
        dags = [
            DAG.from_parents(np.arange(-1, n - 1, dtype=np.int64))
            for n in rng.integers(450, 550, size=48)
        ]
        _steady_source_cache = _SteadyStream(4, 7, dags, 2400)
    return _steady_source_cache


_backlog_source_cache = None


def _backlog_source():
    """The wide-backlog trace: 300 layered 1024-node jobs (32 levels of
    32, so 32 roots each) arriving at ~4x the capacity of m=16. The live
    window grows to ~200 jobs and a frontier of thousands of ready nodes
    while each step commits 16 of them — the regime where any per-step
    pass over the whole frontier dominates. Pre-generated once, outside
    every timer."""
    global _backlog_source_cache
    if _backlog_source_cache is None:
        import numpy as np

        from repro.workloads import layered_tree, poisson_instance
        from repro.workloads.arrivals import TraceReplaySource

        rng = np.random.default_rng(0)
        dags = [layered_tree([32] * 32, rng) for _ in range(300)]
        rate = 4 * 16 / 1024  # arrivals per step for 4x the work m=16 serves
        _backlog_source_cache = TraceReplaySource.from_instance(
            poisson_instance(dags, rate, rng)
        )
    return _backlog_source_cache


def _stream_bench(policy, source_fn=_steady_source, m=2500):
    source = source_fn()  # built in setup, outside the timer

    def run():
        from repro.streaming import StreamingEngine

        engine = StreamingEngine(source, m, policy=policy)
        engine.run()
        stats = engine.stats
        assert stats.stream_arena_steps + stats.stream_epoch_steps > 0
        return engine.metrics.summary()["subjobs_completed"]

    return run


#: Streaming-service benches: the steady-state soak, and the wide-backlog
#: trace, where the frontier is far wider than a step.
STREAM_BENCHES = {
    "serve_steady_state_fifo": (lambda: _stream_bench("fifo"), 3),
    "serve_steady_state_srpt": (lambda: _stream_bench("srpt"), 3),
    "serve_backlog_fifo": (lambda: _stream_bench("fifo", _backlog_source, 16), 3),
    "serve_backlog_srpt": (lambda: _stream_bench("srpt", _backlog_source, 16), 3),
}


def _adversary_build_bench():
    def run():
        from repro.workloads import build_fifo_adversary

        adv = build_fifo_adversary(32, n_jobs=64)
        assert adv.fifo_max_flow > adv.opt_upper_bound
        return adv.instance.total_work

    return run


def _from_parents_bench():
    import numpy as np

    from repro.core import DAG

    rng = np.random.default_rng(2)
    quantiles = (np.arange(2000) + 0.5) / 2000
    sizes = np.rint(8 * np.exp(quantiles * np.log(1024 / 8))).astype(np.int64)
    arrays = []
    for n in rng.permutation(sizes).tolist():
        parents = np.full(n, -1, dtype=np.int64)
        parents[1:] = rng.integers(0, np.arange(1, n))
        arrays.append(parents)

    def run():
        for parents in arrays:
            DAG.from_parents(parents)
        return int(sizes.sum())

    return run


#: Workload-builder benches, timed like the sweeps: the Section 4
#: adversary, whose private co-simulation once lost 10x to a per-step
#: set rebuild, and the parent-array constructor every tree goes through.
BUILD_BENCHES = {
    "adversary_build_m32": (_adversary_build_bench, 3),
    "dag_from_parents_serve_trees": (_from_parents_bench, 3),
}


def _bench_lint_warm_cache(rounds: int) -> dict:
    """Cold vs warm incremental lint over ``src/repro``.

    Times one cold whole-program run into a fresh cache, then best-of-N
    warm runs against it, asserting every warm report is byte-identical
    to the cold one. The throughput figure (files per warm second) feeds
    the generic ``--compare`` guard; ``cold_seconds``/``warm_speedup``
    are recorded alongside so the baseline documents the cache win.
    """
    import shutil
    import tempfile

    from repro.lint import lint_paths

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    tmp = Path(tempfile.mkdtemp(prefix="repro-lint-bench-"))
    try:
        cache = tmp / "cache"
        start = time.perf_counter()
        cold = lint_paths([src], cache_dir=cache)
        cold_seconds = time.perf_counter() - start
        cold_blob = json.dumps(cold.to_json(), sort_keys=True)
        best = float("inf")
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            warm = lint_paths([src], cache_dir=cache)
            best = min(best, time.perf_counter() - start)
            assert json.dumps(warm.to_json(), sort_keys=True) == cold_blob, (
                "warm lint report differs from cold run"
            )
        files = int(cold.files_checked)
        return {
            "subjobs": files,
            "best_seconds": round(best, 6),
            "subjobs_per_sec": round(files / best, 1),
            "cold_seconds": round(cold_seconds, 6),
            "warm_speedup": round(cold_seconds / best, 2),
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


#: Tooling benches: name -> bench(rounds) returning a measurement row in
#: the same shape as the engine benches ("subjobs" = files linted).
LINT_BENCHES = {
    "lint_warm_cache_src": _bench_lint_warm_cache,
}


def all_bench_names() -> list[str]:
    return [
        *MICROBENCHES,
        *SWEEP_BENCHES,
        *STREAM_BENCHES,
        *BUILD_BENCHES,
        *LINT_BENCHES,
    ]


def measure(rounds: int = 3, only: list[str] | None = None) -> dict:
    """Time every microbench; returns name -> measurement dict."""
    from repro.core import simulate

    selected = set(only) if only is not None else None

    def wanted(name):
        return selected is None or name in selected

    out = {}
    for name, setup in MICROBENCHES.items():
        if not wanted(name):
            continue
        instance, scheduler_factory, m = setup()
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            schedule = simulate(instance, m, scheduler_factory())
            best = min(best, time.perf_counter() - start)
        assert schedule.is_complete
        out[name] = {
            "subjobs": int(instance.total_work),
            "best_seconds": round(best, 6),
            "subjobs_per_sec": round(instance.total_work / best, 1),
        }
    timed_runs = {**SWEEP_BENCHES, **STREAM_BENCHES, **BUILD_BENCHES}
    for name, (setup, rounds_cap) in timed_runs.items():
        if not wanted(name):
            continue
        run = setup()
        best = float("inf")
        for _ in range(max(1, min(rounds, rounds_cap))):
            start = time.perf_counter()
            subjobs = run()
            best = min(best, time.perf_counter() - start)
        out[name] = {
            "subjobs": int(subjobs),
            "best_seconds": round(best, 6),
            "subjobs_per_sec": round(subjobs / best, 1),
        }
    for name, bench in LINT_BENCHES.items():
        if not wanted(name):
            continue
        out[name] = bench(rounds)
    return out


def save(rounds: int, only: list[str] | None = None) -> int:
    results = measure(rounds, only)
    if only is not None:
        # Partial re-record: merge into the existing baseline rather than
        # dropping every bench that was not re-timed.
        merged = {}
        if BASELINE_PATH.is_file():
            try:
                merged = json.loads(BASELINE_PATH.read_text())
            except json.JSONDecodeError:
                merged = {}
        merged.update(results)
        results = merged
    BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")
    for name, row in results.items():
        print(f"{name:<32} {row['subjobs_per_sec']:>12,.0f} subjobs/s")
    print(f"wrote {BASELINE_PATH}")
    return 0


def _render_diff_table(rows: list[tuple[str, str, str, str, str]]) -> str:
    """Markdown diff table — readable both in a terminal and in the GitHub
    job summary (``$GITHUB_STEP_SUMMARY``)."""
    header = ("bench", "baseline subjobs/s", "current subjobs/s", "ratio", "verdict")
    table = [header, *rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = [
        "| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) + " |"
        for row in table
    ]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines)


def _publish_step_summary(markdown: str) -> None:
    """Append to the GitHub Actions job summary when running in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as fh:
        fh.write("## Engine throughput vs recorded baseline\n\n")
        fh.write(markdown + "\n")


def compare(rounds: int, only: list[str] | None = None) -> int:
    if not BASELINE_PATH.is_file():
        print(f"no baseline at {BASELINE_PATH}; run without --compare first",
              file=sys.stderr)
        return 2
    try:
        baseline = json.loads(BASELINE_PATH.read_text())
    except json.JSONDecodeError as exc:
        print(
            f"baseline {BASELINE_PATH} is not valid JSON ({exc}); "
            "re-record it with `python benchmarks/save_baseline.py`",
            file=sys.stderr,
        )
        return 2
    results = measure(rounds, only)
    status = 0
    rows: list[tuple[str, str, str, str, str]] = []
    for name, row in results.items():
        now = row["subjobs_per_sec"]
        entry = baseline.get(name)
        base = entry.get("subjobs_per_sec") if isinstance(entry, dict) else None
        if not isinstance(base, (int, float)) or base <= 0:
            rows.append((name, "(no baseline)", f"{now:,.0f}", "-", "new"))
            continue
        ratio = now / base
        verdict = "ok"
        if ratio < 1.0 - REGRESSION_TOLERANCE:
            verdict = "REGRESSION"
            status = 1
        rows.append((name, f"{base:,.0f}", f"{now:,.0f}", f"{ratio:.2f}x", verdict))
    table = _render_diff_table(rows)
    print(table)
    if status:
        print(
            f"\nthroughput REGRESSION: at least one bench fell below "
            f"{(1.0 - REGRESSION_TOLERANCE):.0%} of its recorded baseline"
        )
    _publish_step_summary(table)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--compare",
        action="store_true",
        help="compare against the recorded baseline instead of overwriting it",
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timing rounds per bench (best-of)"
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help="comma-separated bench names to run (others are skipped; with "
        "a plain save the rest of the recorded baseline is kept)",
    )
    args = parser.parse_args(argv)
    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in only if name not in all_bench_names()]
        if unknown:
            print(
                f"unknown bench name(s): {', '.join(unknown)}; "
                f"choose from: {', '.join(all_bench_names())}",
                file=sys.stderr,
            )
            return 2
    try:
        if args.compare:
            return compare(args.rounds, only)
        return save(args.rounds, only)
    except Exception as exc:  # the CI guard wants an exit code, not a traceback
        print(f"benchmark harness failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
