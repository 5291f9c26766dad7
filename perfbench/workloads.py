"""The benchmark's three workloads, and why each one exists.

Each workload makes its inputs during set-up (``sweep`` and ``serve`` from
the seed) and keeps only their pickled bytes. Every op unpickles a fresh copy outside the timer,
so no op sees inputs an earlier op touched: users' one-shot sweeps and
replays pay the lazily cached ``DAG.height``/``chain_runs`` and
``Instance.flat_graph``/``chain_layout``, and a benchmark that reused
objects would measure a program nobody runs (a 2000-trial LPF sweep runs
about 8x faster warm).

``tables`` -- closed loop; one op is one full pass of E1-E17 through
    ``run_experiment`` at the ``smoke`` preset and each experiment's
    registered seed, the pass ``python -m repro all --scale smoke`` makes.
    This is what a reader of the paper runs, and the only workload whose
    time goes to many small single-instance ``simulate`` calls,
    ``select()``-dispatching schedulers (Algorithm A, work stealing), the
    Section 4 adversary and ``simulate_batch`` at batch size 1. The
    benchmark seed does not reach it: some claims compare policies on one
    random smoke-size instance and do not hold at every seed (E13's
    FIFO-beats-work-stealing claim fails at seed 17), and an op whose
    claim fails counts as failed.

``sweep`` -- closed loop; one op runs FIFO with the arbitrary, LPF and MC
    tie-breaks (the rules behind Thm 4.2, Lemma 5.2 and Lemma 5.5) through
    in-process ``run_trials`` over one cold corpus of random out-forest
    trials. Here the wide lockstep batch and the per-DAG lazy analyses do
    the work; ``select()``, the adversary and streaming do none. It runs
    from ``run.py`` but is not in ``BENCHMARK.json``: on a shared 2-vCPU
    host, three workloads leave too little time per run for steady
    medians. Its layers are still measured, on ``tables``.

``serve`` -- open loop in simulated time: one op is one
    ``repro.streaming.serve()`` call replaying a pre-generated Poisson
    trace of random attachment trees as fast as it can. Releases do not
    depend on the service's progress. Ticks and checkpoints every 1000
    steps, watchdog on. It is the only workload that admits, commits and
    checkpoints through the streaming layer.

Each layer's metrics and the end-to-end metric they should move
(``op_s`` on ``tables`` is the E1-E17 regeneration time;
``subjobs_per_s`` on ``sweep`` and ``serve`` is their throughput):

=====================  =================================================
layer                  should move
=====================  =================================================
experiments            ``op_s`` on tables
workloads              ``op_s`` on tables; ``setup_s`` on sweep, serve
core.dag               ``op_s`` on tables and ``subjobs_per_s`` on sweep
                       (height); ``subjobs_per_s`` on serve (chain_runs
                       at admission); ``setup_s`` (build)
core.instance          ``op_s`` on tables; ``subjobs_per_s`` on sweep
core.simulator         ``op_s`` on tables (single runs, batch size 1);
                       ``subjobs_per_s`` on sweep (wide batch)
core.kernels           the engine metric of the same workload
core.schedule          ``op_s`` on tables
schedulers             ``op_s`` on tables (select); ``subjobs_per_s`` on
                       sweep (priorities)
analysis               ``op_s`` on tables
streaming.*            ``subjobs_per_s`` on serve
=====================  =================================================

A layer does about nothing on the workloads its row does not name, so a
change to it should leave those workloads' numbers unchanged.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import tempfile
from typing import Any, Optional

import numpy as np

from repro.core import Instance, Job, simulate
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.runner import run_trials
from repro.schedulers import (
    ArbitraryTieBreak,
    FIFOScheduler,
    LongestPathTieBreak,
    MostChildrenTieBreak,
)
from repro.streaming import StreamMetrics, load_checkpoint, serve
from repro.workloads import poisson_instance, random_attachment_tree, random_out_forest
from repro.workloads.arrivals import TraceReplaySource

_PICKLE = pickle.HIGHEST_PROTOCOL


class Workload:
    """One benchmark workload.

    ``setup(seed)`` returns the serialized inputs (timed as set-up),
    ``load(blob)`` a fresh copy for one op, ``run(inputs)`` is the timed
    op, and ``check``/``final_check`` list what went wrong (outside every
    timer). Problems are strings; an op with any problem counts as failed.
    """

    name = ""

    def setup(self, seed: int) -> bytes:
        raise NotImplementedError

    def load(self, blob: bytes) -> Any:
        return pickle.loads(blob)

    def cold_violations(self, inputs: Any) -> list[str]:
        return []

    def run(self, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, op: int, blob: bytes, inputs: Any, output: Any, stats: Any) -> list[str]:
        return []

    def final_check(self, blob: bytes) -> dict[int, list[str]]:
        """Checks that need work no op should pay for; op index -> problems."""
        return {}

    def counts(self, output: Any) -> dict[str, float]:
        """Per-op counts the engine counters do not carry."""
        return {}

    def close(self) -> None:
        pass


def _cached(obj: Any, names: tuple[str, ...]) -> list[str]:
    return [name for name in names if name in vars(obj)]


def cached_analyses(instances: list[Instance]) -> list[str]:
    """Lazily cached analyses already present on an op's inputs."""
    found: set[str] = set()
    for instance in instances:
        found.update(f"Instance.{n}" for n in _cached(instance, ("flat_graph", "chain_layout")))
        for job in instance:
            found.update(f"DAG.{n}" for n in _cached(job.dag, ("height", "chain_runs")))
    return [f"input not cold: {name} already cached" for name in sorted(found)]


class Tables(Workload):
    """E1-E17 at ``smoke`` scale and registered seeds (``experiments`` narrows it for tests)."""

    name = "tables"

    def __init__(self, experiments: Optional[list[str]] = None) -> None:
        self.experiments = list(EXPERIMENTS) if experiments is None else experiments
        self._first_render: Optional[str] = None

    def setup(self, seed: int) -> bytes:
        return pickle.dumps(self.experiments, protocol=_PICKLE)

    def run(self, plan: list[str]) -> list:
        return [run_experiment(eid, "smoke") for eid in plan]

    def check(self, op: int, blob: bytes, plan: Any, results: list, stats: Any) -> list[str]:
        problems = [
            f"{r.experiment_id}: claim failed: {c.description}"
            for r in results
            for c in r.failed_claims()
        ]
        rendered = "\n".join(r.render() for r in results)
        if self._first_render is None:
            self._first_render = rendered
        elif rendered != self._first_render:
            problems.append("rendered tables differ from the first pass")
        if stats.select_calls <= 0:
            problems.append("path: no select() dispatch served the pass")
        if stats.batch_steps <= 0:
            problems.append("path: no simulate_batch step served the pass")
        return problems


def _policy(tie_break: type) -> Any:
    def factory() -> FIFOScheduler:
        return FIFOScheduler(tie_break())

    return factory


#: The sweep's policies: FIFO with each tie-break.
SWEEP_POLICIES = {
    "arbitrary": _policy(ArbitraryTieBreak),
    "lpf": _policy(LongestPathTieBreak),
    "mc": _policy(MostChildrenTieBreak),
}


class Sweep(Workload):
    """Cold three-policy ``run_trials`` sweep over random out-forest trials.

    Each trial holds ``JOBS`` out-forests of ``nodes`` nodes released in
    ``[0, RELEASE_WINDOW)``, run on ``M`` processors. ``sample`` trials,
    evenly spaced, are checked against single-instance ``simulate``.
    """

    name = "sweep"
    JOBS = 6
    RELEASE_WINDOW = 200
    M = 8

    def __init__(self, trials: int = 200, nodes: int = 150, sample: int = 8) -> None:
        self.trials, self.nodes = trials, nodes
        self.sample = list(range(0, trials, max(1, trials // sample)))[:sample]
        self._reference: Optional[dict[str, list[int]]] = None

    def setup(self, seed: int) -> bytes:
        rng = np.random.default_rng([seed, 1])
        corpus = []
        for _ in range(self.trials):
            releases = rng.integers(0, self.RELEASE_WINDOW, size=self.JOBS)
            corpus.append(
                Instance([Job(random_out_forest(self.nodes, rng), int(r)) for r in releases])
            )
        return pickle.dumps(corpus, protocol=_PICKLE)

    def cold_violations(self, corpus: list[Instance]) -> list[str]:
        return cached_analyses(corpus)

    def run(self, corpus: list[Instance]) -> dict[str, list]:
        return {
            name: run_trials(corpus, self.M, factory)
            for name, factory in SWEEP_POLICIES.items()
        }

    def check(
        self, op: int, blob: bytes, corpus: Any, output: dict[str, list], stats: Any
    ) -> list[str]:
        problems = []
        if self._reference is None:
            fresh = pickle.loads(blob)
            self._reference = {
                name: [simulate(fresh[i], self.M, factory()).max_flow for i in self.sample]
                for name, factory in SWEEP_POLICIES.items()
            }
        for name, schedules in output.items():
            if len(schedules) != len(corpus) or not all(s.is_complete for s in schedules):
                problems.append(f"{name}: incomplete schedules")
                continue
            batched = [schedules[i].max_flow for i in self.sample]
            if batched != self._reference[name]:
                problems.append(
                    f"{name}: batched max_flow {batched} != simulate {self._reference[name]}"
                )
        expected = len(SWEEP_POLICIES) * sum(inst.total_work for inst in corpus)
        if stats.selections != expected:
            problems.append(f"scheduled {stats.selections} subjobs, expected {expected}")
        if stats.batch_steps <= 0:
            problems.append("path: no lockstep batch step served the sweep")
        if stats.fallback_runs != 0:
            problems.append(f"path: {stats.fallback_runs} trials fell back to simulate")
        return problems


class Serve(Workload):
    """Replay of a Poisson trace through ``serve()`` with checkpoints.

    ``jobs`` random attachment trees with stratified log-uniform sizes in
    ``[MIN_NODES, max_nodes]`` arrive at the rate that loads ``M``
    processors to ``UTILISATION``; ticks and checkpoints come every
    ``every`` steps, into a fresh directory under ``workdir``.
    """

    name = "serve"
    MIN_NODES = 8
    M = 64
    UTILISATION = 0.9

    def __init__(
        self, workdir: str, jobs: int = 2000, max_nodes: int = 1024, every: int = 1000
    ) -> None:
        self.jobs, self.max_nodes, self.every = jobs, max_nodes, every
        os.makedirs(workdir, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
        self.checkpoint = os.path.join(self._dir, "serve.ckpt")
        self._max_flows: dict[int, int] = {}

    def setup(self, seed: int) -> bytes:
        rng = np.random.default_rng([seed, 2])
        # Job sizes are the log-uniform quantiles in a seeded order, so every
        # seed replays the same total work; the seed picks the order, the
        # tree shapes and the arrival gaps.
        quantiles = (np.arange(self.jobs) + 0.5) / self.jobs
        low, high = np.log(self.MIN_NODES), np.log(self.max_nodes)
        sizes = rng.permutation(np.rint(np.exp(low + quantiles * (high - low))).astype(np.int64))
        dags = [random_attachment_tree(int(n), rng) for n in sizes]
        # Arrival rate for the target utilisation of the trace's own work.
        rate = self.UTILISATION * self.M * self.jobs / int(sizes.sum())
        return pickle.dumps(poisson_instance(dags, rate, rng), protocol=_PICKLE)

    def load(self, blob: bytes) -> tuple[Instance, TraceReplaySource]:
        if os.path.exists(self.checkpoint):
            os.unlink(self.checkpoint)
        instance = pickle.loads(blob)
        return instance, TraceReplaySource.from_instance(instance)

    def cold_violations(self, inputs: tuple[Instance, Any]) -> list[str]:
        return cached_analyses([inputs[0]])

    def run(self, inputs: tuple[Instance, TraceReplaySource]) -> tuple[int, io.StringIO]:
        out = io.StringIO()
        status = serve(
            inputs[1],
            self.M,
            policy="fifo",
            tick_every=self.every,
            checkpoint_path=self.checkpoint,
            checkpoint_every=self.every,
            out=out,
            err=io.StringIO(),
        )
        return status, out

    @staticmethod
    def summary(output: tuple[int, io.StringIO]) -> dict[str, Any]:
        return json.loads(output[1].getvalue().splitlines()[-1])

    def check(self, op: int, blob: bytes, inputs: Any, output: Any, stats: Any) -> list[str]:
        instance = inputs[0]
        status, _ = output
        if status != 0:
            return [f"serve() returned {status}"]
        summary = self.summary(output)
        problems = []
        if summary["jobs_completed"] != len(instance):
            problems.append(f"jobs_completed {summary['jobs_completed']} != {len(instance)}")
        if summary["subjobs_completed"] != instance.total_work:
            problems.append(
                f"subjobs_completed {summary['subjobs_completed']} != {instance.total_work}"
            )
        restored = StreamMetrics.from_state(load_checkpoint(self.checkpoint)["metrics"]).summary()
        if any(summary[key] != value for key, value in restored.items()):
            problems.append("final checkpoint metrics differ from the run's summary")
        if stats.stream_arena_steps <= 0:
            problems.append("path: no arena step served the stream")
        self._max_flows[op] = summary["max_flow"]
        return problems

    def final_check(self, blob: bytes) -> dict[int, list[str]]:
        fifo = FIFOScheduler(ArbitraryTieBreak())
        reference = simulate(pickle.loads(blob), self.M, fifo).max_flow
        return {
            op: [f"max_flow {flow} != simulate {reference}"]
            for op, flow in self._max_flows.items()
            if flow != reference
        }

    def counts(self, output: Any) -> dict[str, float]:
        return {"streaming.engine.live_subjob_hwm": float(self.summary(output)["live_subjob_hwm"])}

    def close(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)


WORKLOADS = {"tables": Tables, "sweep": Sweep, "serve": Serve}
