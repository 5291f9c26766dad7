"""One conformance matrix: every engine path against ``_simulate_reference``.

A cell is (path, scheduler, workload family, availability trace). The
oracle row ``ref`` (``_simulate_reference``, the dispatch loop) runs once
per cell; every other path must reproduce it bit for bit:

* ``list`` - ``simulate`` on a list rule, no observer or fault injector
  (``_simulate_list_rule``: whole-frontier commits, kernel truncation,
  macro-steps on out-forests);
* ``faulted`` - ``simulate`` with a :class:`FaultInjector` (crashes plus
  perturbed delivery), against the unfaulted ``ref``;
* ``batch`` - ``simulate_batch`` over all of a family's instances, under a
  constant ``m``, a shared trace and per-instance traces; schedulers that
  are not FIFO-walk list rules must come back identical and be counted
  in ``fallback_runs``;
* ``stream`` - :class:`StreamingEngine` replaying the instance
  (``fifo``/``lpf``/``srpt``): per-job flows, retirement order and the
  whole ``StreamMetrics.summary()`` derived from ``ref``;
* ``stream-resumed`` - the same run killed and restored through the
  checkpoint file format at drawn epochs, then drained;
* ``adversary`` - the Section 4 co-simulation's own FIFO schedule.

Dispatch-only schedulers (random tie-breaks, work stealing) are not list
rules: they run ``ref`` twice (determinism), ``faulted`` (validity) and
``batch`` (counted fallbacks). The paper's invariants run on each path's
output wherever they apply (streaming only gets the flow-based ones), and
one assertion per path checks, over all its cells, that the path served
its runs. Adding a list rule or an engine path is one more column or row.

Each cell runs once per session (:func:`cell`). Other modules name
slices of the matrix (:func:`conforming`): such a test names the family,
columns, machine size and seed it covers, and asserts that those cells
ran and passed, with no corpus or oracle of its own.
"""

from __future__ import annotations

import functools
import json
import math
import tempfile
import zlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    check_lemma_6_4,
    check_lemma_6_5,
    check_lpf_ancestor_structure,
    check_mc_busy,
    head_tail_shape,
    tau,
)
from repro.core import (
    Instance,
    Job,
    Schedule,
    as_trace,
    caterpillar,
    chain,
    engine_stats_snapshot,
    simulate,
    simulate_batch,
    spider,
)
from repro.core.simulator import _simulate_reference
from repro.faults import FaultInjector, availability_suite
from repro.schedulers import (
    FIFOScheduler,
    SRPTScheduler,
    WorkStealingScheduler,
    single_forest_opt,
)
from repro.streaming import StreamingEngine, StreamMetrics, load_checkpoint, save_checkpoint
from repro.workloads import (
    batched_instance,
    build_fifo_adversary,
    layered_tree,
    packed_instance,
    phased_parallel_for,
    poisson_instance,
    quicksort_tree,
    random_attachment_tree,
    random_out_forest,
)
from repro.workloads.arrivals import AdversarialDripSource, PoissonSource, TraceReplaySource

from .conftest import COVERAGE_TABLE
from .strategies import (
    KERNEL_TIE_BREAKS,
    KEY_ONLY_TIE_BREAKS,
    general_dags,
    instances,
    out_forests,
    out_trees,
)

# ---------------------------------------------------------------------------
# Columns: schedulers. Tie-breaks come from scanning ``TieBreak``
# subclasses (``strategies``), so a new one is covered with no edit here.
# ---------------------------------------------------------------------------

WALKS = {"fifo": FIFOScheduler, "srpt": SRPTScheduler}

#: List rules: each job walk with every kernel tie-break.
LIST_RULES: dict[str, Callable[[], Any]] = {
    f"{walk}-{tb().name}": (lambda cls=cls, tb=tb: cls(tb()))
    for walk, cls in WALKS.items()
    for tb in KERNEL_TIE_BREAKS
}
#: Schedulers that dispatch ``select`` every step.
DISPATCH_ONLY: dict[str, Callable[[], Any]] = {
    **{
        f"{walk}-{tb().name}": (lambda cls=cls, tb=tb: cls(tb(), seed=11))
        for walk, cls in WALKS.items()
        for tb in KEY_ONLY_TIE_BREAKS
    },
    "worksteal": lambda: WorkStealingScheduler(seed=11),
    "worksteal-wc": lambda: WorkStealingScheduler(seed=13, deterministic_fallback=True),
}
SCHEDULERS = {**LIST_RULES, **DISPATCH_ONLY}
#: The rules ``repro serve`` runs, by stream policy. Under fluctuating
#: traces only these (FIFO, LPF, SRPT) run, unless a family names more;
#: the other tie-breaks change only the in-job order, which the
#: constant-m cells cover.
STREAM_POLICY = {"fifo-arbitrary": "fifo", "fifo-longestpath": "lpf", "srpt-arbitrary": "srpt"}
LPF_COLUMNS = ("fifo-longestpath", "srpt-longestpath")
SRPT_RULES = ("srpt-arbitrary", "srpt-depth", "srpt-longestpath")


# ---------------------------------------------------------------------------
# Rows of workloads: families, built from repro.workloads and repro.core.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _adversary(m: int, n_jobs: int, **kwargs: Any):
    return build_fifo_adversary(m, n_jobs, **kwargs)


def _packed(seed):
    rng = np.random.default_rng(seed)
    return Instance([
        Job(layered_tree([4] * int(rng.integers(4, 9)), seed=seed + i), 3 * i) for i in range(4)
    ])


def _quicksort(seed):
    rng = np.random.default_rng(seed + 1000)
    return Instance([
        Job(quicksort_tree(int(rng.integers(20, 60)), seed=seed + i), 7 * i) for i in range(3)
    ])


def _forest(seed):
    rng = np.random.default_rng(seed + 2000)
    return Instance([
        Job(random_out_forest(int(rng.integers(15, 40)), seed=seed + i), int(r))
        for i, r in enumerate(rng.integers(0, 12, size=4))
    ])


def _bursty_gap(seed):
    """Same-time arrivals plus a long idle gap."""
    return Instance([
        Job(layered_tree([3] * 5, seed=seed), 0),
        Job(quicksort_tree(25, seed=seed), 0),
        Job(layered_tree([2] * 4, seed=seed + 1), 50),
    ])


def _chains(seed):
    rng = np.random.default_rng(seed)
    return Instance([
        Job(chain(int(rng.integers(20, 60))), int(rng.integers(0, 3))) for _ in range(4)
    ])


def _spiders(seed):
    rng = np.random.default_rng(seed + 100)
    return Instance([
        Job(spider(int(rng.integers(2, 5)), int(rng.integers(8, 25))), 5 * i) for i in range(3)
    ])


def _caterpillars(seed):
    rng = np.random.default_rng(seed + 200)
    return Instance([
        Job(caterpillar(int(rng.integers(10, 30)), 1), int(r)) for r in rng.integers(0, 10, size=3)
    ])


def _phased(seed):
    return Instance([
        Job(phased_parallel_for(4, 6, seed=seed), 0),
        Job(chain(40), 2),
        Job(phased_parallel_for(3, 8, seed=seed + 1), 15),
    ])


def _random_mix(seed):
    rng = np.random.default_rng(seed + 300)
    jobs = [
        Job(random_attachment_tree(int(rng.integers(10, 40)), rng), int(rng.integers(0, 20)))
        for _ in range(4)
    ]
    return Instance(jobs + [Job(chain(int(rng.integers(30, 80))), int(rng.integers(0, 20)))])


def _chains_batch(seed):
    rng = np.random.default_rng(seed)
    return [
        Instance([
            Job(chain(int(rng.integers(15, 50))), int(rng.integers(0, 4)))
            for _ in range(int(rng.integers(1, 4)))
        ])
        for _ in range(int(rng.integers(2, 7)))
    ]


def _random_batch(seed):
    rng = np.random.default_rng(seed + 100)
    return [
        Instance([
            Job(
                random_out_forest(int(rng.integers(5, 40)), seed=int(rng.integers(1 << 30))),
                int(rng.integers(0, 10)),
            )
            for _ in range(int(rng.integers(1, 4)))
        ])
        for _ in range(int(rng.integers(2, 7)))
    ]


def _ragged_batch(seed):
    """Sizes over two orders of magnitude: small instances finish early."""
    rng = np.random.default_rng(seed + 200)
    return [
        Instance([Job(random_attachment_tree(n, rng), int(rng.integers(0, 5)))])
        for n in (2, 3, 150, 5, 220, 8)
    ]


def _quicksort_stream(seed):
    rng = np.random.default_rng(seed)
    dags = [quicksort_tree(int(rng.integers(30, 120)), seed=seed * 31 + i) for i in range(8)]
    return poisson_instance(dags, rate=0.3, seed=seed)


def _serve_traffic(seed, jobs=40, m=8, low=8, high=256):
    """The ``serve`` benchmark's input at small scale: random attachment
    trees with stratified log-uniform sizes, Poisson arrivals at 90% load.
    This repeats ``perfbench/workloads.py``'s ``Serve.setup`` (its
    ``MIN_NODES``, ``UTILISATION``, the ``[seed, 2]`` stream and the order
    of draws); a change to that generator must be made here too, or this
    family stops being the benchmark's traffic."""
    rng = np.random.default_rng([seed, 2])
    quantiles = (np.arange(jobs) + 0.5) / jobs
    sizes = np.rint(np.exp(np.log(low) + quantiles * np.log(high / low))).astype(np.int64)
    dags = [random_attachment_tree(int(n), rng) for n in rng.permutation(sizes)]
    return poisson_instance(dags, 0.9 * m * jobs / int(sizes.sum()), rng)


def _fault_pair(m):
    rng = np.random.default_rng(100 + m)
    return Instance([
        Job(random_attachment_tree(int(rng.integers(10, 25)), rng), int(rng.integers(0, 6)))
        for _ in range(2)
    ])


def _batched_forests(m):
    """Thm 6.1's setting: one out-forest per batch, released every OPT
    steps, where OPT is the largest single-forest optimum (Cor. 5.4)."""
    sizes = np.random.default_rng(m + 400).integers(4, 30, size=6)
    dags = [random_out_forest(int(n), seed=7 * m + i) for i, n in enumerate(sizes)]
    return batched_instance(dags, max(single_forest_opt(d, m) for d in dags))


def _single(builder):
    return lambda seed: Instance([Job(builder(seed), 0)])


def _layered(widths, count, gap):
    return lambda s: Instance([
        Job(layered_tree(widths, seed=s + i), gap * i) for i in range(count)
    ])


def _stream(source, n_jobs):
    return lambda s: source(s).prefix_instance(n_jobs)


@dataclass(frozen=True)
class Family:
    name: str
    build: Callable[[int], Any]  # seed -> an Instance or a list of them
    seeds: tuple[int, ...]
    ms: Optional[tuple[int, ...]]  # None: run seed s at m = s
    n_random: Optional[int] = None  # seeded random traces per m, beside the adversarial ones
    horizon: int = 40
    traced: tuple[str, ...] = tuple(STREAM_POLICY)  # the columns run under fluctuating traces

    def machine_sizes(self) -> tuple[int, ...]:
        return self.seeds if self.ms is None else self.ms

    def group(self, m: int) -> tuple[list[Instance], list[int]]:
        """The instances run at ``m``, and the seed that built each."""
        insts: list[Instance] = []
        seeds: list[int] = []
        for seed in [m] if self.ms is None else self.seeds:
            built = self.build(seed)
            built = built if isinstance(built, list) else [built]
            insts += built
            seeds += [seed] * len(built)
        return insts, seeds

    def traces(self, m: int) -> list[tuple[str, Any]]:
        cells: list[tuple[str, Any]] = [("m", None)]
        if self.n_random is not None:
            cells += availability_suite(m, self.horizon, self.n_random, seed=m)
        return cells


FAMILIES = [
    Family("packed", _packed, (0, 1, 2, 3), (2, 8)),
    Family("packed-6", _layered([4] * 6, 3, 3), (0, 1, 2), (2, 8)),
    Family("packed-opt", lambda s: packed_instance(8, 6, flow=12, period=4, seed=s).instance,
           (5,), (3, 8)),
    Family("truncating", _layered([7] * 12, 3, 4), (0,), (5,)),
    Family("rectangles-8x30",
           lambda s: Instance([Job(layered_tree([8] * 30, seed=s), 10 * i) for i in range(3)]),
           (0,), (8,)),
    Family("quicksort", _quicksort, (0, 1, 2, 3), (2, 8)),
    Family("forest", _forest, (0, 1, 2, 3), (2, 8)),
    Family("adversary", lambda s: _adversary(4, 3, seed=s).instance, (0, 1, 2, 3), (2, 8)),
    Family("adversary-2m", lambda m: _adversary(m, 2 * m).instance, (2, 4), None),
    Family("adversary-e12", lambda s: _adversary(4, 12, period=3).instance, (0,), (4,)),
    Family("bursty-gap", _bursty_gap, (0, 1, 2, 3), (2, 8)),
    Family("chains", _chains, (0, 1, 2), (2, 8)),
    Family("chains-50", lambda s: Instance([Job(chain(50), 0) for _ in range(4)]), (0,), (4,)),
    Family("chains-50x2", lambda s: Instance([Job(chain(50), 0), Job(chain(50), 1)]), (0,), (4,)),
    Family("chain-40", _single(lambda s: chain(40)), (0,), (2,)),
    Family("spiders", _spiders, (0, 1, 2), (2, 8)),
    Family("spider-8x40", _single(lambda s: spider(8, 40)), (0,), (8,)),
    Family("caterpillars", _caterpillars, (0, 1, 2), (2, 8)),
    Family("phased", _phased, (0, 1, 2), (2, 8)),
    Family("random-mix", _random_mix, (0, 1, 2), (2, 8)),
    Family("random-mix-traced",
           lambda m: [_random_mix(m), Instance([Job(chain(60), 0), Job(chain(45), 4)])],
           (2, 5), None, 10),
    Family("chains-batch", _chains_batch, (0, 1, 2), (1, 3, 8)),
    Family("chains-120-90",
           lambda s: [Instance([Job(chain(120), 0), Job(chain(90), 5)]) for _ in range(5)],
           (0,), (4,)),
    Family("random-batch", _random_batch, (0, 1, 2), (1, 3, 8)),
    Family("random-batch-traced", lambda m: _random_batch(m) + [Instance([Job(chain(60), 0)])],
           (2, 5), None, 6, 30),
    Family("packed-batch", lambda s: [_layered([4] * 5, 2, 3)(s + i) for i in range(4)],
           (0, 1, 2), (1, 3, 8)),
    Family("adversary-batch", lambda s: [_adversary(4, 3, seed=s + i).instance for i in range(3)],
           (0, 1, 2), (1, 3, 8)),
    Family("ragged-batch", _ragged_batch, (0, 1, 2), (1, 3, 8)),
    Family("forest-30", _single(lambda s: random_out_forest(30, seed=s)), (5,), (2,)),
    Family("quicksort-stream", _quicksort_stream, (0, 3), (1, 3, 16)),
    Family("quicksort-stream-traced", _quicksort_stream, (2, 7), None, 1, 150,
           traced=tuple(STREAM_POLICY) + SRPT_RULES[1:]),
    Family("crash-rebuild", lambda s: Instance([Job(chain(10), 0), Job(chain(6), 5)]), (0,), (1,)),
    Family("poisson", _stream(lambda s: PoissonSource(0.5, s, dag_nodes=12), 20), (0, 1), (2, 4)),
    Family("poisson-traced", _stream(lambda s: PoissonSource(0.7, s, dag_nodes=10), 30),
           (4,), None, 3),
    Family("poisson-40", _stream(lambda s: PoissonSource(0.7, s, dag_nodes=40), 60), (11,), (6,)),
    Family("galton",
           _stream(lambda s: PoissonSource(0.3, s, dag_nodes=18, family="galton-watson"), 20),
           (0, 1), (3,)),
    Family("drip", _stream(lambda s: AdversarialDripSource(4, period=3, seed=s), 30), (5,), (4,)),
    Family("serve-traffic", _serve_traffic, (0,), (8,)),
    Family("batched-forests", _batched_forests, (2, 3, 4), None),
    Family("mc-tree", _single(lambda m: random_attachment_tree(30, np.random.default_rng(m))),
           (2, 3, 5, 8), None),
    # The fault-injection floor: 4 * (7 + 45) = 208 traces.
    Family("fault-pair", _fault_pair, (2, 3, 5, 8), None, 45,
           traced=tuple(STREAM_POLICY) + ("srpt-longestpath",)),
]
FAMILY = {fam.name: fam for fam in FAMILIES}

#: The Section 4 co-simulations checked as the ``adversary`` path, E12's
#: short periods included. A "first" key placement defeats FIFO walking
#: each frontier by descending id.
ADVERSARIES = [
    (4, 3, {}), (4, 8, {}), (8, 16, {"key_placement": "first"}), (6, 6, {"key_placement": "first"}),
    (8, 10, {"n_layers": 3}), (4, 12, {"period": 3}), (8, 24, {"period": 5}),
    (6, 5, {"period": 10}),
]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Where:
    """Where a check ran: a matrix cell, narrowed to one instance (the
    ``seed`` that built it and its index ``k``) or, with both ``None``,
    the whole cell (a batch, a crash)."""

    family: str
    col: str
    m: int
    trace: str
    seed: Optional[int] = None
    k: Optional[int] = None

    def __str__(self) -> str:
        cell = f"{self.family}/{self.col}/m={self.m}/{self.trace}"
        return cell if self.k is None else f"{cell}/#{self.k} (seed {self.seed})"


@dataclass
class Tally:
    """What the matrix ran: per (path, check) cell counts, per-path engine
    counters, every check with its outcome, and every failed one."""

    cells: Counter = field(default_factory=Counter)
    stats: dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    failures: dict[str, list[str]] = field(default_factory=lambda: defaultdict(list))
    records: list[tuple[str, str, bool, Where]] = field(default_factory=list)

    def check(self, path: str, check: str, ok: bool, where: Where, detail: str = "") -> None:
        self.cells[path, check] += 1
        self.records.append((path, check, ok, where))
        if not ok:
            self.failures[path].append(f"{check} @ {where}{detail}")

    def count(self, path: str, stats: Any, **extra: int) -> None:
        """Add an ``EngineStats``' counters to ``path``'s totals; a dict
        counter ``d`` adds ``d[key]`` as ``"d[key]"``."""
        counters = Counter(extra)
        for name, value in vars(stats).items():
            if type(value) is int:
                counters[name] += value
            elif isinstance(value, dict):
                counters.update({f"{name}[{key}]": n for key, n in value.items()})
        self.stats[path].update(counters)

    def merge(self, other: "Tally") -> None:
        self.cells.update(other.cells)
        for path, counters in other.stats.items():
            self.stats[path].update(counters)
        for path, failed in other.failures.items():
            self.failures[path] += failed
        self.records += other.records


def _same(a: Schedule, b: Schedule) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.completion, b.completion))


def _valid(schedule: Schedule) -> bool:
    try:
        schedule.validate()
    except Exception:
        return False
    return True


def _batched_opt(inst: Instance, m: int) -> Optional[int]:
    """OPT of Thm 6.1's setting, else ``None``: out-forest job ``k``
    released at ``k * OPT`` (Lemma 6.5's checker reads job ``k`` as the
    batch of time ``k * OPT``), OPT the largest single-forest optimum."""
    jobs = list(inst)
    if len(jobs) < 2 or not all(j.dag.is_out_forest for j in jobs):
        return None
    period = jobs[1].release
    if period < 1 or any(j.release != k * period for k, j in enumerate(jobs)):
        return None
    return period if period == max(single_forest_opt(j.dag, m) for j in jobs) else None


@functools.lru_cache(maxsize=None)
def _mc_busy(dag, m: int, tail: tuple[tuple[int, ...], ...]) -> bool:
    """Lemma 5.5: Most-Children replay of a packed LPF tail keeps every
    granted processor busy under a constant ``m`` and each of the fault
    suite's 52 traces at ``m``. Paths whose schedules are bit-identical
    share one replay."""
    steps = [np.array(nodes, dtype=np.int64) for nodes in tail]
    work = sum(len(nodes) for nodes in tail)
    allocations = [[m] * work] + [
        trace.prefix(40 + work) for _, trace in availability_suite(m, 40, 45, seed=m)
    ]
    return all(check_mc_busy(steps, dag, alloc).ok for alloc in allocations)


def _invariants(tally, path, col, inst, m, trace, where, schedule=None, flows=None):
    """The paper's invariants on one path's output. ``flows`` alone (the
    streaming paths) admits only the flow-based checks."""
    if schedule is not None:
        tally.check(path, "validate", _valid(schedule), where)
        flows = [schedule.job_flow(i) for i in range(len(inst))]
    max_flow = max(flows)
    dag = inst.jobs[0].dag
    if trace is None and col in LPF_COLUMNS and len(inst) == 1 and dag.is_out_forest:
        tally.check(path, "cor-5.4", max_flow == single_forest_opt(dag, m), where)
        alpha_ok = all(max_flow <= a * single_forest_opt(dag, a * m) for a in (2, 4))
        tally.check(path, "lemma-5.3", alpha_ok, where)
        if schedule is not None and col == "fifo-longestpath" and inst.jobs[0].release == 0:
            shape = head_tail_shape(schedule, m)
            ok = check_lpf_ancestor_structure(schedule, m).ok and shape.tail_fully_packed
            tally.check(path, "lemma-5.2", ok, where)
            tail = [nodes for _, nodes in schedule.job_steps(0)][shape.head_length :]
            if tail:  # an empty tail keeps every processor busy vacuously
                key = tuple(tuple(nodes.tolist()) for nodes in tail)
                tally.check(path, "lemma-5.5", _mc_busy(dag, m, key), where)
    opt = _batched_opt(inst, m) if trace is None and col.startswith("fifo") else None
    if opt is not None:
        bound = (int(math.log2(tau(m, opt))) + 1) * opt
        tally.check(path, "thm-6.1", max_flow <= bound, where)
        if schedule is not None:
            ok = check_lemma_6_4(schedule, opt).ok and check_lemma_6_5(schedule, opt).ok
            tally.check(path, "lemma-6.4/6.5", ok, where)


def _final_state(t: int, metrics: StreamMetrics) -> str:
    return json.dumps({"t": t, "summary": metrics.summary()}, sort_keys=True)


def _stream_expected(inst: Instance, m: int, policy: str, trace, ref: Schedule):
    """What the engine must report, derived from ``ref`` alone:
    ``(retirements, final_state)``; retirements are ``(index, flow)`` in
    retirement order (finish step, then the policy's job order)."""
    n = len(inst)
    release = [int(job.release) for job in inst]
    size = [int(job.dag.n) for job in inst]
    finish = [int(c.max()) for c in ref.completion]
    flows = [ref.job_flow(j) for j in range(n)]

    def retire_key(j):  # srpt orders a step's jobs by what they had left
        last = int(np.count_nonzero(ref.completion[j] == finish[j])) if policy == "srpt" else 0
        return (finish[j], last, j)

    retirements = [(j, flows[j]) for j in sorted(range(n), key=retire_key)]
    t_final = max(finish)
    live = np.zeros(t_final, dtype=np.int64)
    live_nodes = np.zeros(t_final, dtype=np.int64)
    for j in range(n):  # step t runs iff a job is admitted and not retired
        live[release[j] : finish[j]] += 1
        live_nodes[release[j] : finish[j]] += size[j]
    stepped = np.flatnonzero(live)
    metrics = StreamMetrics()
    metrics.jobs_admitted = n
    metrics.subjobs_admitted = metrics.subjobs_completed = metrics.busy = sum(size)
    metrics.steps = int(stepped.size)
    metrics.idle_skipped_steps = t_final - metrics.steps
    metrics.capacity_granted = sum(
        m if trace is None else trace.capacity_at(int(t)) for t in stepped
    )
    metrics.live_job_hwm = int(live.max())
    metrics.live_subjob_hwm = int(live_nodes.max())
    for flow in flows:
        metrics.record_completion(flow)
    return retirements, _final_state(t_final, metrics)


#: One checkpoint file for every resumed run: a save that replaces an
#: existing file reuses it, while the first save into a fresh directory
#: pays for the durable create (~0.1 s).
_CKPT_DIR = tempfile.TemporaryDirectory(prefix="conformance-")


def _run_stream(inst, m, policy, trace, epochs=()):
    """Run the streaming engine over ``inst``; with ``epochs``, checkpoint
    to a file after each run of that many steps, drop the engine and
    restore it from the file. Returns ``(engine, retirements)``."""
    source = TraceReplaySource.from_instance(inst)
    retired: list[tuple[int, int]] = []
    kwargs = dict(policy=policy, availability=trace, on_retire=lambda i, f: retired.append((i, f)))
    engine = StreamingEngine(source, m, **kwargs)
    ckpt = Path(_CKPT_DIR.name) / "stream.ckpt"
    for epoch in epochs:
        for _ in range(epoch):
            if not engine.step():
                break
        save_checkpoint(ckpt, engine.snapshot())
        engine = StreamingEngine.from_snapshot(load_checkpoint(ckpt), source, m, **kwargs)
    engine.run()
    return engine, retired


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------


#: The availability traces the ``faulted`` path runs under, beside a
#: constant ``m``: a family's first 12 (its 7 adversarial patterns, then
#: the first seeded random ones).
FAULTED_TRACES = 12


def _run_cell(tally, where, trace, insts, seeds, refs, *, faulted=True, resumed=True,
              epochs=None, per_instance=None):
    """One (family, m, trace) x scheduler cell over every path, given the
    cell's ``ref`` schedules. ``faulted`` and ``resumed`` switch the two
    costliest paths; ``epochs`` are the ``stream-resumed`` run's kill
    points (drawn from the cell when ``None``); ``per_instance`` is an
    extra batch, ``(one availability spec per instance, each row's
    expected schedule)``."""
    col, m = where.col, where.m
    make = SCHEDULERS[col]
    listed = col in LIST_RULES
    for k, (inst, ref) in enumerate(zip(insts, refs)):
        here = replace(where, seed=seeds[k], k=k)
        _invariants(tally, "ref", col, inst, m, trace, here, schedule=ref)
        if listed:
            out = simulate(inst, m, make(), availability=trace)
            tally.check("list", "= ref", _same(out, ref), here)
            tally.check("list", "no dispatch", out.engine_stats.select_calls == 0, here)
            _invariants(tally, "list", col, inst, m, trace, here, schedule=out)
            lpf_macro = out.engine_stats.macro_steps if col == "fifo-longestpath" else 0
            tally.count("list", out.engine_stats, lpf_macro_steps=lpf_macro)
        else:
            again = _simulate_reference(inst, m, make(), availability=trace)
            tally.check("ref", "deterministic", _same(ref, again), here)
        if faulted:
            first = inst.jobs[0].release
            crash_times = (first + 1, first + 4 + k % 5)
            injector = FaultInjector(
                crash_times=crash_times, perturb_delivery=True, seed=1000 * m + k
            )
            out = simulate(inst, m, make(), availability=trace, fault_injector=injector)
            if listed:  # crashes and delivery order change nothing a list rule decides
                tally.check("faulted", "= ref", _same(out, ref), here)
            # A crash fires at every crash time at which the run has work left.
            finish = [int(c.max()) for c in out.completion]
            live = [t for t in crash_times if any(j.release <= t < f for j, f in zip(inst, finish))]
            tally.check("faulted", "crashes fired", injector.crashes == live, here)
            _invariants(tally, "faulted", col, inst, m, trace, here, schedule=out)
            crashes = len(injector.crashes)
            tally.count("faulted", out.engine_stats, crashes=crashes, runs=1,
                        crashed_runs=int(crashes > 0))
        policy = STREAM_POLICY.get(col)
        if policy is None:
            continue
        expected, state = _stream_expected(inst, m, policy, trace, ref)
        engine, retired = _run_stream(inst, m, policy, trace)
        tally.check("stream", "= ref", retired == expected, here)
        tally.check("stream", "summary", _final_state(engine.t, engine.metrics) == state, here)
        flows = [flow for _, flow in sorted(retired)]
        _invariants(tally, "stream", col, inst, m, trace, here, flows=flows)
        tally.count("stream", engine.stats)
        if not resumed:
            continue
        kills = epochs
        if kills is None:
            rng = np.random.default_rng([m, k, zlib.crc32(str(where).encode())])
            kills = rng.integers(1, 40, size=int(rng.integers(1, 4))).tolist()
        engine, retired = _run_stream(inst, m, policy, trace, kills)
        tally.check("stream-resumed", "= ref", retired == expected, here)
        summary_ok = _final_state(engine.t, engine.metrics) == state
        tally.check("stream-resumed", "summary", summary_ok, here)
        tally.count("stream-resumed", engine.stats, restores=len(kills))
    # One batch over the family, under the cell's trace, then under
    # per-instance traces.
    eligible = listed and col.startswith("fifo")
    variants = [(where, trace, refs)]
    if per_instance is not None:
        variants.append((replace(where, trace=f"{where.trace}/per-instance"), *per_instance))
    for at, spec, expected_refs in variants:
        before = engine_stats_snapshot()
        out = simulate_batch(insts, m, make(), availability=spec)
        delta = engine_stats_snapshot().delta(before)
        fallbacks = 0 if eligible else len(insts)
        tally.check("batch", "fallback counted", delta.fallback_runs == fallbacks, at)
        for k, (inst, got, ref) in enumerate(zip(insts, out, expected_refs)):
            here = replace(at, seed=seeds[k], k=k)
            tally.check("batch", "= ref", _same(got, ref), here)
            if spec is trace:
                _invariants(tally, "batch", col, inst, m, trace, here, schedule=got)
            if not eligible:  # a fallback run is simulate's own list-rule or dispatch path
                calls = got.engine_stats.steps if not listed else 0
                tally.check("batch", "fallback path", got.engine_stats.select_calls == calls, here)
        tally.count(
            "batch", delta,
            chain_macro_steps=delta.macro_steps if where.family.startswith("chains") else 0,
            eligible_batch_steps=delta.batch_steps if eligible else 0,
        )


@functools.lru_cache(maxsize=None)
def _group(family: str, m: int) -> tuple[list[Instance], list[int]]:
    return FAMILY[family].group(m)


@functools.lru_cache(maxsize=None)
def _traces(family: str, m: int) -> dict[str, Any]:
    return dict(FAMILY[family].traces(m))


@functools.lru_cache(maxsize=None)
def _refs(family: str, m: int, trace_name: str, col: str) -> list[Schedule]:
    """The oracle's schedules of one cell's instances, once per session."""
    trace = _traces(family, m)[trace_name]
    return [
        _simulate_reference(inst, m, SCHEDULERS[col](), availability=trace)
        for inst in _group(family, m)[0]
    ]


def _per_instance(family: str, m: int, trace_name: str, col: str):
    """A batch of the family under per-instance traces: every third row
    keeps the constant ``m`` (a ``None`` hole), row ``b`` otherwise runs
    the family's ``b``-th trace after ``trace_name``, so rows run distinct
    traces; each row must equal its own ``ref`` run."""
    names = list(_traces(family, m))
    at, n = names.index(trace_name), len(_group(family, m)[0])
    rows = ["m" if b % 3 == 0 else names[(at + b) % len(names)] for b in range(n)]
    specs = [_traces(family, m)[name] for name in rows]
    return specs, [_refs(family, m, name, col)[b] for b, name in enumerate(rows)]


def _cells(family: str, cols=None, m=None, traces="any"):
    """The matrix's (m, trace name, column) cells of ``family``, narrowed
    to ``cols``, machine size ``m`` and ``traces`` ("constant", "traced"
    or "any")."""
    fam = FAMILY[family]
    for size in fam.machine_sizes():
        if m is not None and size != m:
            continue
        for trace_name, trace in _traces(family, size).items():
            if traces != "any" and (trace is None) != (traces == "constant"):
                continue
            for col in SCHEDULERS if trace is None else fam.traced:
                if cols is None or col in cols:
                    yield size, trace_name, col


@functools.lru_cache(maxsize=None)
def cell(family: str, m: int, trace_name: str, col: str) -> Tally:
    """Run one matrix cell over every path, once per session. The
    ``faulted`` path runs under a constant ``m`` and the first
    ``FAULTED_TRACES`` traces, ``stream-resumed`` under all but the
    seeded random ones."""
    insts, seeds = _group(family, m)
    index = list(_traces(family, m)).index(trace_name)  # 0: the constant m
    where = Where(family, col, m, trace_name)
    tally = Tally()
    try:
        per_instance = None
        if index and len(insts) > 1:
            per_instance = _per_instance(family, m, trace_name, col)
        _run_cell(
            tally, where, _traces(family, m)[trace_name], insts, seeds,
            _refs(family, m, trace_name, col),
            faulted=index <= FAULTED_TRACES, resumed=not trace_name.startswith("random"),
            per_instance=per_instance,
        )
    except Exception as exc:  # a crashing path fails its cell, not the matrix
        tally.check("matrix", "runs", False, where, f": {exc!r}")
    return tally


def conforming(family, cols, *, m=None, seed=None, traces="constant", paths=None, checks=None):
    """Assert that the matrix cells of ``family`` x ``cols`` (narrowed as
    :func:`_cells` does, and to the instances built from ``seed``, to
    ``paths`` and to ``checks``) ran checks and passed every one; a cell
    that raised fails whatever the narrowing. Returns a tally of the
    selected checks, with those cells' engine counters per path."""
    cols = (cols,) if isinstance(cols, str) else tuple(cols)
    picked = Tally()
    failed: list[str] = []
    for size, trace_name, col in _cells(family, cols, m, traces):
        got = cell(family, size, trace_name, col)
        picked.merge(replace(got, records=[], failures={}))
        failed += got.failures.get("matrix", [])
        picked.records += [
            (path, check, ok, where)
            for path, check, ok, where in got.records
            if (paths is None or path in paths)
            and (checks is None or check in checks)
            and (seed is None or where.seed in (None, seed))
        ]
    failed += [f"{path}: {check} @ {where}" for path, check, ok, where in picked.records if not ok]
    assert picked.records, f"no matrix check ran for {family} x {cols}"
    assert not failed, f"{len(failed)} failed checks, first: {failed[:5]}"
    return picked


def run_matrix() -> Tally:
    tally = Tally()
    for fam in FAMILIES:
        for m, trace_name, col in _cells(fam.name):
            tally.merge(cell(fam.name, m, trace_name, col))
    for m, n_jobs, kwargs in ADVERSARIES:
        adv = _adversary(m, n_jobs, **kwargs)
        where = Where("adversary", str(kwargs), m, f"n={n_jobs}")
        col = "fifo-reverse" if kwargs.get("key_placement") == "first" else "fifo-arbitrary"
        ref = _simulate_reference(adv.instance, m, SCHEDULERS[col]())
        tally.check("adversary", "= ref", _same(adv.fifo_schedule, ref), where)
        schedule = adv.fifo_schedule
        _invariants(tally, "adversary", col, adv.instance, m, None, where, schedule=schedule)
        if adv.opt_witness is not None:
            ok = _valid(adv.opt_witness) and adv.opt_witness.max_flow <= adv.period
            tally.check("adversary", "witness <= period", ok, where)
    return tally


PATHS = ("ref", "list", "faulted", "batch", "stream", "stream-resumed", "adversary")


def coverage_table(tally: Tally) -> str:
    checks = sorted({check for _, check in tally.cells})
    rows = [["path"] + checks]
    for path in PATHS:
        rows.append([path] + [str(tally.cells.get((path, c), "")) for c in checks])
    widths = [max(len(r[i]) for r in rows) for i in range(len(checks) + 1)]
    return "\n".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows)


@pytest.fixture(scope="module")
def matrix(request) -> Tally:
    tally = run_matrix()
    request.config.stash[COVERAGE_TABLE] = coverage_table(tally)
    return tally


@pytest.mark.parametrize("path", ("matrix",) + PATHS)
def test_every_cell_conforms(matrix, path):
    """Bit-identity with ``ref`` and the paper's invariants, per path."""
    failures = matrix.failures.get(path, [])
    assert not failures, f"{len(failures)} failed cells, first: {failures[:5]}"
    assert path == "matrix" or sum(n for (p, _), n in matrix.cells.items() if p == path) > 0


def test_list_path_engages(matrix):
    stats = matrix.stats["list"]
    assert stats["fast_forwarded_steps"] > 0 and stats["kernel_steps"] > 0
    assert stats["compressed_steps"] > stats["macro_steps"] > 0  # a macro-step covers >= 2 steps
    assert stats["lpf_macro_steps"] > 0  # on LPF's encoded frontiers too


def test_faulted_path_engages(matrix):
    stats = matrix.stats["faulted"]
    assert stats["select_calls"] == stats["steps"] > 0
    assert stats["crashes"] > 0


def test_batch_path_engages(matrix):
    stats = matrix.stats["batch"]
    assert stats["eligible_batch_steps"] > 0 and stats["fallback_runs"] > 0
    assert stats["chain_macro_steps"] > 0


def test_stream_paths_engage(matrix):
    for path in ("stream", "stream-resumed"):
        stats = matrix.stats[path]
        assert stats["stream_arena_steps"] > 0
        assert stats["stream_epoch_compressed"] >= 2 * stats["stream_epoch_steps"] > 0
    assert matrix.stats["stream-resumed"]["restores"] > 0


def test_paper_invariants_run_on_every_path(matrix):
    """Streaming gets the flow-based checks; every schedule path gets all."""
    flow_based = {"cor-5.4", "lemma-5.3", "thm-6.1"}
    every = flow_based | {"lemma-5.2", "lemma-5.5", "lemma-6.4/6.5"}
    for path, wanted in [(p, every) for p in ("ref", "list", "faulted", "batch")] + [
        ("stream", flow_based)
    ]:
        assert wanted <= {c for p, c in matrix.cells if p == path}, path


# ---------------------------------------------------------------------------
# Hypothesis-drawn instances and stream prefixes, on every path.
# ---------------------------------------------------------------------------


_DAGS = st.one_of(out_trees(max_nodes=20), out_forests(max_nodes=20), general_dags(max_nodes=12))


def _drawn_trace(m: int, availability: Optional[list[int]]):
    """A drawn availability sequence, capped at ``m`` and back to ``m``
    after it."""
    return None if availability is None else as_trace([min(v, m) for v in availability], m)


@given(
    instances(max_jobs=3, dag_strategy=_DAGS),
    st.integers(1, 6),
    st.one_of(st.none(), st.lists(st.integers(0, 6), min_size=1, max_size=15)),
)
@example(Instance([Job(chain(1), 1), Job(chain(1), 2)]), 1, None)  # period 1, first batch at 1
@settings(max_examples=30, deadline=None)
def test_drawn_instances_conform(instance, m, availability):
    """Drawn instances under a constant ``m`` or a drawn availability
    sequence, through every path of every column."""
    drawn_conforms(instance, m, _drawn_trace(m, availability))


@st.composite
def _stream_prefixes(draw):
    """The first jobs of a Poisson, Galton-Watson or adversarial-drip stream."""
    seed, width = draw(st.integers(0, 10_000)), draw(st.integers(2, 6))
    source = draw(st.sampled_from([
        PoissonSource(0.5, seed, dag_nodes=12),
        PoissonSource(0.3, seed, dag_nodes=18, family="galton-watson"),
        AdversarialDripSource(width, period=3, seed=seed),
    ]))
    return source.prefix_instance(draw(st.integers(1, 25)))


@given(
    st.sampled_from(tuple(STREAM_POLICY)),
    _stream_prefixes(),
    st.integers(2, 6),
    st.one_of(st.none(), st.lists(st.integers(0, 3), min_size=1, max_size=15)),
    st.lists(st.integers(1, 40), min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_drawn_streams_conform(col, instance, m, availability, epochs):
    """Drawn stream prefixes, one stream policy's column each, under a
    constant ``m`` or a drawn availability sequence, through every path;
    the ``stream-resumed`` run is killed and restored at drawn epochs."""
    drawn_conforms(instance, m, _drawn_trace(m, availability), cols=(col,), epochs=epochs)


def drawn_conforms(instance, m, trace=None, cols=SCHEDULERS, epochs=None):
    """Run one drawn instance through every path of ``cols`` and assert
    every check passed."""
    tally = Tally()
    for col in cols:
        ref = _simulate_reference(instance, m, SCHEDULERS[col](), availability=trace)
        where = Where("drawn", col, m, "drawn")
        _run_cell(tally, where, trace, [instance], [0], [ref], epochs=epochs)
    assert tally.records and not any(tally.failures.values()), dict(tally.failures)
