"""Experiment registry: id → runner, with the DESIGN.md per-experiment index
mirrored in code. ``run_all`` regenerates every table/figure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import (
    e1_packing,
    e2_lpf_shape,
    e3_fifo_lower_bound,
    e4_lpf_optimal,
    e5_mc_busy,
    e6_algA_semibatched,
    e7_algA_general,
    e8_fifo_batched,
    e9_tiebreak_ablation,
    e10_alpha_beta,
    e11_dag_shaping_gap,
    e12_fifo_beyond_batched,
    e13_runtime_baselines,
    e14_norm_tradeoff,
    e15_phased_generalization,
    e16_augmentation,
    e17_nonclairvoyant_lower_bound,
)
from .runner import ExperimentResult
from .supervisor import SupervisorConfig, fan_out

__all__ = ["Experiment", "EXPERIMENTS", "SCALE_PRESETS", "run_experiment", "run_all"]


@dataclass(frozen=True)
class Experiment:
    """Registry entry for one reproducible experiment."""

    experiment_id: str
    paper_artifact: str
    description: str
    run: Callable[..., ExperimentResult]


EXPERIMENTS: dict[str, Experiment] = {
    e.experiment_id: e
    for e in [
        Experiment(
            "E1",
            "Figure 1",
            "Two feasible packings of one job on three processors",
            e1_packing.run,
        ),
        Experiment(
            "E2",
            "Figure 2, Lemmas 5.2/5.3",
            "Head/tail shape of LPF[m/alpha]",
            e2_lpf_shape.run,
        ),
        Experiment(
            "E3",
            "Theorem 4.2",
            "FIFO Omega(log m) lower bound on adversarial out-trees",
            e3_fifo_lower_bound.run,
        ),
        Experiment(
            "E4",
            "Lemma 5.3, Corollary 5.4",
            "LPF optimality for single out-forests",
            e4_lpf_optimal.run,
        ),
        Experiment(
            "E5",
            "Lemma 5.5",
            "MC busy property under fluctuating allocations",
            e5_mc_busy.run,
        ),
        Experiment(
            "E6",
            "Theorem 5.6",
            "Algorithm A on semi-batched instances vs FIFO",
            e6_algA_semibatched.run,
        ),
        Experiment(
            "E7",
            "Theorem 5.7",
            "Guess-and-double Algorithm A on general arrivals",
            e7_algA_general.run,
        ),
        Experiment(
            "E8",
            "Theorem 6.1, Lemmas 6.4/6.5",
            "FIFO on batched instances: logarithmic upper bound",
            e8_fifo_batched.run,
        ),
        Experiment(
            "E9",
            "Sections 1/4 discussion",
            "FIFO tie-break ablation on frozen adversarial instances",
            e9_tiebreak_ablation.run,
        ),
        Experiment(
            "E10",
            "Section 5.3 constants",
            "Algorithm A alpha/beta ablation",
            e10_alpha_beta.run,
        ),
        Experiment(
            "E11",
            "Section 1 discussion",
            "LPF optimality gap: trees vs series-parallel vs general DAGs",
            e11_dag_shaping_gap.run,
        ),
        Experiment(
            "E12",
            "Section 6 remark, open question 1",
            "FIFO beyond the batched assumption (conjecture probe)",
            e12_fifo_beyond_batched.run,
        ),
        Experiment(
            "E13",
            "Sections 1/2 context",
            "Runtime baselines: work stealing vs FIFO vs shaping",
            e13_runtime_baselines.run,
        ),
        Experiment(
            "E14",
            "Section 1 norm choice",
            "SRPT vs FIFO: mean flow against maximum flow",
            e14_norm_tradeoff.run,
        ),
        Experiment(
            "E15",
            "Section 1 generalization hint",
            "Phased Algorithm A on series-of-out-tree jobs",
            e15_phased_generalization.run,
        ),
        Experiment(
            "E16",
            "Section 2 augmentation discussion",
            "Machine augmentation evaporates the adversarial family",
            e16_augmentation.run,
        ),
        Experiment(
            "E17",
            "Conclusion open question 2",
            "The adaptive bound defeats every non-clairvoyant FIFO tie-break",
            e17_nonclairvoyant_lower_bound.run,
        ),
    ]
}


#: Parameter presets per experiment. ``"smoke"`` keeps every experiment
#: under a few seconds (used by the integration tests and ``--scale smoke``);
#: ``"default"`` is each experiment's own defaults (the benchmark scale);
#: ``"full"`` pushes the sweeps to the scales quoted in EXPERIMENTS.md's
#: headline tables (minutes of runtime, e.g. the m = 128 adversary).
SCALE_PRESETS: dict[str, dict[str, dict]] = {
    "smoke": {
        "E1": {},
        "E2": {"ms": (16,), "n_nodes": 120, "trials": 2},
        "E3": {"ms": (8, 16, 32), "jobs_per_m": 3},
        "E4": {"ms": (2, 4), "sizes": (20, 60), "trials": 2},
        "E5": {"width": 4, "n_nodes": 80, "trials": 2},
        "E6": {"ms": (8, 16, 32), "n_jobs": 12},
        "E7": {"ms": (8, 16), "n_jobs": 10},
        "E8": {"ms": (4, 8), "n_batches": 6},
        "E9": {"ms": (16, 32), "jobs_per_m": 3},
        "E10": {"m": 16, "alphas": (4, 8), "betas": (8, 258), "n_jobs": 6},
        "E11": {"trials": 15},
        "E12": {"ms": (4, 8), "n_batches": 6},
        "E13": {"m": 8, "n_jobs": 8, "elements": 60},
        "E14": {"m": 8, "small": 16, "disparities": (4, 16)},
        "E15": {"ms": (8, 16), "n_jobs": 6},
        "E16": {"ms": (8, 16), "factors": (1, 2)},
        "E17": {"ms": (8, 16), "jobs_per_m": 3},
    },
    "default": {},
    "full": {
        "E2": {"ms": (16, 64, 256), "n_nodes": 1200, "trials": 10},
        "E3": {"ms": (8, 16, 32, 64, 128), "jobs_per_m": 4},
        "E4": {"ms": (2, 4, 8, 16, 32), "sizes": (20, 100, 400, 1000), "trials": 4},
        "E5": {"width": 16, "n_nodes": 1200, "trials": 12},
        "E6": {"ms": (8, 16, 32, 64, 128), "n_jobs": 32},
        "E7": {"ms": (8, 16, 32, 64, 128), "n_jobs": 30},
        "E8": {"ms": (4, 8, 16, 32, 64), "n_batches": 16},
        "E9": {"ms": (16, 32, 64, 128), "jobs_per_m": 4},
        "E10": {"m": 64, "alphas": (3, 4, 8, 16, 32), "betas": (4, 8, 32, 128, 258)},
        "E11": {"trials": 200, "n_nodes": 12},
        "E12": {"ms": (4, 8, 16, 32, 64), "n_batches": 20},
        "E13": {"m": 32, "n_jobs": 24, "elements": 300},
        "E14": {"m": 32, "small": 48, "disparities": (4, 16, 48, 96)},
        "E15": {"ms": (8, 16, 32, 64), "n_jobs": 14},
        "E16": {"ms": (8, 16, 32, 64), "factors": (1, 2, 4, 8)},
        "E17": {"ms": (8, 16, 32, 64, 128), "jobs_per_m": 4},
    },
}


def run_experiment(
    experiment_id: str,
    scale: str = "default",
    *,
    engine_stats: bool = False,
    **params,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"E3"``).

    ``scale`` selects a :data:`SCALE_PRESETS` preset; explicit ``params``
    override preset entries. With ``engine_stats=True`` the engine effort
    spent by this run (steps, fast-forwarded steps, selections, ns/subjob)
    is appended to ``result.notes`` — opt-in so golden rendered outputs
    stay byte-stable.
    """
    if scale not in SCALE_PRESETS:
        raise KeyError(f"unknown scale {scale!r}; options: {sorted(SCALE_PRESETS)}")
    kwargs = dict(SCALE_PRESETS[scale].get(experiment_id, {}))
    kwargs.update(params)
    if not engine_stats:
        return EXPERIMENTS[experiment_id].run(**kwargs)
    from ..core import engine_stats_snapshot

    before = engine_stats_snapshot()
    result = EXPERIMENTS[experiment_id].run(**kwargs)
    result.notes.append(
        f"engine: {engine_stats_snapshot().delta(before).summary()}"
    )
    return result


def _run_registered(task: tuple) -> ExperimentResult:
    """Top-level worker for parallel :func:`run_all` (must be picklable)."""
    experiment_id, scale, engine_stats, kwargs = task
    return run_experiment(
        experiment_id, scale=scale, engine_stats=engine_stats, **kwargs
    )


def _registered_key(task: tuple) -> str:
    """Stable checkpoint-journal key for one ``run_all`` task."""
    exp_id, scale, engine_stats, kwargs = task
    return (
        f"run_all|{exp_id}|scale={scale}|stats={engine_stats}"
        f"|{sorted(kwargs.items())!r}"
    )


def run_all(
    scale: str = "default",
    *,
    n_workers: Optional[int] = None,
    engine_stats: bool = False,
    only: Optional[list[str]] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = True,
    **params_by_id,
) -> list[ExperimentResult]:
    """Run every experiment; ``params_by_id`` maps id -> kwargs dict.

    ``only`` restricts the run to the given experiment ids (registry order
    is kept regardless of the order given). With ``n_workers > 1`` the runs
    fan out over the persistent shared process pool
    (:func:`repro.experiments.pool.shared_pool`, reused across calls) under
    :func:`repro.experiments.supervisor.run_supervised` — worker crashes
    rebuild the pool, hung tasks hit the ``supervisor`` timeout, and after
    repeated pool failures the sweep degrades to serial execution.
    Results are returned in registry order regardless of completion order,
    and each worker's :class:`~repro.core.EngineStats` delta is folded into
    this process's accumulator. Worker processes re-import this module, so
    a monkeypatched registry is only visible to the serial path — tests
    that stub experiments must use the default (serial) mode.

    With ``checkpoint_dir`` every completed experiment is journaled
    atomically, so a killed sweep re-invoked with the same arguments and
    ``resume=True`` skips straight past the finished ids (works for both
    the serial and the parallel path). ``KeyboardInterrupt`` is re-raised
    after a clean pool shutdown; journaled results survive for the resume.
    """
    if only is not None:
        unknown = set(only) - set(EXPERIMENTS)
        if unknown:
            raise KeyError(f"unknown experiment ids: {sorted(unknown)}")
    tasks = [
        (exp_id, scale, engine_stats, params_by_id.get(exp_id, {}))
        for exp_id in EXPERIMENTS
        if only is None or exp_id in only
    ]
    keys = [_registered_key(task) for task in tasks]
    return fan_out(
        _run_registered,
        tasks,
        keys,
        n_workers=n_workers,
        supervisor=supervisor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
    )
