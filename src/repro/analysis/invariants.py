"""Checkers for the paper's structural lemmas.

Each function takes concrete schedules/objects and verifies a lemma's
statement *exactly*, returning a :class:`CheckResult` with details. They are
used three ways: as assertions in the property-based test suite, as columns
in experiment tables (how often/tightly each structural property holds), and
as debugging aids when modifying the schedulers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import math

import numpy as np

from ..core.exceptions import ConfigurationError
from ..core.schedule import Schedule
from ..schedulers.mc import MostChildrenReplayer
from .bounds import idle_count_curve, remaining_work_curve, tau

__all__ = [
    "CheckResult",
    "check_lpf_ancestor_structure",
    "head_tail_shape",
    "HeadTailShape",
    "check_mc_busy",
    "check_work_conserving",
    "check_lemma_6_4",
    "check_lemma_6_5",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an invariant check."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


# ----------------------------------------------------------------------
# Lemma 5.2: LPF ancestor-chain structure at the last idle step
# ----------------------------------------------------------------------


def check_lpf_ancestor_structure(
    schedule: Schedule, width: int, job_id: int = 0
) -> CheckResult:
    """Verify Lemma 5.2 on a *single-job* LPF schedule on ``width``
    processors.

    Let ``t`` be the last step with ``1 <= |S(t)| <= width - 1`` (an idle
    processor). The lemma asserts that either every subjob of ``S(t)`` is a
    leaf (so the job completes at ``t``), or for every non-leaf
    ``j ∈ S(t)`` and every earlier step ``s < t``, the ancestor ``t - s``
    hops above ``j`` is exactly the one scheduled in ``S(s)``.
    """
    job = schedule.instance[job_id]
    dag = job.dag
    if not dag.is_out_forest:
        raise ConfigurationError("Lemma 5.2 is stated for out-forests")
    parent = dag.parent_array()
    c = schedule.completion[job_id]
    makespan = int(c.max())
    usage = schedule.usage_profile([job_id])
    last_idle = 0
    for t in range(1, makespan + 1):
        if 1 <= usage[t] <= width - 1:
            last_idle = t
    if last_idle == 0:
        return CheckResult(True, "no idle step: schedule is a full rectangle")
    t = last_idle
    steps = {u: set(np.nonzero(c == u)[0].tolist()) for u in range(1, makespan + 1)}
    in_step_t = steps[t]
    if all(dag.outdegree[j] == 0 for j in in_step_t):
        if t != makespan:
            return CheckResult(
                False,
                f"all of S({t}) are leaves but the job completes at "
                f"{makespan} != {t}",
            )
        return CheckResult(True, "first bullet: S(t) all leaves, job done at t")
    for j in in_step_t:
        if dag.outdegree[j] == 0:
            continue
        anc = j
        for s in range(t - 1, 0, -1):
            anc = int(parent[anc])
            if anc < 0:
                return CheckResult(
                    False,
                    f"subjob {j} in S({t}) has no ancestor {t - s} hops up "
                    f"(chain too short for s={s})",
                )
            if anc not in steps.get(s, set()):
                return CheckResult(
                    False,
                    f"t={t}, subjob {j}: ancestor {t - s} hops up "
                    f"({anc}) not in S({s})",
                )
    return CheckResult(True)


# ----------------------------------------------------------------------
# Figure 2: head/tail shape of LPF[m/alpha]
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HeadTailShape:
    """Measured shape of a single-job LPF schedule (Figure 2)."""

    width: int  # processors given to LPF (m / alpha)
    makespan: int
    last_idle_step: int  # last t < makespan with usage < width (0 if none)
    head_length: int  # = last_idle_step
    tail_length: int  # makespan - head_length
    tail_fully_packed: bool  # every tail step (except the last) uses `width`
    usage: tuple[int, ...] = field(repr=False)


def head_tail_shape(schedule: Schedule, width: int, job_id: int = 0) -> HeadTailShape:
    """Measure the Figure 2 decomposition of a single-job LPF schedule on
    ``width`` processors: everything after the last idle step is a full
    ``width``-wide rectangle (possibly ragged only at the final step)."""
    usage = schedule.usage_profile([job_id])
    makespan = schedule.makespan
    last_idle = 0
    for t in range(1, makespan):  # the completion step is allowed to be ragged
        if usage[t] < width:
            last_idle = t
    tail = usage[last_idle + 1 : makespan]
    packed = bool(np.all(tail == width)) if tail.size else True
    return HeadTailShape(
        width=width,
        makespan=makespan,
        last_idle_step=last_idle,
        head_length=last_idle,
        tail_length=makespan - last_idle,
        tail_fully_packed=packed,
        usage=tuple(int(u) for u in usage.tolist()),
    )


# ----------------------------------------------------------------------
# Lemma 5.5: MC never idles granted processors
# ----------------------------------------------------------------------


def check_mc_busy(
    steps: Sequence[np.ndarray],
    dag,
    allocations: Sequence[int],
    *,
    track_readiness: bool = True,
    strict: bool = False,
) -> CheckResult:
    """Replay ``steps`` through MC under the allocation sequence
    ``allocations`` and verify the busy property.

    Two strengths (see the reproduction finding in
    :mod:`repro.schedulers.mc`):

    * default (``strict=False``) — **work-conserving busyness**, the
      strongest property any scheduler can have: at each step MC schedules
      ``min(m_t, number of ready unprocessed subjobs)``. This always holds
      for the shipped MC.
    * ``strict=True`` — the *literal* Lemma 5.5 claim (``m_t`` scheduled
      unless finished). This can genuinely fail on rare inputs where every
      remaining subjob is the child of a subjob scheduled in that very
      step — a state in which *no* scheduler could fill the grant, and
      which the paper's proof excludes only under an order assumption that
      feasibility can force MC to break. E5 measures how rare it is.

    ``allocations`` is consumed until the replayer finishes; if it runs out
    first, the check fails.
    """
    replayer = MostChildrenReplayer(steps, dag)
    # Predecessors outside the replayed portion (e.g. in the head of an LPF
    # schedule whose tail we are replaying) count as already complete, so
    # only edges between replayed nodes gate readiness: ``waiting[v]``
    # counts v's replayed parents not yet complete, and ``n_ready`` the
    # unprocessed replayed nodes with none. Both change only between steps.
    replayed = np.zeros(dag.n, dtype=bool)
    for level in steps:
        replayed[np.asarray(level, dtype=np.int64)] = True
    src = np.repeat(np.arange(dag.n, dtype=np.int64), np.diff(dag.child_indptr))
    gating = replayed[src] & replayed[dag.child_indices]
    src, dst = src[gating], dag.child_indices[gating]
    kid_ptr = np.searchsorted(src, np.arange(dag.n + 1)).tolist()
    kids = dst.tolist()
    gates = np.bincount(dst, minlength=dag.n)
    n_ready = int(np.count_nonzero(replayed & (gates == 0)))
    waiting = gates.tolist()

    def ready(v: int) -> bool:
        return not track_readiness or waiting[v] == 0

    for idx, m_t in enumerate(allocations):
        if replayer.finished:
            return CheckResult(True, f"finished after {idx} allocation steps")
        ready_now = n_ready if track_readiness else replayer.remaining
        picks = replayer.select(int(m_t), ready)
        target = int(m_t) if strict else min(int(m_t), ready_now)
        if len(picks) < target and not replayer.finished:
            kind = "Lemma 5.5 (strict)" if strict else "work conservation"
            return CheckResult(
                False,
                f"step {idx}: {kind} violated — granted m_t={m_t}, "
                f"{ready_now} ready, scheduled {len(picks)}, "
                f"{replayer.remaining} subjobs remain",
            )
        n_ready -= len(picks)
        for u in picks:
            for c in kids[kid_ptr[u] : kid_ptr[u + 1]]:
                waiting[c] -= 1
                if not waiting[c]:
                    n_ready += 1
    if not replayer.finished:
        return CheckResult(
            False, f"allocations exhausted with {replayer.remaining} subjobs left"
        )
    return CheckResult(True)


# ----------------------------------------------------------------------
# Work conservation (span-reduction property, Section 1)
# ----------------------------------------------------------------------


def check_work_conserving(schedule: Schedule) -> CheckResult:
    """Check the schedule never idles a processor while a subjob is ready:
    at every step ``t+1`` with ``|S(t+1)| < m``, every subjob that was
    ready at time ``t`` is in ``S(t+1)``."""
    m = schedule.m
    usage = schedule.usage_profile()
    makespan = schedule.makespan
    for t in range(0, makespan):
        if t + 1 < usage.size and usage[t + 1] >= m:
            continue
        # Idle step t+1: no subjob may be ready-at-t but run later.
        for i, job in enumerate(schedule.instance):
            if job.release > t:
                continue
            c = schedule.completion[i]
            pending = np.nonzero((c == 0) | (c > t + 1))[0]
            for v in pending:
                parents = job.dag.parents(int(v))
                if all(0 < c[p] <= t for p in parents):
                    return CheckResult(
                        False,
                        f"step {t + 1} idle but subjob ({i},{int(v)}) was "
                        f"ready at {t} and ran at {int(c[v])}",
                    )
    return CheckResult(True)


# ----------------------------------------------------------------------
# Lemma 6.4 and Lemma 6.5 (FIFO batched analysis)
# ----------------------------------------------------------------------


def check_lemma_6_4(schedule: Schedule, opt: int) -> CheckResult:
    """Lemma 6.4: for every job ``i`` and every ``r_i <= t <= C_i``,
    ``w_i(t) <= (OPT - z_i(t)) * m``."""
    m = schedule.m
    horizon = schedule.makespan
    for i in range(len(schedule.instance)):
        r_i = schedule.instance[i].release
        c_i = schedule.job_completion(i)
        w = remaining_work_curve(schedule, i, horizon)
        z = idle_count_curve(schedule, i, horizon)
        ts = np.arange(r_i, c_i + 1)
        bad = ts[w[ts] > (opt - z[ts]) * m]
        if bad.size:
            t = int(bad[0])
            return CheckResult(
                False,
                f"job {i}, t={t}: w={int(w[t])} > (OPT - z={int(z[t])}) * m "
                f"= {(opt - int(z[t])) * m}",
            )
    return CheckResult(True)


def check_lemma_6_5(schedule: Schedule, opt: int) -> CheckResult:
    """Lemma 6.5 for a batched FIFO schedule: at every batch time
    ``t = i·OPT`` (and with ``j = i - log τ``):

    1. jobs ``0..j-1`` are complete by ``t``;
    2. ``(1/m)·Σ_{k=j}^{j+ℓ} w_k(t) <= ℓ·OPT + min_k z_k(t)`` for all
       ``0 <= ℓ <= log τ - 1``;
    3. ``(1/m)·Σ_{k=j}^{j+ℓ} w_k(t) <= Σ_{k=1}^{ℓ+1}(1 - 2^{-k})·OPT``.

    Jobs are identified with their batch index (``r_k = k·OPT``); the
    instance must be batched with period ``opt``.
    """
    if not schedule.instance.is_batched(opt):
        raise ConfigurationError("instance is not batched with period = opt")
    m = schedule.m
    n = len(schedule.instance)
    horizon = schedule.makespan
    log_tau = int(math.log2(tau(m, opt)))
    w_curves = [remaining_work_curve(schedule, k, horizon) for k in range(n)]
    z_curves = [idle_count_curve(schedule, k, horizon) for k in range(n)]
    completions = [schedule.job_completion(k) for k in range(n)]

    for i in range(n):
        t = i * opt
        if t > horizon:
            break
        j = i - log_tau
        # (1) Old jobs are done.
        for k in range(max(0, j)):
            if completions[k] > t:
                return CheckResult(
                    False, f"(1) fails at t={t}: job {k} completes at {completions[k]}"
                )
        for ell in range(log_tau):
            ks = [k for k in range(max(0, j), min(n, j + ell + 1)) if k >= 0]
            if not ks:
                continue
            total = sum(int(w_curves[k][t]) for k in ks)
            # z_k(t) = ∞ once job k has completed (paper convention).
            zs = [
                int(z_curves[k][t]) if completions[k] > t else math.inf
                for k in ks
            ]
            rhs2 = ell * opt + min(zs)
            if total / m > rhs2 + 1e-9:
                return CheckResult(
                    False,
                    f"(2) fails at t={t}, ell={ell}: {total}/m > {rhs2}",
                )
            rhs3 = sum((1 - 0.5**k) * opt for k in range(1, ell + 2))
            if total / m > rhs3 + 1e-9:
                return CheckResult(
                    False,
                    f"(3) fails at t={t}, ell={ell}: {total}/m > {rhs3:.3f}",
                )
    return CheckResult(True)
