"""Property-based tests for the Most-Children algorithm (Lemma 5.5)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CheckResult, check_mc_busy, head_tail_shape
from repro.schedulers import MostChildrenReplayer, lpf_schedule

from .strategies import out_forests


@given(out_forests(), st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=40)
def test_lemma_5_5_busy_property(forest, width, seed):
    """MC on an LPF tail never idles a granted processor, for any
    allocation sequence with m_t <= width."""
    schedule = lpf_schedule(forest, width)
    shape = head_tail_shape(schedule, width)
    steps = [nodes for _, nodes in schedule.job_steps(0)][shape.head_length :]
    if not steps:
        return
    rng = np.random.default_rng(seed)
    horizon = 4 * sum(len(s) for s in steps) + 8
    alloc = rng.integers(0, width + 1, size=horizon).tolist()
    res = check_mc_busy(steps, forest, alloc)
    assert res.ok, res.detail


@given(out_forests(), st.integers(1, 5))
@settings(max_examples=30)
def test_mc_replays_exactly_once(forest, width):
    """Every subjob of the input schedule is selected exactly once."""
    schedule = lpf_schedule(forest, width)
    steps = [nodes for _, nodes in schedule.job_steps(0)]
    replayer = MostChildrenReplayer(steps, forest)
    done: set[int] = set()
    completed: set[int] = set()
    for _ in range(10 * forest.n + 10):
        if replayer.finished:
            break
        picks = replayer.select(
            width, lambda v: all(int(p) in completed for p in forest.parents(v))
        )
        for v in picks:
            assert v not in done
            done.add(v)
        completed = set(done)
    assert replayer.finished
    assert done == set(range(forest.n))


@given(out_forests(), st.integers(1, 5))
@settings(max_examples=30)
def test_mc_respects_precedence(forest, width):
    """Selections filtered by readiness never run a child before its
    parent completed in a strictly earlier round."""
    schedule = lpf_schedule(forest, width)
    steps = [nodes for _, nodes in schedule.job_steps(0)]
    replayer = MostChildrenReplayer(steps, forest)
    completed: set[int] = set()
    while not replayer.finished:
        picks = replayer.select(
            width, lambda v: all(int(p) in completed for p in forest.parents(v))
        )
        assert picks, "stalled replay"
        for v in picks:
            for p in forest.parents(v):
                assert int(p) in completed
        completed.update(picks)


@given(out_forests(min_nodes=2), st.integers(2, 5))
@settings(max_examples=25)
def test_mc_prefers_levels_in_order(forest, width):
    """MC never starts level k+1 while level k has READY unprocessed
    subjobs (the minimal-level rule, modulo readiness)."""
    schedule = lpf_schedule(forest, width)
    steps = [nodes for _, nodes in schedule.job_steps(0)]
    level_of = {}
    for k, nodes in enumerate(steps):
        for v in nodes:
            level_of[int(v)] = k
    replayer = MostChildrenReplayer(steps, forest)
    completed: set[int] = set()
    processed: set[int] = set()
    while not replayer.finished:
        ready_levels = [
            level_of[v]
            for v in range(forest.n)
            if v not in processed
            and all(int(p) in completed for p in forest.parents(v))
        ]
        picks = replayer.select(
            1, lambda v: all(int(p) in completed for p in forest.parents(v))
        )
        if not picks:
            break
        assert level_of[picks[0]] == min(ready_levels)
        processed.update(picks)
        completed = set(processed)


def _recount_check_mc_busy(steps, dag, allocations, *, track_readiness, strict):
    """``check_mc_busy`` as first written: before every allocation step it
    re-counts the ready replayed subjobs, each with a ``dag.parents`` scan."""
    replayer = MostChildrenReplayer(steps, dag)
    done: set[int] = set()
    completed_before_step: set[int] = set()
    replayed: set[int] = set()
    for level in steps:
        replayed.update(int(v) for v in level)

    def ready(v):
        if not track_readiness:
            return True
        return all(
            int(p) not in replayed or int(p) in completed_before_step
            for p in dag.parents(v)
        )

    for idx, m_t in enumerate(allocations):
        if replayer.finished:
            return CheckResult(True, f"finished after {idx} allocation steps")
        ready_now = sum(1 for v in replayed if v not in done and ready(int(v)))
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
        done.update(picks)
        completed_before_step = set(done)
    if not replayer.finished:
        return CheckResult(
            False, f"allocations exhausted with {replayer.remaining} subjobs left"
        )
    return CheckResult(True)


@given(
    out_forests(max_nodes=40),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80)
def test_check_mc_busy_matches_recount(forest, width, seed, strict, track_readiness):
    """The incremental readiness count gives the re-count's verdict and
    detail, failures included, on LPF tails and whole LPF schedules. (On
    tails the first short step settles most verdicts; the whole schedules
    reach the later steps where a wrong ready count changes one.)"""
    schedule = lpf_schedule(forest, width)
    shape = head_tail_shape(schedule, width)
    steps = [nodes for _, nodes in schedule.job_steps(0)]
    rng = np.random.default_rng(seed)
    for replay in (steps[shape.head_length :], steps):
        if not replay:
            continue
        horizon = int(rng.integers(1, 4 * sum(len(s) for s in replay) + 8))
        for alloc in (
            rng.integers(0, width + 1, size=horizon).tolist(),
            [width if (k // 3) % 2 == 0 else width // 4 for k in range(horizon)],
            [1] * horizon,
        ):
            kw = {"track_readiness": track_readiness, "strict": strict}
            assert check_mc_busy(replay, forest, alloc, **kw) == (
                _recount_check_mc_busy(replay, forest, alloc, **kw)
            )
