"""Unit tests for the engine kernels (``repro.core.kernels``).

Covers the per-kernel dispatch counts in ``EngineStats``, the defensive
merge of stats objects pickled before the dispatch and streaming fields
existed, and the two arena kernels that no engine path dispatches any
more (``arena_gather``/``arena_commit``), each against a plain
per-slot reference.
"""

import dataclasses

import numpy as np

from repro.core import kernels
from repro.core.kernels import KERNEL_NAMES


class TestDispatchCounts:
    def test_kernel_dispatches_recorded(self):
        from repro.core import DAG, Instance, Job, simulate
        from repro.core.simulator import engine_stats_snapshot
        from repro.schedulers import FIFOScheduler

        rng = np.random.default_rng(3)
        parents = np.array(
            [-1] + [int(rng.integers(0, i)) for i in range(1, 60)],
            dtype=np.int64,
        )
        inst = Instance([Job(DAG.from_parents(parents), 0)])
        before = engine_stats_snapshot()
        simulate(inst, 3, FIFOScheduler())
        delta = engine_stats_snapshot().delta(before)
        assert set(delta.kernel_dispatches) <= set(KERNEL_NAMES)
        assert sum(delta.kernel_dispatches.values()) > 0
        assert "kernels[" in delta.summary()

    def test_old_snapshot_merge_is_defensive(self):
        """add() must accept stats objects predating the dispatch and
        streaming fields."""
        from repro.core.simulator import EngineStats

        class OldStats:
            """A snapshot in the first format: no dispatch counts and no
            streaming counters."""

        old = OldStats()
        for f in dataclasses.fields(EngineStats):
            if f.name == "kernel_dispatches" or f.name.startswith("stream_"):
                continue
            default = (
                f.default_factory()
                if f.default is dataclasses.MISSING
                else f.default
            )
            setattr(old, f.name, default)
        old.steps = 5

        fresh = EngineStats()
        fresh.kernel_dispatches["commit_frontier"] = 2
        fresh.stream_steps = 4
        fresh.add(old)  # must not raise
        assert fresh.steps == 5
        assert fresh.stream_steps == 4
        assert fresh.kernel_dispatches == {"commit_frontier": 2}


def _slot_layout(rng, slot_cap=12):
    """A resident frontier buffer of sorted per-slot key runs plus, per
    slot, an unsorted batch of new keys disjoint from every resident one."""
    n_slots = int(rng.integers(1, 6))
    offsets = (np.arange(n_slots) * slot_cap).astype(np.int64)
    sizes = rng.integers(0, 6, size=n_slots).astype(np.int64)
    fbuf = np.zeros(n_slots * slot_cap, dtype=np.int64)
    pool = rng.permutation(10_000)
    cursor = 0
    new_per_slot = []
    for s in range(n_slots):
        total = int(sizes[s]) + int(rng.integers(0, 5))
        draw = np.sort(pool[cursor : cursor + total]).astype(np.int64)
        cursor += total
        fbuf[offsets[s] : offsets[s] + sizes[s]] = draw[: sizes[s]]
        new_per_slot.append(rng.permutation(draw[sizes[s] :]))
    return fbuf, offsets, sizes, new_per_slot


class TestArenaKernels:
    def test_arena_gather_takes_each_slice_prefix(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            fbuf, offsets, sizes, _ = _slot_layout(rng)
            k = np.array(
                [int(rng.integers(0, n + 1)) for n in sizes], dtype=np.int64
            )
            taken = kernels.arena_gather(fbuf, offsets, k, int(k.sum()))
            expected = [
                fbuf[off : off + int(n)] for off, n in zip(offsets, k)
            ]
            np.testing.assert_array_equal(taken, np.concatenate(expected))

    def test_arena_commit_merges_each_slot_in_place(self):
        for seed in range(5):
            rng = np.random.default_rng(seed + 100)
            fbuf, offsets, sizes, new_per_slot = _slot_layout(rng)
            touched = [s for s, new in enumerate(new_per_slot) if new.size]
            if not touched:
                continue
            slots = np.array(touched, dtype=np.int64)
            seg = np.concatenate(
                ([0], np.cumsum([new_per_slot[s].size for s in touched]))
            ).astype(np.int64)
            new_keys = np.concatenate([new_per_slot[s] for s in touched])
            expected = fbuf.copy()
            for s in touched:
                off, n = int(offsets[s]), int(sizes[s])
                merged = np.sort(
                    np.concatenate((fbuf[off : off + n], new_per_slot[s]))
                )
                expected[off : off + merged.size] = merged
            kernels.arena_commit(fbuf, offsets, sizes, slots, seg, new_keys)
            np.testing.assert_array_equal(fbuf, expected)
