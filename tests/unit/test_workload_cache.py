"""The opt-in on-disk workload cache: hits, misses, and safety valves."""

import re

import numpy as np
import pytest

from repro.workloads import (
    build_fifo_adversary,
    clear_workload_cache,
    layered_tree,
    quicksort_tree,
    workload_cache_dir,
)
from repro.workloads.cache import cached_generator


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _entries(path):
    return sorted(path.glob("*.wlcache"))


def _flip_middle_byte(blob):
    """Flip one low bit mid-file: inside the pickled payload, where the
    bytes still unpickle, to a different tree."""
    mid = len(blob) // 2
    return blob[:mid] + bytes([blob[mid] ^ 0x01]) + blob[mid + 1 :]


class TestActivation:
    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert workload_cache_dir() is None
        layered_tree([3, 3], seed=0)
        assert not list(tmp_path.iterdir())

    def test_env_resolved_at_call_time(self, cache_dir):
        assert workload_cache_dir() == cache_dir


class TestRoundTrip:
    def test_layered_tree_hit_is_identical(self, cache_dir):
        first = layered_tree([4] * 6, seed=3)
        assert len(_entries(cache_dir)) == 1
        second = layered_tree([4] * 6, seed=3)
        assert len(_entries(cache_dir)) == 1  # served from disk
        assert np.array_equal(first.child_indptr, second.child_indptr)
        assert np.array_equal(first.child_indices, second.child_indices)

    def test_distinct_args_get_distinct_entries(self, cache_dir):
        layered_tree([4] * 6, seed=3)
        layered_tree([4] * 6, seed=4)
        quicksort_tree(30, seed=3)
        assert len(_entries(cache_dir)) == 3

    def test_adversary_roundtrip(self, cache_dir):
        first = build_fifo_adversary(4, 2)
        assert len(_entries(cache_dir)) == 1
        second = build_fifo_adversary(4, 2)
        assert len(_entries(cache_dir)) == 1
        for a, b in zip(
            first.fifo_schedule.completion, second.fifo_schedule.completion
        ):
            assert np.array_equal(a, b)
        assert len(first.instance) == len(second.instance)

    def test_clear(self, cache_dir):
        layered_tree([3, 3], seed=0)
        quicksort_tree(20, seed=0)
        assert clear_workload_cache() == 2
        assert not _entries(cache_dir)


class TestSafetyValves:
    def test_no_seed_is_never_cached(self, cache_dir):
        layered_tree([3, 3])
        quicksort_tree(20)
        assert not _entries(cache_dir)

    def test_generator_seed_is_never_cached(self, cache_dir):
        rng = np.random.default_rng(0)
        quicksort_tree(20, seed=rng)
        assert not _entries(cache_dir)

    def test_random_key_placement_needs_int_seed(self, cache_dir):
        build_fifo_adversary(4, 2, key_placement="random", seed=None)
        assert not _entries(cache_dir)
        build_fifo_adversary(4, 2, key_placement="random", seed=5)
        assert len(_entries(cache_dir)) == 1

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",  # UnpicklingError
            b"garbage\n",  # parses as protocol-0 text, then ValueError
            b"",  # EOFError
            pytest.param(_flip_middle_byte, id="flipped-payload-byte"),
        ],
    )
    def test_corrupt_entry_regenerates(self, cache_dir, garbage):
        """An unreadable entry is a miss: regenerated, with a warning
        naming the file, never served as a different tree."""
        expected = quicksort_tree(200, seed=3)
        (entry,) = _entries(cache_dir)
        blob = entry.read_bytes()
        entry.write_bytes(garbage(blob) if callable(garbage) else garbage)
        with pytest.warns(RuntimeWarning, match=re.escape(str(entry))):
            tree = quicksort_tree(200, seed=3)
        assert tree == expected


class TestSchemaVersioning:
    def test_current_schema_is_v4(self):
        from repro.workloads import cache as cache_mod

        assert cache_mod._SCHEMA_VERSION == 4

    def test_v2_entries_are_invalidated_cleanly(self, cache_dir, monkeypatch):
        """Entries written under schema v2 never satisfy a v3 lookup: the
        version is folded into the key, so old files are simply unmatched
        (left dangling, not deserialized) and the generator re-runs."""
        from repro.workloads import cache as cache_mod

        calls = []

        @cached_generator
        def make(n: int, seed=None):
            calls.append(n)
            return list(range(n))

        monkeypatch.setattr(cache_mod, "_SCHEMA_VERSION", 2)
        assert make(5, seed=9) == [0, 1, 2, 3, 4]
        (v2_entry,) = _entries(cache_dir)
        assert calls == [5]

        monkeypatch.setattr(cache_mod, "_SCHEMA_VERSION", 3)
        assert make(5, seed=9) == [0, 1, 2, 3, 4]
        assert calls == [5, 5]  # regenerated, not served from the v2 file
        entries = _entries(cache_dir)
        assert len(entries) == 2 and v2_entry in entries

        # And the v3 entry round-trips as usual.
        assert make(5, seed=9) == [0, 1, 2, 3, 4]
        assert calls == [5, 5]


class TestDecorator:
    def test_wraps_metadata_and_custom_fn(self, cache_dir):
        calls = []

        @cached_generator
        def make(n: int, seed=None):
            """Docstring survives."""
            calls.append(n)
            return list(range(n))

        assert make.__doc__ == "Docstring survives."
        assert make(4, seed=1) == [0, 1, 2, 3]
        assert make(4, seed=1) == [0, 1, 2, 3]
        assert calls == [4]  # second call served from disk
