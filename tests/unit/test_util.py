"""Unit tests for the low-level array helpers."""

import numpy as np
import pytest

from repro.core.util import (
    as_int_array,
    build_csr,
    check_nonnegative_int,
    csr_counts,
    csr_gather,
    repeat_by_counts,
    segment_max,
    stable_unique,
)


class TestAsIntArray:
    def test_list_input(self):
        arr = as_int_array([3, 1, 2])
        assert arr.dtype == np.int64
        assert arr.tolist() == [3, 1, 2]

    def test_no_copy_for_int64(self):
        src = np.array([1, 2], dtype=np.int64)
        assert as_int_array(src) is src

    def test_flattens_2d(self):
        assert as_int_array(np.array([[1, 2], [3, 4]])).tolist() == [1, 2, 3, 4]

    def test_empty(self):
        assert as_int_array([]).size == 0


class TestCheckNonnegativeInt:
    def test_accepts_int(self):
        assert check_nonnegative_int(5, "x") == 5

    def test_accepts_zero(self):
        assert check_nonnegative_int(0, "x") == 0

    def test_accepts_numpy_integer(self):
        assert check_nonnegative_int(np.int64(7), "x") == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="x must be >= 0"):
            check_nonnegative_int(-1, "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            check_nonnegative_int(1.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            check_nonnegative_int(True, "x")


class TestBuildCsr:
    def test_simple(self):
        indptr, indices = build_csr(3, np.array([0, 0, 1]), np.array([2, 1, 2]))
        assert indptr.tolist() == [0, 2, 3, 3]
        assert indices.tolist() == [1, 2, 2]  # row 0 sorted

    def test_empty(self):
        indptr, indices = build_csr(4, np.array([]), np.array([]))
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert indices.size == 0

    def test_rows_sorted_within_source(self):
        indptr, indices = build_csr(2, np.array([0, 0, 0]), np.array([9 % 2, 0, 1]))
        assert indices.tolist() == sorted(indices.tolist())

    def test_out_of_range_source(self):
        with pytest.raises(ValueError, match="source out of range"):
            build_csr(2, np.array([2]), np.array([0]))

    def test_out_of_range_target(self):
        with pytest.raises(ValueError, match="target out of range"):
            build_csr(2, np.array([0]), np.array([5]))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            build_csr(2, np.array([0]), np.array([0, 1]))


class TestCsrGather:
    @pytest.fixture
    def csr(self):
        # node 0 -> [1, 2], node 1 -> [3], node 2 -> [], node 3 -> [0, 1, 2]
        return build_csr(
            4, np.array([0, 0, 1, 3, 3, 3]), np.array([1, 2, 3, 0, 1, 2])
        )

    def test_counts(self, csr):
        indptr, _ = csr
        assert csr_counts(indptr, np.array([0, 1, 2, 3])).tolist() == [2, 1, 0, 3]

    def test_gather_all(self, csr):
        indptr, indices = csr
        values, counts = csr_gather(indptr, indices, np.array([0, 2, 3]))
        assert values.tolist() == [1, 2, 0, 1, 2]
        assert counts.tolist() == [2, 0, 3]

    def test_gather_repeated_node(self, csr):
        indptr, indices = csr
        values, counts = csr_gather(indptr, indices, np.array([1, 1]))
        assert values.tolist() == [3, 3]
        assert counts.tolist() == [1, 1]

    def test_gather_empty_nodes(self, csr):
        indptr, indices = csr
        values, counts = csr_gather(indptr, indices, np.array([], dtype=np.int64))
        assert values.size == 0 and counts.size == 0

    def test_gather_all_empty_rows(self, csr):
        indptr, indices = csr
        values, counts = csr_gather(indptr, indices, np.array([2, 2]))
        assert values.size == 0
        assert counts.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(20))
    def test_gather_matches_row_by_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(rng.integers(0, 4, size=n), out=indptr[1:])
        indices = rng.integers(0, 100, size=int(indptr[-1])).astype(np.int64)
        nodes = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        values, counts = csr_gather(indptr, indices, nodes)
        rows = [indices[indptr[u] : indptr[u + 1]] for u in nodes]
        assert values.tolist() == [v for row in rows for v in row.tolist()]
        assert counts.tolist() == [row.size for row in rows]


class TestSegmentMax:
    def test_basic(self):
        values = np.array([1, 5, 2, 7, 3], dtype=np.int64)
        counts = np.array([2, 3], dtype=np.int64)
        assert segment_max(values, counts).tolist() == [5, 7]

    def test_empty_segment_uses_default(self):
        values = np.array([4, 9], dtype=np.int64)
        counts = np.array([0, 2, 0], dtype=np.int64)
        assert segment_max(values, counts, empty=-1).tolist() == [-1, 9, -1]

    def test_all_empty(self):
        out = segment_max(np.array([], dtype=np.int64), np.array([0, 0]), empty=3)
        assert out.tolist() == [3, 3]

    def test_single_element_segments(self):
        values = np.array([5, 1, 8], dtype=np.int64)
        counts = np.array([1, 1, 1], dtype=np.int64)
        assert segment_max(values, counts).tolist() == [5, 1, 8]


class TestRepeatByCounts:
    def test_basic(self):
        out = repeat_by_counts(np.array([7, 8]), np.array([2, 3]))
        assert out.tolist() == [7, 7, 8, 8, 8]


class TestStableUnique:
    def test_preserves_first_occurrence_order(self):
        assert stable_unique([3, 1, 3, 2, 1]).tolist() == [3, 1, 2]

    def test_empty(self):
        assert stable_unique([]).size == 0
