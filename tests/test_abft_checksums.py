"""Tests for ABFT checksum math: exactness, error localization, wraparound
consistency — including hypothesis properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.abft.checksums import (
    checksum_report,
    column_checksum,
    input_checksum,
)
from repro.quant.gemm import gemm_int32

int8_mat = lambda shape: arrays(np.int8, shape, elements=st.integers(-127, 127))


class TestChecksumExactness:
    def test_fault_free_checksums_agree(self, rng):
        a = rng.integers(-127, 128, size=(6, 9)).astype(np.int8)
        b = rng.integers(-127, 128, size=(9, 5)).astype(np.int8)
        y = gemm_int32(a, b)
        np.testing.assert_array_equal(input_checksum(a, b), column_checksum(y))

    @given(int8_mat((4, 6)), int8_mat((6, 3)))
    @settings(max_examples=60, deadline=None)
    def test_fault_free_report_is_clean(self, a, b):
        y = gemm_int32(a, b)
        report = checksum_report(a, b, y)
        assert not report.any_error
        assert report.msd == 0
        assert report.nonzero_count == 0

    def test_checksums_agree_under_wraparound(self):
        """Modular addition commutes with summation: even when accumulators
        overflow, input-side and output-side checksums match."""
        k = 2**18
        a = np.full((2, k), 127, dtype=np.int64)
        b = np.full((k, 2), 127, dtype=np.int64)
        y = gemm_int32(a, b)  # wrapped values
        np.testing.assert_array_equal(input_checksum(a, b), column_checksum(y))


class TestErrorLocalization:
    def _corrupt(self, y, row, col, delta):
        bad = np.array(y)
        bad[row, col] += delta
        return bad

    def test_single_error_appears_in_its_column(self, rng):
        a = rng.integers(-50, 50, size=(5, 8)).astype(np.int8)
        b = rng.integers(-50, 50, size=(8, 6)).astype(np.int8)
        y = gemm_int32(a, b)
        report = checksum_report(a, b, self._corrupt(y, 2, 3, 1 << 20))
        assert report.nonzero_count == 1
        assert report.diffs[3] == -(1 << 20)
        assert report.msd == 1 << 20

    def test_multiple_errors_same_column_sum(self, rng):
        a = rng.integers(-50, 50, size=(5, 8)).astype(np.int8)
        b = rng.integers(-50, 50, size=(8, 6)).astype(np.int8)
        y = gemm_int32(a, b)
        bad = self._corrupt(self._corrupt(y, 0, 1, 1000), 4, 1, 500)
        report = checksum_report(a, b, bad)
        assert report.nonzero_count == 1
        assert abs(int(report.diffs[1])) == 1500

    def test_cancelling_errors_are_invisible(self, rng):
        """Aliasing limitation of column checksums: equal and opposite
        errors in one column cancel — inherent to ABFT, worth pinning."""
        a = rng.integers(-50, 50, size=(4, 4)).astype(np.int8)
        b = rng.integers(-50, 50, size=(4, 4)).astype(np.int8)
        y = gemm_int32(a, b)
        bad = self._corrupt(self._corrupt(y, 0, 2, 777), 3, 2, -777)
        assert not checksum_report(a, b, bad).any_error

    @given(
        int8_mat((3, 5)),
        int8_mat((5, 4)),
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(min_value=1, max_value=2**29),
    )
    @settings(max_examples=60, deadline=None)
    def test_msd_equals_injected_magnitude(self, a, b, row, col, delta):
        y = gemm_int32(a, b)
        bad = np.array(y)
        bad[row, col] += delta
        report = checksum_report(a, b, bad)
        assert report.msd == delta
        assert report.max_magnitude == delta

    def test_count_if_above_thresholds(self, rng):
        a = rng.integers(-50, 50, size=(4, 6)).astype(np.int8)
        b = rng.integers(-50, 50, size=(6, 6)).astype(np.int8)
        y = gemm_int32(a, b)
        bad = np.array(y)
        bad[0, 0] += 10
        bad[1, 3] += 1000
        bad[2, 5] += 100000
        report = checksum_report(a, b, bad)
        assert report.count_if_above(0) == 3
        assert report.count_if_above(10) == 2
        assert report.count_if_above(1000) == 1
        assert report.count_if_above(10**7) == 0
