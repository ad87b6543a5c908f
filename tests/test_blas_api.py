"""Unit tests for the high-level BLAS API."""

import numpy as np
import pytest

from repro.blas import api
from repro.blas.api import (
    REDUCTION_FLUSH_CYCLES,
    CallOptions,
    PerfReport,
    dot,
    gemm,
    gemv,
    reduction_flush_cycles,
)


class TestDot:
    def test_result_and_report(self, rng):
        u, v = rng.standard_normal(128), rng.standard_normal(128)
        outcome = dot(u, v)
        assert outcome.value == pytest.approx(float(np.dot(u, v)), rel=1e-12)
        assert outcome.report.operation == "dot"
        assert outcome.report.k == 2
        assert outcome.report.clock_mhz == 170.0

    def test_default_area_matches_table3(self, rng):
        report = dot(rng.standard_normal(64), rng.standard_normal(64)).report
        assert report.area_slices == pytest.approx(5210, rel=0.005)

    def test_custom_clock(self, rng):
        u, v = rng.standard_normal(64), rng.standard_normal(64)
        r170 = dot(u, v, options=CallOptions(clock_mhz=170.0)).report
        r85 = dot(u, v, options=CallOptions(clock_mhz=85.0)).report
        assert r85.seconds == pytest.approx(2 * r170.seconds)
        assert r85.sustained_mflops == pytest.approx(
            r170.sustained_mflops / 2)


class TestGemv:
    def test_tree_architecture(self, rng):
        A = rng.standard_normal((64, 64))
        x = rng.standard_normal(64)
        outcome = gemv(A, x)
        np.testing.assert_allclose(outcome.value, A @ x, rtol=1e-12,
                                   atol=1e-12)
        assert outcome.report.operation == "gemv[tree]"

    def test_column_architecture(self, rng):
        A = rng.standard_normal((64, 64))
        x = rng.standard_normal(64)
        outcome = gemv(A, x, architecture="column")
        np.testing.assert_allclose(outcome.value, A @ x, rtol=1e-12,
                                   atol=1e-12)
        assert outcome.report.operation == "gemv[column]"

    def test_unknown_architecture(self, rng):
        with pytest.raises(ValueError, match="architecture"):
            gemv(rng.standard_normal((4, 4)), rng.standard_normal(4),
                 architecture="systolic")

    def test_blocked(self, rng):
        A = rng.standard_normal((32, 96))
        x = rng.standard_normal(96)
        y = gemv(A, x, block=32).value
        np.testing.assert_allclose(y, A @ x, rtol=1e-11, atol=1e-11)

    def test_xd1_report_derates_clock(self, rng):
        A = rng.standard_normal((32, 32))
        x = rng.standard_normal(32)
        plain = gemv(A, x).report
        xd1 = gemv(A, x, options=CallOptions(on_xd1=True)).report
        assert xd1.clock_mhz < plain.clock_mhz
        assert xd1.area_slices > plain.area_slices


class TestGemm:
    def test_result_and_report(self, rng):
        A = rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32))
        outcome = gemm(A, B, k=4, m=16)
        np.testing.assert_allclose(outcome.value, A @ B, rtol=1e-11,
                                   atol=1e-11)
        assert outcome.report.operation == "gemm"
        assert outcome.report.flops == 2 * 32 ** 3

    def test_auto_block_size(self, rng):
        A = rng.standard_normal((64, 64))
        B = rng.standard_normal((64, 64))
        C = gemm(A, B, k=8).value  # m inferred
        np.testing.assert_allclose(C, A @ B, rtol=1e-11, atol=1e-11)

    def test_strict_mode(self, rng):
        A = rng.standard_normal((16, 16))
        B = rng.standard_normal((16, 16))
        C_fast = gemm(A, B, k=4, m=16).value
        C_strict = gemm(A, B, k=4, m=16,
                        options=CallOptions(strict=True)).value
        assert np.array_equal(C_fast, C_strict)

    def test_clock_uses_fig9_model(self, rng):
        A = rng.standard_normal((16, 16))
        r1 = gemm(A, A, k=2, m=16).report
        r2 = gemm(A, A, k=8, m=16).report
        assert r2.clock_mhz < r1.clock_mhz  # routing degradation


class TestPerfReport:
    def test_seconds_from_cycles(self):
        report = PerfReport("op", 8, 2, total_cycles=170_000_000,
                            clock_mhz=170.0, flops=10, area_slices=100,
                            device_utilization=0.1,
                            memory_bandwidth_gbytes=1.0, efficiency=0.5)
        assert report.seconds == pytest.approx(1.0)

    def test_summary_contains_key_fields(self, rng):
        report = dot(rng.standard_normal(64), rng.standard_normal(64)).report
        text = report.summary()
        assert "MFLOPS" in text
        assert "slices" in text
        assert "GB/s" in text

    def test_gflops_is_mflops_over_1000(self):
        report = PerfReport("op", 8, 2, 1000, 100.0, 2_000_000, 1, 0.0,
                            0.0, 1.0)
        assert report.sustained_gflops == pytest.approx(
            report.sustained_mflops / 1000)


class TestRectangularGemm:
    def test_rectangular_shapes(self, rng):
        A = rng.standard_normal((24, 40))
        B = rng.standard_normal((40, 12))
        outcome = gemm(A, B, k=4, m=8)
        assert outcome.value.shape == (24, 12)
        np.testing.assert_allclose(outcome.value, A @ B, rtol=1e-10,
                                   atol=1e-10)
        assert outcome.report.flops == 2 * 24 * 40 * 12

    def test_non_multiple_of_block(self, rng):
        A = rng.standard_normal((30, 30))
        B = rng.standard_normal((30, 30))
        C = gemm(A, B, k=4, m=8).value
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)

    def test_incompatible_shapes_rejected(self, rng):
        with pytest.raises(ValueError, match="gemm needs"):
            gemm(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))

    def test_padding_degrades_efficiency_honestly(self, rng):
        # 33×33 pads to 40 (m=8): useful flops over padded cycles.
        A33 = rng.standard_normal((33, 33))
        B33 = rng.standard_normal((33, 33))
        padded = gemm(A33, B33, k=4, m=8).report
        A32 = rng.standard_normal((32, 32))
        B32 = rng.standard_normal((32, 32))
        exact = gemm(A32, B32, k=4, m=8).report
        assert padded.efficiency < exact.efficiency

    def test_tall_skinny(self, rng):
        A = rng.standard_normal((64, 8))
        B = rng.standard_normal((8, 64))
        C = gemm(A, B, k=4, m=8).value
        np.testing.assert_allclose(C, A @ B, rtol=1e-10, atol=1e-10)


class TestReductionFlushCycles:
    #: Flush cycles of final sets of 1..α+3 values at α = 14.
    PINNED = [0, 14, 28, 29, 42, 43, 44, 45, 56, 57, 58, 59, 60, 61, 62,
              62, 68]

    def test_cache_bounded_by_distinct_results(self):
        alpha = 14
        api._flush_cycles.cache_clear()
        values = [reduction_flush_cycles(size, alpha)
                  for size in range(1, 2000)]
        assert api._flush_cycles.cache_info().currsize <= alpha + 3
        assert values[:alpha + 3] == self.PINNED
        assert set(values[alpha + 3:]) == {REDUCTION_FLUSH_CYCLES}

    def test_rejects_empty_set(self):
        with pytest.raises(ValueError, match="positive"):
            reduction_flush_cycles(0)
