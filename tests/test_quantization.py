"""Tests for repro.core.quantization and the quantization what-ifs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    EmbeddingTable,
    QuantizedEmbeddingTable,
    TableSpec,
    dequantize_rows,
    quantization_error,
    quantize_rows,
    quantized_table_bytes,
)
from repro.hardware import BIG_BASIN
from repro.perf import quantized_capacity_report

from helpers import simple_ragged


class TestQuantizeRows:
    def test_roundtrip_within_step(self, rng):
        w = rng.normal(size=(20, 8))
        codes, scales = quantize_rows(w, bits=8)
        recon = dequantize_rows(codes, scales)
        # error bounded by half a quantization step per row
        steps = scales[:, None]
        assert np.all(np.abs(recon - w) <= 0.5 * steps + 1e-12)

    def test_code_range(self, rng):
        w = rng.normal(size=(10, 4))
        for bits in (2, 4, 8):
            codes, _ = quantize_rows(w, bits)
            qmax = 2 ** (bits - 1) - 1
            assert codes.min() >= -qmax and codes.max() <= qmax

    def test_zero_row_safe(self):
        w = np.zeros((3, 4))
        codes, scales = quantize_rows(w, 8)
        np.testing.assert_array_equal(dequantize_rows(codes, scales), w)

    def test_error_decreases_with_bits(self, rng):
        w = rng.normal(size=(50, 16))
        errors = [quantization_error(w, bits) for bits in (2, 4, 8)]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01  # int8 is nearly lossless in RMS terms

    def test_unsupported_bits_rejected(self, rng):
        with pytest.raises(ValueError):
            quantize_rows(rng.normal(size=(2, 2)), bits=3)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            quantize_rows(np.zeros(5), 8)


class TestQuantizedTableBytes:
    def test_compression_ratio(self):
        spec = TableSpec("t", hash_size=1000, dim=64)
        fp32 = spec.size_bytes
        q8 = quantized_table_bytes(spec, 8)
        q4 = quantized_table_bytes(spec, 4)
        assert q8 < fp32 / 3  # ~4x minus scale overhead
        assert q4 < q8


class TestQuantizedEmbeddingTable:
    def test_lookup_close_to_fp32(self, rng):
        spec = TableSpec("t", hash_size=100, dim=8, mean_lookups=3)
        table = EmbeddingTable(spec, rng)
        q = QuantizedEmbeddingTable(table, bits=8)
        ragged = simple_ragged([[1, 2, 3], [50]])
        exact = table.forward(ragged)
        table._saved.clear()
        approx = q.forward(ragged)
        rel = np.abs(approx - exact).max() / (np.abs(exact).max() + 1e-12)
        assert rel < 0.02

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([2, 4, 8]),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_gather_roundtrip_within_half_step(self, rows, dim, bits, seed):
        """QuantizedEmbeddingTable.gather reconstructs every row within
        half a quantization step of the original weights."""
        spec = TableSpec(name="t", hash_size=rows, dim=dim, mean_lookups=1.0)
        table = EmbeddingTable(spec, np.random.default_rng(seed))
        q = QuantizedEmbeddingTable(table, bits=bits)
        recon = q.gather(np.arange(rows, dtype=np.int64))
        step = q.scales[:, None]
        assert np.all(np.abs(recon - table.weight) <= 0.5 * step + 1e-12)

    def test_storage_smaller(self, rng):
        spec = TableSpec("t", hash_size=1000, dim=64)
        table = EmbeddingTable(spec, rng)
        q = QuantizedEmbeddingTable(table, bits=4)
        assert q.storage_bytes < spec.size_bytes / 4

    def test_out_of_range_rejected(self, rng):
        spec = TableSpec("t", hash_size=10, dim=4)
        q = QuantizedEmbeddingTable(EmbeddingTable(spec, rng), bits=8)
        with pytest.raises(IndexError):
            q.forward(simple_ragged([[99]]))


class TestQuantizedCapacityReport:
    def test_m3_story(self):
        """FP32 M3 does not fit one Big Basin; int8/int4 do — the paper's
        compression opportunity quantified."""
        from repro.configs import build_m3

        rows = {r.bits: r for r in quantized_capacity_report(build_m3(), BIG_BASIN)}
        assert not rows[32].fits_gpu_memory
        assert rows[8].fits_gpu_memory
        assert rows[4].fits_gpu_memory
        assert rows[4].min_gpus <= rows[8].min_gpus <= rows[32].min_gpus

    def test_cpu_platform_rejected(self):
        from repro.configs import make_test_model
        from repro.hardware import DUAL_SOCKET_CPU

        with pytest.raises(ValueError):
            quantized_capacity_report(make_test_model(64, 4), DUAL_SOCKET_CPU)
