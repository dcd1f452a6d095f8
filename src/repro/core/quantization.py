"""Embedding-table quantization (paper §III-A.2's compression opportunity).

The paper points at "compression for these large embedding tables using
quantization" as an optimization opportunity.  This module implements
uniform row-wise integer quantization:

* :func:`quantize_rows` / :func:`dequantize_rows` — symmetric-range
  per-row quantization to ``bits`` (8/4/2), the standard scheme for
  embedding compression;
* :class:`QuantizedEmbeddingTable` — a frozen, quantized copy of a trained
  table that serves dequantized lookups (post-training quantization);
* :func:`quantized_table_bytes` — the capacity side, used by the placement
  what-ifs (a 4-bit M3 fits where the FP32 M3 did not).
"""

from __future__ import annotations

import numpy as np

from .config import PoolingType, TableSpec
from .embedding import EmbeddingTable, RaggedIndices

__all__ = [
    "quantize_rows",
    "dequantize_rows",
    "QuantizedEmbeddingTable",
    "quantized_table_bytes",
    "quantization_error",
]

_SUPPORTED_BITS = (2, 4, 8)


def _validate_bits(bits: int) -> None:
    if bits not in _SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")


def quantize_rows(weights: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-row quantization.

    Returns ``(codes, scales)`` where ``codes`` are signed integers in
    ``[-(2^(bits-1) - 1), 2^(bits-1) - 1]`` and ``scales`` has one entry
    per row; ``weights ~= codes * scales[:, None]``.
    """
    _validate_bits(bits)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {w.shape}")
    qmax = 2 ** (bits - 1) - 1
    row_absmax = np.abs(w).max(axis=1)
    scales = np.where(row_absmax > 0, row_absmax / qmax, 1.0)
    codes = np.clip(np.round(w / scales[:, None]), -qmax, qmax).astype(np.int8)
    return codes, scales


def dequantize_rows(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Inverse of :func:`quantize_rows`."""
    codes = np.asarray(codes)
    scales = np.asarray(scales, dtype=np.float64)
    if codes.ndim != 2 or scales.ndim != 1 or len(scales) != codes.shape[0]:
        raise ValueError("codes must be (rows, dim) with one scale per row")
    return codes.astype(np.float64) * scales[:, None]


def quantization_error(weights: np.ndarray, bits: int) -> float:
    """RMS relative reconstruction error of one quantization round trip."""
    codes, scales = quantize_rows(weights, bits)
    recon = dequantize_rows(codes, scales)
    denom = np.sqrt(np.mean(weights**2)) + 1e-12
    return float(np.sqrt(np.mean((weights - recon) ** 2)) / denom)


def quantized_table_bytes(spec: TableSpec, bits: int, scale_bytes: int = 4) -> float:
    """Storage footprint of a quantized table (codes + per-row scales)."""
    _validate_bits(bits)
    code_bytes = spec.hash_size * spec.dim * bits / 8.0
    return code_bytes + spec.hash_size * scale_bytes


class QuantizedEmbeddingTable:
    """A frozen quantized snapshot of a trained :class:`EmbeddingTable`.

    Serves pooled lookups by dequantizing the touched rows; no training
    (the paper's quantization use case is shrinking the stored table).
    """

    def __init__(self, table: EmbeddingTable, bits: int) -> None:
        _validate_bits(bits)
        self.spec = table.spec
        self.pooling = table.pooling
        self.bits = bits
        self.codes, self.scales = quantize_rows(table.weight, bits)

    @property
    def storage_bytes(self) -> float:
        return quantized_table_bytes(self.spec, self.bits)

    @property
    def row_bytes(self) -> float:
        """Stored bytes per row (codes + the per-row scale)."""
        return self.spec.dim * self.bits / 8.0 + 4.0

    def bytes_per_row(self) -> float:
        """Stored bytes per row — the quantized width, not fp32.

        Same contract as :meth:`EmbeddingTable.bytes_per_row`, so tier
        capacity planning (:mod:`repro.tiering`) prices int8/int4 rows
        correctly and a quantized cold tier holds proportionally more
        rows per byte.
        """
        return float(self.row_bytes)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """Dequantize the given row indices; returns ``(len(rows), dim)``."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.spec.hash_size):
            raise IndexError(f"rows out of range for table {self.spec.name}")
        return self.codes[rows].astype(np.float64) * self.scales[rows][:, None]

    def forward(self, indices: RaggedIndices) -> np.ndarray:
        """Pooled lookup over dequantized rows; mirrors EmbeddingTable.forward."""
        if self.spec.truncation is not None:
            indices = indices.truncate(self.spec.truncation)
        if len(indices.values) and (
            indices.values.min() < 0 or indices.values.max() >= self.spec.hash_size
        ):
            raise IndexError(f"indices out of range for table {self.spec.name}")
        lengths = indices.lengths()
        pooled = np.zeros((indices.batch_size, self.spec.dim), dtype=np.float64)
        if len(indices.values):
            rows = indices.values
            gathered = self.codes[rows].astype(np.float64) * self.scales[rows][:, None]
            sample_of = np.repeat(np.arange(indices.batch_size), lengths)
            np.add.at(pooled, sample_of, gathered)
        if self.pooling is PoolingType.MEAN:
            pooled = pooled / np.maximum(lengths, 1).astype(np.float64)[:, None]
        return pooled
