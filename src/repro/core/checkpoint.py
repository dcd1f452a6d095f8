"""Model checkpointing and restore.

The paper's related work stresses that "making training infrastructures
reliable has a profound impact in the training workflow efficiency"
(§VII, citing CPR and DeepFreeze).  Long-running recommendation training
jobs checkpoint both halves of the model:

* the dense parameters (small — MBs) and their optimizer state;
* the embedding tables (large — GBs to TBs in production), whose save
  cost dominates and motivates partial/asynchronous checkpointing.

This module provides exact save/restore for a :class:`~repro.core.model.DLRM`
plus an optional Adagrad optimizer, and a *partial* checkpoint mode that
saves only rows touched since the last checkpoint (the CPR idea: most
embedding rows are cold between checkpoints).
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

from .embedding import EmbeddingTable
from .model import DLRM
from .optim import Adagrad

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_bytes",
    "DirtyRowTracker",
    "save_partial_checkpoint",
    "apply_partial_checkpoint",
]

_FORMAT_KEY = "__repro_checkpoint_version"
_FORMAT_VERSION = 1


def _state_arrays(model: DLRM, optimizer: Adagrad | None) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64)
    }
    for i, p in enumerate(model.dense_parameters()):
        arrays[f"dense/{i}"] = p.value
    for i, table in enumerate(model.embedding_tables()):
        arrays[f"table/{i}"] = table.weight
    if optimizer is not None:
        for i, state in enumerate(optimizer._dense_state):
            arrays[f"opt_dense/{i}"] = state
        for i, state in enumerate(optimizer._table_state):
            arrays[f"opt_table/{i}"] = state
    return arrays


def _write_npz(path: str | pathlib.Path, arrays: dict[str, np.ndarray]) -> int:
    """Write ``arrays`` as ``.npz`` at ``path``; returns the bytes on disk.

    Streamed into a temp file beside ``path``, made durable, then renamed
    over it: a write that dies part-way leaves the previous checkpoint at
    ``path`` intact instead of a truncated zip.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path.stat().st_size


def save_checkpoint(
    path: str | pathlib.Path,
    model: DLRM,
    optimizer: Adagrad | None = None,
) -> int:
    """Write a full checkpoint; returns the byte size written."""
    return _write_npz(path, _state_arrays(model, optimizer))


def load_checkpoint(
    path: str | pathlib.Path,
    model: DLRM,
    optimizer: Adagrad | None = None,
) -> None:
    """Restore a full checkpoint in place.

    Raises:
        ValueError: on version or shape mismatch (wrong model config).
    """
    with np.load(pathlib.Path(path)) as data:
        if _FORMAT_KEY not in data or int(data[_FORMAT_KEY][0]) != _FORMAT_VERSION:
            raise ValueError("unrecognized checkpoint format")
        dense = model.dense_parameters()
        for i, p in enumerate(dense):
            key = f"dense/{i}"
            if key not in data:
                raise ValueError(f"checkpoint missing {key}")
            if data[key].shape != p.value.shape:
                raise ValueError(
                    f"{key}: shape {data[key].shape} != model {p.value.shape}"
                )
            p.value[...] = data[key]
        for i, table in enumerate(model.embedding_tables()):
            key = f"table/{i}"
            if key not in data:
                raise ValueError(f"checkpoint missing {key}")
            if data[key].shape != table.weight.shape:
                raise ValueError(
                    f"{key}: shape {data[key].shape} != table {table.weight.shape}"
                )
            table.weight[...] = data[key]
        if optimizer is not None:
            for i, state in enumerate(optimizer._dense_state):
                state[...] = data[f"opt_dense/{i}"]
            for i, state in enumerate(optimizer._table_state):
                state[...] = data[f"opt_table/{i}"]


def checkpoint_bytes(model: DLRM, optimizer: Adagrad | None = None) -> int:
    """In-memory size of a full checkpoint (dominated by embedding tables)."""
    total = sum(p.value.nbytes for p in model.dense_parameters())
    total += sum(t.weight.nbytes for t in model.embedding_tables())
    if optimizer is not None:
        total += sum(s.nbytes for s in optimizer._dense_state)
        total += sum(s.nbytes for s in optimizer._table_state)
    return total


class DirtyRowTracker:
    """Tracks which embedding rows changed since the last checkpoint.

    Partial recovery (CPR) observes that between checkpoints only the rows
    actually touched by training need re-saving; with Zipf-skewed access a
    short training window touches a small fraction of a huge table.
    """

    def __init__(self, model: DLRM) -> None:
        self._model = model
        self._dirty: list[set[int]] = [set() for _ in model.embedding_tables()]

    def record_batch(self, batch) -> None:
        """Mark the rows a batch will touch (call before/after each step)."""
        for i, table in enumerate(self._model.embedding_tables()):
            name = table.spec.name
            if name in batch.sparse:
                self._dirty[i].update(np.unique(batch.sparse[name].values).tolist())

    def dirty_counts(self) -> list[int]:
        return [len(d) for d in self._dirty]

    def total_dirty_fraction(self) -> float:
        total_rows = sum(t.weight.shape[0] for t in self._model.embedding_tables())
        return sum(self.dirty_counts()) / total_rows

    def clear(self) -> None:
        for d in self._dirty:
            d.clear()


def save_partial_checkpoint(
    path: str | pathlib.Path,
    model: DLRM,
    tracker: DirtyRowTracker,
) -> int:
    """Save dense params fully plus only the dirty embedding rows.

    Returns bytes written.  The tracker is cleared afterwards (the rows are
    now captured), matching incremental-checkpoint semantics.
    """
    arrays: dict[str, np.ndarray] = {
        _FORMAT_KEY: np.array([_FORMAT_VERSION], dtype=np.int64)
    }
    for i, p in enumerate(model.dense_parameters()):
        arrays[f"dense/{i}"] = p.value
    for i, table in enumerate(model.embedding_tables()):
        rows = np.array(sorted(tracker._dirty[i]), dtype=np.int64)
        arrays[f"rows/{i}"] = rows
        arrays[f"values/{i}"] = table.weight[rows] if len(rows) else np.empty(
            (0, table.weight.shape[1])
        )
    size = _write_npz(path, arrays)
    tracker.clear()
    return size


def apply_partial_checkpoint(path: str | pathlib.Path, model: DLRM) -> None:
    """Apply a partial checkpoint on top of the model's current state
    (typically: load the last full checkpoint first, then replay partials)."""
    with np.load(pathlib.Path(path)) as data:
        if _FORMAT_KEY not in data or int(data[_FORMAT_KEY][0]) != _FORMAT_VERSION:
            raise ValueError("unrecognized checkpoint format")
        for i, p in enumerate(model.dense_parameters()):
            p.value[...] = data[f"dense/{i}"]
        for i, table in enumerate(model.embedding_tables()):
            rows = data[f"rows/{i}"]
            if len(rows):
                table.weight[rows] = data[f"values/{i}"]
