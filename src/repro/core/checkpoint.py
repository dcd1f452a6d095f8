"""The checkpoint: one state schema, one durable writer.

The paper's related work stresses that "making training infrastructures
reliable has a profound impact in the training workflow efficiency"
(§VII, citing CPR and DeepFreeze).  A DLRM's persistent state is four
things, held by whoever owns them: the dense parameters (MBs), their
optimizer slots, each embedding table's weights (GBs to TBs in production,
so their save cost dominates) and each table's accumulator.
:func:`state_arrays` is the only place that names them::

    dense/<i>       opt_dense/<i>       weight/<table>      accum/<table>

and every checkpoint in the repository is that dict, or a restriction of
it, written by :func:`write_checkpoint`:

* **full** (:func:`save_checkpoint`) — all of it; exactly the file a
  world-1 rank that owns every table writes;
* **sharded** (:mod:`repro.distributed.mp`) — each rank writes the tables
  it owns, rank 0 also the replicated dense half, plus its loss history;
* **partial** (:func:`save_partial_checkpoint`) — the CPR idea: most
  embedding rows are cold between checkpoints, so ``weight/`` and
  ``accum/`` hold only the rows touched since the last one, listed in
  ``rows/<table>``; the dense half whole.

:func:`restore_arrays` is the one way back: it checks every key's
presence, shape and dtype before it assigns anything, so a rejected
restore leaves the model and optimizer as they were.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import pathlib
import struct
import zipfile
from typing import BinaryIO, Callable, Iterable, Mapping

import numpy as np

from .model import DLRM

__all__ = [
    "FORMAT_VERSION",
    "state_arrays",
    "restore_arrays",
    "atomic_open",
    "write_checkpoint",
    "read_checkpoint",
    "checkpoint_views",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_bytes",
    "DirtyRowTracker",
    "save_partial_checkpoint",
    "apply_partial_checkpoint",
]

_FORMAT_KEY = "__repro_checkpoint_version"
FORMAT_VERSION = 2

_DENSE, _OPT_DENSE = "dense/", "opt_dense/"
_WEIGHT, _ACCUM, _ROWS = "weight/", "accum/", "rows/"


def state_arrays(
    model: DLRM,
    optimizer=None,
    tables: Iterable[str] | None = None,
    dense: bool = True,
) -> dict[str, np.ndarray]:
    """The live arrays of ``model`` (and ``optimizer``) under their keys.

    ``tables`` names the embedding tables to include (default: all; always
    in config order) — a rank's owned subset and the whole model are the same
    call; ``dense=False`` leaves the replicated half to the rank that
    writes it.  ``optimizer`` is anything with ``slots()`` (see
    :meth:`repro.core.optim.Adagrad.slots`).
    """
    dense_slots, table_slots = optimizer.slots() if optimizer is not None else ([], {})
    arrays: dict[str, np.ndarray] = {}
    if dense:
        for i, p in enumerate(model.dense_parameters()):
            arrays[f"{_DENSE}{i}"] = p.value
        for i, slot in enumerate(dense_slots):
            arrays[f"{_OPT_DENSE}{i}"] = slot
    wanted = model.embeddings.tables if tables is None else set(tables)
    for name, table in model.embeddings.tables.items():
        if name not in wanted:
            continue
        arrays[_WEIGHT + name] = table.weight
        if name in table_slots:
            arrays[_ACCUM + name] = table_slots[name]
    return arrays


def _peek(source, key: str) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype of ``source[key]``; for an open ``.npz`` read from
    the member's header, not by loading its data."""
    if not isinstance(source, np.lib.npyio.NpzFile):
        return source[key].shape, source[key].dtype
    with source.zip.open(key + ".npy") as fh:
        shape, _, dtype = _npy_header(fh, key)
    return shape, dtype


def _npy_header(fh, name: str) -> tuple[tuple[int, ...], bool, np.dtype]:
    """``(shape, fortran_order, dtype)`` of the ``.npy`` member ``name``,
    ``fh`` left at its first data byte.

    Raises:
        ValueError: not a ``.npy`` version this module writes (1.0, 2.0).
    """
    fmt = np.lib.format
    read_header = {
        (1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0,
    }.get(fmt.read_magic(fh))
    if read_header is None:
        raise ValueError(f"unexpected .npy version in {name}")
    return read_header(fh)


def _partial_rows(source, key: str, hash_size: int) -> np.ndarray:
    if key not in source:
        raise ValueError(f"checkpoint missing {key}")
    rows = np.asarray(source[key])
    if rows.ndim != 1 or rows.dtype.kind != "i":
        raise ValueError(f"{key}: not a 1-D integer array")
    if len(rows) and not 0 <= rows.min() <= rows.max() < hash_size:
        raise ValueError(f"{key}: row index outside [0, {hash_size})")
    return rows


def restore_arrays(
    source: Mapping[str, np.ndarray],
    model: DLRM,
    optimizer=None,
    tables: Iterable[str] | None = None,
    partial: bool = False,
) -> None:
    """Assign ``source`` into the arrays :func:`state_arrays` names, in place.

    All or nothing: every key the target has must be in ``source`` with the
    target's shape and dtype — with ``partial``, a table's arrays hold the
    rows ``rows/<table>`` lists, each inside the table — and only then is
    the first array written.  Keys the target does not have (a rank's
    ``losses``, optimizer state when no optimizer is given) are ignored.

    Raises:
        ValueError: naming the first key that is missing or does not fit.
    """
    target = state_arrays(model, optimizer, tables)
    rows: dict[str, np.ndarray] = {}
    for key, dest in target.items():
        want = dest.shape
        if partial and key.startswith((_WEIGHT, _ACCUM)):
            rows[key] = _partial_rows(source, _ROWS + key.split("/", 1)[1], len(dest))
            want = (len(rows[key]),) + dest.shape[1:]
        if key not in source:
            raise ValueError(f"checkpoint missing {key}")
        shape, dtype = _peek(source, key)
        if shape != want or dtype != dest.dtype:
            raise ValueError(
                f"{key}: checkpoint holds {dtype}{shape}, model needs {dest.dtype}{want}"
            )
    for key, dest in target.items():
        dest[rows.get(key, ...)] = source[key]


@contextlib.contextmanager
def atomic_open(path: str | pathlib.Path, kill_hook: Callable[[], None] | None = None):
    """The one durable writer: yields a temp file beside ``path``; on a
    clean exit makes it durable and renames it over ``path``, so a write
    that dies at any instant leaves the previous file intact, never a torn
    one.  ``kill_hook`` (fault-injection tests) fires between the fsync and
    the rename — the window the contract must survive; like a real kill
    there, it leaves the temp file behind.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if kill_hook is not None:
        kill_hook()
    os.replace(tmp, path)


class _HashingSink:
    """Write-only file object that hashes what passes through.  Having no
    ``seek``, it makes ``zipfile`` stream strictly forward (member sizes go
    into trailing data descriptors, not patched-up headers), so the digest
    of the stream is the digest of the file."""

    read = None  # np.savez takes a file object to be anything with read + write

    def __init__(self, fh: BinaryIO) -> None:
        self._fh = fh
        self.hasher = hashlib.sha256()

    def write(self, data) -> int:
        self.hasher.update(data)
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()


def write_checkpoint(
    path: str | pathlib.Path,
    arrays: Mapping[str, np.ndarray],
    kill_hook: Callable[[], None] | None = None,
    sha256: bool = False,
) -> tuple[int, str | None]:
    """Write ``arrays`` as a versioned ``.npz`` through :func:`atomic_open`.

    Returns the bytes on disk and, with ``sha256``, the file's digest —
    taken while streaming, for a commit record to hold; a single file has
    no such record and does not pay for the hash.
    """
    version = np.array([FORMAT_VERSION], dtype=np.int64)
    with atomic_open(path, kill_hook) as fh:
        sink = _HashingSink(fh) if sha256 else fh
        np.savez(sink, **{_FORMAT_KEY: version}, **arrays)
    digest = sink.hasher.hexdigest() if sha256 else None
    return pathlib.Path(path).stat().st_size, digest


def _check_version(npz) -> None:
    if _FORMAT_KEY not in npz or int(npz[_FORMAT_KEY][0]) != FORMAT_VERSION:
        raise ValueError("unrecognized checkpoint format")


def read_checkpoint(path: str | pathlib.Path) -> dict[str, np.ndarray]:
    """Every array of a checkpoint file, in memory, bit-exact."""
    with np.load(path) as npz:
        _check_version(npz)
        return {key: npz[key] for key in npz.files if key != _FORMAT_KEY}


class _MemoryFile(io.RawIOBase):
    """A read-only, seekable file over a buffer, read without copying it
    whole (``io.BytesIO`` would)."""

    def __init__(self, buf: np.ndarray, pos: int = 0) -> None:
        self._view = memoryview(buf)
        self._pos = pos

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        base = (0, self._pos, len(self._view))[whence]
        self._pos = base + offset
        return self._pos

    def readinto(self, b) -> int:
        chunk = self._view[self._pos : self._pos + len(b)]
        b[: len(chunk)] = chunk
        self._pos += len(chunk)
        return len(chunk)


def checkpoint_views(buf: np.ndarray) -> dict[str, np.ndarray]:
    """Every array of a checkpoint file held in memory (``buf``: its bytes,
    ``uint8``), as views into ``buf`` — nothing is copied and no member CRC
    is computed, so the caller must have verified the bytes (a digest).

    Raises:
        ValueError: ``buf`` is not a checkpoint this version wrote.
    """
    arrays = {}
    with zipfile.ZipFile(_MemoryFile(buf)) as zf:
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED or not info.filename.endswith(".npy"):
                raise ValueError(f"unexpected checkpoint member {info.filename}")
            # The local header's name and extra lengths locate the data.
            off = info.header_offset
            name_len, extra_len = struct.unpack("<HH", bytes(buf[off + 26 : off + 30]))
            fh = _MemoryFile(buf, off + 30 + name_len + extra_len)
            shape, fortran, dtype = _npy_header(fh, info.filename)
            start = fh.tell()
            end = start + math.prod(shape) * dtype.itemsize
            if dtype.hasobject or end > len(buf):
                raise ValueError(f"corrupt checkpoint member {info.filename}")
            flat = buf[start:end].view(dtype)
            arrays[info.filename[:-4]] = (
                flat.reshape(shape[::-1]).T if fortran else flat.reshape(shape)
            )
    _check_version(arrays)
    del arrays[_FORMAT_KEY]
    return arrays


def save_checkpoint(path: str | pathlib.Path, model: DLRM, optimizer=None) -> int:
    """Write a full checkpoint; returns the byte size written."""
    return write_checkpoint(path, state_arrays(model, optimizer))[0]


def _load(path, model: DLRM, optimizer, partial: bool) -> None:
    with np.load(pathlib.Path(path)) as npz:
        _check_version(npz)
        restore_arrays(npz, model, optimizer, partial=partial)


def load_checkpoint(path: str | pathlib.Path, model: DLRM, optimizer=None) -> None:
    """Restore a full checkpoint in place (see :func:`restore_arrays`).

    Raises:
        ValueError: unknown format version, or a key that is missing or
            does not fit the model (wrong config); nothing was assigned.
    """
    _load(path, model, optimizer, partial=False)


def checkpoint_bytes(model: DLRM, optimizer=None) -> int:
    """In-memory size of a full checkpoint (dominated by embedding tables)."""
    return sum(a.nbytes for a in state_arrays(model, optimizer).values())


class DirtyRowTracker:
    """Tracks which embedding rows changed since the last checkpoint.

    Partial recovery (CPR) observes that between checkpoints only the rows
    actually touched by training need re-saving; with Zipf-skewed access a
    short training window touches a small fraction of a huge table.
    """

    def __init__(self, model: DLRM) -> None:
        self._dirty = {
            name: np.zeros(table.hash_size, dtype=bool)
            for name, table in model.embeddings.tables.items()
        }

    def record_batch(self, batch) -> None:
        """Mark the rows a batch will touch (call before/after each step)."""
        for name, mask in self._dirty.items():
            if name in batch.sparse:
                mask[batch.sparse[name].values] = True

    def dirty_rows(self) -> dict[str, np.ndarray]:
        """Per table, the sorted row indices marked since the last clear."""
        return {name: np.flatnonzero(mask) for name, mask in self._dirty.items()}

    def dirty_counts(self) -> list[int]:
        return [int(np.count_nonzero(mask)) for mask in self._dirty.values()]

    def total_dirty_fraction(self) -> float:
        return sum(self.dirty_counts()) / sum(len(m) for m in self._dirty.values())

    def clear(self) -> None:
        for mask in self._dirty.values():
            mask[:] = False


def save_partial_checkpoint(
    path: str | pathlib.Path, model: DLRM, tracker: DirtyRowTracker, optimizer=None
) -> int:
    """Save the dense half fully plus only the dirty embedding rows.

    Pass the optimizer for a run resumed from full + partial to continue
    bit-identically (its accumulator rows and dense slots ride along).
    Returns bytes written.  The tracker is cleared afterwards (the rows are
    now captured), matching incremental-checkpoint semantics.
    """
    arrays = state_arrays(model, optimizer)
    for name, rows in tracker.dirty_rows().items():
        arrays[_ROWS + name] = rows
        for key in (_WEIGHT + name, _ACCUM + name):
            if key in arrays:
                arrays[key] = arrays[key][rows]
    size = write_checkpoint(path, arrays)[0]
    tracker.clear()
    return size


def apply_partial_checkpoint(path: str | pathlib.Path, model: DLRM, optimizer=None) -> None:
    """Apply a partial checkpoint on top of the model's current state
    (typically: load the last full checkpoint first, then replay partials)."""
    _load(path, model, optimizer, partial=True)
