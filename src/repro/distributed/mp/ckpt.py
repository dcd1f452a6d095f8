"""The multi-file commit of a sharded checkpoint.

What a checkpoint holds and how a file is written durably is
:mod:`repro.core.checkpoint`'s business: each rank writes the state it
owns (its tables' weights **and** accumulators, on rank 0 also the
replicated dense half) plus its loss history through ``write_checkpoint``
— at world 1, the file a single-process trainer writes.  This module is
what is specific to there being several files: rank 0 commits a JSON
**manifest** naming every shard and the sha256 its writer took, through
the same temp + fsync + rename, so a crash at any instant leaves either
the previous complete checkpoint or the new one:

* a shard temp that never renamed is invisible to :func:`latest_valid_manifest`;
* a manifest temp that never renamed leaves the previous manifest current;
* a manifest naming a shard that is missing or does not hash to the
  recorded sha256 is rejected; restore falls back to the previous one.

Restore reads each shard once: :func:`latest_valid_manifest` hashes the
buffer it then parses (the arrays are views into it) and returns them on
a :class:`VerifiedManifest`, which :func:`build_resume` restores from.

Restore is **bit-exact** (``tests/test_checkpoint.py``), which extends the
kill-and-restore bit-identity contract to real processes.  Layout::

    shard-r<rank>-s<step>.npz   # per-rank state after <step> global steps
    manifest-s<step>.json       # commit record, written last, rank 0 only
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import zipfile
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ...core.checkpoint import atomic_open, checkpoint_views

__all__ = [
    "MANIFEST_VERSION",
    "Manifest",
    "ResumeState",
    "ShardEntry",
    "VerifiedManifest",
    "shard_filename",
    "manifest_filename",
    "write_manifest",
    "latest_valid_manifest",
    "build_resume",
]

MANIFEST_VERSION = 1
#: a shard's one key beside the state schema: the rank's loss per step so far
LOSSES = "losses"

_MANIFEST_RE = re.compile(r"^manifest-s(\d+)\.json$")


def shard_filename(rank: int, step: int) -> str:
    return f"shard-r{rank}-s{step}.npz"


def manifest_filename(step: int) -> str:
    return f"manifest-s{step}.json"


@dataclass(frozen=True)
class ShardEntry:
    """One rank's contribution to a committed checkpoint."""

    rank: int
    file: str
    sha256: str
    tables: tuple[str, ...]


@dataclass(frozen=True)
class Manifest:
    """A committed checkpoint: the rank-0 record naming every shard."""

    step: int
    world: int
    total_steps: int
    batch_size: int
    seed: int
    reduction: str
    dtype: str
    shards: tuple[ShardEntry, ...]
    path: str = ""

    def to_json(self) -> str:
        doc = asdict(self)
        del doc["path"]
        return json.dumps(
            {"format": "repro-mp-checkpoint", "version": MANIFEST_VERSION, **doc},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str, path: str = "") -> "Manifest":
        doc = json.loads(text)
        if doc.get("format") != "repro-mp-checkpoint":
            raise ValueError(f"not an mp checkpoint manifest: {path or text[:40]!r}")
        if doc.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {doc.get('version')!r} in {path}"
            )
        return cls(
            step=int(doc["step"]),
            world=int(doc["world"]),
            total_steps=int(doc["total_steps"]),
            batch_size=int(doc["batch_size"]),
            seed=int(doc["seed"]),
            reduction=str(doc["reduction"]),
            dtype=str(doc["dtype"]),
            shards=tuple(
                ShardEntry(
                    rank=int(e["rank"]),
                    file=str(e["file"]),
                    sha256=str(e["sha256"]),
                    tables=tuple(e["tables"]),
                )
                for e in doc["shards"]
            ),
            path=path,
        )


@dataclass(frozen=True, eq=False)
class VerifiedManifest(Manifest):
    """A manifest :func:`latest_valid_manifest` found whole, with its
    shards' arrays in ``shards`` order — views into the very bytes whose
    sha256 it checked.  A scan result; never written back."""

    arrays: tuple[dict[str, np.ndarray], ...] = field(default=(), repr=False)


@dataclass
class ResumeState:
    """Everything a fresh worker set needs to continue from step ``step``.

    ``arrays`` is the union of every shard's state under
    :func:`repro.core.checkpoint.state_arrays`' keys, as plain in-process
    ndarrays (the parent loads them, forked children inherit them and each
    restores what it holds); the run loop re-generates the batch streams
    and slices off the first ``step`` batches, so data order is identical
    to the uninterrupted run.
    """

    step: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    per_rank_losses: list[list[float]] = field(default_factory=list)


def _read_verified(path: pathlib.Path, sha256: str) -> dict[str, np.ndarray] | None:
    """The shard's arrays, views into the very buffer that hashes to
    ``sha256`` (the file is read once) — or ``None``: missing, unreadable,
    or not those bytes."""
    try:
        with open(path, "rb") as fh:
            data = np.empty(os.fstat(fh.fileno()).st_size, dtype=np.uint8)
            if fh.readinto(data) != len(data):
                return None
    except OSError:
        return None
    if hashlib.sha256(data).hexdigest() != sha256:
        return None
    try:
        return checkpoint_views(data)
    except (ValueError, zipfile.BadZipFile):
        return None


def write_manifest(
    directory: str | pathlib.Path,
    manifest: Manifest,
    kill_hook: Callable[[], None] | None = None,
) -> pathlib.Path:
    """Atomically commit ``manifest`` under its step-derived filename."""
    directory = pathlib.Path(directory)
    path = directory / manifest_filename(manifest.step)
    with atomic_open(path, kill_hook) as fh:
        fh.write(manifest.to_json().encode())
    return path


def latest_valid_manifest(
    directory: str | pathlib.Path, world: int | None = None
) -> VerifiedManifest | None:
    """Newest manifest whose every shard file exists and hashes correctly,
    with the shards' arrays (:class:`VerifiedManifest`).

    Scans step-descending and *falls back* past torn or corrupt commits —
    a manifest written but pointing at a half-written (never-renamed, so
    missing) shard, a shard whose bytes don't match the recorded sha256,
    or a world size mismatching the restarting run are all skipped.
    Returns ``None`` when no usable checkpoint exists (restart from
    scratch).
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return None
    steps = sorted(
        int(m.group(1)) for p in directory.iterdir()
        if (m := _MANIFEST_RE.match(p.name))
    )
    for step in reversed(steps):
        path = directory / manifest_filename(step)
        try:
            manifest = Manifest.from_json(path.read_text(), path=str(path))
        except (ValueError, OSError, json.JSONDecodeError):
            continue
        if world is not None and manifest.world != world:
            continue
        if len(manifest.shards) != manifest.world:
            continue
        arrays = []
        for e in manifest.shards:
            shard = _read_verified(directory / e.file, e.sha256)
            if shard is None:
                break
            arrays.append(shard)
        else:
            return VerifiedManifest(**vars(manifest), arrays=tuple(arrays))
    return None


def build_resume(manifest: VerifiedManifest, directory: str | pathlib.Path) -> ResumeState:
    """Materialize a :class:`ResumeState` from the shards
    :func:`latest_valid_manifest` read and verified in ``directory``; no
    file is read again.

    Raises:
        TypeError: ``manifest`` did not come from the scan.
    """
    if not isinstance(manifest, VerifiedManifest):
        raise TypeError("build_resume restores a manifest from latest_valid_manifest")
    state = ResumeState(step=manifest.step)
    for entry, arrays in sorted(zip(manifest.shards, manifest.arrays), key=lambda s: s[0].rank):
        arrays = dict(arrays)
        state.per_rank_losses.append([float(x) for x in arrays.pop(LOSSES)])
        state.arrays.update(arrays)
    return state
