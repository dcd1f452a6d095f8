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

Restore is **bit-exact** (``tests/test_checkpoint.py``), which extends the
kill-and-restore bit-identity contract to real processes.  Layout::

    shard-r<rank>-s<step>.npz   # per-rank state after <step> global steps
    manifest-s<step>.json       # commit record, written last, rank 0 only
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from ...core.checkpoint import atomic_open, read_checkpoint

__all__ = [
    "MANIFEST_VERSION",
    "Manifest",
    "ResumeState",
    "ShardEntry",
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


def _file_sha256(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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
) -> Manifest | None:
    """Newest manifest whose every shard file exists and hashes correctly.

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
        if all(
            (directory / e.file).is_file()
            and _file_sha256(directory / e.file) == e.sha256
            for e in manifest.shards
        ):
            return manifest
    return None


def build_resume(manifest: Manifest, directory: str | pathlib.Path) -> ResumeState:
    """Materialize a :class:`ResumeState` from a verified manifest."""
    directory = pathlib.Path(directory)
    state = ResumeState(step=manifest.step)
    for entry in sorted(manifest.shards, key=lambda e: e.rank):
        arrays = read_checkpoint(directory / entry.file)
        state.per_rank_losses.append([float(x) for x in arrays.pop(LOSSES)])
        state.arrays.update(arrays)
    return state
