"""Shared-memory embedding shards and their placement plan.

Every embedding table (weights *and* Adagrad accumulator) lives in a
``multiprocessing.shared_memory`` segment created — and, crucially,
unlinked — by the parent process.  The parent allocates the segments
from the config's table layouts and builds the run's one seeded model on
them, each table drawn straight into a zero-copy ndarray view of its
weight segment; the workers inherit that model, views and all, through
``fork``, and each owner builds its Adagrad on its tables' accumulator
views.  All ranks read rows straight out of shared memory during the
forward pass (this is what replaces the all-to-all of a message-passing
design), while sparse updates to a table are applied — and its final
digest taken — only by the one rank that owns it.

Lifecycle contract (pinned by ``tests/test_mp_shm.py``): the parent is the
sole owner of ``unlink``.  Segments are removed in a ``finally`` whether
workers exit cleanly or crash mid-step, so no ``/dev/shm`` entries and no
resource-tracker "leaked shared_memory" warnings survive a run.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ...core.config import ModelConfig

__all__ = ["ShardPlan", "TableShards"]

_SEGMENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class ShardPlan:
    """Which rank owns each embedding table's sparse updates.

    Greedy largest-first bin packing over table bytes: tables are assigned,
    biggest first, to the currently-lightest rank — the same
    capacity-balancing heuristic the paper's placement study uses for
    multi-GPU sharding, here balancing per-worker update work.
    """

    owners: dict[str, int]
    world: int

    @classmethod
    def greedy(cls, config: ModelConfig, world: int) -> "ShardPlan":
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        loads = [0] * world
        owners: dict[str, int] = {}
        tables = sorted(
            config.tables,
            key=lambda t: (-t.hash_size * t.dim, t.name),
        )
        for spec in tables:
            rank = min(range(world), key=lambda r: (loads[r], r))
            owners[spec.name] = rank
            loads[rank] += spec.hash_size * spec.dim
        return cls(owners=owners, world=world)

    def owned(self, rank: int) -> list[str]:
        """Tables owned by ``rank``, in the plan's insertion (size) order."""
        return [name for name, r in self.owners.items() if r == rank]

    def owner_bytes(self, config: ModelConfig) -> list[int]:
        """Per-rank owned table bytes (weights only) — balance diagnostics."""
        itemsize = np.dtype(config.np_dtype).itemsize
        loads = [0] * self.world
        for spec in config.tables:
            loads[self.owners[spec.name]] += spec.hash_size * spec.dim * itemsize
        return loads


class TableShards:
    """All embedding shards of one hybrid run, in named shared memory.

    ``allocate`` builds two segments per table — ``weight``, which the
    seeded model draws into (so every process sees the same init the
    serial trainer would produce), and ``accum`` for the Adagrad state,
    zero as every fresh segment is — under explicit names carrying the
    parent pid and a run counter, which the lifecycle tests use to detect
    leaks.
    """

    def __init__(self) -> None:
        self._segments: dict[tuple[str, str], shared_memory.SharedMemory] = {}
        self._layouts: dict[str, tuple[tuple[int, ...], np.dtype]] = {}
        self._owner_pid = os.getpid()

    @classmethod
    def allocate(
        cls, layouts: dict[str, tuple[tuple[int, ...], np.dtype]]
    ) -> "TableShards":
        """Allocate both segments of every ``table name -> (shape, dtype)``;
        each reads as zeros, as a new POSIX segment does, until the model
        draws its weights — or a resumed run's workers restore both kinds
        from the checkpoint, each the tables it owns."""
        shards = cls()
        run_id = next(_SEGMENT_COUNTER)
        try:
            for idx, (name, (shape, dtype)) in enumerate(layouts.items()):
                shape, dtype = tuple(shape), np.dtype(dtype)
                shards._layouts[name] = (shape, dtype)
                for kind in ("weight", "accum"):
                    shards._segments[(name, kind)] = shared_memory.SharedMemory(
                        create=True,
                        size=math.prod(shape) * dtype.itemsize,
                        name=f"repro_mp_{os.getpid()}_{run_id}_{idx}_{kind}",
                    )
        except BaseException:
            shards.close()
            raise
        return shards

    @classmethod
    def create(cls, weights: dict[str, np.ndarray]) -> "TableShards":
        """:meth:`allocate` the layouts of ``table name -> weights`` and copy
        the weights in."""
        shards = cls.allocate({name: (w.shape, w.dtype) for name, w in weights.items()})
        for name, weight in weights.items():
            shards.view(name, "weight")[...] = weight
        return shards

    def view(self, name: str, kind: str = "weight") -> np.ndarray:
        """Zero-copy ndarray over a segment (valid in parent and children)."""
        shape, dtype = self._layouts[name]
        return np.ndarray(shape, dtype=dtype, buffer=self._segments[(name, kind)].buf)

    def digest(self, name: str, kind: str = "weight") -> str:
        """sha256 over a segment's current bytes, read in place."""
        return hashlib.sha256(self.view(name, kind)).hexdigest()

    @property
    def segment_names(self) -> list[str]:
        return [seg.name for seg in self._segments.values()]

    @property
    def total_bytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    def close(self) -> None:
        """Close the mapping and (in the creating process) unlink segments.

        Idempotent; called from the parent's ``finally`` so segments are
        removed even when a worker crashed mid-run.  Forked children also
        inherit this object but must *not* unlink — only the creator does.
        """
        unlink = os.getpid() == self._owner_pid
        for seg in self._segments.values():
            # Unlink before close: shm_unlink removes the /dev/shm name (and
            # the resource-tracker registration) regardless of live mappings,
            # so a view still alive inside a model replica cannot leak the
            # segment — it only delays freeing the memory until GC.
            if unlink:
                try:
                    seg.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
            try:
                seg.close()
            except BufferError:  # pragma: no cover - exported views alive
                pass
        self._segments.clear()
