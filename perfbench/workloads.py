"""The seven perfbench workloads: shapes, and why each one is here.

Three single-process workloads sit in the paper's three model regimes
(embedding-, MLP- and interaction-dominated: its M1/M2/M3), one re-runs the
first through the prefetch pipeline, one puts the tiered store on the
critical path, and two drive the 2-worker hybrid trainer with and without
its pipelined comm path.  All are float32, backend ``fused``, the
generator's default ``index_skew`` (1.05), closed loop: the next batch is
made only after the previous step completes.

``smoke=True`` shrinks every shape (rows / 100, batch / 8, MLP widths / 4)
so the whole suite runs in seconds; the numbers then mean nothing, only
the plumbing is exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.tiering import TieredStoreConfig

#: Segments per timed run; every end-to-end throughput is the median of K.
K_TRAIN = 5
K_INFER = 5
K_HYBRID = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_dense: int
    tables: tuple[int, int, int, int]  # count, rows, dim, mean lookups
    bottom: tuple[int, ...]
    top: tuple[int, ...]
    interaction: InteractionType
    batch: int
    #: steps (single-process) before timing starts; part of ``setup_s``
    warm: int
    #: steps run after the warm ones whatever ``--seconds`` says; the loss
    #: digest covers exactly these, so it does not depend on the host's speed
    digest_steps: int = 4
    pipeline: bool = False
    tiered: bool = False
    #: 0 = single-process ``Trainer``; otherwise ``run_hybrid`` workers
    workers: int = 0

    @property
    def hybrid(self) -> bool:
        return self.workers > 0

    def config(self, smoke: bool = False) -> ModelConfig:
        count, rows, dim, lookups = self.tables
        bottom, top = self.bottom, self.top
        if smoke:
            rows = max(64, rows // 100)
            # DOT needs the bottom stack to end at the embedding dim
            bottom = tuple(max(8, w // 4) for w in bottom[:-1]) + bottom[-1:]
            top = tuple(max(8, w // 4) for w in top)
        return ModelConfig(
            name=self.name,
            num_dense=self.num_dense,
            tables=uniform_tables(count, rows, dim=dim, mean_lookups=lookups),
            bottom_mlp=MLPSpec(bottom),
            top_mlp=MLPSpec(top),
            interaction=self.interaction,
            compute_dtype="float32",
            backend="fused",
        )

    def batch_size(self, smoke: bool = False) -> int:
        return max(16, self.batch // 8) if smoke else self.batch

    def tiering(self) -> TieredStoreConfig | None:
        if not self.tiered:
            return None
        return TieredStoreConfig(hot_fraction=0.05, chunk_rows=8, policy="freq")


_EMB = dict(
    num_dense=16, tables=(12, 100_000, 64, 20), bottom=(64, 64), top=(128, 64),
    interaction=InteractionType.CONCAT, batch=512, warm=5,
)
_HYBRID = dict(
    num_dense=16, tables=(8, 50_000, 32, 16), bottom=(128, 64, 32),
    top=(256, 128), interaction=InteractionType.DOT, batch=1024, warm=0,
    digest_steps=8, workers=2,
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="train_emb",
        why="M1-like: 307 MB of tables far exceed cache, so embedding gather and sparse optimizer are the step",
        **_EMB,
    ),
    Workload(
        name="train_mlp",
        why="M2-like: GEMM-bound MLP stacks, embedding does almost nothing; the bypass for every sparse-path change",
        num_dense=512, tables=(4, 10_000, 64, 2), bottom=(1024, 512, 64),
        top=(1024, 1024, 512), interaction=InteractionType.CONCAT,
        batch=1024, warm=5,
    ),
    Workload(
        name="train_dot",
        why="M3-like: pairwise-dot interaction over 60 small tables dominates and stresses per-table Python overhead",
        num_dense=16, tables=(60, 10_000, 16, 1), bottom=(32, 16), top=(64,),
        interaction=InteractionType.DOT, batch=2048, warm=5,
    ),
    Workload(
        name="train_emb_pipe",
        why="train_emb through Trainer(pipeline=True): data gen and lookup planning move to the prep thread",
        pipeline=True,
        **_EMB,
    ),
    Workload(
        name="train_tiered",
        why="the only workload where the tiered store works: admission and eviction bookkeeping are the whole step",
        num_dense=16, tables=(4, 100_000, 32, 16), bottom=(64, 32), top=(64,),
        interaction=InteractionType.CONCAT, batch=128, warm=3,
        tiered=True,
    ),
    Workload(
        name="hybrid_w2",
        why="2 worker processes: pickled sparse all-to-all, ordered allreduce, barrier and shm shards on the critical path",
        **_HYBRID,
    ),
    Workload(
        name="hybrid_w2_pipe",
        why="hybrid_w2 with pipeline=True: raw-bytes value exchange and id-plan prefetch on the comm thread",
        pipeline=True,
        **_HYBRID,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}
