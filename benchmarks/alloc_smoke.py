"""Fresh-process allocation gate for the train step's arena-backed layers.

perfbench's ``alloc.steady_kb_per_step`` counts Python-visible allocations,
and its worker frees three sets of 25 MB tables before it times anything,
which lifts glibc's mmap threshold past every per-step result — so neither
sees what a user's fresh process pays when a kernel allocates its result on
every call: an ``mmap``, a minor page fault per 4 KB of it, an ``munmap``.
This script counts exactly that (``ru_minflt``) over steady-state steps of
two reduced perfbench shapes and fails if either exceeds :data:`MAX_FAULTS`
per step:

* ``emb`` — ``train_emb``: per-table gradients (~1 MB) far above the
  threshold.  With the embedding tables writing into the model's arena the
  count is ~150 (75-200 across allocator states seen while writing this;
  ~80, 2-125, before each table's plan carried its backward's 82 KB of
  sample columns from the forward to the backward — index data at the top
  of the heap, which glibc trims and regrows); with a fresh pooled output
  and a fresh gradient per table per step (commit b0d1423, the last to
  allocate them) it is 2 583, ten times the bound.
* ``dot`` — ``train_dot``: many small tables and a pairwise-dot interaction
  that walks each batch in 14 cache-sized blocks (41 vectors, 77 samples per
  block).  One temporary inside those loops — an ``ascontiguousarray`` of a
  block's 200 KB feature stack, a ``reshape`` that copies its 500 KB of gram
  matrices — is an ``mmap`` per block per step: 1 284 and 1 699 faults
  where the arena-only loops read 10.  Those temporaries are smaller than
  the 512 KiB blocks table initialisation frees, and glibc lifts its mmap
  threshold to the largest chunk freed so far, after which they come off
  the heap unseen (0.3 faults, mutated or not); this shape therefore runs
  with the threshold pinned at its initial 128 KiB
  (``MALLOC_MMAP_THRESHOLD_``), under which ``emb`` would read ~300 from
  index temporaries that gate was never about.

Run as ``make alloc-smoke``.  Each shape is measured in an interpreter of its
own (the count depends on the allocator's state, and a freed model lifts the
threshold for the next).  Skipped (exit 0) where ``resource`` is not Linux's.
"""

from __future__ import annotations

import os
import subprocess
import sys

#: name -> (tables, rows, dim, mean lookups, batch, interaction, bottom, top)
SHAPES = {
    "emb": (6, 50_000, 64, 20, 512, "CONCAT", (64, 64), (128, 64)),
    "dot": (40, 2_000, 16, 1, 1024, "DOT", (32, 16), (64,)),
}
#: Environment added to a shape's interpreter (see the module docstring).
SHAPE_ENV = {"dot": {"MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}}
WARM_STEPS, TIMED_STEPS = 5, 10
#: Minor page faults allowed per steady-state step.
MAX_FAULTS = 250.0


def faults_per_step(name: str, shape: tuple) -> float:
    import resource

    from repro.core import (
        DLRM, Adagrad, InteractionType, MLPSpec, ModelConfig, Trainer, uniform_tables,
    )
    from repro.data import SyntheticDataGenerator

    tables, rows, dim, lookups, batch_size, interaction, bottom, top = shape
    config = ModelConfig(
        name=f"alloc_smoke_{name}",
        num_dense=16,
        tables=uniform_tables(tables, rows, dim=dim, mean_lookups=lookups),
        bottom_mlp=MLPSpec(bottom),
        top_mlp=MLPSpec(top),
        interaction=InteractionType[interaction],
        compute_dtype="float32",
        backend="fused",
    )
    trainer = Trainer(
        DLRM(config, rng=0),
        lambda m: Adagrad(
            m.dense_parameters(), m.embedding_tables(), lr=0.01, backend=m.backend
        ),
    )
    gen = SyntheticDataGenerator(config, rng=1)
    # Drawn up front: the gate is on the step, not on the data generator.
    batches = [gen.batch(batch_size) for _ in range(WARM_STEPS + TIMED_STEPS)]
    for batch in batches[:WARM_STEPS]:
        trainer.train_step(batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[WARM_STEPS:]:
        trainer.train_step(batch)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return (after - before) / TIMED_STEPS


def main(argv: list[str]) -> int:
    if not sys.platform.startswith("linux"):
        print(f"alloc-smoke skipped: ru_minflt is not comparable on {sys.platform}")
        return 0
    if not argv:  # one fresh interpreter per shape
        return max(
            subprocess.run(
                [sys.executable, __file__, shape],
                env=dict(os.environ, **SHAPE_ENV.get(shape, {})),
            ).returncode
            for shape in SHAPES
        )
    (name,) = argv
    per_step = faults_per_step(name, SHAPES[name])
    ok = per_step <= MAX_FAULTS
    print(
        f"alloc-smoke {name} {'ok' if ok else 'FAILED'}: {per_step:.1f} minor faults "
        f"per steady-state step (bound {MAX_FAULTS:g}; shape {SHAPES[name]}, "
        f"{TIMED_STEPS} steps after {WARM_STEPS} warm)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
