"""Fresh-process allocation gate for the sparse half of the train step.

perfbench's ``alloc.steady_kb_per_step`` counts Python-visible allocations,
and its worker frees three sets of 25 MB tables before it times anything,
which lifts glibc's mmap threshold past every per-step result — so neither
sees what a user's fresh process pays when a kernel allocates its result on
every call: an ``mmap``, a minor page fault per 4 KB of it, an ``munmap``.
This script counts exactly that (``ru_minflt``) over steady-state steps of a
reduced ``train_emb`` shape whose per-table gradients (~1 MB) are far above
the threshold, and fails if it exceeds :data:`MAX_FAULTS` per step.  With the
embedding tables writing into the model's arena the count is ~110 (35-160
across allocator states seen while writing this); with a fresh pooled
output and a fresh gradient per table per step (commit b0d1423, the last
to allocate them) it is 2 583, ten times the bound.

Run as ``make alloc-smoke`` — always in a new interpreter: the count depends
on the allocator's state.  Skipped (exit 0) where ``resource`` is not Linux's.
"""

from __future__ import annotations

import sys

TABLES, ROWS, DIM, LOOKUPS, BATCH = 6, 50_000, 64, 20, 512
WARM_STEPS, TIMED_STEPS = 5, 10
#: Minor page faults allowed per steady-state step.
MAX_FAULTS = 250.0


def faults_per_step() -> float:
    import resource

    from repro.core import (
        DLRM, Adagrad, InteractionType, MLPSpec, ModelConfig, Trainer, uniform_tables,
    )
    from repro.data import SyntheticDataGenerator

    config = ModelConfig(
        name="alloc_smoke",
        num_dense=16,
        tables=uniform_tables(TABLES, ROWS, dim=DIM, mean_lookups=LOOKUPS),
        bottom_mlp=MLPSpec((64, 64)),
        top_mlp=MLPSpec((128, 64)),
        interaction=InteractionType.CONCAT,
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
    batches = [gen.batch(BATCH) for _ in range(WARM_STEPS + TIMED_STEPS)]
    for batch in batches[:WARM_STEPS]:
        trainer.train_step(batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches[WARM_STEPS:]:
        trainer.train_step(batch)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    return (after - before) / TIMED_STEPS


def main() -> int:
    if not sys.platform.startswith("linux"):
        print(f"alloc-smoke skipped: ru_minflt is not comparable on {sys.platform}")
        return 0
    per_step = faults_per_step()
    ok = per_step <= MAX_FAULTS
    print(
        f"alloc-smoke {'ok' if ok else 'FAILED'}: {per_step:.1f} minor faults per "
        f"steady-state step (bound {MAX_FAULTS:g}; {TABLES} tables x {ROWS} rows "
        f"x dim {DIM}, batch {BATCH}, {TIMED_STEPS} steps after {WARM_STEPS} warm)"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
