#!/usr/bin/env python3
"""Reliability: checkpointing a recommendation model through a failure.

The paper's related work (§VII) stresses that training-infrastructure
reliability directly affects workflow efficiency, citing partial-recovery
checkpointing (CPR) for recommendation models.  This example:

1. trains a DLRM and takes a full checkpoint;
2. keeps training while tracking dirty embedding rows, then takes a
   *partial* checkpoint (only rows touched since the full one);
3. simulates a crash, recovers from full + partial, and verifies that the
   recovered run — model *and* optimizer — continues bit-identically to
   the one that never crashed;
4. reports the checkpoint-size savings from partial checkpointing under
   skewed access.

Run:
    python examples/reliability.py
"""

import pathlib
import tempfile

from repro.core import (
    Adagrad,
    DirtyRowTracker,
    DLRM,
    InteractionType,
    MLPSpec,
    ModelConfig,
    Trainer,
    apply_partial_checkpoint,
    save_partial_checkpoint,
    uniform_tables,
)
from repro.core.checkpoint import state_arrays
from repro.data import SyntheticDataGenerator


def main() -> None:
    config = ModelConfig(
        name="reliability-demo",
        num_dense=16,
        tables=uniform_tables(6, 50_000, dim=16, mean_lookups=3.0),
        bottom_mlp=MLPSpec((32, 16)),
        top_mlp=MLPSpec((16,)),
        interaction=InteractionType.DOT,
    )
    gen = SyntheticDataGenerator(config, rng=0, seed_teacher=True)

    def make_trainer(seed: int) -> Trainer:
        return Trainer(
            DLRM(config, rng=seed),
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )

    trainer = make_trainer(1)
    model = trainer.model
    tmp = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
    workdir = pathlib.Path(tmp.name)

    # phase 1: warm up and take the full checkpoint
    trainer.train(gen.batches(128), max_steps=30)
    full_path = workdir / "full.npz"
    full_bytes = trainer.save_checkpoint(full_path)
    print(f"full checkpoint: {full_bytes / 1e6:.2f} MB")

    # phase 2: continue training with dirty-row tracking
    tracker = DirtyRowTracker(model)
    for _ in range(20):
        batch = gen.batch(128)
        tracker.record_batch(batch)
        trainer.train_step(batch)
    print(
        f"rows touched since full checkpoint: "
        f"{tracker.total_dirty_fraction():.1%} of all embedding rows"
    )
    partial_path = workdir / "partial.npz"
    partial_bytes = save_partial_checkpoint(
        partial_path, model, tracker, trainer.optimizer
    )
    print(
        f"partial checkpoint: {partial_bytes / 1e6:.2f} MB "
        f"({partial_bytes / full_bytes:.0%} of a full one)"
    )

    # phase 3: crash and recover; the run that did not crash is the reference
    remaining = [gen.batch(128) for _ in range(10)]
    recovered = make_trainer(999)  # arbitrary re-init
    recovered.load_checkpoint(full_path)
    apply_partial_checkpoint(partial_path, recovered.model, recovered.optimizer)
    for batch in remaining:
        trainer.train_step(batch)
        recovered.train_step(batch)

    want = state_arrays(model, trainer.optimizer)
    got = state_arrays(recovered.model, recovered.optimizer)
    assert want.keys() == got.keys()
    for key, ref in want.items():
        assert ref.tobytes() == got[key].tobytes(), key
    tmp.cleanup()
    print("recovered run is bit-identical to the uninterrupted one. Done.")


if __name__ == "__main__":
    main()
