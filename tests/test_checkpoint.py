"""Tests for checkpointing, restore, and failure injection."""

import numpy as np
import pytest

from repro.core import (
    Adagrad,
    DirtyRowTracker,
    DLRM,
    Trainer,
    apply_partial_checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
    save_partial_checkpoint,
)
from repro.data import SyntheticDataGenerator


def _trainer(model, lr=0.05):
    return Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr),
    )


class TestFullCheckpoint:
    def test_roundtrip_exact(self, tiny_config, tiny_generator, tmp_path):
        model = DLRM(tiny_config, rng=0)
        trainer = _trainer(model)
        trainer.train(tiny_generator.batches(32), max_steps=10)
        path = tmp_path / "ckpt.npz"
        written = save_checkpoint(path, model, trainer.optimizer)
        assert written > 0

        # clone restored into a differently-initialized model
        other = DLRM(tiny_config, rng=99)
        other_opt = Adagrad(other.dense_parameters(), other.embedding_tables(), lr=0.05)
        load_checkpoint(path, other, other_opt)
        for a, b in zip(model.dense_parameters(), other.dense_parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        for ta, tb in zip(model.embedding_tables(), other.embedding_tables()):
            np.testing.assert_array_equal(ta.weight, tb.weight)

    def test_restore_resumes_identically(self, tiny_config, tmp_path):
        """Failure injection: crash mid-training, restore, continue — the
        outcome must exactly match an uninterrupted run."""
        path = tmp_path / "ckpt.npz"

        # uninterrupted reference run: 20 steps
        gen_a = SyntheticDataGenerator(tiny_config, rng=7, seed_teacher=True)
        ref = DLRM(tiny_config, rng=0)
        ref_tr = _trainer(ref)
        ref_tr.train(gen_a.batches(32), max_steps=20)

        # interrupted run: 10 steps, checkpoint, "crash", restore, 10 more
        gen_b = SyntheticDataGenerator(tiny_config, rng=7, seed_teacher=True)
        first = DLRM(tiny_config, rng=0)
        first_tr = _trainer(first)
        stream = gen_b.batches(32)
        first_tr.train(stream, max_steps=10)
        save_checkpoint(path, first, first_tr.optimizer)
        del first, first_tr  # the crash

        resumed = DLRM(tiny_config, rng=123)  # wrong init, must not matter
        resumed_tr = _trainer(resumed)
        load_checkpoint(path, resumed, resumed_tr.optimizer)
        resumed_tr.train(stream, max_steps=10)  # same remaining data

        for a, b in zip(ref.dense_parameters(), resumed.dense_parameters()):
            np.testing.assert_allclose(a.value, b.value, atol=1e-12)
        for ta, tb in zip(ref.embedding_tables(), resumed.embedding_tables()):
            np.testing.assert_allclose(ta.weight, tb.weight, atol=1e-12)

    def test_wrong_config_rejected(self, tiny_config, concat_config, tmp_path):
        model = DLRM(tiny_config, rng=0)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model)
        other = DLRM(concat_config, rng=0)
        with pytest.raises(ValueError):
            load_checkpoint(path, other)

    def test_garbage_file_rejected(self, tiny_config, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, junk=np.zeros(3))
        with pytest.raises(ValueError):
            load_checkpoint(path, DLRM(tiny_config, rng=0))

    def test_checkpoint_bytes_dominated_by_tables(self, tiny_config):
        model = DLRM(tiny_config, rng=0)
        total = checkpoint_bytes(model)
        table_bytes = sum(t.weight.nbytes for t in model.embedding_tables())
        assert total >= table_bytes
        opt = Adagrad(model.dense_parameters(), model.embedding_tables(), lr=0.1)
        assert checkpoint_bytes(model, opt) > total


class TestPartialCheckpoint:
    def test_dirty_fraction_small_for_skewed_access(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        tracker = DirtyRowTracker(model)
        for _ in range(3):
            tracker.record_batch(tiny_generator.batch(16))
        assert 0 < tracker.total_dirty_fraction() < 1.0

    def test_partial_restores_touched_rows(self, tiny_config, tiny_generator, tmp_path):
        model = DLRM(tiny_config, rng=0)
        trainer = _trainer(model)
        tracker = DirtyRowTracker(model)
        base = tmp_path / "full.npz"
        save_checkpoint(base, model)

        for _ in range(5):
            batch = tiny_generator.batch(32)
            tracker.record_batch(batch)
            trainer.train_step(batch)
        partial = tmp_path / "partial.npz"
        save_partial_checkpoint(partial, model, tracker)
        assert tracker.total_dirty_fraction() == 0.0  # cleared

        # recovery: full checkpoint, then partial on top == current state
        recovered = DLRM(tiny_config, rng=55)
        load_checkpoint(base, recovered)
        apply_partial_checkpoint(partial, recovered)
        for a, b in zip(model.dense_parameters(), recovered.dense_parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        for ta, tb in zip(model.embedding_tables(), recovered.embedding_tables()):
            np.testing.assert_array_equal(ta.weight, tb.weight)

    def test_partial_smaller_than_full(self, tiny_config, tiny_generator, tmp_path):
        model = DLRM(tiny_config, rng=0)
        tracker = DirtyRowTracker(model)
        tracker.record_batch(tiny_generator.batch(4))  # touch few rows
        full = save_checkpoint(tmp_path / "full.npz", model)
        partial = save_partial_checkpoint(tmp_path / "part.npz", model, tracker)
        assert partial < full


_WRITERS = {
    "full": (lambda path, model, tracker: save_checkpoint(path, model), load_checkpoint),
    "partial": (save_partial_checkpoint, apply_partial_checkpoint),
}


@pytest.mark.parametrize("kind", sorted(_WRITERS))
def test_failed_save_keeps_previous_checkpoint(
    kind, tiny_config, tiny_generator, tmp_path, monkeypatch
):
    """A save that dies mid-write must leave the last good checkpoint
    loadable at ``path`` and no temp file behind."""
    save, load = _WRITERS[kind]
    model = DLRM(tiny_config, rng=0)
    trainer = _trainer(model)
    tracker = DirtyRowTracker(model)
    path = tmp_path / "ckpt.npz"

    def step():
        batch = tiny_generator.batch(32)
        tracker.record_batch(batch)
        trainer.train_step(batch)

    step()
    save(path, model, tracker)
    good = DLRM(tiny_config, rng=99)
    load(path, good)

    step()  # the state the failing save tries to write

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half a zip")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError):
        save(path, model, tracker)
    monkeypatch.undo()

    assert not list(tmp_path.glob("*.tmp"))
    after = DLRM(tiny_config, rng=99)
    load(path, after)
    for a, b in zip(good.dense_parameters(), after.dense_parameters()):
        np.testing.assert_array_equal(a.value, b.value)
    for ta, tb in zip(good.embedding_tables(), after.embedding_tables()):
        np.testing.assert_array_equal(ta.weight, tb.weight)
