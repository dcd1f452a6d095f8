"""One suite for the one checkpoint writer and the one state schema.

The three kinds — full file, dirty-row partial on top of a full base,
sharded commit — are three uses of :mod:`repro.core.checkpoint`, so most
contracts here are parametrised over the kind:

* state round-trips **byte for byte** (NaN payloads, infinities, signed
  zeros; f64 and f32) and a run resumed from a checkpoint is bit-identical
  to the one that was never interrupted — model *and* optimizer;
* a save that dies mid-write, or is killed between fsync and rename,
  leaves the last good checkpoint in place;
* a rejected restore has assigned nothing.

The real-process side (kills at ``phase="checkpoint"``, world 1 = the
single file) is in ``tests/test_mp_ft.py``.
"""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    SGD,
    Adagrad,
    DirtyRowTracker,
    DLRM,
    Trainer,
    apply_partial_checkpoint,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
    save_partial_checkpoint,
    uniform_tables,
)
from repro.core.checkpoint import (
    checkpoint_views,
    read_checkpoint,
    restore_arrays,
    state_arrays,
    write_checkpoint,
)
from repro.data import SyntheticDataGenerator
from repro.distributed.mp import ckpt


def _adagrad(m, lr=0.05):
    return Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr)


def _trainer(model, lr=0.05):
    return Trainer(model, lambda m: _adagrad(m, lr))


# ---------------------------------------------------------------------------
# the three kinds behind one (begin, save, restore) shape
# ---------------------------------------------------------------------------


class Full:
    def __init__(self, directory):
        self.path = directory / "full.npz"

    def begin(self, model, optimizer):
        pass

    def record(self, batch):
        pass

    def save(self, model, optimizer):
        save_checkpoint(self.path, model, optimizer)

    def restore(self, model, optimizer):
        load_checkpoint(self.path, model, optimizer)


class Partial(Full):
    """A full base taken at :meth:`begin`, then the rows dirtied since."""

    def __init__(self, directory):
        super().__init__(directory)
        self.partial = directory / "partial.npz"

    def begin(self, model, optimizer):
        save_checkpoint(self.path, model, optimizer)
        self.tracker = DirtyRowTracker(model)

    def record(self, batch):
        self.tracker.record_batch(batch)

    def save(self, model, optimizer):
        save_partial_checkpoint(self.partial, model, self.tracker, optimizer)

    def restore(self, model, optimizer):
        load_checkpoint(self.path, model, optimizer)
        apply_partial_checkpoint(self.partial, model, optimizer)


class Sharded(Full):
    """What the ranks of a world-2 run write, from one process: each the
    tables it owns, rank 0 the dense half, then the manifest."""

    def __init__(self, directory):
        self.directory = directory
        self.step = 0

    def save(self, model, optimizer):
        self.step += 2
        names = list(model.embeddings.tables)
        entries = []
        for rank, owned in enumerate((names[::2], names[1::2])):
            arrays = state_arrays(model, optimizer, tables=owned, dense=rank == 0)
            arrays[ckpt.LOSSES] = np.full(self.step, 0.5 + rank)
            fname = ckpt.shard_filename(rank, self.step)
            _, sha = write_checkpoint(self.directory / fname, arrays, sha256=True)
            entries.append(ckpt.ShardEntry(rank, fname, sha, tuple(owned)))
        ckpt.write_manifest(self.directory, ckpt.Manifest(
            step=self.step, world=2, total_steps=8, batch_size=32, seed=0,
            reduction="ordered", dtype=str(model.dtype), shards=tuple(entries),
        ))

    def restore(self, model, optimizer):
        manifest = ckpt.latest_valid_manifest(self.directory, world=2)
        resume = ckpt.build_resume(manifest, self.directory)
        assert resume.per_rank_losses == [[0.5] * resume.step, [1.5] * resume.step]
        restore_arrays(resume.arrays, model, optimizer)


KINDS = {"full": Full, "partial": Partial, "sharded": Sharded}


@pytest.fixture(params=sorted(KINDS))
def kind(request, tmp_path):
    return KINDS[request.param](tmp_path)


def assert_same_state(model, optimizer, other, other_optimizer):
    want = state_arrays(model, optimizer)
    got = state_arrays(other, other_optimizer)
    assert list(want) == list(got)
    for key, ref in want.items():
        assert got[key].dtype == ref.dtype, key
        assert got[key].tobytes() == ref.tobytes(), key


def snapshot(model, optimizer):
    return {k: v.tobytes() for k, v in state_arrays(model, optimizer).items()}


def _poison(dtype):
    """Awkward floats: a specific NaN payload, its negative, -0.0, infinities."""
    bits = {np.float64: (np.uint64, 0x7FF8_0000_DEAD_BEEF), np.float32: (np.uint32, 0x7FC0_BEEF)}
    utype, payload = bits[dtype]
    nan = np.array([payload], dtype=utype).view(dtype)[0]
    return np.array([nan, -nan, -0.0, np.inf, -np.inf], dtype=dtype)


# ---------------------------------------------------------------------------
# round trips and resumed runs, per kind
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_round_trip_is_byte_for_byte(kind, dtype, tiny_config, tmp_path):
    """Every array of the state — weights, accumulators, dense parameters
    and slots — comes back with the bytes it had, whatever they encode."""
    config = replace(tiny_config, compute_dtype=dtype)
    gen = SyntheticDataGenerator(config, rng=7)
    trainer = _trainer(DLRM(config, rng=0))
    model, optimizer = trainer.model, trainer.optimizer
    kind.begin(model, optimizer)
    for _ in range(3):
        batch = gen.batch(32)
        kind.record(batch)
        trainer.train_step(batch)
    poison = _poison(model.dtype.type)
    dense_slots, accums = optimizer.slots()
    for name, accum in accums.items():
        # rows the run touched, so the partial kind carries them too
        rows = np.flatnonzero(accum.any(axis=1))[: len(poison)]
        accum[rows, 0] = poison[: len(rows)]
        model.embeddings.tables[name].weight[rows, 1] = poison[: len(rows)]
    for array in [p.value for p in model.dense_parameters()] + dense_slots:
        array.reshape(-1)[: len(poison)] = poison[: array.size]
    kind.save(model, optimizer)

    other = _trainer(DLRM(config, rng=99))
    kind.restore(other.model, other.optimizer)
    assert_same_state(model, optimizer, other.model, other.optimizer)


@pytest.mark.parametrize("dtype, lost", [
    pytest.param("float64", 0, id="float64"),
    pytest.param("float32", 0, id="float32"),
    # the victim trains past its checkpoint before it dies
    pytest.param("float64", 2, id="float64-lost-window"),
])
def test_resumed_run_is_bit_identical(kind, dtype, lost, tiny_config):
    """3 steps, 3 more (under the tracker, for the partial kind), save,
    ``lost`` steps more, crash; a fresh model restored from the checkpoint
    and trained on the remaining 3 batches ends where the uninterrupted
    9-step run ends — losses, weights, dense parameters and accumulators."""
    config = replace(tiny_config, compute_dtype=dtype)
    gen = SyntheticDataGenerator(config, rng=7)
    batches = [gen.batch(32) for _ in range(9)]
    ref = _trainer(DLRM(config, rng=0))
    ref_losses = [ref.train_step(batch) for batch in batches]

    first = _trainer(DLRM(config, rng=0))
    for batch in batches[:3]:
        first.train_step(batch)
    kind.begin(first.model, first.optimizer)
    for batch in batches[3:6]:
        kind.record(batch)
        first.train_step(batch)
    kind.save(first.model, first.optimizer)
    for batch in batches[6:6 + lost]:
        first.train_step(batch)
    del first  # the crash

    resumed = _trainer(DLRM(config, rng=123))  # wrong init, must not matter
    kind.restore(resumed.model, resumed.optimizer)
    assert [resumed.train_step(batch) for batch in batches[6:]] == ref_losses[6:]
    assert_same_state(ref.model, ref.optimizer, resumed.model, resumed.optimizer)


def test_sgd_momentum_resumes_bit_identically(tiny_config, tmp_path):
    """The schema is the optimizer's ``slots()``, not Adagrad's fields."""
    def make(seed):
        return Trainer(DLRM(tiny_config, rng=seed), lambda m: SGD(
            m.dense_parameters(), m.embedding_tables(), lr=0.05, momentum=0.9))

    gen = SyntheticDataGenerator(tiny_config, rng=7)
    batches = [gen.batch(32) for _ in range(6)]
    ref, first, resumed = make(0), make(0), make(5)
    for batch in batches:
        ref.train_step(batch)
    for batch in batches[:3]:
        first.train_step(batch)
    first.save_checkpoint(tmp_path / "c.npz")
    resumed.load_checkpoint(tmp_path / "c.npz")
    for batch in batches[3:]:
        resumed.train_step(batch)
    assert_same_state(ref.model, ref.optimizer, resumed.model, resumed.optimizer)


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

any_arrays = st.dictionaries(
    st.text(
        alphabet=st.characters(whitelist_categories=("L", "N")),
        min_size=1,
        max_size=8,
    ).map(lambda s: f"weight/{s}"),
    st.sampled_from([np.float64, np.float32, np.int64, np.int32]).flatmap(
        lambda dt: hnp.arrays(
            dtype=dt,
            shape=hnp.array_shapes(max_dims=2, max_side=8),
            elements=(
                st.floats(
                    allow_nan=True,
                    allow_infinity=True,
                    width=32 if dt == np.float32 else 64,
                )
                if np.issubdtype(dt, np.floating)
                else st.integers(min_value=-(2**31), max_value=2**31 - 1)
            ),
        )
    ),
    min_size=1,
    max_size=4,
)


class TestWriter:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(arrays=any_arrays, sha256=st.booleans())
    def test_bit_exact_across_dtypes(self, arrays, sha256, tmp_path_factory):
        """NaNs, infinities and -0.0 must survive byte-for-byte — the
        restore path cannot tolerate any canonicalization — and the digest
        taken while streaming is the digest of the file."""
        path = tmp_path_factory.mktemp("writer") / "c.npz"
        size, digest = write_checkpoint(path, arrays, sha256=sha256)
        assert size == path.stat().st_size
        if sha256:
            assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            assert digest is None
        in_memory = np.frombuffer(path.read_bytes(), dtype=np.uint8).copy()
        for loaded in (read_checkpoint(path), checkpoint_views(in_memory)):
            assert set(loaded) == set(arrays)
            for key, want in arrays.items():
                assert loaded[key].dtype == want.dtype
                assert loaded[key].shape == want.shape
                assert loaded[key].tobytes() == want.tobytes()

    def test_views_keep_layout_and_odd_shapes(self, tmp_path):
        """``checkpoint_views`` reads what ``read_checkpoint`` reads, as
        views into the one buffer: Fortran order, 0-d and empty arrays."""
        path = tmp_path / "c.npz"
        arrays = {
            "f": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
            "scalar": np.array(3.5),
            "empty": np.zeros((0, 5), dtype=np.float32),
            "rows/t": np.arange(5, dtype=np.int64),
        }
        write_checkpoint(path, arrays)
        buf = np.frombuffer(path.read_bytes(), dtype=np.uint8).copy()
        views = checkpoint_views(buf)
        want = read_checkpoint(path)
        assert views.keys() == want.keys() == arrays.keys()
        for key, array in want.items():
            assert views[key].shape == array.shape and np.array_equal(views[key], array)
            assert views[key].base is not None
        assert views["f"].flags.f_contiguous

    @pytest.mark.parametrize("sha256", [False, True])
    def test_kill_between_fsync_and_rename(self, sha256, tmp_path):
        """The torn-commit window: the new file is complete under its temp
        name, the previous one is still what ``path`` holds."""
        path = tmp_path / "c.npz"
        old, new = {"weight/t": np.arange(4.0)}, {"weight/t": np.arange(4.0) + 1}
        write_checkpoint(path, old, sha256=sha256)

        class Killed(BaseException):
            pass

        def die():
            raise Killed()

        with pytest.raises(Killed):
            write_checkpoint(path, new, kill_hook=die, sha256=sha256)
        assert read_checkpoint(path)["weight/t"].tobytes() == old["weight/t"].tobytes()
        torn = read_checkpoint(tmp_path / "c.npz.tmp")
        assert torn["weight/t"].tobytes() == new["weight/t"].tobytes()

    def test_old_format_version_rejected(self, tiny_config, tmp_path, monkeypatch):
        model = DLRM(tiny_config, rng=0)
        monkeypatch.setattr("repro.core.checkpoint.FORMAT_VERSION", 1)
        save_checkpoint(tmp_path / "v1.npz", model)
        monkeypatch.undo()
        before = snapshot(model, None)
        for load in (load_checkpoint, apply_partial_checkpoint):
            with pytest.raises(ValueError, match="unrecognized checkpoint format"):
                load(tmp_path / "v1.npz", model)
        with pytest.raises(ValueError, match="unrecognized checkpoint format"):
            read_checkpoint(tmp_path / "v1.npz")
        with pytest.raises(ValueError, match="unrecognized checkpoint format"):
            buf = np.frombuffer((tmp_path / "v1.npz").read_bytes(), dtype=np.uint8)
            checkpoint_views(buf.copy())
        assert snapshot(model, None) == before


def test_failed_save_keeps_previous_checkpoint(
    kind, tiny_config, tiny_generator, monkeypatch, tmp_path
):
    """A save that dies mid-write must leave the last good checkpoint
    loadable and no temp file behind."""
    trainer = _trainer(DLRM(tiny_config, rng=0))
    model, optimizer = trainer.model, trainer.optimizer
    kind.begin(model, optimizer)

    def step():
        batch = tiny_generator.batch(32)
        kind.record(batch)
        trainer.train_step(batch)

    step()
    kind.save(model, optimizer)
    good = _trainer(DLRM(tiny_config, rng=99))
    kind.restore(good.model, good.optimizer)

    step()  # the state the failing save tries to write

    def torn_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half a zip")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", torn_savez)
    with pytest.raises(OSError):
        kind.save(model, optimizer)
    monkeypatch.undo()

    assert not list(tmp_path.glob("*.tmp"))
    after = _trainer(DLRM(tiny_config, rng=99))
    kind.restore(after.model, after.optimizer)
    assert_same_state(good.model, good.optimizer, after.model, after.optimizer)


# ---------------------------------------------------------------------------
# restore is all-or-nothing
# ---------------------------------------------------------------------------


LAST_TABLE = "table_2"


def _wider_tables(config):
    """Same dense half, one table with more rows: the dense keys fit, so a
    restore that assigns as it goes has overwritten them before it finds
    the table that does not."""
    tables = uniform_tables(3, 50, dim=4, mean_lookups=2.0)
    return replace(config, tables=tables[:2] + (replace(tables[2], hash_size=80),))


REJECTIONS = {
    # name: (config of the run that saves, does it save optimizer state, error)
    "table_shape": (_wider_tables, True, r"(weight|rows)/"),
    "dtype": (lambda c: replace(c, compute_dtype="float32"), True, "dense/0"),
    "no_optimizer_state": (lambda c: c, False, "missing (opt_dense/0|accum/)"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejected_restore_changes_nothing(kind, case, tiny_config):
    other_config, with_optimizer, message = REJECTIONS[case]
    config = other_config(tiny_config)
    saver = _trainer(DLRM(config, rng=0))
    optimizer = saver.optimizer if with_optimizer else None
    gen = SyntheticDataGenerator(config, rng=3)
    kind.begin(saver.model, optimizer)
    for _ in range(4):
        batch = gen.batch(64)
        kind.record(batch)
        saver.train_step(batch)
    kind.save(saver.model, optimizer)

    victim = _trainer(DLRM(tiny_config, rng=1))
    victim.train_step(SyntheticDataGenerator(tiny_config, rng=4).batch(8))
    before = snapshot(victim.model, victim.optimizer)
    with pytest.raises(ValueError, match=message):
        kind.restore(victim.model, victim.optimizer)
    assert snapshot(victim.model, victim.optimizer) == before


def test_partial_row_outside_table_rejected(tiny_config, tiny_generator, tmp_path):
    """The last table has rows 50..79 dirty; the restoring model's table
    ends at 50 — the index is caught before any row (or the dense half,
    which fits) is written."""
    saver = _trainer(DLRM(_wider_tables(tiny_config), rng=0))
    tracker = DirtyRowTracker(saver.model)
    touched = SimpleNamespace(values=np.array([3, 60, 79]))
    tracker.record_batch(SimpleNamespace(sparse={LAST_TABLE: touched}))
    save_partial_checkpoint(tmp_path / "p.npz", saver.model, tracker, saver.optimizer)
    victim = _trainer(DLRM(tiny_config, rng=1))
    before = snapshot(victim.model, victim.optimizer)
    with pytest.raises(ValueError, match=rf"rows/{LAST_TABLE}: row index outside \[0, 50\)"):
        apply_partial_checkpoint(tmp_path / "p.npz", victim.model, victim.optimizer)
    assert snapshot(victim.model, victim.optimizer) == before


# ---------------------------------------------------------------------------
# the public single-file API
# ---------------------------------------------------------------------------


class TestFullCheckpoint:
    def test_restore_resumes_identically(self, tiny_config, tmp_path):
        """Failure injection through the Trainer methods: crash
        mid-training, restore, continue on the same stream."""
        path = tmp_path / "ckpt.npz"

        gen_a = SyntheticDataGenerator(tiny_config, rng=7, seed_teacher=True)
        ref = DLRM(tiny_config, rng=0)
        ref_tr = _trainer(ref)
        ref_tr.train(gen_a.batches(32), max_steps=20)

        gen_b = SyntheticDataGenerator(tiny_config, rng=7, seed_teacher=True)
        first_tr = _trainer(DLRM(tiny_config, rng=0))
        stream = gen_b.batches(32)
        first_tr.train(stream, max_steps=10)
        assert first_tr.save_checkpoint(path) == path.stat().st_size
        del first_tr  # the crash

        resumed_tr = _trainer(DLRM(tiny_config, rng=123))
        resumed_tr.load_checkpoint(path, step_index=10)
        resumed_tr.train(stream, max_steps=10)  # same remaining data
        assert resumed_tr.step_index == 20
        assert_same_state(ref, ref_tr.optimizer, resumed_tr.model, resumed_tr.optimizer)

    def test_loads_without_the_optimizer_it_was_saved_with(self, tiny_config, tmp_path):
        """An inference model loads weights only from a trainer's checkpoint."""
        trainer = _trainer(DLRM(tiny_config, rng=0))
        trainer.train_step(SyntheticDataGenerator(tiny_config, rng=7).batch(32))
        trainer.save_checkpoint(tmp_path / "c.npz")
        served = DLRM(tiny_config, rng=9)
        load_checkpoint(tmp_path / "c.npz", served)
        assert_same_state(trainer.model, None, served, None)

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
        assert checkpoint_bytes(model, _adagrad(model)) > total


class TestPartialCheckpoint:
    def test_dirty_fraction_small_for_skewed_access(self, tiny_config, tiny_generator):
        model = DLRM(tiny_config, rng=0)
        tracker = DirtyRowTracker(model)
        batches = [tiny_generator.batch(16) for _ in range(3)]
        for batch in batches:
            tracker.record_batch(batch)
        assert 0 < tracker.total_dirty_fraction() < 1.0
        for (name, rows), count in zip(tracker.dirty_rows().items(), tracker.dirty_counts()):
            touched = np.unique(np.concatenate([b.sparse[name].values for b in batches]))
            np.testing.assert_array_equal(rows, touched)
            assert count == len(touched)
        tracker.clear()
        assert tracker.total_dirty_fraction() == 0.0

    def test_save_clears_the_tracker(self, tiny_config, tiny_generator, tmp_path):
        model = DLRM(tiny_config, rng=0)
        tracker = DirtyRowTracker(model)
        tracker.record_batch(tiny_generator.batch(16))
        save_partial_checkpoint(tmp_path / "p.npz", model, tracker)
        assert tracker.dirty_counts() == [0, 0, 0]

    def test_partial_smaller_than_full(self, tiny_config, tiny_generator, tmp_path):
        model = DLRM(tiny_config, rng=0)
        tracker = DirtyRowTracker(model)
        tracker.record_batch(tiny_generator.batch(4))  # touch few rows
        full = save_checkpoint(tmp_path / "full.npz", model)
        partial = save_partial_checkpoint(tmp_path / "part.npz", model, tracker)
        assert partial < full
