"""Real-process fault tolerance: sharded checkpoints, drain, restart.

The contracts under test, in rough order of appearance:

* checkpoint commits are atomic — a writer killed between temp-write and
  rename leaves the previous manifest current, and
  ``latest_valid_manifest`` falls back past torn or corrupt commits;
* a W=2 run SIGKILLed mid-training and restarted from its newest
  manifest finishes **bit-identical** (losses, dense digest, every table
  digest) to an uninterrupted reference — in float64 and float32;
* on a worker death the survivors drain within ``drain_timeout_s``
  instead of hanging out ``collect_timeout_s``;
* :class:`RestartPolicy` caps respawns and raises ``RetriesExhausted``;
* the goodput ledger's accounting matches the injected fault timeline.
"""

from __future__ import annotations

import glob
import hashlib
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import DLRM, Adagrad, Trainer
from repro.core.checkpoint import read_checkpoint, write_checkpoint
from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.distributed.mp import (
    HybridRunConfig,
    KillSpec,
    MpTimeouts,
    RestartPolicy,
    WorkerCrashError,
    build_resume,
    kills_from_plan,
    latest_valid_manifest,
    run_hybrid,
    run_hybrid_ft,
)
from repro.distributed.mp import ckpt
from repro.distributed.mp.timeouts import get_timeouts, set_timeouts
from repro.data import SyntheticDataGenerator
from repro.resilience.faults import ComponentKind, FaultEvent, FaultPlan
from repro.resilience.retry import RetriesExhausted
from repro.runtime.runner import derive_seed


def small_config(dtype: str = "float64") -> ModelConfig:
    return ModelConfig(
        name="mp-ft-test",
        num_dense=8,
        tables=uniform_tables(4, hash_size=64, dim=8, mean_lookups=2.0),
        bottom_mlp=MLPSpec((16, 8)),
        top_mlp=MLPSpec((16,)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype,
    )


def run_config(tmp_path=None, **overrides) -> HybridRunConfig:
    base = dict(workers=2, steps=6, batch_size=32, lr=0.05, seed=7)
    if tmp_path is not None:
        base.update(checkpoint_every=2, checkpoint_dir=str(tmp_path))
    base.update(overrides)
    return HybridRunConfig(**base)


# ---------------------------------------------------------------------------
# manifest atomicity and fallback
# ---------------------------------------------------------------------------


class TestManifestAtomicity:
    def _commit(self, directory: pathlib.Path, step: int, world: int = 1):
        entries = []
        for rank in range(world):
            fname = ckpt.shard_filename(rank, step)
            _, sha = write_checkpoint(
                directory / fname, {ckpt.LOSSES: np.arange(step, dtype=np.float64)},
                sha256=True,
            )
            entries.append(ckpt.ShardEntry(rank, fname, sha, (f"t{rank}",)))
        manifest = ckpt.Manifest(
            step=step, world=world, total_steps=8, batch_size=32, seed=0,
            reduction="ordered", dtype="float64", shards=tuple(entries),
        )
        ckpt.write_manifest(directory, manifest)
        return manifest

    def test_latest_valid_picks_newest(self, tmp_path):
        self._commit(tmp_path, 2)
        self._commit(tmp_path, 4)
        found = latest_valid_manifest(tmp_path)
        assert found is not None and found.step == 4

    def test_kill_between_write_and_rename_falls_back(self, tmp_path):
        """The torn-commit window: the step-4 manifest's temp file exists
        but was never renamed, so restore lands on step 2."""
        self._commit(tmp_path, 2)
        manifest = self._commit(tmp_path, 4)

        class Killed(BaseException):
            pass

        def die():
            raise Killed()

        with pytest.raises(Killed):
            ckpt.write_manifest(
                tmp_path, ckpt.Manifest(
                    step=6, world=1, total_steps=8, batch_size=32, seed=0,
                    reduction="ordered", dtype="float64",
                    shards=manifest.shards,
                ),
                kill_hook=die,
            )
        assert (tmp_path / "manifest-s6.json.tmp").exists()
        found = latest_valid_manifest(tmp_path)
        assert found is not None and found.step == 4

    def test_manifest_naming_missing_shard_is_skipped(self, tmp_path):
        self._commit(tmp_path, 2)
        m4 = self._commit(tmp_path, 4)
        (tmp_path / m4.shards[0].file).unlink()  # torn: shard never renamed
        found = latest_valid_manifest(tmp_path)
        assert found is not None and found.step == 2

    def test_corrupt_shard_hash_is_skipped(self, tmp_path):
        self._commit(tmp_path, 2)
        m4 = self._commit(tmp_path, 4)
        (tmp_path / m4.shards[0].file).write_bytes(b"garbage")
        found = latest_valid_manifest(tmp_path)
        assert found is not None and found.step == 2

    def test_restore_reads_each_shard_once(self, tmp_path):
        """``build_resume`` restores the bytes the scan verified: a shard
        rewritten after the scan is never read again."""
        self._commit(tmp_path, 4, world=2)
        found = latest_valid_manifest(tmp_path)
        for entry in found.shards:
            (tmp_path / entry.file).write_bytes(b"garbage")
        resume = build_resume(found, tmp_path)
        assert resume.per_rank_losses == [[0.0, 1.0, 2.0, 3.0]] * 2

    def test_restore_takes_only_a_scanned_manifest(self, tmp_path):
        manifest = self._commit(tmp_path, 4)
        with pytest.raises(TypeError, match="latest_valid_manifest"):
            build_resume(manifest, tmp_path)

    def test_world_mismatch_is_skipped(self, tmp_path):
        self._commit(tmp_path, 2, world=1)
        assert latest_valid_manifest(tmp_path, world=2) is None
        assert latest_valid_manifest(tmp_path, world=1).step == 2

    def test_empty_or_missing_directory(self, tmp_path):
        assert latest_valid_manifest(tmp_path) is None
        assert latest_valid_manifest(tmp_path / "nope") is None

    def test_real_checkpoint_phase_kill_falls_back(self, tmp_path):
        """End to end: rank 0 SIGKILLed between the manifest temp-write
        and its rename leaves the previous checkpoint current."""
        with pytest.raises(WorkerCrashError):
            run_hybrid(
                small_config(),
                run_config(tmp_path),
                kills=[KillSpec(rank=0, step=3, phase="checkpoint")],
            )
        # step-2 checkpoint committed; step-4 manifest is torn (temp only)
        found = latest_valid_manifest(tmp_path, world=2)
        assert found is not None and found.step == 2
        assert (tmp_path / "manifest-s4.json.tmp").exists()
        assert not (tmp_path / "manifest-s4.json").exists()

    def test_shard_phase_kill_on_nonzero_rank(self, tmp_path):
        """Rank 1 killed between its shard temp-write and rename: rank 0
        never receives the digest, no step-4 manifest is committed."""
        with pytest.raises(WorkerCrashError):
            run_hybrid(
                small_config(),
                run_config(tmp_path),
                kills=[KillSpec(rank=1, step=3, phase="checkpoint")],
            )
        found = latest_valid_manifest(tmp_path, world=2)
        assert found is not None and found.step == 2
        assert not (tmp_path / "manifest-s4.json").exists()


# ---------------------------------------------------------------------------
# single-process is world size 1 of the sharded format
# ---------------------------------------------------------------------------


class TestWorldOneIsTheSingleFile:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shard_and_trainer_checkpoint_are_interchangeable(self, dtype, tmp_path):
        config = small_config(dtype)
        run = run_config(tmp_path / "mp", workers=1, batch_size=16)
        hybrid = run_hybrid(config, run)
        assert [step for step, _ in hybrid.checkpoints] == [2, 4, 6]
        shard = tmp_path / "mp" / ckpt.shard_filename(0, 2)

        def plain_trainer():
            return Trainer(
                DLRM(config, rng=derive_seed(run.seed, "model")),
                lambda m: Adagrad(
                    m.dense_parameters(), m.embedding_tables(), lr=run.lr,
                    backend=m.backend,
                ),
            )

        def stream(skip):
            gen = SyntheticDataGenerator(config, rng=derive_seed(run.seed, "data", 0))
            return gen.batch_stream(run.local_batch, run.steps, skip=skip)

        # the rank's shard loads into a plain Trainer, whose remaining
        # steps end where the hybrid run ended
        resumed = plain_trainer()
        resumed.load_checkpoint(shard, step_index=2)
        tail = resumed.train(stream(skip=2), max_steps=run.steps - 2)
        assert tail.loss_history == hybrid.losses[2:]
        dense = hashlib.sha256()
        for p in resumed.model.dense_parameters():
            dense.update(np.ascontiguousarray(p.value).tobytes())
        assert hybrid.dense_digest == dense.hexdigest()
        assert hybrid.table_digests == {
            name: hashlib.sha256(table.weight.tobytes()).hexdigest()
            for name, table in resumed.model.embeddings.tables.items()
        }

        # and the file a Trainer writes at that step is the shard, the
        # rank's loss history aside
        scratch = plain_trainer()
        head = scratch.train(stream(skip=0), max_steps=2)
        scratch.save_checkpoint(tmp_path / "single.npz")
        single = read_checkpoint(tmp_path / "single.npz")
        sharded = read_checkpoint(shard)
        assert list(sharded.pop(ckpt.LOSSES)) == head.loss_history
        assert list(single) == list(sharded)
        for key, want in sharded.items():
            assert single[key].dtype == want.dtype, key
            assert single[key].tobytes() == want.tobytes(), key


# ---------------------------------------------------------------------------
# the headline contract: kill + restart is bit-identical
# ---------------------------------------------------------------------------


class TestKillRestartBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sigkill_resume_matches_uninterrupted(self, dtype, tmp_path):
        config = small_config(dtype)
        reference = run_hybrid(config, run_config())
        rc = run_config(tmp_path)
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(config, rc, kills=[KillSpec(rank=1, step=3)])
        err = exc_info.value
        assert err.checkpoints and err.checkpoints[0][0] == 2
        manifest = latest_valid_manifest(tmp_path, world=2)
        assert manifest.step == 2
        resumed = run_hybrid(
            config, rc, resume=build_resume(manifest, tmp_path)
        )
        assert resumed.resumed_from == 2
        assert resumed.losses == reference.losses
        assert resumed.dense_digest == reference.dense_digest
        assert resumed.table_digests == reference.table_digests

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_ft_orchestrator_end_to_end(self, dtype, tmp_path):
        """The full loop — kill inside the allreduce, drain, backoff,
        respawn, finish — through :func:`run_hybrid_ft`."""
        config = small_config(dtype)
        reference = run_hybrid(config, run_config())
        ft = run_hybrid_ft(
            config,
            run_config(tmp_path),
            policy=RestartPolicy(max_restarts=1),
            kills=[KillSpec(rank=1, step=3, phase="allreduce")],
        )
        assert ft.restarts_used == 1
        assert len(ft.crashes) == 1
        assert ft.crashes[0].rank == 1
        assert ft.crashes[0].resumed_step == 2
        assert ft.result.losses == reference.losses
        assert ft.result.state_digest() == reference.state_digest()

    def test_resume_replays_loss_history(self, tmp_path):
        config = small_config()
        rc = run_config(tmp_path)
        with pytest.raises(WorkerCrashError):
            run_hybrid(config, rc, kills=[KillSpec(rank=0, step=4)])
        manifest = latest_valid_manifest(tmp_path, world=2)
        assert manifest.step == 4
        resume = build_resume(manifest, tmp_path)
        assert all(len(h) == 4 for h in resume.per_rank_losses)
        resumed = run_hybrid(config, rc, resume=resume)
        # the stitched history covers all steps, prefix from the manifest
        assert len(resumed.losses) == rc.steps
        assert all(len(h) == rc.steps for h in resumed.per_rank_losses)


# ---------------------------------------------------------------------------
# drain: survivors exit promptly, never hanging out collect_timeout_s
# ---------------------------------------------------------------------------


class TestDrain:
    def test_survivors_drain_fast(self):
        """With a 600 s collect timeout, a kill must still surface in
        seconds: the poison/drain path, not the backstop, fires."""
        rc = run_config(None, collect_timeout_s=600.0, drain_timeout_s=20.0)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(small_config(), rc, kills=[KillSpec(rank=1, step=2)])
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"drain took {elapsed:.1f}s — backstop fired?"
        err = exc_info.value
        assert err.rank == 1
        assert 0 in err.drained or err.dead  # survivor filed a drain report
        assert err.drain_s < 20.0

    def test_progress_and_drain_metadata(self, tmp_path):
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(
                small_config(),
                run_config(tmp_path),
                kills=[KillSpec(rank=1, step=3)],
            )
        err = exc_info.value
        assert err.progress[0] >= 2  # survivor got at least to the kill step
        assert err.checkpoints == [(2, err.checkpoints[0][1])]

    def test_rank_dead_before_its_first_step(self, monkeypatch):
        """A rank that dies while it sets up, before the spawn rendezvous,
        is named, and its peer drains within ``drain_timeout_s`` and
        leaves no shared segment behind."""
        from repro.distributed.mp.sparse_exchange import SparseExchange

        init = SparseExchange.__init__

        def dying_init(self, rank, *args, **kwargs):
            if rank == 1:
                os._exit(43)
            init(self, rank, *args, **kwargs)

        # fork: the ranks inherit the patch
        monkeypatch.setattr(SparseExchange, "__init__", dying_init)
        before = set(glob.glob("/dev/shm/repro_mp_*"))
        rc = run_config(None, collect_timeout_s=600.0, drain_timeout_s=20.0)
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(small_config(), rc)
        err = exc_info.value
        assert (err.rank, err.exitcode) == (1, 43)
        assert err.drained == [0]
        assert err.drain_s < rc.drain_timeout_s
        assert set(glob.glob("/dev/shm/repro_mp_*")) == before


# ---------------------------------------------------------------------------
# restart policy: caps and exhaustion
# ---------------------------------------------------------------------------


class TestRestartPolicy:
    def test_zero_restarts_raises_immediately(self, tmp_path):
        with pytest.raises(RetriesExhausted):
            run_hybrid_ft(
                small_config(),
                run_config(tmp_path),
                policy=RestartPolicy(max_restarts=0),
                kills=[KillSpec(rank=1, step=2)],
            )

    def test_restarts_exhausted_after_cap(self, tmp_path):
        """Two kills on successive attempts, one restart allowed."""
        kills = [
            KillSpec(rank=1, step=2, attempt=0),
            KillSpec(rank=0, step=3, attempt=1),
        ]
        with pytest.raises(RetriesExhausted):
            run_hybrid_ft(
                small_config(),
                run_config(tmp_path),
                policy=RestartPolicy(max_restarts=1),
                kills=kills,
            )

    def test_two_crashes_two_restarts(self, tmp_path):
        config = small_config()
        reference = run_hybrid(config, run_config())
        kills = [
            KillSpec(rank=1, step=2, attempt=0),
            KillSpec(rank=0, step=4, attempt=1),
        ]
        ft = run_hybrid_ft(
            config,
            run_config(tmp_path),
            policy=RestartPolicy(max_restarts=2),
            kills=kills,
        )
        assert ft.restarts_used == 2
        assert [c.rank for c in ft.crashes] == [1, 0]
        assert ft.result.losses == reference.losses
        assert ft.result.state_digest() == reference.state_digest()
        assert ft.ledger.crashes == 2
        # every step's examples were eventually credited usefully
        assert ft.ledger.useful_examples == run_config().steps * 32

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)


# ---------------------------------------------------------------------------
# the FaultPlan bridge
# ---------------------------------------------------------------------------


class TestKillsFromPlan:
    def test_scheduled_trainer_events_map_to_kills(self):
        plan = FaultPlan(scheduled_crashes=(
            FaultEvent(ComponentKind.TRAINER, 1, 2.0),
            FaultEvent(ComponentKind.TRAINER, 0, 4.7),
            FaultEvent(ComponentKind.SPARSE_PS, 0, 1.0),  # ignored
        ))
        kills = kills_from_plan(plan, world=2, steps=8)
        assert [(k.rank, k.step, k.attempt) for k in kills] == [
            (1, 2, 0), (0, 4, 1),
        ]

    def test_fractional_times_and_rank_wrap(self):
        """``time_s`` is truncated to a step index; events past the run's
        horizon are dropped by the injector, and component indexes beyond
        the worker count wrap onto real ranks."""
        plan = FaultPlan(scheduled_crashes=(
            FaultEvent(ComponentKind.TRAINER, 5, 3.9),
            FaultEvent(ComponentKind.TRAINER, 0, 99.0),  # beyond horizon
        ))
        (kill,) = kills_from_plan(plan, world=2, steps=4)
        assert kill.rank == 1  # 5 % 2
        assert kill.step == 3

    def test_sampled_kills_are_deterministic(self):
        plan = FaultPlan(trainer_mtbf_s=3.0, seed=11)
        a = kills_from_plan(plan, world=2, steps=8)
        b = kills_from_plan(plan, world=2, steps=8)
        assert a == b


# ---------------------------------------------------------------------------
# config knobs
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(ValueError):
            HybridRunConfig(checkpoint_every=2)

    def test_negative_knobs_rejected(self):
        with pytest.raises(ValueError):
            HybridRunConfig(checkpoint_every=-1)
        with pytest.raises(ValueError):
            HybridRunConfig(drain_timeout_s=0.0)

    def test_kill_spec_validation(self):
        with pytest.raises(ValueError):
            KillSpec(rank=-1, step=0)
        with pytest.raises(ValueError):
            KillSpec(rank=0, step=0, phase="warp")
        with pytest.raises(ValueError):
            KillSpec(rank=0, step=0, action="segfault")

    def test_resume_step_out_of_range(self, tmp_path):
        state = ckpt.ResumeState(step=99)
        with pytest.raises(ValueError):
            run_hybrid(small_config(), run_config(), resume=state)


class TestMpTimeouts:
    def test_defaults_and_scaling(self):
        t = MpTimeouts()
        assert (t.join_s, t.probe_s, t.reap_s) == (30.0, 60.0, 5.0)
        doubled = t.scaled(2.0)
        assert doubled.join_s == 60.0 and doubled.reap_s == 10.0

    def test_env_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_TIMEOUT_SCALE", "3")
        assert MpTimeouts.from_env().join_s == 90.0

    def test_override(self):
        custom = MpTimeouts(join_s=1.0, probe_s=2.0, reap_s=0.5)
        set_timeouts(custom)
        try:
            assert get_timeouts() is custom
        finally:
            set_timeouts(None)
        assert get_timeouts().join_s == 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MpTimeouts(join_s=0.0)
        with pytest.raises(ValueError):
            MpTimeouts(join_s=1.0).scaled(-1.0)
