"""Multi-process hybrid-parallel trainer: the determinism contract.

The headline claim of :mod:`repro.distributed.mp` is that an N-worker
run with ``reduction="ordered"`` is *bit-identical* — losses, dense
parameters, and every embedding shard — to the serial reference that
trains the same sub-batches on one model.  These tests spawn real
processes over shared-memory shards and sockets, so they are the
ground truth for that claim, in both float64 and float32.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import platform
import resource

import numpy as np
import pytest

from repro.core import DLRM, Adagrad, Batch, RaggedIndices, Trainer
from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.core import embedding as embedding_mod
from repro.core import optim as optim_mod
from repro.core.embedding import EmbeddingTable
from repro.core.lanes import free_cores
from repro.core.loss import BCEWithLogitsLoss
from repro.core.training import prep_ledger
from repro.data import SyntheticDataGenerator
from repro.distributed.mp import (
    CommProfile,
    HybridRunConfig,
    KillSpec,
    ShardPlan,
    WorkerCrashError,
    build_resume,
    latest_valid_manifest,
    predict_step_time,
    run_hybrid,
    run_hybrid_serial,
)
from repro.distributed.mp import hybrid
from repro.runtime.runner import derive_seed


def small_config(dtype: str = "float64", num_tables: int = 5) -> ModelConfig:
    return ModelConfig(
        name=f"mp-test-{dtype}",
        num_dense=8,
        tables=uniform_tables(num_tables, hash_size=64, dim=8, mean_lookups=2.0),
        bottom_mlp=MLPSpec((16, 8)),
        top_mlp=MLPSpec((16,)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype,
    )


def shm_segment_of(array: np.ndarray) -> str | None:
    """The name of the ``repro_mp_<pid>_*`` shared-memory segment of this
    process that ``array``'s first byte lies in, or ``None``."""
    address = array.__array_interface__["data"][0]
    prefix = f"/dev/shm/repro_mp_{os.getpid()}_"
    with open("/proc/self/maps") as maps:
        for line in maps:
            fields = line.split()
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            if lo <= address < hi and len(fields) > 5 and fields[5].startswith(prefix):
                return fields[5]
    return None


def concat_batches(batches: list[Batch]) -> Batch:
    """Concatenate per-rank sub-batches into one full batch (rank order).

    Used to compare the hybrid trajectory against a plain full-batch
    serial :class:`~repro.core.Trainer` (tolerance-bounded: summed
    sub-batch GEMMs associate differently than one full-batch GEMM).
    """
    dense = np.concatenate([b.dense for b in batches], axis=0)
    labels = np.concatenate([b.labels for b in batches])
    sparse: dict[str, RaggedIndices] = {}
    for name in batches[0].sparse:
        raggeds = [b.sparse[name] for b in batches]
        values = np.concatenate([r.values for r in raggeds])
        offsets = [np.asarray(raggeds[0].offsets)]
        shift = raggeds[0].offsets[-1]
        for r in raggeds[1:]:
            offsets.append(np.asarray(r.offsets[1:]) + shift)
            shift += r.offsets[-1]
        # the join is certified only if every part is, by the widest bound
        bounds = [r.safe_bound for r in raggeds]
        bound = None if None in bounds else max(bounds)
        sparse[name] = RaggedIndices(
            values=values, offsets=np.concatenate(offsets), safe_bound=bound
        )
    return Batch(dense=dense, sparse=sparse, labels=labels)


def assert_bit_identical(a, b) -> None:
    assert a.per_rank_losses == b.per_rank_losses
    assert a.losses == b.losses
    assert a.dense_digest == b.dense_digest
    assert a.table_digests == b.table_digests
    assert a.state_digest() == b.state_digest()


def assert_matches_serial(config, run) -> None:
    """The run equals the serial reference; ``pipeline`` only asks for the
    prep ledger, which is the slowest rank's ``prep_wait``."""
    got = run_hybrid(config, run)
    assert_bit_identical(got, run_hybrid_serial(config, run))
    assert got.phase_s["prep_wait"] > 0  # the whole prep stage
    if run.pipeline:
        assert got.pipeline == prep_ledger(got.phase_s["prep_wait"], run.steps)
    else:
        assert got.pipeline is None
    # the phase ledger is span self time folded per step: nine disjoint phases
    assert set(got.phase_s) == {
        "forward", "loss", "backward", "sparse_exchange", "dense_wait",
        "optimizer", "checkpoint", "prep_wait", "barrier",
    }
    assert all(math.isfinite(v) and v >= 0 for v in got.phase_s.values())
    assert min(got.phase_s[ph] for ph in ("forward", "backward", "optimizer")) > 0
    # every rank took its share of this process's free cores, BLAS included
    share = max(1, free_cores() // run.workers)
    assert [lanes for lanes, _ in got.per_rank_cores] == [share] * run.workers
    assert all(blas is None or blas <= share for _, blas in got.per_rank_cores)


class TestOrderedDeterminism:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    @pytest.mark.parametrize(
        "interaction", [InteractionType.DOT, InteractionType.CONCAT], ids=["dot", "concat"]
    )
    def test_two_workers_bitwise_vs_serial(self, interaction, backend, dtype):
        """The ``workers`` cells of the bit-identity lattice: two ranks
        against the one-process ``Trainer`` over their micro-batches."""
        config = dataclasses.replace(
            small_config(dtype), interaction=interaction, backend=backend
        )
        run = HybridRunConfig(workers=2, steps=3, batch_size=32, seed=7)
        assert_matches_serial(config, run)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_four_workers_bitwise_vs_serial(self, dtype):
        run = HybridRunConfig(workers=4, steps=2, batch_size=32, seed=3)
        assert_matches_serial(small_config(dtype), run)

    def test_three_workers_checkpointing_pipelined_bitwise_vs_serial(self, tmp_path):
        """Two mesh rounds per rank, and the checkpoint's digest gather uses
        the same mesh sockets as the sparse exchange — both from the
        worker's main thread, so they cannot interleave.  ``pipeline=True``
        asks for the prep ledger, which ``assert_matches_serial`` checks."""
        run = HybridRunConfig(
            workers=3, steps=4, batch_size=48, seed=9, pipeline=True,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        assert_matches_serial(small_config(), run)

    def test_single_worker_degenerate(self):
        run = HybridRunConfig(workers=1, steps=2, batch_size=16)
        assert_matches_serial(small_config(), run)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_single_worker_is_the_plain_trainer(self, dtype):
        """Serial = world 1: one worker process is bit-identical to the plain
        :class:`Trainer` on the same seeds — it runs the same ``train_step``."""
        config = small_config(dtype)
        run = HybridRunConfig(workers=1, steps=3, batch_size=16, seed=11)
        got = run_hybrid(config, run)
        trainer = Trainer(
            model := DLRM(config, rng=derive_seed(run.seed, "model")),
            lambda m: Adagrad(
                m.dense_parameters(), m.embedding_tables(), lr=run.lr, backend=m.backend
            ),
        )
        gen = SyntheticDataGenerator(config, rng=derive_seed(run.seed, "data", 0))
        ref = trainer.train(gen.batches(run.local_batch), max_steps=run.steps)
        assert got.losses == ref.loss_history
        dense = hashlib.sha256()
        for p in model.dense_parameters():
            dense.update(np.ascontiguousarray(p.value).tobytes())
        assert got.dense_digest == dense.hexdigest()
        assert got.table_digests == {
            name: hashlib.sha256(table.weight.tobytes()).hexdigest()
            for name, table in model.embeddings.tables.items()
        }

    def test_seed_changes_trajectory(self):
        config = small_config()
        a = run_hybrid_serial(config, HybridRunConfig(workers=2, steps=2, batch_size=16, seed=0))
        b = run_hybrid_serial(config, HybridRunConfig(workers=2, steps=2, batch_size=16, seed=1))
        assert a.losses != b.losses


class TestOneModelPerRun:
    """The parent builds the run's one seeded model and the ranks inherit it
    through fork: no rank draws a table of its own, and each rank hashes
    exactly the tables it owns."""

    @pytest.fixture
    def parent_only_tables(self, monkeypatch):
        """Building an :class:`EmbeddingTable` in any other process raises,
        so a rank that constructs a model crashes the run."""
        pid = os.getpid()
        init = EmbeddingTable.__init__

        def guarded(self, *args, **kwargs):
            if os.getpid() != pid:
                raise RuntimeError("an embedding table was built outside the parent")
            init(self, *args, **kwargs)

        monkeypatch.setattr(EmbeddingTable, "__init__", guarded)

    @pytest.fixture
    def reports(self, monkeypatch):
        """Every run's worker reports, as the parent collected them."""
        seen = []
        supervise = hybrid._supervise

        def recording(*args, **kwargs):
            got = supervise(*args, **kwargs)
            seen.append(got[0])
            return got

        monkeypatch.setattr(hybrid, "_supervise", recording)
        return seen

    @pytest.fixture
    def one_copy_per_table(self, monkeypatch):
        """Every table draw in the parent records whether it wrote a shard
        segment of this process (read off ``/proc/self/maps``); a rank that
        fills a table-sized accumulator (``optim._full_like``) raises,
        which crashes the run."""
        pid = os.getpid()
        draws = []
        draw = embedding_mod._draw_uniform

        def recording(weight, rng, scale):
            draws.append(shm_segment_of(weight))
            draw(weight, rng, scale)

        full_like = optim_mod._full_like

        def parent_only(like, value):
            if os.getpid() != pid:
                raise RuntimeError("a rank filled a table-sized accumulator")
            return full_like(like, value)

        monkeypatch.setattr(embedding_mod, "_draw_uniform", recording)
        monkeypatch.setattr(optim_mod, "_full_like", parent_only)
        return draws

    @staticmethod
    def assert_owners_hashed(config, run, reports) -> None:
        """The ranks' digest keys are disjoint and together cover every
        table, each rank's being the tables the plan gives it."""
        plan = ShardPlan.greedy(config, run.workers)
        keys = [set(r.table_digests) for r in reports]
        assert keys == [set(plan.owned(rank)) for rank in range(run.workers)]
        assert sum(map(len, keys)) == len(set().union(*keys)) == len(config.tables)

    def test_ranks_build_no_tables(self, parent_only_tables, reports):
        config = small_config(num_tables=7)
        run = HybridRunConfig(workers=2, steps=3, batch_size=32, seed=7)
        got = run_hybrid(config, run)
        assert_bit_identical(got, run_hybrid_serial(config, run))
        assert list(got.table_digests) == [t.name for t in config.tables]
        [ranks] = reports
        self.assert_owners_hashed(config, run, ranks)

    def test_resumed_ranks_build_no_tables(self, parent_only_tables, reports, tmp_path):
        config = small_config()
        run = HybridRunConfig(
            workers=2, steps=4, batch_size=32, seed=7,
            checkpoint_every=2, checkpoint_dir=str(tmp_path),
        )
        with pytest.raises(WorkerCrashError):
            run_hybrid(config, run, kills=[KillSpec(rank=1, step=3)])
        manifest = latest_valid_manifest(tmp_path, world=2)
        assert manifest.step == 2
        resumed = run_hybrid(config, run, resume=build_resume(manifest, tmp_path))
        assert resumed.resumed_from == 2
        assert_bit_identical(resumed, run_hybrid_serial(config, run))
        self.assert_owners_hashed(config, run, reports[-1])


    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mode", ["inline", "resumed"])
    def test_every_table_has_one_copy(
        self, parent_only_tables, one_copy_per_table, reports, tmp_path, dtype, mode
    ):
        """The parent draws each table straight into its weight segment and
        each owner's Adagrad runs on its accumulator segments: nothing
        table-sized is built twice, and the run still equals the serial
        reference."""
        config = small_config(dtype, num_tables=6)
        run = HybridRunConfig(
            workers=2, steps=4, batch_size=32, seed=11,
            checkpoint_every=2 if mode == "resumed" else 0,
            checkpoint_dir=str(tmp_path) if mode == "resumed" else None,
        )
        draws = one_copy_per_table
        if mode == "resumed":
            with pytest.raises(WorkerCrashError):
                run_hybrid(config, run, kills=[KillSpec(rank=1, step=3)])
            got = run_hybrid(
                config, run, resume=build_resume(latest_valid_manifest(tmp_path, 2), tmp_path)
            )
            assert got.resumed_from == 2
        else:
            got = run_hybrid(config, run)
        launches = 2 if mode == "resumed" else 1
        assert len(draws) == launches * len(config.tables)
        assert all(seg is not None for seg in draws), draws
        assert len(set(draws)) == len(draws)  # one segment per table and launch
        assert_bit_identical(got, run_hybrid_serial(config, run))
        self.assert_owners_hashed(config, run, reports[-1])


def _rank_step_faults(config: ModelConfig, batch_size: int) -> float:
    """Minor page faults per rank per steady-state step of a W=2 run."""

    def rank_faults(steps: int) -> int:
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        run_hybrid(config, HybridRunConfig(workers=2, steps=steps, batch_size=batch_size))
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    return (rank_faults(12) - rank_faults(4)) / (8 * 2)


_GLIBC = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the bounds are glibc malloc's"
)


@_GLIBC
def test_ranks_keep_step_buffers_on_the_heap():
    """A rank's sparse exchange receives into buffers it keeps between
    steps and sends straight from the gradients' arrays, so a
    steady-state step maps no table-sized buffer afresh (here ~0.2 MB,
    over glibc's 128 KiB starting threshold) and faults in a few pages,
    not hundreds."""
    config = ModelConfig(
        name="mp-heap",
        num_dense=8,
        tables=uniform_tables(4, hash_size=10_000, dim=32, mean_lookups=16.0),
        bottom_mlp=MLPSpec((32, 32)),
        top_mlp=MLPSpec((32,)),
        interaction=InteractionType.DOT,
        compute_dtype="float32",
    )
    assert _rank_step_faults(config, 512) < 30  # ~10; ~340 mapped afresh each step


@_GLIBC
def test_small_tables_leave_the_heap_as_it_was():
    """Tables far under glibc's 128 KiB starting threshold (8 KiB here)
    must not pull it down: the step's larger dense buffers (~0.5 MB
    activations) stay on the heap once glibc has raised its threshold to
    them, as in a process that never touched it."""
    config = ModelConfig(
        name="mp-heap-small",
        num_dense=64,
        tables=uniform_tables(4, hash_size=64, dim=16, mean_lookups=4.0),
        bottom_mlp=MLPSpec((128, 16)),
        top_mlp=MLPSpec((128,)),
        interaction=InteractionType.DOT,
        compute_dtype="float64",
    )
    # ~4 with glibc's thresholds as the step's own buffers raise them
    assert _rank_step_faults(config, 512) < 20


class TestRingReduction:
    def test_two_workers_ring_bitwise(self):
        # two-term floating-point sums are order-insensitive, so even the
        # rotated ring association matches the serial reference exactly
        config = small_config()
        run = HybridRunConfig(workers=2, steps=3, batch_size=32, reduction="ring")
        assert_bit_identical(run_hybrid(config, run), run_hybrid_serial(config, run))

    def test_four_workers_ring_tolerance(self):
        # W > 2 rotates the per-chunk association: tolerance, not bitwise
        config = small_config()
        run = HybridRunConfig(workers=4, steps=3, batch_size=32, reduction="ring")
        got = run_hybrid(config, run)
        ref = run_hybrid_serial(config, run)
        np.testing.assert_allclose(got.losses, ref.losses, rtol=1e-9, atol=1e-12)


class TestAgainstPlainTrainer:
    def test_serial_reference_matches_full_batch_trainer(self):
        """The serial reference IS a full-batch train loop, up to rounding.

        Concatenating the per-rank sub-batches and running the plain
        :class:`Trainer` accumulates gradients in a different association
        (one backward over 32 rows vs. four over 8), so this is a
        tolerance check — it anchors the hybrid contract to the code path
        everything else in the repo uses.
        """
        config = small_config("float64")
        run = HybridRunConfig(workers=4, steps=3, batch_size=32, seed=5)
        ref = run_hybrid_serial(config, run)

        gens = [
            SyntheticDataGenerator(config, rng=derive_seed(run.seed, "data", r))
            for r in range(run.workers)
        ]
        rank_batches = [
            [g.batch(run.local_batch) for _ in range(run.steps)] for g in gens
        ]
        model = DLRM(config, rng=derive_seed(run.seed, "model"))
        trainer = Trainer(
            model,
            lambda m: Adagrad(
                m.dense_parameters(), m.embedding_tables(), lr=run.lr,
                backend=m.backend,
            ),
        )
        losses = [
            trainer.train_step(concat_batches([rank_batches[r][s] for r in range(run.workers)]))
            for s in range(run.steps)
        ]
        np.testing.assert_allclose(losses, ref.losses, rtol=1e-9, atol=1e-12)

    def test_concat_batches_shapes(self):
        config = small_config()
        gen = SyntheticDataGenerator(config, rng=0)
        parts = [gen.batch(4) for _ in range(3)]
        whole = concat_batches(parts)
        assert whole.dense.shape == (12, config.num_dense)
        assert whole.labels.shape == (12,)
        for t in config.tables:
            ragged = whole.sparse[t.name]
            assert ragged.offsets.shape == (13,)
            assert ragged.offsets[-1] == sum(p.sparse[t.name].values.size for p in parts)


    @pytest.mark.parametrize("bounds, certified", [
        ((8, None), None),  # an uncertified part voids the certificate
        ((8, 64), 64),      # the join holds only the widest bound
        ((64, 8), 64),
    ])
    def test_concat_batches_certifies_only_what_every_part_does(self, bounds, certified):
        config = small_config(num_tables=1)
        name = config.tables[0].name
        parts = []
        for bound, ids in zip(bounds, ([1, 2], [50])):
            ragged = RaggedIndices(
                values=np.array(ids), offsets=np.array([0, len(ids)]), safe_bound=bound
            )
            parts.append(Batch(
                dense=np.zeros((1, config.num_dense)), sparse={name: ragged},
                labels=np.zeros(1),
            ))
        joined = concat_batches(parts).sparse[name]
        assert joined.values.tolist() == [1, 2, 50]
        assert joined.safe_bound == certified

    def test_out_of_range_id_in_an_uncertified_part_is_rejected(self):
        """The forward of a joined batch bounds-checks instead of gathering
        out of range behind a certificate one part never had."""
        config = small_config(num_tables=1)  # hash_size 64
        name = config.tables[0].name
        gen = SyntheticDataGenerator(config, rng=0)
        good = gen.batch(2)
        assert good.sparse[name].safe_bound == 64
        bad = Batch(
            dense=good.dense[:1],
            sparse={name: RaggedIndices(values=np.array([10**9]), offsets=np.array([0, 1]))},
            labels=good.labels[:1],
        )
        with pytest.raises(IndexError):
            DLRM(config, rng=0).forward(concat_batches([good, bad]))


class TestValidation:
    def test_indivisible_batch_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            HybridRunConfig(workers=3, batch_size=32)

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError, match="reduction"):
            HybridRunConfig(reduction="tree")

    def test_negative_warmup_rejected(self):
        # a negative warmup would make the best-step estimator read the
        # *last* |w| steps instead of skipping the first ones
        with pytest.raises(ValueError, match="warmup_steps"):
            HybridRunConfig(warmup_steps=-1)

    @pytest.mark.parametrize("workers, batch_size", [(2, 0), (2, -2), (1, 0), (3, -3)])
    def test_batch_smaller_than_workers_rejected(self, workers, batch_size):
        # each of these passes the divisibility check with a local batch
        # of 0 or less, which only the forked ranks would have caught
        with pytest.raises(ValueError, match="batch_size"):
            HybridRunConfig(workers=workers, batch_size=batch_size)

    @pytest.mark.parametrize("name", ["barrier_timeout_s", "collect_timeout_s"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_nonpositive_timeouts_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            HybridRunConfig(**{name: value})


class TestFabric:
    @pytest.mark.parametrize("world", [1, 2, 3, 4])
    def test_one_channel_per_peer(self, world):
        """The allreduce's ring is the mesh: a rank owns exactly one data
        channel per peer, tagged with that peer, and nothing else."""
        import multiprocessing as mp

        from repro.distributed.mp.hybrid import _Fabric

        fabric = _Fabric(world, mp.get_context("fork"))
        try:
            for rank in range(world):
                owned = fabric._owned_by(rank)
                peers = sorted(ch.peer for ch in owned)
                assert peers == [r for r in range(world) if r != rank]
                assert owned == set(fabric.mesh(rank).values())
            assert len(fabric._all_channels()) == world * (world - 1)
        finally:
            fabric.close_all()


class TestShardPlan:
    def test_every_table_owned_once(self):
        config = small_config(num_tables=7)
        plan = ShardPlan.greedy(config, world=3)
        owned = [n for r in range(3) for n in plan.owned(r)]
        assert sorted(owned) == sorted(t.name for t in config.tables)

    def test_greedy_balances_bytes(self):
        config = ModelConfig(
            name="mp-skew",
            num_dense=4,
            tables=uniform_tables(2, hash_size=1000, dim=8)
            + uniform_tables(4, hash_size=50, dim=8, prefix="small"),
            bottom_mlp=MLPSpec((8,)),
            top_mlp=MLPSpec((8,)),
            interaction=InteractionType.DOT,
        )
        plan = ShardPlan.greedy(config, world=2)
        sizes = plan.owner_bytes(config)
        # largest-first greedy puts one big table on each rank
        assert max(sizes) < 2 * min(sizes)


class TestPredictor:
    def test_predicted_components_positive(self):
        config = small_config()
        comm = CommProfile(
            latency_s=10e-6, bandwidth_bps=4e9, barrier_s=30e-6,
            hop_overhead_s=80e-6, frame_fixed_s=50e-6, frame_byte_s=2e-10,
        )
        pred = predict_step_time(
            config, world=4, local_batch=64, sub_batch_step_s=2e-3,
            comm=comm, cores=1,
        )
        assert pred.total_s > pred.compute_s > 0
        assert pred.dense_comm_s > 0 and pred.sparse_comm_s > 0

    def test_oversubscription_serializes_compute(self):
        # with one core, four workers' compute time-shares: predicted
        # step must be at least ~4x the sub-batch compute
        config = small_config()
        comm = CommProfile(latency_s=10e-6, bandwidth_bps=4e9, barrier_s=30e-6)
        pred = predict_step_time(
            config, world=4, local_batch=64, sub_batch_step_s=2e-3,
            comm=comm, cores=1,
        )
        assert pred.compute_s >= 4 * 2e-3

    def test_oversubscribed_rows_are_labelled_not_scored(self):
        from repro.experiments.ext_mp_scaling import MpScalingResult, ScalingPoint, render

        points = tuple(
            ScalingPoint(w, 64, 2e-3, 1e-3, 1e-3, 1.0, 0.5, 0.0) for w in (2, 4)
        )
        text = render(MpScalingResult(
            points, serial_step_s=2e-3, cores=2, latency_us=10.0, bandwidth_gbps=4.0,
            barrier_us=30.0, config_name="c", mlp="16", reduction="ordered",
        ))
        assert text.count("oversubscribed") == 1 and text.count("50.0%") == 1
