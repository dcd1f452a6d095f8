"""A train step on several lanes (:mod:`repro.core.lanes`).

The contract: a train step whose tables look up, backpropagate and update
on several lanes, and whose MLP stacks and dense updates are split across
them, is bit-identical to the serial step — every loss and every array of
:func:`repro.core.checkpoint.state_arrays`.  The sparse half holds it by
construction (each table's calls are unchanged and tables share no written
state), and so does the dense optimizer step (whole parameters); the MLP
stacks hold it by the split probe, which runs a product whole unless its
row blocks equal the whole call.  The sparse size floor is patched to 0
where test-sized tables must take lanes; the dense tests use stacks above
the FLOP floor, and report a one-thread BLAS (the stacks take lanes only
under one) whatever the BLAS the tests run on.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import (
    DLRM,
    SGD,
    Adagrad,
    InteractionType,
    MLPSpec,
    ModelConfig,
    PolynomialDecayLR,
    PoolingType,
    ScheduledOptimizer,
    TableSpec,
    Trainer,
)
from repro.core import lanes as lanes_mod
from repro.core import training
from repro.core.checkpoint import state_arrays
from repro.core.embedding import EmbeddingBagCollection, SparseGrad
from repro.data import SyntheticDataGenerator
from repro.runtime import runner
from repro.tiering import TieredStoreConfig

STEPS = 4
BATCH = 24


@pytest.fixture
def every_table_takes_a_lane(monkeypatch):
    monkeypatch.setattr(lanes_mod, "LANE_MIN_BYTES", 0)


def lanes_of(monkeypatch, width: int, blas_threads: int = 1) -> None:
    """``width`` lanes per step, under a BLAS that reports
    ``blas_threads`` threads (the stacks take lanes only under one)."""
    monkeypatch.setattr(training, "lane_count", lambda world=1: width)
    monkeypatch.setattr(training, "blas_threads", lambda: blas_threads)


def config(dtype: str) -> ModelConfig:
    # "empty" has no lookups at all; a shared table serves "t0" and "t3"
    # (apart in feature order) when the test maps them together.
    tables = (
        TableSpec("t0", 80, dim=4, mean_lookups=3.0),
        TableSpec("t1", 60, dim=4, mean_lookups=2.0),
        TableSpec("empty", 40, dim=4, mean_lookups=0.0),
        TableSpec("t3", 50, dim=4, mean_lookups=1.5, truncation=2),
    )
    return ModelConfig(
        name="lanes",
        num_dense=5,
        tables=tables,
        bottom_mlp=MLPSpec((8, 4)),
        top_mlp=MLPSpec((6,)),
        interaction=InteractionType.DOT,
        compute_dtype=dtype,
    )


def make_trainer(dtype, pooling, optimizer, shared, tiered):
    cfg = config(dtype)
    tiering = (
        TieredStoreConfig(hot_fraction=0.2, chunk_rows=4, policy="freq")
        if tiered else None
    )
    model = DLRM(cfg, rng=3, pooling=pooling, tiering=tiering)
    if shared:
        model.embeddings = EmbeddingBagCollection(
            cfg.tables, np.random.default_rng(4), pooling=pooling,
            dtype=model.dtype,
            feature_to_table={"t0": "t0", "t1": "t1", "empty": "empty", "t3": "t0"},
        )
        model.embeddings.set_backend(model.backend, model.workspace)
    opt_cls = SGD if optimizer == "sgd" else Adagrad

    def build(m):
        opt = opt_cls(m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend)
        if optimizer == "scheduled":
            return ScheduledOptimizer(opt, PolynomialDecayLR(0.05, total_steps=STEPS))
        return opt

    return Trainer(model, build)


def run(trainer, steps=STEPS):
    gen = SyntheticDataGenerator(trainer.model.config, rng=11, seed_teacher=True)
    losses = [trainer.train_step(gen.batch(BATCH)) for _ in range(steps)]
    return losses, state_arrays(trainer.model, trainer.optimizer)


def helper_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith(lanes_mod.THREAD_PREFIX)
    ]


CELLS = [
    pytest.param(dtype, pooling, opt, shared, tiered, id=f"{dtype}-{pooling.value}-{opt}{tag}")
    for dtype in ("float64", "float32")
    for pooling in (PoolingType.SUM, PoolingType.MEAN)
    for opt in ("adagrad", "sgd")
    for shared, tiered, tag in ((False, False, ""), (True, False, "-shared"), (False, True, "-tiered"))
] + [
    # a wrapped optimizer hands the lanes on to the one it wraps
    pytest.param("float64", PoolingType.SUM, "scheduled", False, False, id="float64-sum-scheduled"),
]


@pytest.mark.usefixtures("every_table_takes_a_lane")
@pytest.mark.parametrize("dtype, pooling, optimizer, shared, tiered", CELLS)
def test_two_lanes_equal_one(monkeypatch, dtype, pooling, optimizer, shared, tiered):
    lanes_of(monkeypatch, 1)
    serial_losses, serial_state = run(make_trainer(dtype, pooling, optimizer, shared, tiered))
    lanes_of(monkeypatch, 2)
    trainer = make_trainer(dtype, pooling, optimizer, shared, tiered)
    losses, state = run(trainer)
    assert helper_threads() == [lanes_mod.THREAD_PREFIX + "1"]  # the lane was used
    assert losses == serial_losses
    assert state.keys() == serial_state.keys()
    for key, array in serial_state.items():
        assert state[key].tobytes() == array.tobytes(), key
    # the lanes are bound for the step only
    assert trainer.model.embeddings.lanes is None and trainer.optimizer.lanes is None


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_three_lanes_equal_one(monkeypatch):
    lanes_of(monkeypatch, 1)
    expected = run(make_trainer("float64", PoolingType.SUM, "adagrad", False, False))
    lanes_of(monkeypatch, 3)
    losses, state = run(make_trainer("float64", PoolingType.SUM, "adagrad", False, False))
    assert losses == expected[0]
    assert all(state[k].tobytes() == v.tobytes() for k, v in expected[1].items())


def test_small_tables_stay_on_the_caller(monkeypatch):
    """Below the size floors (tables' bytes, stacks' FLOPs) nothing is
    handed off: no helper starts."""
    lanes_of(monkeypatch, 2)
    run(make_trainer("float64", PoolingType.SUM, "adagrad", False, False), steps=2)
    assert helper_threads() == []


# -- the dense half ------------------------------------------------------------

DENSE_BATCH = 256


def dense_config(dtype: str, interaction: InteractionType) -> ModelConfig:
    """Both stacks above the FLOP floor at four lanes, both tables below
    the byte floor: what goes to the helpers is the dense half."""
    return ModelConfig(
        name="dense-lanes",
        num_dense=512,
        tables=(TableSpec("t0", 60, dim=8, mean_lookups=2.0), TableSpec("t1", 40, dim=8)),
        bottom_mlp=MLPSpec((512, 8)),
        top_mlp=MLPSpec((512, 512)),
        interaction=interaction,
        compute_dtype=dtype,
    )


def dense_optimizer(name: str):
    def build(m):
        if name == "sgd":
            return SGD(
                m.dense_parameters(), m.embedding_tables(), lr=0.05,
                momentum=0.9, weight_decay=1e-3, backend=m.backend,
            )
        return Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend)

    return build


def dense_run(
    monkeypatch, dtype, width, backend="fused", interaction=InteractionType.CONCAT,
    optimizer="adagrad", blas_threads=1,
):
    lanes_of(monkeypatch, width, blas_threads)
    cfg = dense_config(dtype, interaction)
    model = DLRM(cfg, rng=3, backend=backend)
    trainer = Trainer(model, dense_optimizer(optimizer))
    gen = SyntheticDataGenerator(cfg, rng=11, seed_teacher=True)
    losses = [trainer.train_step(gen.batch(DENSE_BATCH)) for _ in range(3)]
    return losses, state_arrays(model, trainer.optimizer), trainer


def assert_same_run(got, expected):
    assert got[0] == expected[0]
    assert got[1].keys() == expected[1].keys()
    for key, array in expected[1].items():
        assert got[1][key].tobytes() == array.tobytes(), key


def rejected(trainer) -> float:
    return trainer.model.workspace.metrics.counter("dense.lanes.rejected").value


@pytest.fixture
def short_switch_interval():
    """Threads trade the interpreter lock every 10 us, so lanes (three and
    four of them on fewer cores) interleave as finely as they can."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(old)


@pytest.mark.usefixtures("short_switch_interval")
@pytest.mark.parametrize("optimizer", ["adagrad", "sgd"])
@pytest.mark.parametrize(
    "interaction", [InteractionType.CONCAT, InteractionType.DOT], ids=["concat", "dot"]
)
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_dense_half_on_lanes_equals_numpy(monkeypatch, width, dtype, interaction, optimizer):
    """Fused on ``width`` lanes equals the numpy backend (on one), loss
    for loss and bit for bit: no lane reads or writes another's rows.  The
    top stack takes either interaction's output; SGD runs with momentum
    and weight decay."""
    run_args = dict(interaction=interaction, optimizer=optimizer)
    expected = dense_run(monkeypatch, dtype, 1, backend="numpy", **run_args)
    got = dense_run(monkeypatch, dtype, width, **run_args)
    model = got[2].model
    for stack in (model.bottom_mlp, model.top_mlp):
        weights = sum(p.size for p in stack.parameters() if p.value.ndim == 2)
        assert 2 * DENSE_BATCH * weights >= 4 * lanes_mod.LANE_MIN_FLOPS
        assert stack.lanes is None  # bound for the step only
    assert_same_run(got, expected)
    assert bool(helper_threads()) == (width > 1)


def test_a_threaded_blas_keeps_the_stacks_on_the_caller(monkeypatch):
    """Under a BLAS that runs a GEMM on two threads the stacks get no
    lanes (the tables and the dense optimizer step still do)."""
    handed_off = []
    each = lanes_mod.Lanes.each
    monkeypatch.setattr(
        lanes_mod.Lanes, "each", lambda self, fn: handed_off.append(fn) or each(self, fn)
    )
    expected = dense_run(monkeypatch, "float32", 1)
    got = dense_run(monkeypatch, "float32", 2, blas_threads=2)
    assert handed_off == []
    assert_same_run(got, expected)
    dense_run(monkeypatch, "float32", 2)
    assert handed_off  # the stacks' handoffs, under one BLAS thread


def test_blas_threads_asks_the_loaded_library():
    """The count is the one the OpenBLAS numpy loaded runs with: a process
    started with ``OPENBLAS_NUM_THREADS=1`` reads 1."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas or not pathlib.Path("/proc/self/maps").exists():
        pytest.skip(f"numpy's BLAS is {blas}")
    repo = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.core.lanes import blas_threads; print(blas_threads())"],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(repo / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


def test_a_rejected_split_runs_whole(monkeypatch):
    """A product whose split the probe rejects runs whole on the caller:
    the counter ticks and the step is still the serial one."""
    expected = dense_run(monkeypatch, "float32", 1)
    monkeypatch.setattr(lanes_mod, "_EXACT", {})
    monkeypatch.setattr(lanes_mod, "_probe", lambda *args: False)
    got = dense_run(monkeypatch, "float32", 2)
    assert_same_run(got, expected)
    assert rejected(got[2]) > 0
    assert set(lanes_mod._EXACT.values()) == {False}


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 200, 256, 1000, 1024])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_row_blocks_cover_the_rows_from_aligned_starts(rows, width):
    blocks = [lanes_mod.row_block(rows, lane, width) for lane in range(width)]
    assert blocks[0][0] == 0 and blocks[-1][1] == rows
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    assert all(lo % lanes_mod.ROW_ALIGN == 0 or lo == rows for lo, _ in blocks)


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_out_of_range_row_in_a_lane_raises_on_the_caller(monkeypatch):
    """One table's update fails on lane 1: the caller raises the serial
    step's ``IndexError`` once every lane has stopped, and the lanes go on
    working."""

    class BadRow(Trainer):
        bad = True

        def on_stage(self, stage):
            if stage != "grads" or not self.bad:
                return
            t0, t1 = self.model.embedding_tables()[:2]
            for table in self.model.embedding_tables():
                table.sparse_grads.clear()
            dim, dtype = t0.dim, t0.dtype
            # the larger update goes to lane 0, the bad one to lane 1
            t0.sparse_grads.append(SparseGrad(np.arange(8), np.ones((8, dim), dtype)))
            t1.sparse_grads.append(
                SparseGrad(np.array([0, t1.hash_size]), np.ones((2, dim), dtype))
            )

    def bad_step(width):
        lanes_of(monkeypatch, width)
        model = DLRM(config("float64"), rng=3)
        trainer = BadRow(
            model, lambda m: Adagrad(m.dense_parameters(), m.embedding_tables())
        )
        gen = SyntheticDataGenerator(model.config, rng=11)
        with pytest.raises(IndexError) as err:
            trainer.train_step(gen.batch(BATCH))
        return trainer, gen, str(err.value)

    _, _, serial = bad_step(1)
    trainer, gen, laned = bad_step(2)
    assert laned == serial
    assert helper_threads() == [lanes_mod.THREAD_PREFIX + "1"]
    trainer.bad = False
    assert np.isfinite(trainer.train_step(gen.batch(BATCH)))


def test_a_helper_exception_waits_for_every_lane():
    lanes = lanes_mod.Lanes()
    lanes.width = 2
    done = []

    def job(item, lane):
        if item == "bad":
            raise KeyError(lane)
        done.append((item, lane))

    try:
        # "big" fills lane 0, "bad" lands on lane 1
        with pytest.raises(KeyError) as err:
            lanes.run(job, ["bad", "big"], {"bad": 1 << 20, "big": 1 << 21}.get)
        assert err.value.args == (1,)
        assert done == [("big", 0)]
        lanes.run(job, ["a", "b"], lambda item: 1 << 20)
        assert sorted(done[1:]) == [("a", 0), ("b", 1)]
    finally:
        lanes.close()
    assert helper_threads() == []


@pytest.mark.parametrize(
    "cores, world, reserved, expected",
    [
        (1, 1, 0, 1), (1, 1, 1, 1), (1, 2, 0, 1), (1, 2, 1, 1),
        (2, 1, 0, 2), (2, 1, 1, 1), (2, 2, 0, 1), (2, 2, 1, 1),
        (4, 1, 0, 4), (4, 1, 1, 3), (4, 2, 0, 2), (4, 2, 1, 1),
    ],
)
def test_lane_count(monkeypatch, cores, world, reserved, expected):
    monkeypatch.setattr(runner, "available_cores", lambda: cores)
    monkeypatch.setattr(runner, "reserved_cores", lambda: reserved)
    assert lanes_mod.lane_count(world) == expected


def _train_in_child(trainer, conn):
    losses, _ = run(trainer, steps=2)
    conn.send(losses)
    conn.close()


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_trainer_used_before_fork_trains_in_the_child(monkeypatch):
    """The parent's helper thread does not exist in a forked child: the
    child starts its own instead of waiting on a dead one."""
    lanes_of(monkeypatch, 2)
    trainer = make_trainer("float64", PoolingType.SUM, "adagrad", False, False)
    run(trainer, steps=1)
    assert helper_threads()
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_in_child, args=(trainer, child_end))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "the child hung"
        child_losses = parent_end.recv()
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert child_losses == run(trainer, steps=2)[0]
