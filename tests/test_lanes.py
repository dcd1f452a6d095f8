"""A train step and inference on several lanes (:mod:`repro.core.lanes`).

The contract: a train step whose tables look up, backpropagate and update
on several lanes, and whose MLP stacks, dot interaction and dense updates
are split across them, is bit-identical to the serial step — every loss
and every array of :func:`repro.core.checkpoint.state_arrays` — and so is
every probability ``predict_proba`` returns on the same lanes.  The sparse
half holds it by construction (each table's calls are unchanged and tables
share no written state), and so do the dense optimizer step (whole
parameters) and the interaction (whole blocks of per-sample calls); the
MLP stacks hold it by the split probe, which runs a product whole unless
its row blocks equal the whole call.  The sparse size floor is patched to
0 where test-sized tables must take lanes, and the interaction's block
size where a test batch must span several blocks per lane; the dense tests
use stacks above the FLOP floor, and report a one-thread BLAS (the stacks
take lanes only under one) whatever the BLAS the tests run on.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import multiprocessing
import pathlib
import pickle
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import (
    DLRM,
    SGD,
    Adagrad,
    InteractionType,
    MLPSpec,
    ModelConfig,
    PoolingType,
    TableSpec,
    Trainer,
    evaluate,
)
from repro.core import dense_kernels
from repro.core import lanes as lanes_mod
from repro.core import model as model_mod
from repro.core.checkpoint import state_arrays
from repro.core.embedding import EmbeddingBagCollection, EmbeddingTable, SparseGrad
from repro.data import SyntheticDataGenerator
from repro.tiering import TieredStoreConfig

STEPS = 4
BATCH = 24


@pytest.fixture
def every_table_takes_a_lane(monkeypatch):
    monkeypatch.setattr(lanes_mod, "LANE_MIN_BYTES", 0)


def lanes_of(monkeypatch, width: int, blas_threads: int = 1) -> None:
    """``width`` lanes per step and per inference call, under a BLAS that
    reports ``blas_threads`` threads (the stacks take lanes only under
    one): the model decides both (``DLRM.bound_lanes``)."""
    monkeypatch.setattr(model_mod, "lane_count", lambda: width)
    monkeypatch.setattr(model_mod, "blas_threads", lambda: blas_threads)


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


def build_model(cfg, tables="flat", backend=None, pooling=PoolingType.SUM):
    """A model of ``cfg`` (``config()``'s four tables) whose tables are
    ``"flat"``, ``"tiered"`` or ``"shared"`` (one table serves "t0" and
    "t3")."""
    tiering = (
        TieredStoreConfig(hot_fraction=0.2, chunk_rows=4, policy="freq")
        if tables == "tiered" else None
    )
    model = DLRM(cfg, rng=3, pooling=pooling, tiering=tiering, backend=backend)
    if tables == "shared":
        model.embeddings = EmbeddingBagCollection(
            cfg.tables, np.random.default_rng(4), pooling=pooling,
            dtype=model.dtype,
            feature_to_table={"t0": "t0", "t1": "t1", "empty": "empty", "t3": "t0"},
        )
        model.embeddings.set_backend(model.backend, model.workspace)
    return model


def make_trainer(dtype, pooling, optimizer, shared, tiered):
    tables = "shared" if shared else "tiered" if tiered else "flat"
    model = build_model(config(dtype), tables, pooling=pooling)
    opt_cls = SGD if optimizer == "sgd" else Adagrad

    return Trainer(
        model,
        lambda m: opt_cls(m.dense_parameters(), m.embedding_tables(), lr=0.05, backend=m.backend),
    )


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


# -- inference, and the dot interaction's blocks ---------------------------------


@pytest.fixture
def small_dot_blocks(monkeypatch):
    """Dot-interaction blocks of 10 (f64) or 20 (f32) samples at five
    vectors of dim 8, so a test batch spans several blocks per lane."""
    monkeypatch.setattr(dense_kernels, "_DOT_BLOCK_BYTES", 25 * 8 * 10)


def infer_config(dtype: str, interaction: InteractionType) -> ModelConfig:
    """``config()``'s four tables at dim 8 under ``dense_config()``'s
    stacks (both above the FLOP floor at four lanes)."""
    tables = tuple(dataclasses.replace(t, dim=8) for t in config(dtype).tables)
    return dataclasses.replace(dense_config(dtype, interaction), tables=tables)


def predictions(model, batches=3):
    gen = SyntheticDataGenerator(model.config, rng=11, seed_teacher=True)
    batches = [gen.batch(DENSE_BATCH) for _ in range(batches)]
    return [model.predict_proba(b).tobytes() for b in batches], evaluate(model, batches)


INFER_CELLS = [
    pytest.param(dtype, interaction, tables, id=f"{dtype}-{interaction.value}-{tables}")
    for dtype in ("float64", "float32")
    for interaction in (InteractionType.CONCAT, InteractionType.DOT)
    for tables in ("flat", "shared", "tiered")
]


@pytest.mark.usefixtures("every_table_takes_a_lane", "small_dot_blocks", "short_switch_interval")
@pytest.mark.parametrize("dtype, interaction, tables", INFER_CELLS)
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_inference_on_lanes_equals_one_lane_and_numpy(monkeypatch, width, dtype, interaction, tables):
    """``predict_proba`` and ``evaluate`` on ``width`` lanes — tables,
    stacks and the dot interaction's blocks all split — equal one lane
    and the numpy backend, byte for byte."""
    lanes_of(monkeypatch, 1)
    reference = predictions(build_model(infer_config(dtype, interaction), tables, "numpy"))
    assert predictions(build_model(infer_config(dtype, interaction), tables)) == reference
    lanes_of(monkeypatch, width)
    model = build_model(infer_config(dtype, interaction), tables)
    assert predictions(model) == reference
    assert bool(helper_threads()) == (width > 1)
    holders = (model.embeddings, model.interaction, model.bottom_mlp, model.top_mlp)
    assert all(h.lanes is None for h in holders)  # bound for the call only


@pytest.mark.parametrize("floor", ["tables", "stacks", "interaction"])
def test_inference_below_every_floor_binds_nothing(monkeypatch, floor):
    """An inference batch under every floor runs on the caller without a
    binding (not even the width is asked); one that reaches any floor —
    a table's lookups, a stack's FLOPs, two whole dot blocks — is bound."""
    asked = []
    monkeypatch.setattr(model_mod, "lane_count", lambda: asked.append("width") or 2)
    model = build_model(config("float64"))
    batch = SyntheticDataGenerator(model.config, rng=11).batch(BATCH)
    expected = model.predict_proba(batch).tobytes()
    assert asked == []
    if floor == "tables":
        monkeypatch.setattr(lanes_mod, "LANE_MIN_BYTES", 0)
    elif floor == "stacks":
        monkeypatch.setattr(lanes_mod, "LANE_MIN_FLOPS", BATCH * model._stack_weights)
    else:
        monkeypatch.setattr(dense_kernels, "_DOT_BLOCK_BYTES", 25 * 8 * BATCH // 2)
    assert model.predict_proba(batch).tobytes() == expected
    assert asked == ["width"]


def dot_calls(monkeypatch) -> list[tuple[str, int]]:
    """``(thread, samples)`` of every blocked dot-interaction kernel call."""
    calls = []
    for name in ("dot_forward", "dot_backward"):
        kernel = getattr(dense_kernels, name)

        def spy(dense, *args, kernel=kernel):
            calls.append((threading.current_thread().name, len(dense)))
            return kernel(dense, *args)

        monkeypatch.setattr(dense_kernels, name, spy)
    return calls


@pytest.mark.usefixtures("small_dot_blocks", "short_switch_interval")
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("width", [2, 3, 4])
@pytest.mark.parametrize("blocks_per_lane", [2.5, 1, 0.5], ids=["several", "one", "fewer"])
def test_dot_interaction_on_lanes_equals_one_lane(monkeypatch, width, dtype, blocks_per_lane):
    """The interaction alone on lanes (tables and stacks below their
    floors), training and inference: a run of whole blocks per lane, the
    batch's short last block on the last lane — or, with fewer whole
    blocks than lanes, everything on the caller — and the serial run's
    bits either way."""
    block = dense_kernels.dot_block_rows(5, dtype)
    batch = block * int(width * blocks_per_lane) + block // 2  # a short last block
    cfg = dataclasses.replace(infer_config(dtype, InteractionType.DOT), num_dense=5,
                              bottom_mlp=MLPSpec((8, 8)), top_mlp=MLPSpec((6,)))

    def trained(width):
        lanes_of(monkeypatch, width)
        trainer = Trainer(build_model(cfg), dense_optimizer("adagrad"))
        gen = SyntheticDataGenerator(cfg, rng=11, seed_teacher=True)
        losses = [trainer.train_step(gen.batch(batch)) for _ in range(3)]
        proba = trainer.model.predict_proba(gen.batch(batch))
        return losses, state_arrays(trainer.model, trainer.optimizer), proba.tobytes()

    expected = trained(1)
    calls = dot_calls(monkeypatch)
    got = trained(width)
    assert got[0] == expected[0] and got[2] == expected[2]
    assert all(got[1][k].tobytes() == v.tobytes() for k, v in expected[1].items())
    if blocks_per_lane < 1:
        assert set(calls) == {("MainThread", batch)}
        return
    samples = dict(calls)  # each lane takes the same samples in every pass
    assert len(set(calls)) == width
    last = lanes_mod.THREAD_PREFIX + str(width - 1)
    assert samples.keys() == {"MainThread"} | {
        lanes_mod.THREAD_PREFIX + str(k) for k in range(1, width)
    }
    assert sum(samples.values()) == batch
    assert samples[last] % block == block // 2  # the short last block
    whole = [n // block for n in samples.values()]
    assert min(whole) >= 1 and max(whole) - min(whole) <= 1
    assert all(n % block == 0 for name, n in samples.items() if name != last)


@pytest.mark.usefixtures("every_table_takes_a_lane", "small_dot_blocks")
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_a_copied_model_trains_and_infers_on_lanes(monkeypatch, how):
    """A model that has run on lanes pickles and deep-copies (the lanes
    are the process's, not the model's), and the copy trains and infers
    on them bit for bit as the original does."""
    lanes_of(monkeypatch, 2)
    cfg = infer_config("float32", InteractionType.DOT)
    model = build_model(cfg)
    predictions(model, batches=1)
    twin = pickle.loads(pickle.dumps(model)) if how == "pickle" else copy.deepcopy(model)

    def train_and_infer(m):
        trainer = Trainer(m, dense_optimizer("sgd"))
        gen = SyntheticDataGenerator(cfg, rng=12, seed_teacher=True)
        losses = [trainer.train_step(gen.batch(DENSE_BATCH)) for _ in range(2)]
        return losses, predictions(m)

    assert train_and_infer(twin) == train_and_infer(model)
    assert helper_threads() == [lanes_mod.THREAD_PREFIX + "1"]


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_an_idle_helper_keeps_no_trainer_alive(monkeypatch):
    """The helpers outlive every model: once a trainer is dropped, its
    last job on an idle lane no longer holds its optimizer (and through
    it the parameters, state and tables)."""
    lanes_of(monkeypatch, 2)
    trainer = make_trainer("float64", PoolingType.SUM, "adagrad", False, False)
    run(trainer, steps=1)
    assert helper_threads()
    optimizer = weakref.ref(trainer.optimizer)
    del trainer
    gc.collect()
    assert optimizer() is None


def test_lanes_bound_in_one_thread_leave_another_on_one_lane(monkeypatch):
    """The lanes are bound for one thread at a time: a binding entered on
    another thread meanwhile binds nothing, and its model runs on the
    caller."""
    lanes_of(monkeypatch, 2)
    first, second = build_model(config("float64")), build_model(config("float64"))
    seen = []

    def bind(model):
        with model.bound_lanes():
            seen.append(model.embeddings.lanes)

    with first.bound_lanes():
        assert first.embeddings.lanes is lanes_mod.LANES
        other = threading.Thread(target=bind, args=(second,))
        other.start()
        other.join()
    bind(second)
    assert seen == [None, lanes_mod.LANES]


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
            lanes.run(job, ["bad", "big"], [1 << 20, 1 << 21])
        assert err.value.args == (1,)
        assert done == [("big", 0)]
        lanes.run(job, ["a", "b"], [1 << 20, 1 << 20])
        assert sorted(done[1:]) == [("a", 0), ("b", 1)]
    finally:
        lanes.close()
    assert helper_threads() == []


@pytest.mark.parametrize(
    "cores, world, expected",
    [
        (1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1), (4, 1, 4), (4, 2, 2),
        # the top of the process tree: every core is its share
        (1, None, 1), (2, None, 2), (4, None, 4),
    ],
)
def test_lane_count(monkeypatch, cores, world, expected):
    """One lane per free core: the process's share of the cores, at least
    one.  The share is what a worker of ``world`` takes of a ``cores``-core
    parent (``None``: the top of the process tree, whose share is every
    core)."""
    monkeypatch.setattr(lanes_mod, "available_cores", lambda: cores)
    if world is not None:  # what take_share(cores // world) leaves a worker
        monkeypatch.setattr(lanes_mod, "_share", max(1, cores // world))
    assert lanes_mod.lane_count() == expected


def _reply(conn, fn, args):
    conn.send(fn(*args))
    conn.close()


def in_forked_child(fn, *args):
    """``fn(*args)`` run in a forked child; what it returned."""
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_reply, args=(child_end, fn, args))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "the child hung"
        result = parent_end.recv()
    finally:
        parent_end.close()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    return result


def budget() -> tuple[int, int | None]:
    return lanes_mod.lane_count(), lanes_mod.blas_threads()


def _take_share(cores):
    lanes_mod.take_share(cores)
    return budget()


def test_a_forked_child_takes_its_share():
    """``take_share(1)`` in a forked child leaves it one lane and a
    one-thread BLAS; the parent's own readings do not move."""
    before = budget()
    lanes, blas = in_forked_child(_take_share, 1)
    assert lanes == 1
    if before[1] is not None:  # an OpenBLAS the budget can set
        assert blas == 1
    assert budget() == before


def _share_of_share(parts):
    lanes_mod.take_share(lanes_mod.free_cores() // parts)
    return lanes_mod.lane_count(), in_forked_child(_take_share, lanes_mod.free_cores() // parts)[0]


def test_a_share_of_a_share_divides_the_parents_free_cores(monkeypatch):
    """A worker takes its share of its parent's free cores, and a worker it
    forks in turn divides that share, not the host's cores."""
    monkeypatch.setattr(lanes_mod, "available_cores", lambda: 8)
    before = budget()
    assert in_forked_child(_share_of_share, 2) == (8 // 2, 8 // 2 // 2)
    assert budget() == before
    assert before[0] == 8


def _predict_in_worker(model, batch, world):
    lanes_mod.take_share(lanes_mod.free_cores() // world)
    model.predict_proba(batch)
    return helper_threads()


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_inference_in_a_worker_keeps_to_its_share(monkeypatch):
    """``predict_proba`` in one of four workers forked by a 4-core parent
    runs on that worker's one core: it starts no lane."""
    monkeypatch.setattr(lanes_mod, "available_cores", lambda: 4)
    model = build_model(config("float64"))
    batch = SyntheticDataGenerator(model.config, rng=11).batch(BATCH)
    assert model._lane_work(batch)
    assert in_forked_child(_predict_in_worker, model, batch, 4) == []


def _train_in_child(trainer):
    return run(trainer, steps=2)[0]


@pytest.mark.usefixtures("every_table_takes_a_lane")
def test_trainer_used_before_fork_trains_in_the_child(monkeypatch):
    """The parent's helper thread does not exist in a forked child: the
    child starts its own instead of waiting on a dead one."""
    lanes_of(monkeypatch, 2)
    trainer = make_trainer("float64", PoolingType.SUM, "adagrad", False, False)
    run(trainer, steps=1)
    assert helper_threads()
    assert in_forked_child(_train_in_child, trainer) == run(trainer, steps=2)[0]


# -- the seeded build -----------------------------------------------------------


def seed_config(dtype: str) -> ModelConfig:
    # Rows fewer than any width ("few"), and not divisible by 2, 3 or 4.
    tables = (
        TableSpec("few", 3, dim=4),
        TableSpec("odd", 203, dim=4),
        TableSpec("rest", 130, dim=4),
        TableSpec("even", 64, dim=4),
    )
    return dataclasses.replace(config(dtype), name="seeded", tables=tables)


def seeded_build(monkeypatch, width, dtype, tables, bits, buffered):
    """A model and its Adagrad built at ``width`` lanes from a caller's
    ``bits(11)`` generator: every table, accumulator and dense parameter,
    then the caller's next uint32 and double draws, as bytes."""
    monkeypatch.setattr(lanes_mod, "lane_count", lambda: width)
    rng = np.random.Generator(bits(11))
    if buffered:
        rng.integers(0, 7, dtype=np.uint32)  # keeps a 32-bit half-word back
    cfg = seed_config(dtype)
    tiering = TieredStoreConfig(hot_fraction=0.2, chunk_rows=4) if tables == "tiered" else None
    model = DLRM(cfg, rng=rng, tiering=tiering)
    if tables == "shared":
        model.embeddings = EmbeddingBagCollection(
            cfg.tables, rng, dtype=model.dtype,
            feature_to_table={"few": "few", "odd": "odd", "rest": "rest", "even": "odd"},
        )
    optimizer = Adagrad(model.dense_parameters(), model.embedding_tables(), initial_accumulator=0.1)
    arrays = [t.weight for t in model.embedding_tables()]
    arrays += [p.value for p in model.dense_parameters()]
    arrays += list(optimizer.slots()[1].values())
    draws = rng.integers(0, 2**32, dtype=np.uint32), rng.random()
    return [a.tobytes() for a in arrays] + [np.array(draws[0]).tobytes(), draws[1].hex()]


@pytest.mark.parametrize("dtype, tables, bits, buffered", [
    ("float64", "flat", np.random.PCG64, False),
    ("float32", "flat", np.random.PCG64, False),
    ("float64", "tiered", np.random.PCG64, False),
    ("float32", "tiered", np.random.PCG64, True),
    ("float64", "shared", np.random.PCG64, False),
    ("float32", "shared", np.random.PCG64, True),
    ("float64", "flat", np.random.PCG64, True),
    ("float32", "flat", np.random.PCG64DXSM, True),
    ("float64", "flat", np.random.PCG64DXSM, False),
    ("float64", "flat", np.random.MT19937, False),
])
def test_a_seeded_build_is_the_same_at_every_width(monkeypatch, dtype, tables, bits, buffered):
    """Tables drawn and accumulators filled in row ranges on 2, 3 or 4
    lanes are the serial build's bytes, and the caller's generator ends
    where the serial draw leaves it, buffered half-word included; a
    generator that cannot skip ahead (MT19937) draws on one lane."""
    monkeypatch.setattr(lanes_mod, "LANE_MIN_ELEMS", 0)
    serial = seeded_build(monkeypatch, 1, dtype, tables, bits, buffered)
    for width in (2, 3, 4):
        assert seeded_build(monkeypatch, width, dtype, tables, bits, buffered) == serial, width


def row_jobs(monkeypatch) -> list[tuple[str, int, int]]:
    """``(thread, lo, hi)`` of every row block a split job runs."""
    seen = []
    row_block = lanes_mod.row_block

    def spy(rows, lane, width):
        block = row_block(rows, lane, width)
        seen.append((threading.current_thread().name, *block))
        return block

    monkeypatch.setattr(lanes_mod, "row_block", spy)
    return seen


def test_a_table_at_the_floor_draws_and_fills_on_a_helper(monkeypatch):
    """At :data:`LANE_MIN_ELEMS` elements the draw and the accumulator
    fill each hand the second half of the rows to a helper; one row less
    stays on the caller."""
    monkeypatch.setattr(lanes_mod, "lane_count", lambda: 2)
    seen = row_jobs(monkeypatch)
    dim = 64
    rows = lanes_mod.LANE_MIN_ELEMS // dim
    below = EmbeddingTable(TableSpec("below", rows - 1, dim=dim), np.random.default_rng(0))
    Adagrad([], [below])
    assert seen == [] and helper_threads() == []
    at = EmbeddingTable(TableSpec("at", rows, dim=dim), np.random.default_rng(0))
    Adagrad([], [at])
    me, helper = threading.current_thread().name, lanes_mod.THREAD_PREFIX + "1"
    assert sorted(seen) == sorted([(me, 0, rows // 2), (helper, rows // 2, rows)] * 2)


def test_claimed_lanes_leave_the_build_on_one_lane(monkeypatch):
    """While another thread holds the lanes, a build above the floor runs
    on the caller, and draws what it draws unclaimed."""
    monkeypatch.setattr(lanes_mod, "LANE_MIN_ELEMS", 0)
    monkeypatch.setattr(lanes_mod, "lane_count", lambda: 2)
    seen = row_jobs(monkeypatch)
    held, release = threading.Event(), threading.Event()

    def hold():
        with lanes_mod.LANES.claim:
            held.set()
            release.wait()

    other = threading.Thread(target=hold)
    other.start()
    held.wait()
    try:
        claimed = EmbeddingTable(TableSpec("t", 301, dim=8), np.random.default_rng(2))
    finally:
        release.set()
        other.join()
    assert seen == [] and helper_threads() == []
    free = EmbeddingTable(TableSpec("t", 301, dim=8), np.random.default_rng(2))
    assert len(seen) == 2
    assert claimed.weight.tobytes() == free.weight.tobytes()
