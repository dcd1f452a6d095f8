"""The benchmark suites behind ``python -m repro.bench``.

Three suites, all emitting the common entry schema of
:mod:`repro.bench.harness`:

* ``kernels`` — the sparse-path kernels (:mod:`repro.core.kernels`)
  against the historical ``naive_*`` implementations they replaced, plus
  the Figure 15 sweep through the parallel/memoized
  :class:`~repro.runtime.SweepRunner` against the serial path.
* ``dense`` — the fused dense kernels (:mod:`repro.core.dense_kernels`)
  against their ``naive_*`` references, plus end-to-end train steps
  (``"fused"`` backend vs ``"numpy"`` reference) on MLP-heavy and
  interaction-heavy configs.
* ``backends`` — every registered compute backend
  (:mod:`repro.core.backends`) timed through the same
  :func:`~repro.bench.harness.timed_train` / ``timed_infer`` loop
  against the ``"numpy"`` reference row.

Interpreting the end-to-end numbers: the speedup is config-dependent.
Where GEMMs dominate (wide-MLP configs), both paths run the same
near-peak BLAS calls and the fused win is the allocation/temporary
traffic around them (~1.1-1.5x).  Where the pairwise-dot interaction and
elementwise traffic dominate (many tables, small dim — the M3 shape),
the naive path's zeros+scatter+symmetrize round trips and ``np.where``
ReLUs are most of the step and fusion wins >2x.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.core import (
    Batch,
    DLRM,
    EmbeddingTable,
    RaggedIndices,
    Workspace,
    dense_kernels,
    kernels,
    known_backends,
    resolve_backend,
)
from repro.core.config import InteractionType, MLPSpec, ModelConfig, TableSpec

from .harness import (
    MP_MIN_SPEEDUP,
    PIPELINE_MIN_SPEEDUP,
    STEP_MIN_SPEEDUP,
    SWEEP_MIN_SPEEDUP,
    best_of,
    entry,
    timed_infer,
    timed_train,
)


# ---------------------------------------------------------------------------
# shared input builders
# ---------------------------------------------------------------------------


def _make_ragged(rng, batch: int, hash_size: int, mean: float = 30.0):
    lengths = rng.poisson(mean, size=batch).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.integers(0, hash_size, size=int(offsets[-1]))
    return RaggedIndices(values=values, offsets=offsets, safe_bound=hash_size)


def _make_config(num_dense, n_tables, hash_size, dim, mean_lookups, bottom, top,
                 interaction, dtype) -> ModelConfig:
    tables = [
        TableSpec(f"t{i}", hash_size=hash_size, dim=dim, mean_lookups=mean_lookups)
        for i in range(n_tables)
    ]
    return ModelConfig(
        name="bench", num_dense=num_dense, tables=tables,
        bottom_mlp=MLPSpec(bottom), top_mlp=MLPSpec(top),
        interaction=interaction, compute_dtype=dtype,
    )


def _make_batches(config: ModelConfig, batch: int, n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        dense = rng.standard_normal((batch, config.num_dense))
        sparse = {}
        for t in config.tables:
            lengths = np.maximum(
                rng.poisson(t.mean_lookups, size=batch), 1
            ).astype(np.int64)
            offsets = np.concatenate([[0], np.cumsum(lengths)])
            values = rng.integers(0, t.hash_size, size=int(offsets[-1]))
            sparse[t.name] = RaggedIndices(
                values=values, offsets=offsets, safe_bound=t.hash_size
            )
        labels = rng.integers(0, 2, size=batch)
        out.append(Batch(dense, sparse, labels))
    return out


# ---------------------------------------------------------------------------
# kernels suite: sparse-path kernels old vs new, plus the fig15 sweep
# ---------------------------------------------------------------------------


def _old_fwd_bwd(weight, ind, grad_out, truncation):
    """The pre-optimization pooled fwd+bwd, composed from naive kernels."""
    v, o = kernels.naive_truncate_ragged(ind.values, ind.offsets, truncation)
    if (v < 0).any() or (v >= weight.shape[0]).any():  # two-pass bounds check
        raise IndexError("out of range")
    rows = weight[v]
    pooled = kernels.naive_segment_sum(rows, o)
    per_lookup = np.repeat(grad_out, np.diff(o), axis=0)
    return pooled, kernels.naive_coalesce_rows(v, per_lookup)


def _new_fwd_bwd(table, ind, grad_out):
    out = table.forward(ind)
    table.backward(grad_out)
    return out, table.pop_grad()


def bench_embedding(batch: int, reps: int) -> dict:
    rng = np.random.default_rng(0)
    spec = TableSpec("bench", hash_size=100_000, dim=64, mean_lookups=30.0, truncation=32)
    table = EmbeddingTable(spec, rng)
    ind = _make_ragged(rng, batch, spec.hash_size)
    grad = rng.standard_normal((batch, spec.dim))
    old_s = best_of(lambda: _old_fwd_bwd(table.weight, ind, grad, 32), reps)
    new_s = best_of(lambda: _new_fwd_bwd(table, ind, grad), reps)
    return entry(old_s, new_s)


def bench_segment_pool(reps: int) -> dict:
    rng = np.random.default_rng(1)
    ind = _make_ragged(rng, 2048, 100_000)
    rows = rng.standard_normal((ind.total_lookups, 64))
    old_s = best_of(lambda: kernels.naive_segment_sum(rows, ind.offsets), reps)
    new_s = best_of(lambda: kernels.segment_sum(rows, ind.offsets), reps)
    return entry(old_s, new_s)


def bench_coalesce(reps: int) -> dict:
    rng = np.random.default_rng(2)
    indices = rng.integers(0, 100_000, size=60_000)
    grads = rng.standard_normal((60_000, 64))
    old_s = best_of(lambda: kernels.naive_coalesce_rows(indices, grads), reps)
    new_s = best_of(lambda: kernels.coalesce_rows(indices, grads), reps)
    return entry(old_s, new_s)


def bench_truncate(reps: int) -> dict:
    rng = np.random.default_rng(3)
    ind = _make_ragged(rng, 8192, 100_000)
    old_s = best_of(
        lambda: kernels.naive_truncate_ragged(ind.values, ind.offsets, 24), reps
    )
    new_s = best_of(lambda: kernels.truncate_ragged(ind.values, ind.offsets, 24), reps)
    return entry(old_s, new_s)


def bench_fig15_sweep(quick: bool) -> dict:
    from repro.experiments import fig15_accuracy as f15
    from repro.runtime import ResultCache, SweepRunner

    kw = dict(
        baseline_batch=64,
        gpu_batches=(128,) if quick else (128, 256),
        example_budget=2048 if quick else 8192,
        tuning_trials=2 if quick else 3,
        num_seeds=1 if quick else 2,
        seed=0,
    )
    t0 = time.perf_counter()
    serial = f15.run(**kw)
    serial_s = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        runner = SweepRunner(workers=4, cache=ResultCache(tmp))
        t0 = time.perf_counter()
        cold = f15.run(**kw, runner=runner)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = f15.run(**kw, runner=runner)
        warm_s = time.perf_counter() - t0
    if not (serial == cold == warm):  # determinism contract, checked for free
        raise AssertionError("fig15 runner results diverged from serial")
    return {
        "serial_s": serial_s,
        "parallel4_cold_s": cold_s,
        "parallel4_warm_s": warm_s,
        "parallel_speedup": serial_s / cold_s,
        "cached_speedup": serial_s / warm_s,
        "speedup": serial_s / min(cold_s, warm_s),
        "min_speedup": SWEEP_MIN_SPEEDUP,
        "gate": False,  # gated on the absolute min_speedup floor instead
    }


def run_kernels(quick: bool) -> dict:
    reps = 5 if quick else 12
    return {
        "embedding_fwd_bwd_b512": bench_embedding(512, reps),
        "embedding_fwd_bwd_b2048": bench_embedding(2048, reps),
        "segment_pool": bench_segment_pool(reps),
        "coalesce": bench_coalesce(reps),
        "truncate": bench_truncate(reps),
        "fig15_sweep": bench_fig15_sweep(quick),
    }


# ---------------------------------------------------------------------------
# dense suite: fused dense kernels old vs new, plus end-to-end train steps
# ---------------------------------------------------------------------------


def bench_linear(reps: int) -> dict:
    """Forward + backward of a 512->512 layer at batch 2048 (float64)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2048, 512))
    w = rng.standard_normal((512, 512))
    b = rng.standard_normal(512)
    g = rng.standard_normal((2048, 512))
    wg = np.zeros_like(w)
    bg = np.zeros_like(b)
    ws = Workspace()
    out = ws.get("y", (2048, 512), x.dtype)
    gin = ws.get("gin", (2048, 512), x.dtype)
    wbuf = ws.get("wg", w.shape, x.dtype)
    bbuf = ws.get("bg", b.shape, x.dtype)

    def old():
        dense_kernels.naive_linear_forward(x, w, b)
        dw, db, _ = dense_kernels.naive_linear_backward(g, x, w)
        wg_l = wg + dw  # historical accumulate allocates  # noqa: F841
        bg_l = bg + db  # noqa: F841

    def new():
        dense_kernels.linear_forward(x, w, b, out)
        dense_kernels.linear_backward(g, x, w, wg, bg, gin, wbuf, bbuf)

    return entry(best_of(old, reps), best_of(new, reps))


def bench_relu(reps: int) -> dict:
    """Forward + backward over a (2048, 1024) activation (float64)."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2048, 1024))
    g = rng.standard_normal((2048, 1024))
    ws = Workspace()
    y = ws.get("y", x.shape, x.dtype)
    gx = ws.get("gx", x.shape, x.dtype)
    m = ws.get("m", x.shape, np.bool_)

    def old():
        out, mask = dense_kernels.naive_relu_forward(x)
        dense_kernels.naive_relu_backward(g, mask)

    def new():
        dense_kernels.relu_forward(x, y)
        dense_kernels.relu_backward(g, y, gx, m)

    return entry(best_of(old, reps), best_of(new, reps))


def bench_bce(reps: int) -> dict:
    """Loss forward + logit gradient at batch 65536 (float64)."""
    rng = np.random.default_rng(2)
    logits = rng.standard_normal(65536)
    labels = rng.integers(0, 2, size=65536).astype(np.float64)
    ws = Workspace()
    bufs = [ws.get(k, logits.shape, np.float64)
            for k in ("e", "per", "tmp", "sig", "den")]
    pos = ws.get("pos", logits.shape, np.bool_)
    grad = ws.get("grad", logits.shape, np.float64)

    def old():
        dense_kernels.naive_bce_forward(logits, labels)
        dense_kernels.naive_bce_backward(logits, labels)

    def new():
        dense_kernels.bce_forward(logits, labels, *bufs, pos)
        dense_kernels.bce_backward(bufs[3], labels, grad)

    return entry(best_of(old, reps), best_of(new, reps))


def _dot_setup(batch: int, n_vec: int, dim: int):
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((batch, n_vec, dim))
    tril = np.tril_indices(n_vec, k=-1)
    num_pairs = len(tril[0])
    grad_pairs = rng.standard_normal((batch, num_pairs))
    return stack, tril, num_pairs, grad_pairs


def bench_dot_forward(reps: int) -> dict:
    """Pairwise-dot forward at (2048, 101 vectors, dim 32)."""
    stack, tril, num_pairs, _ = _dot_setup(2048, 101, 32)
    dense = stack[:, 0, :].copy()
    flat = (tril[0] * 101 + tril[1]).astype(np.intp)
    ws = Workspace()
    gram = ws.get("gram", (2048, 101, 101), stack.dtype)
    pairs = ws.get("pairs", (2048, num_pairs), stack.dtype)
    out = ws.get("out", (2048, 32 + num_pairs), stack.dtype)
    old = best_of(lambda: dense_kernels.naive_dot_forward(stack, tril, dense), reps)
    new = best_of(
        lambda: dense_kernels.dot_forward(stack, flat, dense, gram, pairs, out), reps
    )
    return entry(old, new)


def bench_dot_backward(reps: int) -> dict:
    """Pairwise-dot backward at (2048, 101 vectors, dim 32)."""
    stack, tril, num_pairs, grad_pairs = _dot_setup(2048, 101, 32)
    pair_map = dense_kernels.symmetric_pair_map(101, tril)
    ws = Workspace()
    ext = ws.get("ext", (2048, num_pairs + 1), stack.dtype)
    gram = ws.get("gram", (2048, 101, 101), stack.dtype)
    gstack = ws.get("gs", stack.shape, stack.dtype)
    old = best_of(
        lambda: dense_kernels.naive_dot_backward(stack, tril, grad_pairs), reps
    )
    new = best_of(
        lambda: dense_kernels.dot_backward(
            stack, pair_map, grad_pairs, ext, gram, gstack
        ),
        reps,
    )
    return entry(old, new)


def bench_adagrad_dense(reps: int) -> dict:
    """Dense Adagrad update over a 1024x1024 parameter (float64)."""
    rng = np.random.default_rng(4)
    value = rng.standard_normal((1024, 1024))
    grad = rng.standard_normal((1024, 1024))
    state = np.abs(rng.standard_normal((1024, 1024)))
    ws = Workspace()
    t = ws.get("t", value.shape, value.dtype)
    u = ws.get("u", value.shape, value.dtype)
    old = best_of(
        lambda: dense_kernels.naive_adagrad_dense_step(value, grad, state, 0.01, 1e-10),
        reps,
    )
    new = best_of(
        lambda: dense_kernels.adagrad_dense_step(value, grad, state, 0.01, 1e-10, t, u),
        reps,
    )
    return entry(old, new)


def bench_adagrad_sparse(reps: int) -> dict:
    """Row-sparse Adagrad over 20k unique rows of a 100k x 64 table."""
    rng = np.random.default_rng(5)
    weight = rng.standard_normal((100_000, 64))
    state = np.abs(rng.standard_normal((100_000, 64)))
    rows = np.sort(rng.choice(100_000, size=20_000, replace=False))
    values = rng.standard_normal((20_000, 64))
    ws = Workspace()
    fused = resolve_backend("fused")
    old = best_of(
        lambda: dense_kernels.naive_adagrad_sparse_step(
            weight, state, rows, values, 0.01, 1e-10
        ),
        reps,
    )
    new = best_of(
        lambda: fused.adagrad_sparse_step(
            weight, state, rows, values, 0.01, 1e-10, ws
        ),
        reps,
    )
    return entry(old, new)


#: Interaction-heavy config (the production-M3 shape: ~120 tables, small
#: dim): the pairwise-dot triangle is (121 choose 2) = 7260 pairs, and the
#: naive path's (B, 121, 121) zeros/scatter/symmetrize round trips dominate.
INTERACTION_CONFIG = _make_config(
    16, 120, 1000, 16, 1.0, (32, 16), (64,), InteractionType.DOT, "float32"
)

#: MLP-heavy config (the production-M1/M2 shape: wide stacked MLPs, concat
#: interaction): GEMM-bound, so the fused win is the smaller remainder.
MLP_CONFIG = _make_config(
    256, 8, 5000, 64, 2.0, (512, 256, 64), (512, 512, 256),
    InteractionType.CONCAT, "float32",
)


def bench_train_step(config: ModelConfig, batch: int, quick: bool,
                     **extra) -> dict:
    n_batches = 2 if quick else 4
    reps = 3 if quick else 5
    batches = _make_batches(config, batch, n_batches)
    old = timed_train(config, batches, "numpy", reps=reps)
    new = timed_train(config, batches, "fused", reps=reps)
    return entry(old, new, batch=batch, **extra)


def run_dense(quick: bool) -> dict:
    reps = 5 if quick else 12
    return {
        "linear_fwd_bwd": bench_linear(reps),
        "relu_fwd_bwd": bench_relu(reps),
        "bce_fwd_bwd": bench_bce(reps),
        "dot_forward": bench_dot_forward(reps),
        "dot_backward": bench_dot_backward(reps),
        "adagrad_dense": bench_adagrad_dense(reps),
        "adagrad_sparse": bench_adagrad_sparse(reps),
        "train_step_mlp_b512": bench_train_step(MLP_CONFIG, 512, quick),
        "train_step_mlp_b2048": bench_train_step(MLP_CONFIG, 2048, quick),
        "train_step_interaction_b512": bench_train_step(
            INTERACTION_CONFIG, 512, quick
        ),
        "train_step_interaction_b2048": bench_train_step(
            INTERACTION_CONFIG, 2048, quick, min_speedup=STEP_MIN_SPEEDUP
        ),
    }


# ---------------------------------------------------------------------------
# backends suite: every registered backend vs the numpy reference row
# ---------------------------------------------------------------------------

#: Mid-sized interaction shape: big enough that the backend choice moves
#: the needle, small enough for the CI quick mode.
BACKEND_CONFIG = _make_config(
    16, 60, 1000, 16, 1.0, (32, 16), (64,), InteractionType.DOT, "float32"
)


def run_backends(quick: bool) -> dict:
    batch = 512 if quick else 2048
    reps = 3 if quick else 6
    batches = _make_batches(BACKEND_CONFIG, batch, 2)
    base_train = timed_train(BACKEND_CONFIG, batches, "numpy", reps=reps)
    base_infer = timed_infer(BACKEND_CONFIG, batches, "numpy", reps=reps)
    results = {
        "backend_train_numpy": entry(
            base_train, base_train, gate=False, backend="numpy", batch=batch
        ),
        "backend_infer_numpy": entry(
            base_infer, base_infer, gate=False, backend="numpy", batch=batch
        ),
    }
    force_threaded = bool(os.environ.get("REPRO_BENCH_FORCE_THREADED"))
    for name in known_backends():
        if name == "numpy":
            continue
        backend: object = name
        extra = {}
        if name == "threaded" and force_threaded:
            # REPRO_BENCH_FORCE_THREADED pins an explicit 2-worker pool so
            # single-core CI still times the threaded GEMM path instead of
            # silently resolving to fused (name-based resolution falls back
            # below 2 cores; explicit instances never do).
            from repro.core.backends.threaded import ThreadedBackend

            backend = ThreadedBackend(workers=2, min_rows=4)
            extra["forced"] = True
        # record what the name resolved to (threaded falls back to fused
        # on single-core machines), so baselines stay interpretable
        resolved = DLRM(BACKEND_CONFIG, rng=0, backend=backend).backend.name
        train_s = timed_train(BACKEND_CONFIG, batches, backend, reps=reps)
        infer_s = timed_infer(BACKEND_CONFIG, batches, backend, reps=reps)
        # only the fused row is ratio-gated: it resolves identically on
        # every machine, while threaded depends on the runner's core count
        gated = name == "fused"
        results[f"backend_train_{name}"] = entry(
            base_train, train_s, gate=gated, backend=name,
            resolved=resolved, batch=batch, **extra,
        )
        results[f"backend_infer_{name}"] = entry(
            base_infer, infer_s, gate=False, backend=name,
            resolved=resolved, batch=batch, **extra,
        )
    return results


# ---------------------------------------------------------------------------
# mp suite: multi-process hybrid-parallel training vs the serial trainer
# ---------------------------------------------------------------------------

#: Hybrid-parallel bench shape: a handful of mid-size tables and a DOT
#: interaction so the sharded sparse exchange and the replicated dense
#: allreduce both carry real traffic without dwarfing the compute.
MP_CONFIG = _make_config(
    16, 8, 4000, 16, 4.0, (32, 16), (64,), InteractionType.DOT, "float32"
)


def run_mp(quick: bool) -> dict:
    """Serial fused train step vs the multi-process hybrid trainer.

    The speedup column is honest about the host: on a single core the
    W-worker rows report the oversubscription *slowdown* (processes
    time-share one core and pay communication on top), so the absolute
    ``MP_MIN_SPEEDUP`` floor is attached to the 4-worker row only when
    the runner actually has >= 4 cores.  The ratio gate is safe on any
    host: the committed baseline comes from the 1-core container, and
    more cores only raises the hybrid rows' speedup.
    """
    from repro.distributed.mp import HybridRunConfig, run_hybrid
    from repro.runtime import available_cores

    batch = 256 if quick else 512
    steps = 6 if quick else 10
    reps = 2 if quick else 3
    cores = available_cores()
    batches = _make_batches(MP_CONFIG, batch, 2)
    serial_s = timed_train(MP_CONFIG, batches, "fused", reps=reps)
    results = {
        "mp_serial_fused": entry(
            serial_s, serial_s, gate=False, batch=batch, cores=cores
        ),
    }
    for world in (2, 4):
        run = HybridRunConfig(
            workers=world, steps=steps, batch_size=batch,
            reduction="ordered", warmup_steps=2,
        )
        best = min(run_hybrid(MP_CONFIG, run).step_time_s for _ in range(reps))
        e = entry(
            serial_s, best, gate=True, batch=batch, cores=cores,
            workers=world, reduction="ordered",
        )
        if world == 4 and cores >= 4:
            e["min_speedup"] = MP_MIN_SPEEDUP
        results[f"mp_hybrid_w{world}"] = e
    return results


# ---------------------------------------------------------------------------
# tiering suite: flat embedding tables vs the tiered store's accounting
# ---------------------------------------------------------------------------

#: Tiering bench shape: embedding-heavy (many lookups per table) so the
#: tier accounting path — frequency stats, chunk policy, cost charging —
#: is exercised on every step, while the dense path stays small.
TIERING_CONFIG = _make_config(
    8, 4, 4000, 16, 8.0, (32, 16), (64,), InteractionType.CONCAT, "float32"
)


def _timed_tiered_train(config: ModelConfig, batches, tiering, reps: int) -> float:
    """Per-batch seconds of a train step on a tiered-table model."""
    from repro.core import Adagrad, Trainer

    model = DLRM(config, rng=0, backend="fused", tiering=tiering)
    trainer = Trainer(
        model,
        lambda m: Adagrad(
            m.dense_parameters(), m.embedding_tables(), lr=0.01, backend=m.backend
        ),
    )

    def run():
        for b in batches:
            trainer.train_step(b)

    return best_of(run, reps) / len(batches)


def run_tiering(quick: bool) -> dict:
    """Flat train step vs the same step on tiered embedding tables.

    The tiered store is numerically a no-op (bit-identical weights), so
    ``speedup`` here is the *accounting overhead factor* — old is the
    flat step, new is the tiered step, and the ratio gate fails the
    build if per-step tier bookkeeping regresses > ``GATE_FACTOR`` vs
    the committed baseline.
    """
    from repro.tiering import TieredStoreConfig

    batch = 256 if quick else 1024
    reps = 3 if quick else 6
    batches = _make_batches(TIERING_CONFIG, batch, 2)
    flat_s = timed_train(TIERING_CONFIG, batches, "fused", reps=reps)
    results = {
        "tiering_train_flat": entry(
            flat_s, flat_s, gate=False, batch=batch, backend="fused"
        ),
    }
    for policy in ("freq", "lru"):
        tiering = TieredStoreConfig(
            hot_fraction=0.05, chunk_rows=8, policy=policy
        )
        tiered_s = _timed_tiered_train(TIERING_CONFIG, batches, tiering, reps)
        results[f"tiering_train_{policy}"] = entry(
            flat_s, tiered_s, gate=policy == "freq", batch=batch,
            policy=policy, hot_fraction=0.05, chunk_rows=8,
        )
    return results


# ---------------------------------------------------------------------------
# pipeline suite: inline batch prep vs the prefetched data path
# ---------------------------------------------------------------------------

#: Prep-heavy bench shape: many tables with long lookup streams and small
#: MLPs, so batch materialization + plan construction (truncation, bounds,
#: CSR concat, coalesce argsorts) is a large share of the step — the
#: regime where the prefetch pipeline has real work to hide.
PIPELINE_CONFIG = _make_config(
    8, 12, 8000, 16, 24.0, (16, 8), (16,), InteractionType.CONCAT, "float32"
)


def _timed_pipelined_train(
    config: ModelConfig, batch: int, steps: int, pipeline: bool, reps: int
) -> float:
    """Per-step seconds of a Trainer run fed from a live generator stream.

    Generation + planning are timed *inside* the run on purpose — that is
    the work the pipeline moves off the critical path; pre-built batch
    lists would bench an empty prep stage.
    """
    from repro.core import Adagrad, Trainer
    from repro.data import SyntheticDataGenerator

    def run():
        gen = SyntheticDataGenerator(config, rng=0)
        model = DLRM(config, rng=1, backend="fused")
        trainer = Trainer(
            model,
            lambda m: Adagrad(
                m.dense_parameters(), m.embedding_tables(), lr=0.01,
                backend=m.backend,
            ),
            pipeline=pipeline,
        )
        trainer.train(gen.batches(batch), max_steps=steps)

    return best_of(run, reps, warmup=1) / steps


def run_pipeline(quick: bool) -> dict:
    """Unpipelined data path vs the double-buffered prefetch pipeline.

    Two comparisons on the prep-heavy config: the single-process Trainer
    (prefetch hides generation + planning behind compute) and the hybrid
    trainer (the same: its sparse exchanges overlap compute on the
    reducer's comm thread with or without the prefetch).  Both pipelined rows are
    bit-identical to their unpipelined baselines by construction — these
    rows bench the *overlap*, the determinism suite pins the numerics.

    Like the ``mp`` suite, the absolute ``PIPELINE_MIN_SPEEDUP`` floor is
    attached only when the host has >= 4 cores; a single-core runner
    reports the honest (possibly ~1.0x) ratio and is held to the ratio
    gate against the committed single-core baseline.
    """
    from repro.distributed.mp import HybridRunConfig, run_hybrid
    from repro.runtime import available_cores

    batch = 256 if quick else 512
    steps = 6 if quick else 10
    reps = 2 if quick else 3
    cores = available_cores()
    inline_s = _timed_pipelined_train(PIPELINE_CONFIG, batch, steps, False, reps)
    piped_s = _timed_pipelined_train(PIPELINE_CONFIG, batch, steps, True, reps)
    trainer_e = entry(
        inline_s, piped_s, gate=True, batch=batch, cores=cores, steps=steps
    )
    results = {"pipeline_trainer": trainer_e}
    hybrid_s = {}
    for pipelined in (False, True):
        run = HybridRunConfig(
            workers=2, steps=steps, batch_size=batch,
            reduction="ordered", warmup_steps=2, pipeline=pipelined,
        )
        hybrid_s[pipelined] = min(
            run_hybrid(PIPELINE_CONFIG, run).step_time_s for _ in range(reps)
        )
    e = entry(
        hybrid_s[False], hybrid_s[True], gate=True, batch=batch, cores=cores,
        workers=2, reduction="ordered",
    )
    if cores >= 4:
        e["min_speedup"] = PIPELINE_MIN_SPEEDUP
    results["pipeline_hybrid_w2"] = e
    return results


SUITES = {
    "kernels": run_kernels,
    "dense": run_dense,
    "backends": run_backends,
    "mp": run_mp,
    "tiering": run_tiering,
    "pipeline": run_pipeline,
}
