"""Runs ONE workload in this process and prints its result as one JSON line.

``run.py`` launches this file in a fresh subprocess per workload (BLAS
pinned, ``PYTHONPATH=src``), so peak RSS, page-cache state and BLAS thread
pools of one workload never leak into the next.  Everything is timed from
outside: around calls into the layers' public functions and from public
result fields (``TrainResult``, ``HybridResult``, ``TierStats``,
``CommProfile``).

Untraced (``--trace 0``) runs produce the end-to-end metrics; traced runs
drive the step layer by layer under a ``repro.obs.Tracer`` and produce the
per-layer metrics plus ``results/<workload>.trace.json``.
"""

from __future__ import annotations

import argparse
import gc
import glob
import hashlib
import itertools
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass

T_START = time.perf_counter()

import numpy as np  # noqa: E402

from repro.core import DLRM, Adagrad, Trainer  # noqa: E402
from repro.data import SyntheticDataGenerator  # noqa: E402
from repro.obs.tracer import Tracer  # noqa: E402
from repro.runtime.runner import derive_seed  # noqa: E402

import hostprobe  # noqa: E402
from layers import layer_table, layered_step  # noqa: E402
from workloads import BY_NAME, K_HYBRID, K_INFER, K_TRAIN, Workload  # noqa: E402

T_IMPORTED = time.perf_counter()

RESULTS = pathlib.Path(__file__).resolve().parent / "results"

#: Times the set-up is repeated; ``setup_s`` is the median.  The first
#: set-up of a process pays first-touch page faults for every table
#: (3.4 s vs 0.7 s on ``train_emb``), which says more about the VM than
#: about the program.
SETUP_REPS = 3
INFER_POOL = 8
#: One host-clock tick (~1.6 ms) per this much step time: ~3 % of the run.
TICK_EVERY_S = 0.05
TRAIN_SHARE, INFER_SHARE = 0.75, 0.25


@dataclass
class Timing:
    """Seconds the program was busy, and the host-clock ticks around it."""

    busy_s: float
    start: int
    stop: int
    clock: hostprobe.HostClock


class Run:
    """Accumulates one workload's metrics, op counts and output checks."""

    def __init__(self, workload: Workload, args) -> None:
        self.w = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.cfg = workload.config(args.smoke)
        self.batch = workload.batch_size(args.smoke)
        table = hostprobe.tick_table()
        self.clock = hostprobe.HostClock(table, RESULTS / "host_clock_best.json")
        #: for calls that keep both cores busy (prep thread, hybrid ranks)
        self.clock2 = hostprobe.HostClock(
            table, RESULTS / "host_clock2_best.json", lanes=2
        )
        self.metrics: dict[str, float] = {}
        self.detail: dict[str, object] = {}
        self.checks: list[dict] = []
        #: metric -> (work per segment or None for a plain time, timings)
        self.series: dict[str, tuple[float | None, list[Timing]]] = {}
        self.attempted = 0
        self.failed = 0
        self.digest = ""

    def seed_for(self, *parts) -> int:
        return derive_seed(self.seed, *parts)

    def ops(self, values) -> None:
        """Count one op per value; a non-finite value is a failed op."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        self.attempted += len(values)
        self.failed += int(np.count_nonzero(~np.isfinite(values)))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def timed(self, fn, clock=None):
        """``fn()`` between two bursts of host-clock ticks; returns
        ``(result, Timing)``.  Where ``fn`` ticks the clock itself (between
        the steps of a trainer) those ticks time the host instead of the
        bursts, and the time they took is not the program's."""
        clock = clock or self.clock
        start = clock.mark()
        clock.burst()
        inner = clock.mark()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        after = clock.mark()
        if after > inner:
            return result, Timing(wall - clock.spent(inner, after), inner, after, clock)
        clock.burst()
        return result, Timing(wall, start, clock.mark(), clock)

    def finish(self) -> None:
        """Turn the timed segments into end-to-end metrics.

        Each is the median over its K segments, in seconds of an unloaded
        host: the busy time over the slowdown of the ticks around it (known
        only now, when the run's fastest tick is).  The raw wall-clock
        reading and the slowdown go into ``detail``.
        """
        for name, (work, timings) in self.series.items():
            slow = [t.clock.slowdown(t.start, t.stop) for t in timings]
            unloaded = [t.busy_s / x for t, x in zip(timings, slow)]
            values = [work / u for u in unloaded] if work else unloaded
            raw = [work / t.busy_s if work else t.busy_s for t in timings]
            self.metrics[name] = statistics.median(values)
            self.detail[name] = {
                "k": len(values), "min": min(values), "max": max(values),
                "raw": statistics.median(raw),
                "host_slowdown_x": statistics.median(slow),
            }
        self.detail["host_clock"] = {
            name: {"ticks": len(c.samples), "best_ms": c.best() * 1e3}
            for name, c in (("one_lane", self.clock), ("two_lanes", self.clock2))
            if c.samples
        }

    def result(self) -> dict:
        self.finish()
        return {
            "workload": self.w.name,
            "correct": self.failed == 0,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "loss_digest": self.digest,
            "metrics": self.metrics,
            "detail": self.detail,
            "checks": self.checks,
            "host": hostprobe.fingerprint(),
        }


def loss_digest(losses) -> str:
    return hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes()).hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # Linux reports KB


# ---------------------------------------------------------------------------
# single-process workloads
# ---------------------------------------------------------------------------


class TickingAdagrad(Adagrad):
    """The program's Adagrad, ticking the host clock at the end of every
    train step (``step`` is the last thing ``Trainer.train_step`` does), so
    the ticks interleave with the steps on the thread that computes them.
    Inline trainers only: beside a prep thread a tick times the contention
    between the two threads (it reads 1.8x at the top of a pipelined step),
    which is the program's doing, so those calls are clocked from outside."""

    clock = None
    ticks_per_step = 1

    def step(self) -> None:
        super().step()
        if self.clock is not None:
            for _ in range(self.ticks_per_step):
                self.clock.tick()


def adagrad(model):
    return TickingAdagrad(
        model.dense_parameters(), model.embedding_tables(), lr=0.01,
        backend=model.backend,
    )


def generator(run: Run, *stream):
    return SyntheticDataGenerator(run.cfg, rng=run.seed_for("data", *stream))


def batches(run: Run, *stream):
    """A fresh seeded batch stream.  Every ``train`` call gets its own: a
    pipelined trainer pulls a thread-timing-dependent number of batches
    past its budget, which would shift everything after it."""
    return generator(run, *stream).batches(run.batch)


def set_up(run: Run, *, pipeline: bool, tiered: bool, tracer=None):
    """Model + optimizer + generator + the warm steps: what ``setup_s`` times.
    Returns ``(trainer, warm losses)``."""
    model = DLRM(
        run.cfg, rng=run.seed_for("model"),
        tiering=run.w.tiering() if tiered else None,
    )
    trainer = Trainer(model, adagrad, pipeline=pipeline, tracer=tracer)
    warm = trainer.train(batches(run, "warm"), max_steps=run.w.warm)
    return trainer, warm.loss_history


def digest_steps(run: Run, trainer, warm_losses):
    """The fixed steps every host runs, whatever ``--seconds`` says: their
    losses (after the warm ones) are the workload's digest.  Returns
    ``(digest, seconds per step)``."""
    t0 = time.perf_counter()
    result = trainer.train(batches(run, "digest"), max_steps=run.w.digest_steps)
    step_s = (time.perf_counter() - t0) / result.steps
    run.ops(warm_losses + result.loss_history)
    return loss_digest(warm_losses + result.loss_history), step_s


def run_train(run: Run) -> None:
    w = run.w
    setups = []
    trainer = None
    for _ in range(SETUP_REPS):
        del trainer
        gc.collect()
        (trainer, warm_losses), timing = run.timed(
            lambda: set_up(run, pipeline=w.pipeline, tiered=w.tiered)
        )
        setups.append(timing)
    run.series["setup_s"] = (None, setups)
    run.detail["import_s"] = T_IMPORTED - T_START
    run.digest, step_s = digest_steps(run, trainer, warm_losses)

    n = max(1, round(TRAIN_SHARE * run.seconds / step_s / K_TRAIN))
    if not w.pipeline:
        trainer.optimizer.clock = run.clock
        trainer.optimizer.ticks_per_step = max(1, round(step_s / TICK_EVERY_S))
    segments = []
    for k in range(K_TRAIN):
        stream = batches(run, "timed", k)
        result, timing = run.timed(
            lambda: trainer.train(stream, max_steps=n),
            run.clock2 if w.pipeline else run.clock,
        )
        run.ops(result.loss_history)
        segments.append(timing)
    run.series["train_examples_per_s"] = (run.batch * n, segments)
    run.detail["train_steps_per_segment"] = n

    run_infer(run, trainer.model)
    run.metrics["peak_rss_mb"] = peak_rss_mb()

    if w.pipeline or w.tiered:
        del trainer
        gc.collect()
        reference, _ = digest_steps(run, *set_up(run, pipeline=False, tiered=False))
        run.check(
            "loss_digest equals the inline flat trainer's", run.digest == reference,
            f"{run.digest[:12]} vs {reference[:12]}",
        )


def run_infer(run: Run, model) -> None:
    """``predict_proba`` over fresh batches, K segments of equal batch count,
    a host-clock tick before every batch."""
    pool = list(itertools.islice(batches(run, "infer"), INFER_POOL))
    model.predict_proba(pool[0])  # inference-shaped arena buffers
    t0 = time.perf_counter()
    model.predict_proba(pool[1])
    batch_s = time.perf_counter() - t0
    m = max(1, round(INFER_SHARE * run.seconds / batch_s / K_INFER))
    clock = run.clock
    segments = []
    for k in range(K_INFER):
        start, busy_s = clock.mark(), 0.0
        for i in range(k * m, (k + 1) * m):
            clock.tick()
            t0 = time.perf_counter()
            proba = model.predict_proba(pool[i % INFER_POOL])
            busy_s += time.perf_counter() - t0
            run.ops(proba.sum())
        segments.append(Timing(busy_s, start, clock.mark(), clock))
    run.series["infer_examples_per_s"] = (run.batch * m, segments)
    run.detail["infer_batches_per_segment"] = m


# ---------------------------------------------------------------------------
# hybrid workloads
# ---------------------------------------------------------------------------


def hybrid_call(run: Run, steps: int, *, pipeline: bool, tracer=None, **extra):
    from repro.distributed.mp import HybridRunConfig, run_hybrid

    cfg = HybridRunConfig(
        workers=run.w.workers, steps=steps, batch_size=run.batch,
        reduction="ordered", warmup_steps=min(2, steps - 1), seed=run.seed,
        pipeline=pipeline, **extra,
    )
    result = run_hybrid(run.cfg, cfg, tracer=tracer)
    run.ops(result.losses)
    return result


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/repro_mp_{os.getpid()}_*")


def one_state(run: Run, what: str, results) -> None:
    digests = {r.state_digest() for r in results}
    run.check(f"{what} calls end in one state", len(digests) == 1, f"{len(digests)} digests")


def run_hybrid_workload(run: Run) -> None:
    w = run.w
    # The set-up calls: spawn + shards + fabric + the fixed digest steps +
    # teardown.  Their state digest is the workload's digest (the timed
    # calls run a host-dependent number of steps); their mean step and
    # launch cost size the timed calls.
    setups = [
        run.timed(lambda: hybrid_call(run, w.digest_steps, pipeline=w.pipeline), run.clock2)
        for _ in range(SETUP_REPS)
    ]
    run.series["setup_s"] = (None, [t for _, t in setups])
    one_state(run, "set-up", [r for r, _ in setups])
    run.digest = setups[0][0].state_digest()
    step_s = statistics.median(r.mean_step_s for r, _ in setups)
    launch_s = statistics.median(t.busy_s - r.steps * r.mean_step_s for r, t in setups)

    budget_s = TRAIN_SHARE * run.seconds / K_HYBRID
    steps = max(w.digest_steps, round((budget_s - launch_s) / step_s))
    calls = [
        run.timed(lambda: hybrid_call(run, steps, pipeline=w.pipeline), run.clock2)
        for _ in range(K_HYBRID)
    ]
    run.series["train_examples_per_s"] = (run.batch * steps, [t for _, t in calls])
    run.detail["train_steps_per_segment"] = steps
    one_state(run, "timed", [r for r, _ in calls])

    if w.pipeline:
        reference = hybrid_call(run, w.digest_steps, pipeline=False).state_digest()
        run.check(
            "state_digest equals the unpipelined run's", run.digest == reference,
            f"{run.digest[:12]} vs {reference[:12]}",
        )
    run.metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    leaked = leaked_segments()
    run.check("no /dev/shm segment left", not leaked, ", ".join(leaked))
    # The hybrid trainer has no inference path; this is the single-process
    # fast path at the hybrid shape, so the metric exists on every workload.
    run_infer(run, DLRM(run.cfg, rng=run.seed_for("model")))


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------


def timed_step(trainer, gen, batch_size: int) -> tuple[float, float]:
    """One ``Trainer.train_step`` on a fresh batch; ``(loss, seconds)``."""
    t0 = time.perf_counter()
    loss = trainer.train_step(gen.batch(batch_size))
    return loss, time.perf_counter() - t0


def mlp_flops_per_step(run: Run) -> float:
    """Forward + backward GEMM flops of both stacks and the scorer: the
    backward does two GEMMs (input and weight gradients) per forward one."""
    cfg = run.cfg
    weights = cfg.mlp_parameters - sum(cfg.bottom_mlp.layer_sizes) \
        - sum(cfg.top_mlp.layer_sizes) - 1  # drop the biases
    return 3 * 2 * run.batch * weights


def trace_train(run: Run) -> None:
    w, m = run.w, run.metrics
    min_steps = 2 if run.smoke else 6
    tracer = Tracer()
    m.update(hostprobe.ceilings(run.smoke))

    # Three identically seeded trainers take the same steps turn by turn,
    # so they meet the same host: the untraced `Trainer.train_step` (the base
    # of trace.overhead_pct, and the losses the layered step must reproduce
    # bit for bit), the layered step, and on the tiered workload a flat
    # trainer (the base of tiering.slowdown_x).
    plain, _ = set_up(run, pipeline=False, tiered=w.tiered)
    trainer, _ = set_up(run, pipeline=False, tiered=w.tiered)
    flat = set_up(run, pipeline=False, tiered=False)[0] if w.tiered else None
    plain_gen, gen, flat_gen = (generator(run, "trace") for _ in range(3))
    tiered_tables = [t for t in trainer.model.embedding_tables() if w.tiered]
    before = [t.stats.snapshot() for t in tiered_tables]
    plan_span = "tiering.plan" if w.tiered else "embedding.plan"
    clock = run.clock
    plain_losses, plain_s, flat_s = [], [], []
    losses, lookups, unique_rows = [], [], []
    t_end = time.perf_counter() + 0.6 * run.seconds
    while len(losses) < min_steps or time.perf_counter() < t_end:
        clock.tick()
        if flat is not None:
            flat_s.append(timed_step(flat, flat_gen, run.batch)[1])
        loss, seconds = timed_step(plain, plain_gen, run.batch)
        plain_losses.append(loss)
        plain_s.append(seconds)
        loss, batch, plans = layered_step(
            trainer, gen, run.batch, tracer, len(losses), plan_span
        )
        losses.append(loss)
        lookups.append(batch.total_lookups())
        unique_rows.append(sum(len(p.touched_rows()) for p in plans.values()))
    del plain, flat
    gc.collect()
    steps = len(losses)
    run.ops(losses)
    run.digest = loss_digest(losses)
    run.check(
        "layered step loss equals Trainer.train_step bit for bit",
        losses == plain_losses, f"{steps} steps",
    )

    median_ms, share, layered_ms = layer_table(tracer)
    for name in median_ms:
        if name != "step":
            m[f"{name}_ms"] = median_ms[name]
            m[f"{name}.share"] = share[name]
    m["step.layered_ms"] = layered_ms
    m["step.unattributed_ms"] = median_ms["step"]
    m["step.unattributed.share"] = share["step"]
    plain_ms = statistics.median(plain_s) * 1e3
    m["trace.overhead_pct"] = 100.0 * (layered_ms / plain_ms - 1.0)
    m["host.slowdown_x"] = clock.slowdown(0, clock.mark())
    run.check(
        "layer self times cover >= 90% of the layered step",
        share["step"] <= 0.10, f"unattributed {100 * share['step']:.1f}%",
    )

    m["embedding.lookups_per_step"] = statistics.mean(lookups)
    m["embedding.unique_rows_per_step"] = statistics.mean(unique_rows)
    row_bytes = run.cfg.embedding_dim * run.cfg.np_dtype.itemsize
    m["embedding.gather_gb_s"] = (
        statistics.median(lookups) * row_bytes / (m["embedding.fwd_ms"] * 1e-3) / 1e9
    )
    m["embedding.pct_of_gather"] = 100.0 * m["embedding.gather_gb_s"] / m["host.gather_gb_s"]
    mlp_ms = sum(m[f"mlp.{part}_ms"] for part in ("bottom_fwd", "bottom_bwd", "top_fwd", "top_bwd"))
    m["mlp.gflops"] = mlp_flops_per_step(run) / (mlp_ms * 1e-3) / 1e9
    m["mlp.pct_of_sgemm"] = 100.0 * m["mlp.gflops"] / m["host.sgemm_gflops"]

    if w.tiered:
        delta = [t.stats.delta(b) for t, b in zip(tiered_tables, before)]
        accesses = sum(d.accesses for d in delta)
        m["tiering.slowdown_x"] = plain_ms / (statistics.median(flat_s) * 1e3)
        m["tiering.hit_rate"] = sum(d.hot_hits for d in delta) / accesses
        m["tiering.promotions_per_step"] = sum(d.promotions for d in delta) / steps
        m["tiering.rejected_per_step"] = sum(d.rejected for d in delta) / steps
        m["tiering.sim_overhead_s"] = sum(d.overhead_s for d in delta)

    trace_infer_alloc_checkpoint(run, trainer, tracer, gen)
    if w.pipeline:
        del trainer
        gc.collect()
        steps = 4 if run.smoke else 20
        piped, _ = set_up(run, pipeline=True, tiered=w.tiered, tracer=tracer)
        ledger = piped.train(batches(run, "trace"), max_steps=steps).pipeline
        for name in ("prep_busy_s", "prep_stall_s", "compute_stall_s", "overlap_fraction"):
            m[f"pipeline.{name}"] = ledger[name]
    export_trace(run, tracer)


def trace_infer_alloc_checkpoint(run: Run, trainer, tracer, gen) -> None:
    m = run.metrics
    model = trainer.model
    pool = [gen.batch(run.batch) for _ in range(INFER_POOL)]
    model.predict_proba(pool[0])
    times = []
    for i, batch in enumerate(pool):
        with tracer.span("infer.fwd", "compute", step=i) as span:
            run.ops(model.predict_proba(batch).sum())
        times.append(span.duration)
    m["infer.fwd_ms"] = statistics.median(times) * 1e3

    extra = 10
    tracemalloc.start()
    trainer.train_step(gen.batch(run.batch))
    base, _ = tracemalloc.get_traced_memory()
    for _ in range(extra):
        trainer.train_step(gen.batch(run.batch))
    now, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    m["alloc.steady_kb_per_step"] = (now - base) / extra / 1024.0

    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        path = os.path.join(tmp, "ckpt.npz")
        with tracer.span("checkpoint.save", "io") as span:
            m["checkpoint.bytes"] = float(trainer.save_checkpoint(path))
        m["checkpoint.save_ms"] = span.duration * 1e3
        with tracer.span("checkpoint.load", "io") as span:
            trainer.load_checkpoint(path)
        m["checkpoint.load_ms"] = span.duration * 1e3


def export_trace(run: Run, tracer) -> None:
    path = RESULTS / f"{run.w.name}.trace.json"
    run.detail["trace_file"] = str(path.relative_to(RESULTS.parent.parent))
    run.detail["trace_events"] = tracer.export_chrome(str(path))


def _allreduce_rank(rank, left, right, elems, reps, out) -> None:
    from repro.distributed.mp import ordered_allreduce

    buf = np.full(elems, float(rank), dtype=np.float32)
    scratch = np.empty_like(buf)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        ordered_allreduce(rank, 2, left, right, buf, scratch)
        times.append(time.perf_counter() - t0)
    out.put(statistics.median(times))


def probe_ordered_allreduce(elems: int, reps: int = 20) -> float:
    """Median seconds of one 2-rank ``ordered_allreduce`` of ``elems`` f32,
    on the slower rank, across two forked processes on a socketpair ring."""
    import multiprocessing as mp

    from repro.distributed.mp import Channel

    ctx = mp.get_context("fork")
    pairs = [Channel.pair() for _ in range(2)]
    out = ctx.Queue()
    procs = [
        ctx.Process(
            target=_allreduce_rank,
            args=(r, pairs[(r - 1) % 2][1], pairs[r][0], elems, reps, out),
        )
        for r in range(2)
    ]
    for p in procs:
        p.start()
    for pair in pairs:
        for chan in pair:
            chan.close()
    try:
        return max(out.get(timeout=60) for _ in procs)
    finally:
        for p in procs:
            p.join(timeout=30)
            if p.is_alive():
                p.kill()
                p.join()


def trace_hybrid(run: Run) -> None:
    from repro.distributed.mp import (
        TableShards, build_resume, latest_valid_manifest, probe_comm,
    )

    w, m = run.w, run.metrics
    tracer = Tracer()
    m.update(hostprobe.ceilings(run.smoke))
    steps, every = (4, 2) if run.smoke else (40, 20)
    with tempfile.TemporaryDirectory(dir=RESULTS) as ckpt_dir:
        with tracer.span("hybrid.run", "iteration", steps=steps):
            result, timing = run.timed(lambda: hybrid_call(
                run, steps, pipeline=w.pipeline, tracer=tracer,
                checkpoint_every=every, checkpoint_dir=ckpt_dir,
            ), run.clock2)
        t0 = time.perf_counter()
        manifest = latest_valid_manifest(ckpt_dir, world=w.workers)
        resume = build_resume(manifest, ckpt_dir) if manifest is not None else None
        m["mp_ckpt.restore_ms"] = (time.perf_counter() - t0) * 1e3
        run.check(
            "last checkpoint restores", resume is not None and resume.step == steps,
            f"manifest {manifest.step if manifest else None}",
        )
    run.digest = result.state_digest()
    m["mp_ckpt.write_ms"] = statistics.median(s for _, s in result.checkpoints) * 1e3

    for phase in ("forward", "backward", "sparse_exchange", "dense_wait",
                  "optimizer", "barrier", "prep_wait"):
        m[f"hybrid.phase.{phase}_ms"] = result.phase_s[phase] / steps * 1e3
    m["hybrid.comm_ms"] = result.comm_s / steps * 1e3
    m["hybrid.best_step_ms"] = result.step_time_s * 1e3
    m["hybrid.mean_step_ms"] = result.mean_step_s * 1e3
    m["hybrid.launch_s"] = timing.busy_s - steps * result.mean_step_s
    m["host.slowdown_x"] = timing.clock.slowdown(timing.start, timing.stop)
    dense_bytes = run.cfg.mlp_parameters * run.cfg.np_dtype.itemsize
    m["hybrid.dense_bytes_per_step"] = float(dense_bytes * 2 * (w.workers - 1))
    if result.pipeline is not None:
        for name in ("prep_busy_s", "prep_stall_s", "compute_stall_s", "overlap_fraction"):
            m[f"pipeline.{name}"] = result.pipeline[name]

    comm = probe_comm()
    m["channels.latency_us"] = comm.latency_s * 1e6
    m["channels.bandwidth_mb_s"] = comm.bandwidth_bps / 1e6
    m["channels.barrier_us"] = comm.barrier_s * 1e6
    m["channels.frame_fixed_us"] = comm.frame_fixed_s * 1e6
    m["channels.frame_ns_per_byte"] = comm.frame_byte_s * 1e9
    m["allreduce.hop_overhead_us"] = comm.hop_overhead_s * 1e6
    with tracer.span("allreduce.ordered_probe", "comm"):
        m["allreduce.ordered_ms"] = probe_ordered_allreduce(run.cfg.mlp_parameters) * 1e3

    model = DLRM(run.cfg, rng=run.seed_for("model"))
    weights = {t.spec.name: t.weight for t in model.embedding_tables()}
    with tracer.span("shards.create", "memory") as span:
        shards = TableShards.create(weights)
    m["shards.create_ms"] = span.duration * 1e3
    m["shards.bytes"] = float(shards.total_bytes)
    shards.close()
    leaked = leaked_segments()
    run.check("no /dev/shm segment left", not leaked, ", ".join(leaked))
    export_trace(run, tracer)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")
    RESULTS.mkdir(exist_ok=True)
    run = Run(BY_NAME[args.workload], args)
    if run.w.hybrid:
        (trace_hybrid if args.trace else run_hybrid_workload)(run)
    else:
        (trace_train if args.trace else run_train)(run)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
