"""True multi-process hybrid-parallel DLRM training.

The execution style of Kalamkar et al.'s CPU-cluster DLRM training,
realized with OS processes instead of an analytic model:

* **Embedding tables are model-parallel.**  Every table's weights and
  Adagrad accumulator live in shared memory (:mod:`.shards`); all workers
  read rows zero-copy during the forward, and each table's *owner* rank
  applies the merged sparse update.  Workers ship their local sparse
  gradients to owners over pairwise mesh channels.
* **MLPs are data-parallel.**  Every worker holds an identical replica
  (the parent's seeded model, inherited copy-on-write through ``fork``)
  and trains on its own slice of the global batch; dense
  gradients are allreduced (:mod:`.allreduce`) as one packed bucket per
  step, around the ring of each rank's mesh channels to its neighbours.

The training step is not in this module: each worker runs
:meth:`repro.core.training.Trainer.train_step` and communicates once per
step, at the ``"grads"`` stage right before the optimizer — the sparse
exchange, then the dense allreduce, both blocking calls on the worker's
main thread, the only thread that touches a data socket.  The worker's own
loop only orders the next-batch pull (and its prep), checkpoint and
barrier around the step.  Besides its main thread a worker runs only the
drain watcher.

One socket joins each pair of ranks (the mesh).  The sparse exchange, the
allreduce (over the channels to ``rank - 1`` and ``rank + 1``), the
checkpoint's digest gather and the step barrier
(:func:`~.channels.barrier`) all use it, one after another on the main
thread, over ordered byte streams.  Besides the mesh, each rank has one
link to the parent: reports and heartbeats go up it, the poison comes
down it.  Every blocking wait of a worker is a socket wait.

Determinism contract (pinned by ``tests/test_mp.py``): with the
``"ordered"`` reduction an N-worker run is **bit-identical** — losses,
dense parameters, and embedding shards — to :func:`run_hybrid_serial`:
the plain :class:`~repro.core.training.Trainer` in one process, stepping
the seeded per-rank sub-batches as micro-batches, in float64 *and*
float32.  Against a plain
full-batch serial trainer the match is tolerance-bounded (chunked
sub-batch GEMMs sum in a different order than one full-batch GEMM).

Fault tolerance (``tests/test_mp_ft.py``): with ``checkpoint_every`` set,
each rank writes its owned shards (plus rank 0's dense replica) to
per-rank files and rank 0 atomically commits a manifest (:mod:`.ckpt`);
a run resumed from that manifest (``resume=``) extends the bit-identity
contract across a real SIGKILL.  A dead peer is seen at once as EOF on
its mesh channel.  On any worker death the parent also poisons the
survivors over their links; a watcher thread in each worker, blocked on
its link, shuts down the mesh sockets, so survivors **drain** within
``drain_timeout_s``.  A hung peer is caught by ``collect_timeout_s``, like
every other hang.  :mod:`.ft` builds capped elastic restarts on top.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
import pathlib
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection

import numpy as np

from ...core import DLRM, Adagrad, Trainer
from ...core.checkpoint import restore_arrays, state_arrays, write_checkpoint
from ...core.config import ModelConfig
from ...core.lanes import blas_threads, free_cores, lane_count, take_share
from ...core.training import prep_ledger
from ...data import SyntheticDataGenerator
from ...obs.tracer import NULL_TRACER, Tracer
from ...runtime.runner import derive_seed
from . import ckpt
from .allreduce import PackedAllreduce
from .channels import Channel, barrier, transfer
from .shards import ShardPlan, TableShards
from .sparse_exchange import SparseExchange
from .timeouts import get_timeouts

__all__ = [
    "HybridRunConfig",
    "HybridResult",
    "KillSpec",
    "WorkerCrashError",
    "run_hybrid",
    "run_hybrid_serial",
]

_PHASES = ("forward", "loss", "backward", "sparse_exchange", "dense_wait",
           "optimizer", "checkpoint", "prep_wait", "barrier")
#: :meth:`Trainer.train_step` spans whose phase is not their own name.
_SPAN_PHASE = dict(model_forward="forward", loss_forward="loss",
                   loss_backward="backward", model_backward="backward",
                   optimizer_step="optimizer")

@dataclass(frozen=True)
class HybridRunConfig:
    """One hybrid-parallel training run.

    ``batch_size`` is the *global* batch; each worker trains on
    ``batch_size // workers`` examples per step from its own seeded
    stream (``derive_seed(seed, "data", rank)``).

    ``checkpoint_every`` > 0 writes a sharded checkpoint after every N
    global steps into ``checkpoint_dir`` (required then); on a worker
    death, survivors are poisoned and must drain within
    ``drain_timeout_s``.  ``collect_timeout_s`` is the no-progress
    backstop: the one bound on a worker that hangs without dying.

    ``pipeline`` moves no work: every worker pulls and plans its batches
    inline, on its main thread.  It only asks for
    :attr:`HybridResult.pipeline`, the run's prep ledger.
    """

    workers: int = 2
    steps: int = 4
    batch_size: int = 256
    lr: float = 0.01
    seed: int = 0
    reduction: str = "ordered"  # "ordered" (bit-deterministic) | "ring"
    warmup_steps: int = 1
    collect_timeout_s: float = 600.0
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    drain_timeout_s: float = 30.0
    pipeline: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < self.workers:
            raise ValueError(
                f"batch_size {self.batch_size} gives each of {self.workers} "
                f"workers no examples"
            )
        if self.batch_size % self.workers:
            raise ValueError(
                f"batch_size {self.batch_size} not divisible by "
                f"{self.workers} workers"
            )
        if self.reduction not in ("ordered", "ring"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError("checkpoint_every > 0 requires checkpoint_dir")
        for name in ("collect_timeout_s", "drain_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def local_batch(self) -> int:
        return self.batch_size // self.workers


@dataclass(frozen=True)
class KillSpec:
    """One injected real-process death for the fault harness.

    ``rank`` dies during global step ``step`` at ``phase``:

    * ``"loss"`` — right after the loss forward (no rank has applied the
      step yet);
    * ``"allreduce"`` — after the sparse exchange, right before this
      rank's dense allreduce, so peers observe the death *inside* the ring
      protocol;
    * ``"checkpoint"`` — between a checkpoint file's temp-write and its
      rename (rank 0: the manifest; others: their shard file) — the torn-
      commit window the atomicity contract must survive.

    ``action`` is a real ``SIGKILL`` (no atexit, no finally) or an
    ``os._exit(exit_code)``.  ``attempt`` scopes the kill to one restart
    attempt (0 = the first run), so an elastic restart does not
    re-trigger it.
    """

    rank: int
    step: int
    phase: str = "loss"
    action: str = "sigkill"
    exit_code: int = 41
    attempt: int = 0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.phase not in ("loss", "allreduce", "checkpoint"):
            raise ValueError(f"unknown kill phase {self.phase!r}")
        if self.action not in ("sigkill", "exit"):
            raise ValueError(f"unknown kill action {self.action!r}")
        if self.attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {self.attempt}")


def _execute_kill(spec: KillSpec | None) -> None:
    if spec is None:
        return
    if spec.action == "exit":
        os._exit(spec.exit_code)
    os.kill(os.getpid(), signal.SIGKILL)


@dataclass
class WorkerReport:
    """What one worker sends back to the parent over its link."""

    rank: int
    losses: list[float]
    step_s: list[float]
    phase_s: dict[str, float]
    dense_digest: str
    #: sha256 over each table this rank owns, after its last step.
    table_digests: dict[str, str]
    #: ``(lane_count(), blas_threads())`` as the rank read them once it
    #: took its share of the cores.
    cores: tuple[int, int | None]


@dataclass
class HybridResult:
    """Outcome of a hybrid run (multi-process or the serial reference)."""

    workers: int
    steps: int
    batch_size: int
    reduction: str
    losses: list[float]  # combined global loss per step
    per_rank_losses: list[list[float]]
    step_time_s: float  # best post-warmup step wall time
    mean_step_s: float
    phase_s: dict[str, float]  # max over ranks, per phase
    comm_s: float  # max over ranks of sparse_exchange + dense_wait
    dense_digest: str  # sha256 over the dense parameters (rank 0 replica)
    table_digests: dict[str, str]  # sha256 over each embedding shard
    plan: ShardPlan | None = None
    #: committed checkpoints as ``(global step, max write seconds)``.
    checkpoints: list[tuple[int, float]] = field(default_factory=list)
    #: global step this run resumed from (0 = trained from scratch).
    resumed_from: int = 0
    #: prep ledger (:func:`~repro.core.training.prep_ledger`) of a run with
    #: ``pipeline=True``: the slowest rank's ``phase_s["prep_wait"]`` over
    #: the executed steps; ``None`` otherwise.
    pipeline: dict[str, float] | None = None
    #: each rank's ``(lanes, BLAS threads)`` (:attr:`WorkerReport.cores`);
    #: empty for the serial reference.
    per_rank_cores: list[tuple[int, int | None]] = field(default_factory=list)

    def state_digest(self) -> str:
        """One digest over all trained state (dense replica + shards)."""
        h = hashlib.sha256(self.dense_digest.encode())
        for name in sorted(self.table_digests):
            h.update(name.encode())
            h.update(self.table_digests[name].encode())
        return h.hexdigest()


class WorkerCrashError(RuntimeError):
    """A worker process died before delivering its report.

    ``rank``/``exitcode`` identify the primary casualty; ``dead`` lists
    every rank that died abnormally.  With the drain protocol, peers of a
    crashed worker normally exit 0 after filing a drain report —
    ``drained`` names them, ``progress`` maps every rank to its completed
    global steps, ``checkpoints`` lists the checkpoints committed before
    the crash, and ``drain_s`` is the measured detection-to-quiet time.
    """

    def __init__(
        self,
        rank: int,
        exitcode: int | None,
        dead: list[tuple[int, int | None]] | None = None,
        *,
        progress: dict[int, int] | None = None,
        drained: list[int] | None = None,
        checkpoints: list[tuple[int, float]] | None = None,
        drain_s: float = 0.0,
    ) -> None:
        dead = dead or [(rank, exitcode)]
        super().__init__(
            f"mp worker rank {rank} died (exitcode {exitcode}); "
            f"dead ranks: {dead}"
        )
        self.rank = rank
        self.exitcode = exitcode
        self.dead = dead
        self.progress = dict(progress or {})
        self.drained = list(drained or [])
        self.checkpoints = list(checkpoints or [])
        self.drain_s = drain_s


# ---------------------------------------------------------------------------
# IPC fabric: every endpoint of one run, built pre-fork
# ---------------------------------------------------------------------------


class _Fabric:
    """Mesh channels and one link per rank for ``world`` workers.

    Built in the parent before ``fork``; each child calls :meth:`isolate`
    to close every endpoint it does not own, and the parent calls
    :meth:`close_parent_side` right after spawning — so a dead worker's
    peers see EOF instead of hanging on a socket the parent still holds.
    A rank's link is one duplex pipe: its reports and heartbeats go up,
    and :meth:`poison` sends the drain frame down when a casualty is
    detected.  Mesh endpoints are tagged with their peer rank so channel
    errors can name the dead neighbor.  The allreduce's ring is the mesh
    too: a rank's left and right are its channels to ``rank - 1`` and
    ``rank + 1`` (one and the same at ``world == 2``).
    """

    def __init__(self, world: int, ctx) -> None:
        self.world = world
        self.mesh_pairs: dict[tuple[int, int], tuple[Channel, Channel]] = {}
        # links[r]: (parent end, rank end)
        self.links = []
        try:
            for i in range(world):
                for j in range(i + 1, world):
                    a, b = self.mesh_pairs[(i, j)] = Channel.pair()
                    a.peer, b.peer = j, i
            for _ in range(world):
                self.links.append(ctx.Pipe())
        except BaseException:
            self.close_all()  # the endpoints made so far
            raise

    def mesh(self, rank: int) -> dict[int, Channel]:
        out: dict[int, Channel] = {}
        for (i, j), (a, b) in self.mesh_pairs.items():
            if i == rank:
                out[j] = a
            elif j == rank:
                out[i] = b
        return out

    def poison(self, rank: int) -> None:
        """Tell ``rank`` (from the parent) to drain."""
        try:
            self.parent_conn(rank).send_bytes(b"drain")
        except OSError:
            pass  # already dead — nothing to poison

    def parent_conn(self, rank: int):
        return self.links[rank][0]

    def child_conn(self, rank: int):
        return self.links[rank][1]

    def _owned_by(self, rank: int) -> set[Channel]:
        return set(self.mesh(rank).values())

    def _all_channels(self) -> list[Channel]:
        return [c for pair in self.mesh_pairs.values() for c in pair]

    def isolate(self, rank: int) -> None:
        """Close (in a forked child) every endpoint not owned by ``rank``."""
        owned = self._owned_by(rank)
        for ch in self._all_channels():
            if ch not in owned:
                ch.close()
        for r, (parent_end, child_end) in enumerate(self.links):
            parent_end.close()
            if r != rank:
                child_end.close()

    def close_parent_side(self) -> None:
        """Close (in the parent) the mesh and the ranks' link ends — but
        keep the parent's link ends for reports and poison."""
        for ch in self._all_channels():
            ch.close()
        for _, child_end in self.links:
            child_end.close()

    def close_all(self) -> None:
        self.close_parent_side()
        for parent_end, _ in self.links:
            parent_end.close()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _dense_digest(model: DLRM) -> str:
    h = hashlib.sha256()
    for p in model.dense_parameters():
        h.update(np.ascontiguousarray(p.value))
    return h.hexdigest()


def _fold_spans(tracer: Tracer, phase_s: dict[str, float]) -> None:
    """Add every span's *self* time (duration minus its child spans) to its
    phase and drop the spans — the worker's one timing mechanism, in bounded
    memory.  Call with no span open."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    for s, child_s in zip(spans, covered):
        phase = _SPAN_PHASE.get(s.name, s.name)
        if phase in phase_s:  # "train_step" itself is no phase
            phase_s[phase] += s.duration - child_s
    spans.clear()


def _watch_link(conn, channels, finished) -> None:
    """Worker watcher thread: block on the rank's link; on a poison frame
    (or parent death), shut down every mesh socket so the main thread
    unwedges wherever it is blocked."""
    try:
        conn.recv_bytes()
    except (EOFError, OSError):
        pass  # parent closed the link (run over) or died
    if finished.is_set():
        return
    for ch in channels:
        try:
            ch.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def _worker_main(
    rank: int,
    world: int,
    model: DLRM,
    run: HybridRunConfig,
    plan: ShardPlan,
    shards: TableShards,
    fabric: _Fabric,
    kills: list[KillSpec] | None = None,
    resume: ckpt.ResumeState | None = None,
) -> None:
    # first of all, this rank's share of the parent's free cores: its lanes
    # and BLAS threads fit in it
    take_share(free_cores() // world)
    cores = (lane_count(), blas_threads())
    config = model.config
    conn = fabric.child_conn(rank)
    fabric.isolate(rank)
    # ``model`` is the parent's seeded model, inherited through fork: every
    # table is a view of its shared segment, so every rank reads all tables
    # straight out of shared memory; only owned tables are ever written by
    # this rank.
    owned = plan.owned(rank)
    optimizer = Adagrad(
        model.dense_parameters(),
        [model.embeddings.tables[n] for n in owned],
        lr=run.lr,
        backend=model.backend,
        accumulators=[shards.view(n, "accum") for n in owned],
    )

    start = 0
    losses: list[float] = []
    if resume is not None:
        # Before the spawn rendezvous every rank restores what it holds: its dense
        # replica and slots, and the shared segments of the tables it owns.
        start = resume.step
        losses = list(resume.per_rank_losses[rank])  # one entry per resumed step
        restore_arrays(resume.arrays, model, optimizer, tables=owned)

    # Every step takes a batch and its lookup plans, pulled and planned
    # inline.  batch_stream consumes the rng exactly like generating all
    # ``run.steps`` batches and dropping the replayed prefix, so a resumed
    # run sees the uninterrupted run's data order.
    gen = SyntheticDataGenerator(config, rng=derive_seed(run.seed, "data", rank))
    stream = gen.batch_stream(run.local_batch, run.steps, skip=start)
    plan_batch = model.embeddings.plan_batch
    mesh = fabric.mesh(rank)
    allreduce = PackedAllreduce(
        rank, world, mesh.get((rank - 1) % world), mesh.get((rank + 1) % world),
        [p.grad for p in model.dense_parameters()], mode=run.reduction,
    )
    tables = model.embeddings.tables
    sparse = SparseExchange(
        rank, world, plan, mesh,
        {name: table.weight.shape[1] for name, table in tables.items()},
        model.dtype,
    )
    my_kills = {
        (k.step, k.phase): k for k in (kills or []) if k.rank == rank
    }
    ckpt_dir = pathlib.Path(run.checkpoint_dir) if run.checkpoint_dir else None
    step_s: list[float] = []
    phase_s = dict.fromkeys(_PHASES, 0.0)

    finished = threading.Event()
    watcher = threading.Thread(
        target=_watch_link,
        args=(conn, list(mesh.values()), finished),
        name=f"mp-drain-watch-{rank}",
        daemon=True,
    )
    watcher.start()

    tracer = Tracer()

    class ReplicaTrainer(Trainer):
        """:meth:`Trainer.train_step` over this rank's replica: both
        gradient exchanges happen where the optimizer needs their result."""

        world = fabric.world

        def on_stage(self, stage: str) -> None:
            gstep = start + self.step_index
            if stage == "loss":
                _execute_kill(my_kills.get((gstep, "loss")))
            elif stage == "grads":
                with tracer.span("sparse_exchange", "comm"):
                    merged = sparse.exchange(
                        {name: table.pop_grad() for name, table in tables.items()}
                    )
                _execute_kill(my_kills.get((gstep, "allreduce")))
                with tracer.span("dense_wait", "comm"):
                    allreduce()
                # Each owned table gets the rank-order merge of all workers'
                # rows as its one gradient, the other tables were emptied
                # above: the update is the ordinary optimizer.step().
                for name, grad in merged.items():
                    if grad is not None:
                        tables[name].sparse_grads.append(grad)

    trainer = ReplicaTrainer(model, lambda _: optimizer, tracer=tracer)

    def commit_checkpoint(completed: int, kill_spec: KillSpec | None) -> None:
        """Persist this rank's shard for ``completed`` global steps and,
        on rank 0, gather digests and commit the manifest atomically."""
        def hook() -> None:
            _execute_kill(kill_spec)

        arrays = state_arrays(model, optimizer, tables=owned, dense=rank == 0)
        arrays[ckpt.LOSSES] = np.asarray(losses, dtype=np.float64)
        t0 = time.perf_counter()
        _, sha = write_checkpoint(
            ckpt_dir / ckpt.shard_filename(rank, completed), arrays,
            kill_hook=None if rank == 0 else hook, sha256=True,
        )
        if rank == 0:
            # every peer reports the digest of the shard it renamed (hex,
            # as long as this one); file names and owned tables follow
            # from the rank
            peers = [bytearray(len(sha)) for _ in range(1, world)]
            transfer([], [(mesh[r], blob) for r, blob in enumerate(peers, 1)])
            digests = [sha] + [blob.decode() for blob in peers]
            manifest = ckpt.Manifest(
                step=completed,
                world=world,
                total_steps=run.steps,
                batch_size=run.batch_size,
                seed=run.seed,
                reduction=run.reduction,
                dtype=str(np.dtype(config.np_dtype)),
                shards=tuple(
                    ckpt.ShardEntry(
                        r, ckpt.shard_filename(r, completed), digest,
                        tuple(plan.owned(r)),
                    )
                    for r, digest in enumerate(digests)
                ),
            )
            ckpt.write_manifest(ckpt_dir, manifest, kill_hook=hook)
        else:
            transfer([(mesh[0], sha.encode())], [])
        # The "ckpt" heartbeat doubles as the commit record: rank 0 sends
        # only after the manifest rename, so the parent counts a
        # checkpoint exactly when it became restorable.
        conn.send(("ckpt", rank, completed, time.perf_counter() - t0))

    try:
        barrier(mesh.values())  # the spawn rendezvous
        with tracer.span("prep_wait", "pipeline"):
            batch = next(stream)
            plans = plan_batch(batch.sparse)
        for gstep in range(start, run.steps):
            t_step = time.perf_counter()
            loss_val = trainer.train_step(batch, plans)
            losses.append(loss_val)
            conn.send(("step", rank, gstep + 1, loss_val))
            if run.checkpoint_every and (gstep + 1) % run.checkpoint_every == 0:
                # After the optimizer, before the barrier: every rank
                # serializes only state it wrote itself this step, so the
                # snapshot is consistent without an extra barrier.
                with tracer.span("checkpoint", "io"):
                    commit_checkpoint(gstep + 1, my_kills.get((gstep, "checkpoint")))
            if gstep + 1 < run.steps:
                # Pull and prep the next batch before the barrier, so a
                # rank that is ahead preps while it would otherwise wait
                # (prep_wait is this rank's whole prep stage).
                with tracer.span("prep_wait", "pipeline"):
                    batch = next(stream)
                    plans = plan_batch(batch.sparse)
            # All shard writes must land before any rank's next forward.
            with tracer.span("barrier", "comm"):
                barrier(mesh.values())
            _fold_spans(tracer, phase_s)
            step_s.append(time.perf_counter() - t_step)
        finished.set()
        conn.send(("report", WorkerReport(
            rank=rank,
            losses=losses,
            step_s=step_s,
            phase_s=phase_s,
            dense_digest=_dense_digest(model),
            # the final barrier is behind us, but an owned table is written
            # by no other rank: its digest is final since our last step
            table_digests={name: shards.digest(name, "weight") for name in owned},
            cores=cores,
        )))
    except OSError as err:
        # A peer died (a channel EOF: ChannelClosed is an OSError) or the
        # parent poisoned us (a socket error from the watcher's shutdown):
        # report what completed and exit cleanly.
        finished.set()
        suspect = getattr(err, "peer", None)
        try:
            conn.send(
                ("drained", rank, len(losses), list(losses),
                 suspect, repr(err))
            )
        except OSError:  # pragma: no cover - parent is gone too
            pass
    finally:
        # The link stays open until the process exits: the watcher may
        # still be reading it.
        for ch in mesh.values():
            ch.close()


# ---------------------------------------------------------------------------
# parent orchestrator
# ---------------------------------------------------------------------------


def _combine_losses(per_rank: list[list[float]], steps: int) -> list[float]:
    """Global per-step loss: rank-order left-associative sum / W — the same
    association the serial reference uses, so f64 losses match bitwise."""
    world = len(per_rank)
    out = []
    for t in range(steps):
        acc = per_rank[0][t]
        for r in range(1, world):
            acc = acc + per_rank[r][t]
        out.append(acc / world)
    return out


def _committed_checkpoints(
    ckpt_events: list[tuple[int, int, float]],
) -> list[tuple[int, float]]:
    """Aggregate per-rank "ckpt" heartbeats into committed checkpoints.

    A checkpoint exists only once rank 0 renamed the manifest (its event
    fires after the commit); the recorded cost is the max write time over
    all ranks at that step — the straggler defines the stall.
    """
    committed = sorted({step for r, step, _ in ckpt_events if r == 0})
    return [
        (step, max(secs for _, s, secs in ckpt_events if s == step))
        for step in committed
    ]


def _crash_error(
    procs,
    progress: dict[int, int] | None = None,
    drained: dict[int, tuple] | None = None,
    ckpt_events: list[tuple[int, int, float]] | None = None,
    drain_s: float = 0.0,
) -> WorkerCrashError:
    """Build the crash report, attributing blame to the primary casualty.

    Preference order: a rank that died from a signal or an explicit
    ``os._exit`` code (exitcode != 1) over plain exitcode-1 deaths, over
    cleanly-drained survivors.  When *every* process drained cleanly (all
    exit 0), the suspect peer named by the drain reports — the rank whose
    channel EOF'd first — takes the blame; that is the same rank an
    exitcode scan would name had the survivors died of broken pipes.
    """
    timeouts = get_timeouts()
    for p in procs:
        p.join(timeout=timeouts.reap_s)
    drained = drained or {}
    dead = [
        (r, p.exitcode) for r, p in enumerate(procs) if p.exitcode not in (0, None)
    ]
    if dead:
        primary = next(
            (d for d in dead if d[1] is not None and d[1] != 1), dead[0]
        )
    else:
        suspects = [m[4] for m in drained.values() if m[4] is not None]
        rank = suspects[0] if suspects else (
            next(iter(sorted(drained)), 0)
        )
        exitcode = procs[rank].exitcode if rank < len(procs) else None
        primary = (rank, exitcode)
        dead = [primary]
    return WorkerCrashError(
        primary[0], primary[1], dead,
        progress=progress,
        drained=sorted(drained),
        checkpoints=_committed_checkpoints(ckpt_events or []),
        drain_s=drain_s,
    )


def _find_casualty(procs, reports, drained, fabric: _Fabric, open_conns):
    """First rank that is dead (or spontaneously drained) without having
    delivered a report — with its link fully drained, so buffered final
    messages are never mistaken for a death."""
    for rank, p in enumerate(procs):
        if rank in reports:
            continue
        conn = fabric.parent_conn(rank)
        if conn in open_conns and conn.poll(0):
            continue  # buffered messages still pending — let them land
        if not p.is_alive():
            return rank
        if rank in drained:
            return rank  # drained spontaneously (peer death it observed)
    return None


def _supervise(
    procs, fabric: _Fabric, run: HybridRunConfig, start: int
) -> tuple[list[WorkerReport], list[tuple[int, int, float]]]:
    """Collect heartbeats and reports; detect deaths; poison and drain.

    The healthy path returns every rank's final report plus the "ckpt"
    commit events.  On a casualty the parent poisons all live workers,
    waits up to ``run.drain_timeout_s`` for them to file drain reports
    and exit, then raises the attributed :class:`WorkerCrashError` —
    ``collect_timeout_s`` is only the no-progress backstop.
    """
    world = len(procs)
    reports: dict[int, WorkerReport] = {}
    drained: dict[int, tuple] = {}
    progress: dict[int, int] = {r: start for r in range(world)}
    ckpt_events: list[tuple[int, int, float]] = []
    conn_rank = {fabric.parent_conn(r): r for r in range(world)}
    open_conns = set(conn_rank)
    poisoned = False
    drain_deadline = 0.0
    t_detect = 0.0
    deadline = time.monotonic() + run.collect_timeout_s
    while len(reports) < world:
        if open_conns:
            ready = mp_connection.wait(list(open_conns), timeout=0.05)
        else:
            ready = []
            time.sleep(0.005)
        for c in ready:
            rank = conn_rank[c]
            try:
                while c.poll(0):
                    msg = c.recv()
                    tag = msg[0]
                    if tag == "step":
                        progress[rank] = max(progress[rank], msg[2])
                    elif tag == "ckpt":
                        ckpt_events.append((msg[1], msg[2], msg[3]))
                    elif tag == "report":
                        reports[rank] = msg[1]
                        open_conns.discard(c)
                    elif tag == "drained":
                        drained[rank] = msg
                        progress[rank] = max(progress[rank], msg[2])
                        open_conns.discard(c)
            except (EOFError, OSError):
                open_conns.discard(c)
        if len(reports) == world:
            break
        if not poisoned:
            casualty = _find_casualty(procs, reports, drained, fabric, open_conns)
            if casualty is not None:
                t_detect = time.monotonic()
                for rank, p in enumerate(procs):
                    if p.is_alive():
                        fabric.poison(rank)
                poisoned = True
                drain_deadline = time.monotonic() + run.drain_timeout_s
        else:
            quiet = all(not p.is_alive() for p in procs) and not any(
                c.poll(0) for c in open_conns
            )
            if quiet or time.monotonic() > drain_deadline:
                raise _crash_error(
                    procs, progress, drained, ckpt_events,
                    time.monotonic() - t_detect,
                )
        if time.monotonic() > deadline:
            stuck = [r for r in range(world) if r not in reports]
            raise TimeoutError(
                f"mp workers {stuck} produced no report within "
                f"{run.collect_timeout_s:.0f}s"
            )
    return [reports[r] for r in range(world)], ckpt_events


def run_hybrid(
    config: ModelConfig,
    run: HybridRunConfig | None = None,
    tracer=None,
    *,
    kills: list[KillSpec] | None = None,
    resume: ckpt.ResumeState | None = None,
) -> HybridResult:
    """Train ``config`` across ``run.workers`` real OS processes.

    The parent allocates the shards from the config's table layouts and
    builds the run's one seeded model on them, each table drawn straight
    into its weight segment; every rank inherits that model through
    ``fork`` (its tables shared, its dense replica copy-on-write), builds
    its ``Adagrad`` on the accumulator segments of the tables it owns and,
    when ``resume`` is given, overwrites what it owns from the checkpoint's
    :class:`~repro.distributed.mp.ckpt.ResumeState`.  Each rank hashes the
    tables it owns; ``table_digests`` is their union in config order.  The
    shards and the channels are **always** released by the parent,
    including when the set-up fails or a worker crashes (the partial
    failure path raises :class:`WorkerCrashError` after cleanup).
    ``kills`` injects seeded
    real-process deaths (see :class:`KillSpec`); restart orchestration
    lives in :func:`repro.distributed.mp.ft.run_hybrid_ft`.
    """
    run = run or HybridRunConfig()
    tracer = tracer if tracer is not None else NULL_TRACER
    world = run.workers
    if resume is not None and not 0 <= resume.step < run.steps:
        raise ValueError(
            f"resume.step must be in [0, {run.steps}), got {resume.step}"
        )
    if run.checkpoint_dir:
        pathlib.Path(run.checkpoint_dir).mkdir(parents=True, exist_ok=True)
    plan = ShardPlan.greedy(config, world)
    shards = TableShards.allocate(
        {t.name: ((t.hash_size, t.dim), config.np_dtype) for t in config.tables}
    )
    start = resume.step if resume is not None else 0
    ctx = mp.get_context("fork")
    fabric: _Fabric | None = None
    procs = []
    timeouts = get_timeouts()
    try:
        # the one model, each table drawn straight into its weight segment
        model = DLRM(
            config, rng=derive_seed(run.seed, "model"),
            storage={t.name: shards.view(t.name, "weight") for t in config.tables},
        )
        fabric = _Fabric(world, ctx)
        procs = [
            ctx.Process(
                target=_worker_main,
                args=(rank, world, model, run, plan, shards, fabric, kills,
                      resume),
                name=f"mp-worker-{rank}",
            )
            for rank in range(world)
        ]
        for p in procs:
            p.start()
        del model  # the ranks hold it now: its views must not outlive the shards
        fabric.close_parent_side()
        reports, ckpt_events = _supervise(procs, fabric, run, start)
        for rank, p in enumerate(procs):
            p.join(timeout=timeouts.join_s)
            if p.exitcode not in (0, None):
                raise WorkerCrashError(rank, p.exitcode)
    except BaseException as exc:
        # the frames it unwound may hold views of the segments (a half-drawn
        # model, its storage): a held traceback must not reach them once the
        # segments are closed below
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=timeouts.reap_s)
            if p.exitcode is not None:
                # its sentinel pipes now: a crash's traceback keeps `procs`
                # (and so the descriptors) alive for as long as it is held
                p.close()
        if fabric is not None:
            fabric.close_all()
        # nor may this frame, which that traceback keeps alive too: not the
        # model, nor an unstarted process's arguments (which hold it)
        model = procs = None
        shards.close()

    owned = {name: d for r in reports for name, d in r.table_digests.items()}
    table_digests = {t.name: owned[t.name] for t in config.tables}
    per_rank = [r.losses for r in reports]  # a resumed rank reports its whole history
    executed = run.steps - start
    # representative step time: per step take the max across ranks (the
    # barrier makes the slowest rank the step's wall time), then the best
    # post-warmup step (the harness's best-of estimator).
    per_step_wall = [
        max(r.step_s[t] for r in reports) for t in range(executed)
    ]
    effective = per_step_wall[run.warmup_steps:] or per_step_wall
    phase_max = {
        ph: max(r.phase_s[ph] for r in reports) for ph in _PHASES
    }
    checkpoints = _committed_checkpoints(ckpt_events)
    for r in reports:
        cursor = 0.0
        for ph in _PHASES:
            tracer.record(
                f"mp.{ph}",
                "comm" if ph in ("sparse_exchange", "dense_wait", "barrier")
                else ("io" if ph == "checkpoint"
                      else ("pipeline" if ph == "prep_wait" else "compute")),
                cursor,
                r.phase_s[ph],
                tid=r.rank + 1,
                rank=r.rank,
            )
            cursor += r.phase_s[ph]
    for step, secs in checkpoints:
        tracer.record("mp.ft.checkpoint", "io", 0.0, secs, tid=0, step=step)
    return HybridResult(
        workers=world,
        steps=run.steps,
        batch_size=run.batch_size,
        reduction=run.reduction,
        losses=_combine_losses(per_rank, run.steps),
        per_rank_losses=per_rank,
        step_time_s=min(effective),
        mean_step_s=sum(effective) / len(effective),
        phase_s=phase_max,
        comm_s=max(
            r.phase_s["sparse_exchange"] + r.phase_s["dense_wait"] for r in reports
        ),
        dense_digest=reports[0].dense_digest,
        table_digests=table_digests,
        plan=plan,
        checkpoints=checkpoints,
        resumed_from=start,
        pipeline=prep_ledger(phase_max["prep_wait"], executed) if run.pipeline else None,
        per_rank_cores=[r.cores for r in reports],
    )


# ---------------------------------------------------------------------------
# the serial reference: same partition, same math, one process
# ---------------------------------------------------------------------------


def run_hybrid_serial(
    config: ModelConfig, run: HybridRunConfig | None = None
) -> HybridResult:
    """Single-process reference executing the *same fixed partition*.

    A plain :class:`~repro.core.training.Trainer` (Adagrad over every
    table) whose every step takes the W ranks' sub-batches, from the
    streams the workers pull, as micro-batches: gradients accumulate in
    rank order, exactly the ``"ordered"`` allreduce association.
    ``run_hybrid`` with ``reduction="ordered"`` matches this bit-for-bit
    in f64 and f32; ``"ring"`` matches at W=2 and is tolerance-bounded
    beyond.
    """
    run = run or HybridRunConfig()
    model = DLRM(config, rng=derive_seed(run.seed, "model"))
    trainer = Trainer(model, lambda m: Adagrad(
        m.dense_parameters(), m.embedding_tables(), lr=run.lr, backend=m.backend
    ))
    streams = [
        SyntheticDataGenerator(config, rng=derive_seed(run.seed, "data", r))
        .batch_stream(run.local_batch, run.steps)
        for r in range(run.workers)
    ]
    step_losses: list[list[float]] = []
    step_s: list[float] = []
    for _ in range(run.steps):
        micro = [next(s) for s in streams]
        t0 = time.perf_counter()
        step_losses.append(trainer.train_step(micro))
        step_s.append(time.perf_counter() - t0)
    per_rank = [list(losses) for losses in zip(*step_losses)]
    effective = step_s[run.warmup_steps:] or step_s
    table_digests = {
        t.name: hashlib.sha256(model.embeddings.tables[t.name].weight).hexdigest()
        for t in config.tables
    }
    return HybridResult(
        workers=run.workers,
        steps=run.steps,
        batch_size=run.batch_size,
        reduction="serial",
        losses=_combine_losses(per_rank, run.steps),
        per_rank_losses=per_rank,
        step_time_s=min(effective),
        mean_step_s=sum(effective) / len(effective),
        phase_s=dict.fromkeys(_PHASES, 0.0),
        comm_s=0.0,
        dense_digest=_dense_digest(model),
        table_digests=table_digests,
        plan=None,
    )
