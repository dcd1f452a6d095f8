"""Elastic restart orchestration for the multi-process hybrid trainer.

:func:`run_hybrid_ft` wraps :func:`~repro.distributed.mp.hybrid.run_hybrid`
with the full fault-tolerance loop the analytical resilience layer only
models:

1. run with sharded checkpointing enabled (:mod:`.ckpt`);
2. on a :class:`~repro.distributed.mp.hybrid.WorkerCrashError` — a real
   worker death, detected and drained by the parent — consult the
   :class:`RestartPolicy`: if restarts remain, sleep a seeded backoff
   (reusing :class:`~repro.resilience.retry.RetryPolicy`), locate the
   newest valid manifest, and respawn the **full worker set** from it;
3. account every step into a
   :class:`~repro.resilience.recovery.GoodputLedger` — credits, the
   checkpoint watermark, and the rollback at each crash — so the measured
   recovery cost and goodput of a real kill cross-validate against
   ``recovery.checkpoint_write_time_s`` / ``expected_goodput_fraction``.

The restarted run extends the bit-identity contract: resuming from step k
of a W-worker ``"ordered"`` run reproduces the uninterrupted run's losses
and every table/dense digest exactly (f64 and f32), because the resume
path replays the same seeded batch streams and restores every trained
array byte-for-byte.

:func:`kills_from_plan` bridges the declarative
:class:`~repro.resilience.faults.FaultPlan` vocabulary onto real-process
kills: TRAINER fault events become :class:`KillSpec`\\ s (``time_s`` is
interpreted as a global step index), so the same plan object that drives
the event-level simulator can SIGKILL actual workers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ...core.config import ModelConfig
from ...resilience.faults import ComponentKind, FaultInjector, FaultPlan
from ...resilience.recovery import GoodputLedger
from ...resilience.retry import RetriesExhausted, RetryPolicy
from ...runtime.runner import derive_seed
from . import ckpt
from .hybrid import (
    HybridResult,
    HybridRunConfig,
    KillSpec,
    WorkerCrashError,
    run_hybrid,
)

__all__ = [
    "RestartPolicy",
    "CrashRecord",
    "FtResult",
    "kills_from_plan",
    "run_hybrid_ft",
]


@dataclass(frozen=True)
class RestartPolicy:
    """How many worker-set deaths to absorb, and how to pace respawns.

    ``max_restarts`` is the number of *re*-launches permitted after the
    initial attempt (0 = fail on the first crash, like bare
    ``run_hybrid``).  ``backoff`` prices the pause before each respawn —
    attempt k sleeps ``backoff.backoff_s(k)`` (seeded jitter), the same
    capped-exponential schedule the event-level cluster simulation
    charges for trainer restarts.
    """

    max_restarts: int = 1
    backoff: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=8,
            base_delay_s=0.05,
            multiplier=2.0,
            max_delay_s=1.0,
            jitter=0.5,
            deadline_s=30.0,
        )
    )

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )


@dataclass(frozen=True)
class CrashRecord:
    """One absorbed (or fatal) worker-set death."""

    attempt: int  # which run attempt died (0 = the initial launch)
    rank: int  # primary casualty
    exitcode: int | None
    at_step: int  # max completed global step across ranks at detection
    resumed_step: int  # manifest step the next attempt resumed from (-1 = none)
    lost_steps: int  # at_step - resumed_step: the rollback window
    drain_s: float  # detection-to-quiet drain time measured by the parent
    backoff_s: float  # pause charged before the respawn
    restore_s: float = 0.0  # manifest scan + shard load wall time


@dataclass
class FtResult:
    """A fault-tolerant run: the final result plus the recovery ledger."""

    result: HybridResult
    ledger: GoodputLedger
    restarts_used: int
    crashes: list[CrashRecord]
    checkpoints: list[tuple[int, float]]  # (global step, max write seconds)
    wall_s: float

    @property
    def checkpoint_write_s(self) -> float:
        """Mean measured per-checkpoint write cost (straggler-defined)."""
        if not self.checkpoints:
            return 0.0
        return sum(s for _, s in self.checkpoints) / len(self.checkpoints)

    def goodput_fraction(self) -> float:
        """Measured useful-examples fraction of all examples attempted."""
        if self.ledger.completed_examples == 0:
            return 1.0
        return self.ledger.useful_examples / self.ledger.completed_examples


def kills_from_plan(
    plan: FaultPlan, world: int, steps: int, phase: str = "loss"
) -> list[KillSpec]:
    """Real-process kills from a declarative fault plan, deterministically.

    TRAINER events from ``FaultInjector.sample_crashes`` (scheduled plus
    MTBF-sampled under ``plan.seed``) map onto :class:`KillSpec`:
    ``index % world`` picks the rank and ``time_s`` is read as a global
    step index (the mp trainer is step-clocked, not wall-clocked).
    Events land on successive restart attempts in time order — attempt k
    absorbs the k-th crash — mirroring how the event simulator replays a
    multi-crash timeline.  PS-class events are ignored: the hybrid
    trainer has no parameter servers to kill.
    """
    if world < 1:
        raise ValueError(f"world must be >= 1, got {world}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    events = FaultInjector(plan).sample_crashes(
        {ComponentKind.TRAINER: world}, horizon_s=float(steps)
    )
    kills: list[KillSpec] = []
    for attempt, event in enumerate(
        e for e in events if e.kind == ComponentKind.TRAINER
    ):
        step = min(steps - 1, max(0, int(event.time_s)))
        kills.append(
            KillSpec(
                rank=event.index % world,
                step=step,
                phase=phase,
                attempt=attempt,
            )
        )
    return kills


def _replay_ledger(
    ledger: GoodputLedger,
    run: HybridRunConfig,
    start: int,
    end: int,
    committed: set[int],
    write_s: dict[int, float],
) -> None:
    """Account steps ``[start, end)`` of one attempt into the ledger.

    Events are replayed in step order — credit each global step's
    examples, then advance the checkpoint watermark when that step
    committed — so a later ``rollback()`` loses exactly the
    post-checkpoint window, the same ordering the event-level simulator
    maintains.
    """
    for step in range(start, end):
        ledger.credit(run.batch_size)
        done = step + 1
        if done in committed:
            ledger.mark_checkpoint(write_s.get(done, 0.0))


def run_hybrid_ft(
    config: ModelConfig,
    run: HybridRunConfig,
    *,
    policy: RestartPolicy | None = None,
    kills: list[KillSpec] | None = None,
) -> FtResult:
    """Train to completion across real worker deaths, restarting from the
    newest valid checkpoint under ``policy``.

    ``run.checkpoint_every``/``checkpoint_dir`` must be set for restarts
    to make progress (a crash with no manifest restarts from scratch —
    legal, but every crash then replays the whole prefix).  ``kills``
    injects seeded deaths; each :class:`KillSpec` fires only on its
    ``attempt``, so a respawned worker set does not re-trigger it.

    Raises :class:`~repro.resilience.retry.RetriesExhausted` once
    ``policy.max_restarts`` respawns have been consumed and another
    worker dies — after the survivors drained (bounded by
    ``run.drain_timeout_s``), never by hanging out ``collect_timeout_s``.
    """
    policy = policy or RestartPolicy()
    kills = list(kills or [])
    rng = np.random.default_rng(derive_seed(run.seed, "ft-backoff"))
    ledger = GoodputLedger()
    crashes: list[CrashRecord] = []
    all_checkpoints: dict[int, float] = {}
    resume: ckpt.ResumeState | None = None
    t0 = time.perf_counter()
    attempt = 0
    while True:
        attempt_kills = [k for k in kills if k.attempt == attempt]
        start = resume.step if resume is not None else 0
        try:
            result = run_hybrid(config, run, kills=attempt_kills, resume=resume)
        except WorkerCrashError as err:
            ledger.crashes += 1
            at_step = max(err.progress.values(), default=start)
            for step, secs in err.checkpoints:
                all_checkpoints[step] = max(
                    all_checkpoints.get(step, 0.0), secs
                )
            committed = set(all_checkpoints)
            _replay_ledger(
                ledger, run, start, at_step, committed, all_checkpoints
            )
            lost = ledger.rollback()
            t_scan = time.perf_counter()
            manifest = (
                ckpt.latest_valid_manifest(run.checkpoint_dir, world=run.workers)
                if run.checkpoint_dir
                else None
            )
            scan_s = time.perf_counter() - t_scan
            resumed_step = manifest.step if manifest is not None else -1
            if attempt >= policy.max_restarts:
                raise RetriesExhausted(
                    "mp worker set", attempt + 1, last_error=str(err)
                ) from err
            backoff = policy.backoff.backoff_s(attempt + 1, rng)
            time.sleep(backoff)
            t_build = time.perf_counter()
            resume = (
                ckpt.build_resume(manifest, run.checkpoint_dir)
                if manifest is not None
                else None
            )
            restore_s = scan_s + time.perf_counter() - t_build
            ledger.recovery_time_s += err.drain_s + backoff + restore_s
            ledger.failed_iterations += max(0, at_step - max(resumed_step, 0))
            crashes.append(
                CrashRecord(
                    attempt=attempt,
                    rank=err.rank,
                    exitcode=err.exitcode,
                    at_step=at_step,
                    resumed_step=resumed_step,
                    lost_steps=at_step - max(resumed_step, 0),
                    drain_s=err.drain_s,
                    backoff_s=backoff,
                    restore_s=restore_s,
                )
            )
            attempt += 1
            continue
        break
    for step, secs in result.checkpoints:
        all_checkpoints[step] = max(all_checkpoints.get(step, 0.0), secs)
    _replay_ledger(
        ledger, run, start, run.steps, set(all_checkpoints), all_checkpoints
    )
    wall_s = time.perf_counter() - t0
    return FtResult(
        result=result,
        ledger=ledger,
        restarts_used=attempt,
        crashes=crashes,
        checkpoints=sorted(all_checkpoints.items()),
        wall_s=wall_s,
    )
