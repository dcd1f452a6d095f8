"""Host fingerprint and measured ceilings.

Absolute numbers only compare across runs on like hosts, so every result
carries :func:`fingerprint`.  :func:`ceilings` measures what this host can
do at all — streaming copy, random-row gather, single-thread sgemm — the
roofline anchors the embedding and MLP layers are read against.  No fitted
constants: each probe is best-of-N of one numpy call (a ceiling is the
fastest the call ever ran, not its typical speed).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys
import threading
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Set on every workload subprocess; BLAS left unpinned makes the 2-worker
#: hybrid run ~5x slower (threads of two processes fight for two cores) and
#: changes the ``train_dot`` loss digest.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        return "unknown"


def fingerprint() -> dict:
    """Everything that decides whether two results are comparable."""
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(affinity(0)) if affinity else os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "env": {k: os.environ.get(k, "") for k in PINNED_ENV},
        "commit": _commit(),
    }


def _best(fn, reps: int = 5) -> float:
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def ceilings(smoke: bool = False) -> dict[str, float]:
    """Measured stream GB/s, random-row gather GB/s and sgemm GFLOP/s."""
    rng = np.random.default_rng(0)
    scale = 16 if smoke else 1

    src = np.ones(32 * 1024 * 1024 // scale, dtype=np.float32)  # 128 MB
    dst = np.empty_like(src)
    stream_s = _best(lambda: np.copyto(dst, src))

    # far larger than cache, 256-byte rows like the embedding tables
    table = np.ones((400_000 // scale, 64), dtype=np.float32)
    idx = rng.integers(0, len(table), size=200_000 // scale)
    out = np.empty((len(idx), 64), dtype=np.float32)
    gather_s = _best(lambda: np.take(table, idx, axis=0, out=out))

    n = 1024 // (4 if smoke else 1)
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    c = np.empty((n, n), dtype=np.float32)
    gemm_s = _best(lambda: np.matmul(a, b, out=c))

    return {
        "host.stream_gb_s": 2 * src.nbytes / stream_s / 1e9,  # read + write
        "host.gather_gb_s": out.nbytes / gather_s / 1e9,
        "host.sgemm_gflops": 2 * n**3 / gemm_s / 1e9,
    }


class _TickWork:
    """One lane's tick: four 256x256 sgemms, a 4096-row gather from a 32 MB
    table, a pure-Python loop — the three kinds of work the program does."""

    def __init__(self, table: np.ndarray) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256)).astype(np.float32)
        self._b = rng.standard_normal((256, 256)).astype(np.float32)
        self._c = np.empty((256, 256), dtype=np.float32)
        self._table = table
        self._idx = rng.integers(0, len(table), size=4096)
        self._rows = np.empty((4096, table.shape[1]), dtype=table.dtype)

    def run(self) -> float:
        t0 = time.perf_counter()
        for _ in range(4):
            np.matmul(self._a, self._b, out=self._c)
        np.take(self._table, self._idx, axis=0, out=self._rows)
        total = 0
        for i in range(6000):
            total += i
        return time.perf_counter() - t0


def tick_table() -> np.ndarray:
    """The table the ticks gather from; read-only, so clocks share one."""
    return np.ones((131_072, 64), dtype=np.float32)


class HostClock:
    """A fixed piece of work, timed between the program's steps, that tells
    how fast the host is running *right now*.

    On a shared VM the same single-thread sgemm swings by 20-40 % between
    5-second windows while its best-of-N stays put, and every wall-clock
    number swings with it.  One :meth:`tick` is ~1.6 ms of fixed work
    (:class:`_TickWork`); ``slowdown`` over a stretch of ticks is their mean
    over the fastest tick this host ever ran.  Dividing a measured time by
    the slowdown of the ticks interleaved with it gives the time the work
    would have taken had the host run at its own ceiling throughout.

    ``lanes=2`` runs the work on two threads at once and takes their mean:
    the clock for calls that keep both cores busy, which slow down when the
    host packs both vCPUs onto one physical core and a one-lane tick would
    not notice.

    The fastest tick is a property of the host, not of one run — a run that
    falls entirely into a slow phase never sees it — so it is remembered in
    ``best_file`` (under ``results/``, keyed by CPU model) and only ever
    lowered.
    """

    BURST = 24

    def __init__(
        self, table: np.ndarray, best_file: pathlib.Path | None = None, lanes: int = 1
    ) -> None:
        self._best_file = best_file
        self._best: float | None = None
        self._lanes = [_TickWork(table) for _ in range(lanes)]
        self.samples: list[float] = []

    def tick(self) -> None:
        if len(self._lanes) == 1:
            self.samples.append(self._lanes[0].run())
            return
        times: list[float] = []
        helpers = [
            threading.Thread(target=lambda lane=lane: times.append(lane.run()))
            for lane in self._lanes[1:]
        ]
        for helper in helpers:
            helper.start()
        times.append(self._lanes[0].run())
        for helper in helpers:
            helper.join()
        self.samples.append(sum(times) / len(times))

    def burst(self) -> None:
        for _ in range(self.BURST):
            self.tick()

    def mark(self) -> int:
        return len(self.samples)

    def spent(self, start: int, stop: int) -> float:
        return sum(self.samples[start:stop])

    def best(self) -> float:
        """Fastest tick of this run or any earlier one on this host.  The
        first call fixes it (and records it), so call once the run's ticks
        are all taken."""
        if self._best is None:
            self._best = self._recorded_best()
        return self._best

    def _recorded_best(self) -> float:
        best = min(self.samples)
        if self._best_file is None:
            return best
        cpu = _cpu_model()
        try:
            seen = json.loads(self._best_file.read_text())
            if seen["cpu_model"] == cpu:
                best = min(best, float(seen["best_s"]))
        except (OSError, ValueError, KeyError, TypeError):
            pass  # no usable record yet
        self._best_file.write_text(json.dumps({"cpu_model": cpu, "best_s": best}))
        return best

    def slowdown(self, start: int, stop: int) -> float:
        """Mean tick in ``samples[start:stop]`` over the fastest tick."""
        return self.spent(start, stop) / (stop - start) / self.best()


if __name__ == "__main__":
    print(json.dumps({"host": fingerprint(), "ceilings": ceilings()}, indent=2))
