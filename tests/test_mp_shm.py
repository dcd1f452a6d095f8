"""Shared-memory shard lifecycle: no /dev/shm leaks, clean or crashing.

``TableShards`` backs every embedding table with one
``multiprocessing.shared_memory`` segment per (table, kind).  The owner
process must unlink all of them exactly once — on clean exit AND when a
worker dies mid-step — or segments pile up in /dev/shm until reboot.
The crash tests inject a ``KillSpec(action="exit")``, which calls
``os._exit`` inside a worker — the harshest death available short of
SIGKILL (no atexit, no finally blocks in the child) — or a real SIGKILL.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.distributed.mp import (
    HybridRunConfig,
    KillSpec,
    TableShards,
    WorkerCrashError,
    run_hybrid,
)

SHM_DIR = pathlib.Path("/dev/shm")

pytestmark = pytest.mark.skipif(
    not SHM_DIR.is_dir(), reason="needs a POSIX /dev/shm"
)


def shm_segments() -> set[str]:
    return {p.name for p in SHM_DIR.glob("repro_mp_*")}


def small_config() -> ModelConfig:
    return ModelConfig(
        name="mp-shm-test",
        num_dense=8,
        tables=uniform_tables(4, hash_size=64, dim=8, mean_lookups=2.0),
        bottom_mlp=MLPSpec((16, 8)),
        top_mlp=MLPSpec((16,)),
        interaction=InteractionType.DOT,
        compute_dtype="float64",
    )


class TestTableShards:
    def test_create_view_close_roundtrip(self):
        before = shm_segments()
        arrays = {"a": np.arange(12.0).reshape(4, 3), "b": np.ones((2, 5))}
        shards = TableShards.create(arrays)
        try:
            assert shm_segments() - before  # segments exist while open
            np.testing.assert_array_equal(shards.view("a", "weight"), arrays["a"])
            np.testing.assert_array_equal(
                shards.view("b", "accum"), np.zeros((2, 5))
            )
            shards.view("a", "weight")[0, 0] = 99.0
            assert shards.view("a", "weight")[0, 0] == 99.0
        finally:
            shards.close()
        assert shm_segments() == before

    @pytest.mark.parametrize("order", ["ab", "ba"])
    def test_each_table_keeps_its_dtype(self, order):
        """A table is read back with its own dtype, whichever table came
        first: mixed f64/f32 tables round-trip bit for bit."""
        arrays = {
            "a": np.arange(12.0).reshape(4, 3),
            "b": np.arange(12, dtype=np.float32).reshape(4, 3) / 7,
        }
        shards = TableShards.create({name: arrays[name] for name in order})
        try:
            for name, want in arrays.items():
                for kind, expect in (("weight", want), ("accum", np.zeros_like(want))):
                    got = shards.view(name, kind)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == expect.tobytes(), (name, kind)
        finally:
            shards.close()

    def test_close_is_idempotent(self):
        shards = TableShards.create({"t": np.zeros((3, 2))})
        shards.close()
        shards.close()


class TestHybridLifecycle:
    def test_clean_run_leaves_no_segments(self):
        before = shm_segments()
        run_hybrid(small_config(), HybridRunConfig(workers=2, steps=2, batch_size=16))
        assert shm_segments() == before

    def test_worker_crash_cleans_up_and_attributes(self):
        before = shm_segments()
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(
                small_config(),
                HybridRunConfig(workers=2, steps=3, batch_size=16),
                kills=[KillSpec(rank=1, step=1, action="exit")],
            )
        err = exc_info.value
        # the injected death (os._exit(41) in rank 1) is blamed, not the
        # secondary casualties that die of broken pipes afterwards
        assert err.rank == 1
        assert err.exitcode == 41
        assert (1, 41) in err.dead
        assert shm_segments() == before

    def test_rank_zero_crash(self):
        before = shm_segments()
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(
                small_config(),
                HybridRunConfig(workers=2, steps=2, batch_size=16),
                kills=[KillSpec(rank=0, step=0, action="exit")],
            )
        assert exc_info.value.rank == 0
        assert exc_info.value.exitcode == 41
        assert shm_segments() == before

    def test_sigkill_mid_allreduce_cleans_up(self):
        """A real SIGKILL inside the ring protocol — the harshest death:
        no atexit, no finally, the peer is mid-reduction on its comm
        thread.  Attribution must name the signal and /dev/shm must
        still come back clean."""
        import signal

        before = shm_segments()
        with pytest.raises(WorkerCrashError) as exc_info:
            run_hybrid(
                small_config(),
                HybridRunConfig(workers=2, steps=3, batch_size=16),
                kills=[KillSpec(rank=1, step=1, phase="allreduce")],
            )
        err = exc_info.value
        assert err.rank == 1
        assert err.exitcode == -signal.SIGKILL
        assert (1, -signal.SIGKILL) in err.dead
        assert shm_segments() == before


class TestResourceTracker:
    """The stderr contract: python's resource tracker must stay silent.

    A segment closed in a child but unlinked by nobody makes the
    interpreter print ``resource_tracker: There appear to be N leaked
    shared_memory objects`` at exit — invisible to in-process asserts,
    so these run a fresh interpreter and inspect its stderr.
    """

    SCRIPT = """
import sys
from repro.distributed.mp import (
    HybridRunConfig, KillSpec, WorkerCrashError, run_hybrid,
)
from tests.test_mp_shm import small_config

mode = sys.argv[1]
run = HybridRunConfig(workers=2, steps=2, batch_size=16)
if mode == "clean":
    run_hybrid(small_config(), run)
else:
    kill = (
        KillSpec(rank=1, step=0, action="exit") if mode == "crash"
        else KillSpec(rank=1, step=0, phase="allreduce")
    )
    try:
        run_hybrid(small_config(), run, kills=[kill])
    except WorkerCrashError:
        pass
    else:
        raise SystemExit("expected WorkerCrashError")
print("OK")
"""

    @pytest.mark.parametrize("mode", ["clean", "crash", "sigkill"])
    def test_no_leak_warnings(self, mode, tmp_path):
        script = tmp_path / "drive.py"
        script.write_text(self.SCRIPT)
        repo = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(script), mode],
            capture_output=True, text=True, timeout=300,
            cwd=repo,
            env={
                "PYTHONPATH": f"{repo / 'src'}{os.pathsep}{repo}",
                "PATH": os.environ.get("PATH", ""),
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout
        assert "leaked" not in proc.stderr.lower()
        assert "resource_tracker" not in proc.stderr
