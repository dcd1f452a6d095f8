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

import itertools
import os
import pathlib
import subprocess
import sys
import traceback

import numpy as np
import pytest

from repro.core import DLRM
from repro.core import embedding as embedding_mod
from repro.core.embedding import EmbeddingBagCollection, EmbeddingTable
from repro.core.config import InteractionType, MLPSpec, ModelConfig, uniform_tables
from repro.distributed.mp import (
    HybridRunConfig,
    KillSpec,
    TableShards,
    WorkerCrashError,
    run_hybrid,
)
from repro.distributed.mp.channels import Channel

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


class TestFailedSetup:
    """A set-up that fails after the shards exist releases them, and every
    channel the fabric had made, before the exception propagates."""

    @staticmethod
    def open_fds() -> set[str]:
        return set(os.listdir("/proc/self/fd"))

    @staticmethod
    def unmapped_views(tb) -> list[str]:
        """The frame locals along ``tb`` that reach an array whose memory
        is no longer mapped (a view of a closed segment: reading it, as a
        debugger or ``pytest -l`` would, faults)."""
        with open("/proc/self/maps") as maps:
            spans = [[int(x, 16) for x in line.split()[0].split("-")] for line in maps]

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, EmbeddingTable):
                yield value.weight
            elif isinstance(value, DLRM):  # perhaps half built
                yield from arrays(getattr(value, "embeddings", None))
            elif isinstance(value, EmbeddingBagCollection):
                yield from arrays(getattr(value, "tables", None))
            elif isinstance(value, dict):
                for v in value.values():
                    yield from arrays(v)
            elif isinstance(value, (list, tuple)):
                for v in value:
                    yield from arrays(v)

        found = []
        for frame, _ in traceback.walk_tb(tb):
            for name, value in frame.f_locals.items():
                for a in arrays(value):
                    address = a.__array_interface__["data"][0]
                    if a.size and not any(lo <= address < hi for lo, hi in spans):
                        found.append(f"{frame.f_code.co_name}: {name}")
        return found

    @pytest.mark.parametrize("where", ["channel", "draw"])
    def test_nothing_outlives_a_failed_setup(self, monkeypatch, where):
        calls = itertools.count()
        if where == "channel":
            # the second socketpair of the fabric
            pair = Channel.pair

            def failing():
                if next(calls) == 1:
                    raise OSError("injected socketpair failure")
                return pair()

            monkeypatch.setattr(Channel, "pair", failing)
            expected = OSError
        else:
            # the third table of the seeded model, drawn into its segment
            draw = embedding_mod._draw_uniform

            def failing(weight, rng, scale):
                if next(calls) == 2:
                    raise MemoryError("injected draw failure")
                draw(weight, rng, scale)

            monkeypatch.setattr(embedding_mod, "_draw_uniform", failing)
            expected = MemoryError
        before, fds = shm_segments(), self.open_fds()
        # ``raised`` keeps the traceback's frames alive: what is released
        # below, run_hybrid released, not the frames' collection
        with pytest.raises(expected, match="injected") as raised:
            run_hybrid(small_config(), HybridRunConfig(workers=3, steps=2, batch_size=24))
        assert shm_segments() == before
        assert self.open_fds() == fds
        assert self.unmapped_views(raised.tb) == []


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
