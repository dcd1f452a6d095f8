"""How :mod:`repro.core.kernels` finds SciPy's compiled ``csr_matvecs``.

The step calls one C routine of ``scipy.sparse`` and none of
``scipy.special``; importing either package maps ~20 MB or more into every
trainer and hybrid rank.  Each case runs in a fresh interpreter, since
what is under test is the import itself: the extension file loaded on its
own, the regular ``scipy.sparse`` import when the file is not found, the
numpy path without scipy, and scipy imported after the kernels.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What ``perfbench/worker.py`` imports from the package.
WORKER_IMPORTS = """
import repro.core
import repro.data
import repro.obs.tracer
import repro.runtime.runner
from repro.core import kernels
"""

COMPILED = """
import types
assert isinstance(kernels._csr_matvecs, types.BuiltinFunctionType), kernels._csr_matvecs
assert kernels._csr_matvecs.__name__ == "csr_matvecs"
"""


def run_fresh(code: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + "\nprint('ok')"],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("ok"), proc.stdout


def test_a_trainer_maps_neither_scipy_sparse_nor_scipy_special():
    run_fresh(WORKER_IMPORTS + COMPILED + """
import sys
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.special")))
assert not loaded, loaded
""")


def test_without_the_extension_file_the_regular_import_serves(tmp_path):
    """``find_spec("scipy")`` names a directory without ``sparse/``: the
    kernels import ``scipy.sparse._sparsetools`` the ordinary way."""
    run_fresh(f"""
import importlib.machinery, importlib.util
real = importlib.util.find_spec
elsewhere = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
elsewhere.submodule_search_locations = [{str(tmp_path)!r}]
importlib.util.find_spec = (
    lambda name, package=None: elsewhere if name == "scipy" else real(name, package)
)
""" + WORKER_IMPORTS + COMPILED + """
import sys
assert "scipy.sparse" in sys.modules
import scipy.sparse._sparsetools
assert kernels._csr_matvecs is scipy.sparse._sparsetools.csr_matvecs
""")


def test_without_scipy_the_numpy_path_runs():
    run_fresh("""
import sys
sys.modules["scipy"] = None  # import scipy raises ImportError
""" + WORKER_IMPORTS + """
import numpy as np
assert kernels._csr_matvecs is None
rng = np.random.default_rng(3)
weight = rng.standard_normal((40, 5))
values = rng.integers(0, 40, size=60)
offsets = np.array([0, 0, 25, 25, 60, 60])
got = kernels.gather_pool(weight, values, offsets)
want = np.array([weight[values[a:b]].sum(axis=0) for a, b in zip(offsets, offsets[1:])])
np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
plan = kernels.coalesce_plan(values, np.diff(offsets))
grad = rng.standard_normal((5, 5))
rows, sums = plan.rows, kernels.expand_apply(plan, grad)
sample = np.repeat(np.arange(5), np.diff(offsets))
for r, s in zip(rows, sums):
    np.testing.assert_allclose(s, grad[sample[values == r]].sum(axis=0), rtol=1e-12, atol=1e-12)
""")


def test_scipy_imported_after_the_kernels_agrees_bit_for_bit():
    run_fresh(WORKER_IMPORTS + COMPILED + """
import numpy as np
import scipy.sparse

assert scipy.sparse._sparsetools.csr_matvecs is not None
rng = np.random.default_rng(11)
offsets = np.array([0, 0, 7, 7, 7, 19, 30, 30])  # empty segments, first and last too
values = rng.integers(0, 50, size=offsets[-1])
for dtype in (np.float32, np.float64):
    weight = (rng.standard_normal((50, 6)) * 8).astype(dtype)
    got = kernels.gather_pool(weight, values, offsets)
    ones = np.ones(len(values), dtype=dtype)
    matrix = scipy.sparse.csr_matrix((ones, values, offsets), shape=(len(offsets) - 1, 50))
    want = matrix @ weight
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got, want), dtype
""")
