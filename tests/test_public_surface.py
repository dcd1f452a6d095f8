"""Every public name in ``src/repro`` earns a caller outside the tests.

A name in a (non-``__init__``) module's ``__all__`` fails this check when
all three hold:

* a file under ``tests/`` references it;
* no file under ``src/``, ``examples/``, ``benchmarks/`` or ``perfbench/``
  references it — its own module's definition and ``__all__`` entry and a
  package ``__init__``'s re-export do not count;
* its own module's code does not use it.

Such a name is library surface only the tests reach: delete it with its
tests, or, if the tests measure against it, move it under ``tests/``.
:data:`ALLOWLIST` holds the exceptions, each with its documented role.

A reference is an identifier: a name that is read, an attribute, or an
imported name.  A definition's references to its own name — a recursive
call, a ``classmethod`` that builds ``Cls(...)`` spelled out — are not
uses; a reference from elsewhere in its module is.
"""

from __future__ import annotations

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "examples", "benchmarks", "perfbench")

#: Test-only names kept on purpose: qualified name -> documented role.
ALLOWLIST = {
    "repro.analysis.stats.cdf_points":
        "one of the distribution statistics docs/API.md lists for repro.analysis",
    "repro.core.checkpoint.read_checkpoint":
        "the file reader of the one checkpoint schema (docs/API.md), write_checkpoint's inverse",
    "repro.core.config.merge_shared_tables":
        "the §III-A.2 feature->table sharing constructor (docs/API.md, docs/GUIDE.md)",
    "repro.core.kernels.expand_coalesce":
        "the fused embedding-bag backward DESIGN.md describes, composed of the plan kernels",
    "repro.core.kernels.segment_mean":
        "the mean-pooled segment reduction DESIGN.md lists beside segment_sum",
    "repro.core.metrics.accuracy":
        "one of the paper's quality metrics (§VI-C) docs/API.md lists",
    "repro.core.metrics.calibration":
        "one of the paper's quality metrics (§VI-C) docs/API.md lists",
    "repro.core.mlp.Sigmoid":
        "one of the layers docs/API.md lists; dense_kernels.stable_sigmoid is its kernel",
    "repro.core.optim.SGD":
        "the second sparse-aware optimizer docs/API.md lists, the lattice's optimizer axis",
    "repro.core.tuning.random_search":
        "one of the three FBLearner sweep strategies of §VI-C (docs/API.md, docs/GUIDE.md)",
    "repro.distributed.mp.allreduce.ordered_sum":
        "the canonical rank-order reduction DESIGN.md names as the ordered allreduce's result",
    "repro.distributed.mp.allreduce.ring_ordered_sum":
        "the rotated per-chunk order DESIGN.md says pins the ring allreduce",
    "repro.distributed.mp.ft.kills_from_plan":
        "maps a FaultPlan onto real kills (docs/resilience.md, DESIGN.md)",
    "repro.distributed.mp.timeouts.set_timeouts":
        "the exact-value override the timeouts module documents beside its env knob",
    "repro.hardware.interconnect.broadcast_time":
        "one of the collective cost formulas docs/API.md lists",
    "repro.hardware.interconnect.gather_time":
        "one of the collective cost formulas docs/API.md lists",
    "repro.hardware.memory.NVME_TIER":
        "the NVMe tier spec docs/tiering.md prices beside DRAM and SCM",
    "repro.placement.planner.feasible_strategies":
        "one of the placement planners docs/API.md lists",
    "repro.placement.planner.min_gpus_required":
        "the capacity math docs/API.md lists for the placement planners",
}


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(
    node: ast.AST, imports: bool = True, inside: frozenset[str] = frozenset()
) -> set[str]:
    """Identifiers ``node`` reads, as names or attributes, and (with
    ``imports``) the names it imports — except a definition's references
    to its own name (``inside`` holds the enclosing definitions')."""
    names: set[str] = set()
    if isinstance(node, _DEFS):
        inside = inside | {node.name}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif imports and isinstance(node, ast.ImportFrom):
        names.update(alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        names |= _references(child, imports, inside)
    return names - inside


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


@functools.lru_cache(maxsize=None)
def _test_only_names() -> frozenset[str]:
    """Qualified names that meet all three conditions of the module doc."""
    used: set[str] = set()
    for top in CALLER_DIRS:
        for path in (ROOT / top).rglob("*.py"):
            # an __init__'s imports are re-exports, not uses
            used |= _references(_parse(path), imports=path.name != "__init__.py")
    tested: set[str] = set()
    for path in (ROOT / "tests").rglob("*.py"):
        tested |= _references(_parse(path))
    src = ROOT / "src"
    flagged = set()
    for path in (src / "repro").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        flagged.update(
            f"{module}.{name}" for name in _exports(_parse(path))
            if name in tested and name not in used
        )
    return frozenset(flagged)


def test_no_public_name_is_reached_only_by_tests():
    unexplained = sorted(_test_only_names() - ALLOWLIST.keys())
    assert not unexplained, (
        "public names only tests/ reaches (delete them with their tests, move "
        f"a test instrument under tests/, or allowlist a documented role): {unexplained}"
    )


def test_allowlist_is_not_stale():
    """An allowlisted name that gained a caller, or went, leaves the list."""
    stale = sorted(ALLOWLIST.keys() - _test_only_names())
    assert not stale, f"allowlisted names that are no longer test-only: {stale}"
