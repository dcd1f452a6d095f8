"""Plumbing tests for perfbench (``pytest perfbench/tests``).

They run the suite once untraced and once traced in ``--smoke`` mode (tiny
shapes, about ten seconds each) and check the contract of the output, not
the numbers.
"""

from __future__ import annotations

import copy
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent.parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SINGLE = [w for w in WORKLOADS if w.startswith("train_")]
HYBRID = [w for w in WORKLOADS if w.startswith("hybrid_")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run(*argv, cwd=ROOT):
    return subprocess.run([*RUN, *argv], cwd=cwd, capture_output=True, text=True, timeout=300)


def last_line(done) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "untraced.json"
    done = run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done, out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "traced.json"
    done = run("--smoke", "--traced", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done, out


def test_benchmark_json_matches_the_workload_table():
    from workloads import WORKLOADS as table

    assert WORKLOADS == [w.name for w in table]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {w.name: w.why for w in table}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_end_to_end_metrics_present_with_units(untraced):
    done, out = untraced
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == WORKLOADS
    for name, result in report["workloads"].items():
        assert result["correct"] and result["ops_failed"] == 0, name
        assert re.fullmatch(r"[0-9a-f]{64}", result["loss_digest"])
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["value"] > 0, (name, metric["name"])
    assert all(check["ok"] for check in report["cross_checks"])
    assert len(report["cross_checks"]) == 2
    summary = last_line(done)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1


def test_per_layer_metrics_present_with_units(traced):
    _, out = traced
    report = json.loads(out.read_text())
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, result in report["workloads"].items():
        assert result["correct"], (name, result["checks"])
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        measured = set(declared) - set(result["not_measured"])
        families = {n.split(".")[0] for n in measured}
        assert "host" in families
        if name in HYBRID:
            assert {"hybrid", "channels", "allreduce", "shards", "mp_ckpt"} <= families
        else:
            assert {"data", "embedding", "mlp", "interaction", "loss", "optim",
                    "step", "trace", "infer", "alloc", "checkpoint"} <= families
        assert ("tiering" in families) == (name == "train_tiered")
        assert ("pipeline" in families) == name.endswith("_pipe")
    # every declared per-layer metric is measured by at least one workload
    unmeasured = set(declared)
    for result in report["workloads"].values():
        unmeasured &= set(result["not_measured"])
    assert not unmeasured


def test_trace_files_load_and_spans_are_parented(traced):
    for name in WORKLOADS:
        events = json.loads((HERE / "results" / f"{name}.trace.json").read_text())["traceEvents"]
        assert events, name
        names = {e["name"] for e in events}
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            parent = event["args"].get("parent")
            assert parent is None or parent in names
        if name in SINGLE:
            steps = [e for e in events if e["name"] == "step"]
            children = [e for e in events if e["args"].get("parent") == "step"]
            assert steps and len(children) == 14 * len(steps)
            assert all("step" in e["args"] for e in steps + children)


def test_single_workload_prints_the_contract_line():
    done = run("--workload", "train_dot", "--smoke", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert "cross-workload digest checks skipped" in done.stdout
    summary = last_line(done)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert set(summary["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in summary["metrics"].values())


def test_same_seed_repeats_the_digest_and_other_seed_changes_it(untraced):
    _, out = untraced
    first = json.loads(out.read_text())["workloads"]["train_tiered"]["loss_digest"]

    def digest(seed):
        done = run("--workload", "train_tiered", "--smoke", "--seed", str(seed))
        assert done.returncode == 0, done.stderr
        line = next(l for l in done.stdout.splitlines() if l.startswith("== train_tiered"))
        return line.split("digest ")[1].split()[0]

    assert digest(0) == first[:16]
    assert digest(1) != first[:16]


def test_compare_with_itself_is_all_ok(untraced):
    _, out = untraced
    done = run("--compare", str(out), str(out))
    assert done.returncode == 0, done.stdout
    rows = [l for l in done.stdout.splitlines() if l.split() and l.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(row.endswith(" ok") for row in rows)


def test_compare_flags_a_regression_and_a_digest_mismatch(untraced, tmp_path):
    _, out = untraced
    report = json.loads(out.read_text())

    slower = copy.deepcopy(report)
    result = slower["workloads"]["train_mlp"]
    result["metrics"]["train_examples_per_s"]["value"] *= 0.5
    spread = result["detail"]["train_examples_per_s"]
    spread["min"], spread["max"] = spread["min"] * 0.5, spread["max"] * 0.5
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    done = run("--compare", str(out), str(tmp_path / "slower.json"))
    assert done.returncode == 1
    assert sum(line.endswith(" worse") for line in done.stdout.splitlines()) == 1

    # past the bound, but the two runs' own segment ranges overlap
    noisy = copy.deepcopy(report)
    result = noisy["workloads"]["train_mlp"]
    result["metrics"]["train_examples_per_s"]["value"] *= 0.7
    (tmp_path / "noisy.json").write_text(json.dumps(noisy))
    done = run("--compare", str(out), str(tmp_path / "noisy.json"))
    assert done.returncode == 0
    assert sum(line.endswith(" unresolved") for line in done.stdout.splitlines()) == 1

    drifted = copy.deepcopy(report)
    drifted["workloads"]["train_dot"]["loss_digest"] = "0" * 64
    (tmp_path / "drifted.json").write_text(json.dumps(drifted))
    done = run("--compare", str(out), str(tmp_path / "drifted.json"))
    assert done.returncode == 1 and "MISMATCH" in done.stdout


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_dot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_self_time_is_duration_minus_children():
    from layers import layer_table
    from repro.obs.tracer import Tracer

    clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 10.0,    # step 0: a = 3 s, b = 1 s, root 10 s
                  10.0, 11.0, 12.0, 20.0])           # step 1: a = 1 s, root 10 s
    tracer = Tracer(clock=lambda: next(clock))
    with tracer.span("step", "iteration", step=0):
        with tracer.span("a", "compute", step=0):
            pass
        with tracer.span("b", "compute", step=0):
            pass
    with tracer.span("step", "iteration", step=1):
        with tracer.span("a", "compute", step=1):
            pass
    tracer.record("other", "compute", 0.0, 100.0, step=0)
    median_ms, share, layered_ms = layer_table(tracer)
    assert layered_ms == 10_000.0
    assert median_ms == {"step": 7_500.0, "a": 2_000.0, "b": 1_000.0}
    assert share == {"step": 0.75, "a": 0.2, "b": 0.05}
