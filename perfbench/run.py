#!/usr/bin/env python3
"""perfbench: the repo's absolute, layered, host-anchored benchmark.

    python perfbench/run.py                       # all 7 workloads, end to end
    python perfbench/run.py --traced              # per-layer metrics + Chrome traces
    python perfbench/run.py --workload train_dot --seed 3 --seconds 8 --trace 0
    python perfbench/run.py --smoke               # tiny shapes, plumbing only
    python perfbench/run.py --compare A.json B.json

Each workload runs in its own fresh subprocess (``worker.py``), one after
another.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  Metric names, units, regression bounds and the default run
length come from ``BENCHMARK.json`` — the one place they are declared.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostprobe import PINNED_ENV  # noqa: E402

WORKER_TIMEOUT_S = 170
#: ``--smoke`` run length; with tiny shapes the numbers mean nothing.
SMOKE_SECONDS = 0.2
#: (workload, reference) pairs whose digests must be equal with one seed.
SAME_DIGEST = (("train_emb_pipe", "train_emb"), ("hybrid_w2_pipe", "hybrid_w2"))


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a worker to completion in its own process group, so a timeout
    also takes the hybrid trainer's forked ranks down."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
        env=worker_env(), stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out)


def run_workload(name: str, args, spec: dict) -> dict:
    """One workload in a fresh subprocess; returns its result with units
    attached and every declared metric of this trace mode present."""
    argv = ["--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    done = launch(argv)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"workload {name} exited with code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        raise RuntimeError(f"{name}: metrics not declared in BENCHMARK.json: {unknown}")
    # A layer that does no work on this workload reads 0 (tiering.* off the
    # tiered workload, hybrid.* on the single-process ones, and so on).
    result["not_measured"] = sorted(set(units) - set(result["metrics"]))
    if result["not_measured"] and not args.trace:
        raise RuntimeError(f"{name}: missing end-to-end metrics {result['not_measured']}")
    result["metrics"] = {
        n: {"value": result["metrics"].get(n, 0.0), "unit": units[n]} for n in units
    }
    return result


def print_workload(result: dict) -> None:
    print(f"== {result['workload']}  digest {result['loss_digest'][:16]}  "
          f"ops {result['ops_attempted']} attempted / {result['ops_failed']} failed  "
          f"failed_ops_pct {100.0 * result['ops_failed'] / result['ops_attempted']:.3f} %")
    for name, metric in result["metrics"].items():
        if name in result["not_measured"]:
            continue
        line = f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}"
        spread = result["detail"].get(name)
        if isinstance(spread, dict):
            line += f"   (median of K={spread['k']}, min {spread['min']:.4f}, max {spread['max']:.4f})"
        print(line)
    for check in result["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}  {check['detail']}")


def cross_checks(results: dict[str, dict]) -> list[dict]:
    """Digest equalities between workloads run with one seed."""
    checks = []
    for name, reference in SAME_DIGEST:
        if name in results and reference in results:
            ok = results[name]["loss_digest"] == results[reference]["loss_digest"]
            checks.append({"name": f"{name} digest equals {reference}'s", "ok": ok})
    return checks


def run_suite(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    if args.workload:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args, spec)
        print_workload(results[name])

    # A traced run's digest covers a host-dependent number of steps, so only
    # untraced digests are comparable across workloads.
    checks = cross_checks(results) if not args.trace else []
    if args.workload or args.trace:
        print("cross-workload digest checks skipped (need an untraced run of all workloads)")
    for check in checks:
        print(f"[{'ok' if check['ok'] else 'FAILED'}] {check['name']}")

    attempted = sum(r["ops_attempted"] for r in results.values()) + len(checks)
    failed = sum(r["ops_failed"] for r in results.values()) + sum(not c["ok"] for c in checks)
    report = {
        "seed": args.seed, "seconds": args.seconds, "traced": bool(args.trace),
        "smoke": args.smoke, "host": next(iter(results.values()))["host"],
        "bounds": {m["name"]: {"bound": m["bound"], "better": m["better"]}
                   for m in spec["end_to_end"]},
        "workloads": results, "cross_checks": checks,
    }
    out = pathlib.Path(args.out) if args.out else (
        HERE / "results" / ("traced.json" if args.trace else "untraced.json"))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}:{n}": m for w, r in results.items() for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 2


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def verdict(a: dict, b: dict, spread_a, spread_b, bound: float, better: str) -> str:
    """``ok``, ``worse`` or ``unresolved``.

    B is ``worse`` when it is past the bound — unless the two runs' own
    segment ranges overlap, in which case one pair of runs cannot tell and
    the row is ``unresolved``: run more pairs before believing either.
    """
    va, vb = a["value"], b["value"]
    sign = 1.0 if better == "lower" else -1.0
    if sign * (vb - va) / va <= bound:
        return "ok"
    if isinstance(spread_a, dict) and isinstance(spread_b, dict):
        if spread_a["min"] <= spread_b["max"] and spread_b["min"] <= spread_a["max"]:
            return "unresolved"
    return "worse"


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    if a["host"]["cpu_model"] != b["host"]["cpu_model"] or a["host"]["nproc"] != b["host"]["nproc"]:
        print("warning: the two results come from different hosts")
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): digests not compared")
    bad = 0
    print(f"{'workload':<16} {'metric':<22} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric, limits in a["bounds"].items():
            if metric not in ra["metrics"] or metric not in rb["metrics"]:
                continue
            ma, mb = ra["metrics"][metric], rb["metrics"][metric]
            word = verdict(ma, mb, ra["detail"].get(metric), rb["detail"].get(metric),
                              limits["bound"], limits["better"])
            bad += word == "worse"
            print(f"{name:<16} {metric:<22} {ma['value']:>12.2f} {mb['value']:>12.2f} "
                  f"{mb['value'] / ma['value']:>7.3f} {limits['bound']:>6.2f}  {word}")
        for r in (ra, rb):
            if r["ops_failed"]:
                bad += 1
                print(f"{name:<16} failed ops: {r['ops_failed']} of {r['ops_attempted']}")
        same_run = a["seed"] == b["seed"] and not a["traced"] and not b["traced"]
        if same_run and ra["loss_digest"] != rb["loss_digest"]:
            bad += 1
            print(f"{name:<16} loss_digest MISMATCH {ra['loss_digest'][:12]} vs {rb['loss_digest'][:12]}")
    print("ratios are B/A, base A;", "all ok" if not bad else f"{bad} worse or mismatched")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="seconds one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run giving per-layer metrics")
    parser.add_argument("--traced", action="store_const", const=1, dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, < 20 s, plumbing only")
    parser.add_argument("--out", help="result JSON (default perfbench/results/[un]traced.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
