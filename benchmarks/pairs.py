"""Alternating parent/change perfbench pairs, and the table a claim rests on.

    python benchmarks/pairs.py --parent ../parent --workload train_mlp -n 10

Runs ``perfbench/run.py --workload W --seed S --out ...`` N times in each of
two checkouts — pair ``i`` uses seed ``--seed0 + i``, even pairs run the
parent (A) first, odd pairs the change (B) — and prints, per workload, the
per-pair table (value, B/A, each run's segment min-max, digests equal) and
the reading by the rule of the ``choosing-metrics`` guide §8: a gain needs
the change to win at least nine tenths of the pairs *and* the two medians to
be further apart than the parent's own quartiles.  Without ``--workload``
every pair is the full suite, one ``run.py`` process per workload and side:
a workload's two sides run back to back, and the suite's order rotates by
one workload each pair, so no workload always runs first.

It only calls perfbench.  The one thing it touches in a checkout is
perfbench's own output directory: a result is normalised by the fastest
host-clock tick its checkout has ever recorded
(``perfbench/results/host_clock*_best.json``), so before every run both
checkouts' records are set to the smaller of the two — one ceiling for both
sides.  ``raw`` is the same metric without that normalisation.

Run as ``make perf-pairs PARENT=<checkout> WORKLOAD=<name> N=10``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLOCK_FILES = ("host_clock_best.json", "host_clock2_best.json")


def share_host_ceiling(checkouts: list[pathlib.Path]) -> None:
    """Give every checkout the fastest tick any of them has recorded."""
    for name in CLOCK_FILES:
        files = [c / "perfbench" / "results" / name for c in checkouts]
        seen = [json.loads(f.read_text()) for f in files if f.exists()]
        if not seen or len({s["cpu_model"] for s in seen}) != 1:
            continue
        best = min(seen, key=lambda s: s["best_s"])
        for f in files:
            f.parent.mkdir(parents=True, exist_ok=True)
            f.write_text(json.dumps(best))


def run_once(checkout: pathlib.Path, workload: str, seed: int, out: pathlib.Path) -> dict:
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(out)]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    if not out.exists():
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode} without a result:\n{done.stdout[-2000:]}")
    return json.loads(out.read_text())


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload: str, metric: str, better: str, pairs: list[tuple[dict, dict]]) -> None:
    """One workload x metric: every pair, then medians and the §8 reading."""
    print(f"\n{workload}  {metric}  (A = parent, B = change; ratio B/A, base A)")
    print(f"{'pair':>4} {'seed':>5} {'first':>5} {'A':>11} {'B':>11} {'B/A':>6} "
          f"{'A segments min-max':>23} {'B segments min-max':>23} {'raw B/A':>7} {'failed':>6}  digest")
    a_vals, b_vals, ratios, wins = [], [], [], 0
    for i, (a, b) in enumerate(pairs):
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        va, vb = ra["metrics"][metric]["value"], rb["metrics"][metric]["value"]
        da, db = ra["detail"].get(metric), rb["detail"].get(metric)
        spans = [f"{d['min']:.5g}-{d['max']:.5g}" if isinstance(d, dict) else "-" for d in (da, db)]
        raw = f"{db['raw'] / da['raw']:.3f}" if isinstance(da, dict) and isinstance(db, dict) else "-"
        a_vals.append(va)
        b_vals.append(vb)
        ratios.append(vb / va)
        wins += (vb > va) if better == "higher" else (vb < va)
        print(f"{i:>4} {a['seed']:>5} {'AB'[i % 2]:>5} {va:>11.2f} {vb:>11.2f} {vb / va:>6.3f} "
              f"{spans[0]:>23} {spans[1]:>23} {raw:>7} "
              f"{ra['ops_failed']:>3}/{rb['ops_failed']:<2}  "
              f"{'equal' if ra['loss_digest'] == rb['loss_digest'] else 'DIFFERENT'}")
    med_a, med_b = statistics.median(a_vals), statistics.median(b_vals)
    q1, q3 = quartiles(a_vals)
    moved = (med_b - med_a) if better == "higher" else (med_a - med_b)
    rule = "a gain" if wins >= 0.9 * len(pairs) and moved > q3 - q1 else "no gain"
    print(f"median A {med_a:.2f} (q1-q3 {q1:.2f}-{q3:.2f}) -> B {med_b:.2f} "
          f"(q1-q3 {'-'.join(f'{q:.2f}' for q in quartiles(b_vals))}); "
          f"median B/A {statistics.median(ratios):.3f} [{min(ratios):.3f}, {max(ratios):.3f}]; "
          f"B better in {wins} of {len(pairs)}; medians {abs(med_b - med_a):.2f} apart, "
          f"A's q3-q1 {q3 - q1:.2f} -> {rule} by the 9/10 + quartile rule")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="checkout of the parent commit (A)")
    parser.add_argument("--change", type=pathlib.Path, default=ROOT, help="checkout of the change (B; default: this one)")
    parser.add_argument("--workload", help="one perfbench workload (default: the full suite per run)")
    parser.add_argument("-n", "--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=100, help="pair i runs both sides with seed seed0 + i")
    parser.add_argument("--out-dir", type=pathlib.Path, help="where the result JSONs go (default <change>/perfbench/results/pairs)")
    args = parser.parse_args()
    sides = [args.parent.resolve(), args.change.resolve()]
    out_dir = (args.out_dir or sides[1] / "perfbench" / "results" / "pairs").resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    spec = json.loads((sides[1] / "BENCHMARK.json").read_text())
    suite = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    pairs: list[tuple[dict, dict]] = []
    for i in range(args.pairs):
        shift = i % len(suite)
        results: dict[int, dict] = {}
        for workload in suite[shift:] + suite[:shift]:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                share_host_ceiling(sides)
                out = out_dir / f"pair{i:02d}_{workload}_{'AB'[side]}.json"
                result = run_once(sides[side], workload, args.seed0 + i, out)
                # a side's first result collects the rest of its workloads
                results.setdefault(side, result)["workloads"].update(result["workloads"])
                print(f"pair {i} {workload} {'AB'[side]} done -> {out}", flush=True)
        pairs.append((results[0], results[1]))

    for workload in suite:
        for m in spec["end_to_end"]:
            report(workload, m["name"], m["better"], pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
