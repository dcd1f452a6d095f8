"""Command-line interface.

``python -m repro <subcommand>`` exposes the library's main workflows:

* ``describe`` — Table II-style description of a model config;
* ``throughput`` — evaluate one (platform, placement, batch) setup;
* ``optimize`` — rank all feasible setups for a model (the §I selection
  problem);
* ``figures`` — regenerate paper figures/tables to stdout (``--workers`` /
  ``--cache-dir`` size the sweeps' ``repro.runtime`` pool and cache);
* ``cache`` — inspect or clear the on-disk sweep result cache;
* ``fleet`` — fleet characterization report;
* ``train`` — quick functional training run on synthetic data;
* ``trace`` — run an experiment with span tracing on and write a Chrome
  ``chrome://tracing`` / Perfetto JSON trace (see ``repro.obs``);
* ``faults`` — fault-injection scenarios against the cluster simulation
  (goodput, availability, retry/recovery telemetry; see
  ``repro.resilience`` and ``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import render_table
from .configs import PRODUCTION_MODELS, make_test_model
from .core.config import ModelConfig

__all__ = ["main", "build_parser", "resolve_model"]


def resolve_model(spec: str) -> ModelConfig:
    """Parse a model spec: a production name (``M1_prod``) or
    ``test:<dense>x<sparse>[:hash]`` (e.g. ``test:512x32:1000000``)."""
    if spec in PRODUCTION_MODELS:
        return PRODUCTION_MODELS[spec]()
    if spec.startswith("test:"):
        body = spec[len("test:"):]
        parts = body.split(":")
        try:
            dense_s, sparse_s = parts[0].split("x")
            num_dense, num_sparse = int(dense_s), int(sparse_s)
            hash_size = int(parts[1]) if len(parts) > 1 else 100_000
        except (ValueError, IndexError) as err:
            raise ValueError(
                f"bad test model spec {spec!r}; expected test:<dense>x<sparse>[:hash]"
            ) from err
        return make_test_model(num_dense, num_sparse, hash_size=hash_size)
    raise ValueError(
        f"unknown model {spec!r}; use one of {sorted(PRODUCTION_MODELS)} "
        "or test:<dense>x<sparse>[:hash]"
    )


def _cmd_describe(args: argparse.Namespace) -> int:
    model = resolve_model(args.model)
    desc = model.describe()
    rows = [[k, v if not isinstance(v, float) else f"{v:.2f}"] for k, v in desc.items()]
    rows.append(["total parameters", f"{model.total_parameters:,}"])
    rows.append(["dense param MB", f"{model.dense_parameter_bytes / 1e6:.1f}"])
    print(render_table(["property", "value"], rows, title=f"Model: {model.name}"))
    return 0


def _cmd_throughput(args: argparse.Namespace) -> int:
    from .hardware import DUAL_SOCKET_CPU, PLATFORMS
    from .perf import cpu_cluster_throughput, gpu_server_throughput
    from .placement import PlacementStrategy, plan_placement

    model = resolve_model(args.model)
    if args.platform == "cpu":
        report = cpu_cluster_throughput(
            model,
            args.batch,
            num_trainers=args.trainers,
            num_sparse_ps=args.sparse_ps,
            num_dense_ps=args.dense_ps,
        )
    else:
        platform = PLATFORMS[args.platform]
        strategy = PlacementStrategy(args.placement)
        plan = plan_placement(
            model,
            platform,
            strategy,
            num_ps=args.sparse_ps,
            ps_platform=DUAL_SOCKET_CPU,
        )
        report = gpu_server_throughput(model, args.batch, platform, plan)
    print(report.describe())
    rows = [[k, f"{v * 1e3:.3f} ms"] for k, v in report.breakdown.components.items()]
    print(render_table(["component", "time"], rows, title="Iteration breakdown"))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .perf import Objective, optimize_setup

    model = resolve_model(args.model)
    objective = Objective(args.objective)
    result = optimize_setup(
        model, objective=objective, min_throughput=args.min_throughput
    )
    rows = [
        [c.label, f"{c.throughput:,.0f}", f"{c.perf_per_watt:.2f}"]
        for c in result.ranked()[: args.top]
    ]
    print(
        render_table(
            ["setup", "ex/s", "ex/s/W"],
            rows,
            title=f"Best setups for {model.name} by {objective.value}",
        )
    )
    return 0


_FIGURES = {
    "table1": "table1_platforms",
    "table2": "table2_models",
    "table3": "table3_comparison",
    "fig1": "fig01_production",
    "fig2": "fig02_workloads",
    "fig5": "fig05_utilization",
    "fig6": "fig06_07_embedding_stats",
    "fig7": "fig06_07_embedding_stats",
    "fig9": "fig09_servers",
    "fig10": "fig10_feature_sweep",
    "fig11": "fig11_batch_scaling",
    "fig12": "fig12_hash_scaling",
    "fig13": "fig13_mlp_dims",
    "fig14": "fig14_placement",
    "fig15": "fig15_accuracy",
}


def _make_runner(args: argparse.Namespace):
    """Build the figures' SweepRunner from ``--workers/--cache-dir/--no-cache``.

    The default (``--workers 1``, no ``--cache-dir``) is one in-process
    worker that touches no cache files.
    """
    from .runtime import ResultCache, SweepRunner, default_workers

    workers = args.workers if args.workers > 0 else default_workers()
    cached = (args.workers != 1 or args.cache_dir is not None) and not args.no_cache
    cache = ResultCache(args.cache_dir) if cached else None
    return SweepRunner(workers=workers, cache=cache)


def _cmd_figures(args: argparse.Namespace) -> int:
    import importlib
    import inspect

    names = args.only if args.only else [
        "table1", "table2", "table3", "fig1", "fig2", "fig6", "fig9",
        "fig10", "fig11", "fig12", "fig13", "fig14",
    ]
    runner = _make_runner(args)
    seen = set()
    for name in names:
        if name not in _FIGURES:
            print(f"unknown figure {name!r}; choices: {sorted(_FIGURES)}", file=sys.stderr)
            return 2
        module_name = _FIGURES[name]
        if module_name in seen:
            continue
        seen.add(module_name)
        module = importlib.import_module(f"repro.experiments.{module_name}")
        kwargs = {}
        if "runner" in inspect.signature(module.run).parameters:
            kwargs["runner"] = runner
        print(module.render(module.run(**kwargs)))
        print()
    if runner.cache is not None:
        stats = runner.cache.stats()
        print(
            f"[runtime] workers={runner.workers} cache: "
            f"{stats['hits']:.0f} hits / {stats['misses']:.0f} misses / "
            f"{stats['stores']:.0f} stores ({runner.cache.root})",
            file=sys.stderr,
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runtime import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entries from {cache.root}")
        return 0
    entries = cache.entries()
    by_ns: dict[str, int] = {}
    for path in entries:
        ns = path.relative_to(cache.root).parts[0]
        by_ns[ns] = by_ns.get(ns, 0) + 1
    rows = [[ns, n] for ns, n in sorted(by_ns.items())]
    rows.append(["total", len(entries)])
    print(
        render_table(
            ["namespace", "entries"],
            rows,
            title=f"Result cache at {cache.root} ({cache.size_bytes():,} bytes)",
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    text = generate_report(include_training=args.with_training)
    if args.output == "-":
        print(text)
    else:
        import pathlib

        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({len(text)} chars)")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .experiments import fig02_workloads, fig09_servers

    print(fig02_workloads.render(fig02_workloads.run(seed=args.seed, num_days=args.days)))
    print()
    print(fig09_servers.render(fig09_servers.run(num_runs=args.runs, seed=args.seed)))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core import Adagrad, DLRM, Trainer, evaluate
    from .data import SyntheticDataGenerator, train_eval_split

    model_cfg = resolve_model(args.model)
    if model_cfg.embedding_parameters > 500_000_000:
        print(
            "refusing to functionally train a production-size model in a CLI "
            "demo; use a test:<dense>x<sparse> spec",
            file=sys.stderr,
        )
        return 2
    gen = SyntheticDataGenerator(model_cfg, rng=args.seed, seed_teacher=True)
    stream, eval_batches = train_eval_split(gen, batch_size=args.batch, num_eval_batches=2)
    model = DLRM(model_cfg, rng=args.seed + 1)
    trainer = Trainer(
        model,
        lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=args.lr),
    )
    result = trainer.train(stream, max_examples=args.examples)
    metrics = evaluate(model, eval_batches)
    print(
        f"{result.steps} steps, {result.examples_seen:,} examples | "
        f"final loss {result.smoothed_final_loss:.4f} | "
        f"NE {metrics['normalized_entropy']:.4f}"
        + (f" | AUC {metrics['auc']:.4f}" if "auc" in metrics else "")
    )
    return 0


#: ``repro faults <scenario>`` choices: name -> what gets injected.
FAULT_SCENARIOS = ("ps-crash", "trainer-crash", "mtbf", "drops", "degraded",
                   "interval-sweep")


def _fault_plan_for(scenario: str, horizon_s: float, mtbf_s: float, seed: int):
    """Build the FaultPlan for one named scenario."""
    from .resilience import (
        ComponentKind,
        DegradationWindow,
        FaultEvent,
        FaultPlan,
    )

    if scenario == "ps-crash":
        return FaultPlan(
            scheduled_crashes=(
                FaultEvent(ComponentKind.SPARSE_PS, 1, 0.5 * horizon_s),
            ),
            seed=seed,
        )
    if scenario == "trainer-crash":
        return FaultPlan(
            scheduled_crashes=(
                FaultEvent(ComponentKind.TRAINER, 0, 0.5 * horizon_s),
            ),
            seed=seed,
        )
    if scenario == "mtbf":
        return FaultPlan(sparse_ps_mtbf_s=mtbf_s, trainer_mtbf_s=4 * mtbf_s, seed=seed)
    if scenario == "drops":
        return FaultPlan(drop_probability=0.02, seed=seed)
    if scenario == "degraded":
        return FaultPlan(
            degradations=(
                DegradationWindow(
                    ComponentKind.SPARSE_PS, 0,
                    start_s=0.25 * horizon_s,
                    duration_s=0.5 * horizon_s,
                    slowdown=4.0,
                ),
            ),
            seed=seed,
        )
    raise ValueError(f"unknown fault scenario {scenario!r}")


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .distributed import ClusterConfig, SyncMode, simulate_cpu_cluster

    if args.scenario == "interval-sweep":
        from .experiments import ext_fault_tolerance

        result = ext_fault_tolerance.run(
            horizon_s=args.horizon, mtbf_s=args.mtbf, seed=args.seed
        )
        if args.json:
            payload = {
                "scenario": "interval-sweep",
                "young_daly_s": result.young_daly_s,
                "best_interval_s": result.best_interval_s(),
                "failure_free_goodput": result.failure_free_goodput,
                "intervals": [
                    {"interval_s": p.interval_s, "goodput": p.goodput,
                     "goodput_fraction": p.goodput_fraction,
                     "analytic_fraction": p.analytic_fraction}
                    for p in result.interval_points
                ],
                "modes": {
                    o.sync_mode: {"goodput": o.goodput,
                                  "availability": o.availability,
                                  "lost_examples": o.lost_examples}
                    for o in result.mode_outcomes
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            print(ext_fault_tolerance.render(result))
        return 0

    model = resolve_model(args.model)
    plan = _fault_plan_for(args.scenario, args.horizon, args.mtbf, args.seed)
    modes = [args.mode] if args.mode != "both" else list(SyncMode.ALL)
    payload = {
        "scenario": args.scenario,
        "model": model.name,
        "horizon_s": args.horizon,
        "checkpoint_interval_s": args.checkpoint_interval,
        "results": {},
    }
    for mode in modes:
        cfg = ClusterConfig(
            num_trainers=args.trainers,
            num_sparse_ps=args.sparse_ps,
            num_dense_ps=args.dense_ps,
            sync_mode=mode,
            fault_plan=plan,
            checkpoint_interval_s=args.checkpoint_interval,
            seed=args.seed,
        )
        result = simulate_cpu_cluster(model, cfg, horizon_s=args.horizon)
        summary = result.resilience_summary()
        summary["fault_events"] = [
            {"kind": e.kind, "index": e.index, "time_s": e.time_s}
            for e in result.fault_events
        ]
        payload["results"][mode] = summary
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    for mode in modes:
        s = payload["results"][mode]
        rows = [[k, f"{v:,.1f}" if isinstance(v, float) else str(v)]
                for k, v in s.items() if k != "fault_events"]
        print(
            render_table(
                ["metric", "value"],
                rows,
                title=f"Scenario {args.scenario!r}, sync_mode={mode} "
                      f"({len(s['fault_events'])} fault event(s))",
            )
        )
        print()
    return 0


#: ``repro trace <experiment>`` targets: name -> tracing driver.
TRACE_EXPERIMENTS = (
    "fig11", "fig14", "table3", "cpu_sim", "gpu_sim", "train"
)


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Tracer

    tracer = Tracer()
    name = args.experiment
    if name == "fig14":
        from .experiments import fig14_placement

        fig14_placement.run(tracer=tracer)
    elif name == "fig11":
        from .experiments import fig11_batch_scaling

        fig11_batch_scaling.run(tracer=tracer)
    elif name == "table3":
        from .experiments import table3_comparison

        table3_comparison.run(tracer=tracer)
    elif name == "cpu_sim":
        from .distributed import ClusterConfig, simulate_cpu_cluster

        model = resolve_model(args.model if args.model else "test:512x32")
        cfg = ClusterConfig(
            num_trainers=4, num_sparse_ps=4, num_dense_ps=1, seed=args.seed
        )
        simulate_cpu_cluster(model, cfg, horizon_s=0.25, tracer=tracer)
    elif name == "gpu_sim":
        from .distributed import simulate_gpu_server
        from .hardware import BIG_BASIN
        from .placement import PlacementStrategy, plan_placement

        model = resolve_model(args.model if args.model else "test:512x32")
        plan = plan_placement(model, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
        simulate_gpu_server(
            model, 1600, BIG_BASIN, plan, num_iterations=20,
            gpu_jitter_sigma=0.05, seed=args.seed, tracer=tracer,
        )
    elif name == "train":
        from .core import Adagrad, DLRM, Trainer
        from .data import SyntheticDataGenerator

        model_cfg = resolve_model(args.model if args.model else "test:32x8")
        gen = SyntheticDataGenerator(model_cfg, rng=args.seed, seed_teacher=True)
        model = DLRM(model_cfg, rng=args.seed + 1)
        trainer = Trainer(
            model,
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
            tracer=tracer,
        )
        trainer.train(iter(lambda: gen.batch(256), None), max_steps=25)
    else:  # pragma: no cover - argparse choices guard this
        print(f"unknown trace experiment {name!r}", file=sys.stderr)
        return 2
    n = tracer.export_chrome(args.out)
    totals = ", ".join(
        f"{cat} {secs * 1e3:.2f} ms" for cat, secs in tracer.total_by_category().items()
    )
    print(f"wrote {args.out}: {n} spans ({totals})")
    print("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing")
    return 0


#: ``repro mp <action>`` choices.
MP_ACTIONS = ("train", "scaling", "faults")


def _cmd_mp(args: argparse.Namespace) -> int:
    import json

    from .distributed.mp import HybridRunConfig, run_hybrid, run_hybrid_serial
    from .experiments import ext_mp_scaling

    if args.action == "faults":
        from .experiments import ext_mp_faults

        result = ext_mp_faults.run(
            workers=args.workers_n,
            steps=args.steps,
            batch_size=args.batch,
            checkpoint_every=args.checkpoint_every or 2,
            kill_rank=args.kill_rank,
            kill_step=args.kill_step,
            kill_phase=args.kill_phase,
            restarts=args.restarts,
            seed=args.seed,
            dtype=args.dtype or "float64",
            checkpoint_dir=args.checkpoint_dir,
        )
        if args.json:
            print(json.dumps(vars(result) | {
                "bitwise_identical": result.bitwise_identical,
            }, indent=2))
        else:
            print(ext_mp_faults.render(result))
        if not result.bitwise_identical:
            print("error: restarted run diverged from the uninterrupted "
                  "reference", file=sys.stderr)
            return 1
        return 0

    if args.action == "scaling":
        worker_counts = tuple(int(w) for w in args.workers.split(","))
        result = ext_mp_scaling.run(
            worker_counts=worker_counts,
            batch_size=args.batch,
            steps=args.steps,
            seed=args.seed,
            reps=args.reps,
            reduction=args.reduction,
        )
        if args.json:
            print(json.dumps({
                "serial_step_s": result.serial_step_s,
                "cores": result.cores,
                "reduction": result.reduction,
                "points": [vars(p) for p in result.points],
            }, indent=2))
        else:
            print(ext_mp_scaling.render(result))
        return 0

    config = (
        ext_mp_scaling.default_config()
        if args.model is None
        else resolve_model(args.model)
    )
    if args.dtype is not None:
        config = dataclasses.replace(config, compute_dtype=args.dtype)
    if config.embedding_parameters > 50_000_000:
        print("model too large for a CLI mp demo; use a test:<...> spec",
              file=sys.stderr)
        return 2
    import contextlib
    import tempfile

    ft = None
    with contextlib.ExitStack() as stack:
        ckpt_dir = args.checkpoint_dir
        if args.checkpoint_every and ckpt_dir is None:
            ckpt_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-mp-ckpt-")
            )
        run_cfg = HybridRunConfig(
            workers=args.workers_n,
            steps=args.steps,
            batch_size=args.batch,
            lr=args.lr,
            seed=args.seed,
            reduction=args.reduction,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=ckpt_dir,
        )
        if args.checkpoint_every:
            from .distributed.mp import RestartPolicy, run_hybrid_ft

            ft = run_hybrid_ft(
                config, run_cfg,
                policy=RestartPolicy(max_restarts=args.restarts),
            )
            result = ft.result
        else:
            result = run_hybrid(config, run_cfg)
    verified = None
    if args.verify:
        ref = run_hybrid_serial(config, run_cfg)
        bitwise = (
            result.losses == ref.losses
            and result.state_digest() == ref.state_digest()
        )
        if not bitwise and args.reduction == "ordered":
            print("error: ordered-mode run diverged from the serial reference",
                  file=sys.stderr)
            return 1
        verified = bitwise
    if args.json:
        print(json.dumps({
            "workers": result.workers,
            "steps": result.steps,
            "batch_size": result.batch_size,
            "reduction": result.reduction,
            "losses": result.losses,
            "step_time_s": result.step_time_s,
            "mean_step_s": result.mean_step_s,
            "comm_s": result.comm_s,
            "phase_s": result.phase_s,
            "state_digest": result.state_digest(),
            "owner_bytes": result.plan.owner_bytes(config) if result.plan else [],
            "verified_bitwise": verified,
            "checkpoints": result.checkpoints,
            "restarts_used": ft.restarts_used if ft is not None else 0,
        }, indent=2))
        return 0
    losses = ", ".join(f"{v:.4f}" for v in result.losses[:8])
    print(
        f"{result.workers} workers x {result.steps} steps @ global batch "
        f"{result.batch_size} ({result.reduction} allreduce)"
    )
    print(f"losses: {losses}{' ...' if len(result.losses) > 8 else ''}")
    print(
        f"step {result.step_time_s * 1e3:.2f} ms (best) / "
        f"{result.mean_step_s * 1e3:.2f} ms (mean) | "
        f"comm {result.comm_s * 1e3:.2f} ms total"
    )
    if result.plan is not None:
        mb = [f"{b / 1e6:.1f}MB" for b in result.plan.owner_bytes(config)]
        print(f"shard balance: {' / '.join(mb)}")
    if result.checkpoints:
        steps = ", ".join(str(s) for s, _ in result.checkpoints)
        print(f"checkpoints committed at steps: {steps}"
              + (f" (restarts used: {ft.restarts_used})" if ft else ""))
    if verified is not None:
        print(f"verified vs serial reference: "
              f"{'bit-identical' if verified else 'tolerance (ring mode)'}")
    return 0


TIER_ACTIONS = ("train", "sweep")


def _cmd_tier(args: argparse.Namespace) -> int:
    import json

    from .experiments import ext_tiering

    if args.action == "train":
        # Bit-identity gate: the tiered store must reproduce the flat
        # table exactly at every precision and hot fraction.
        results = [
            ext_tiering.run_train(
                hot_fraction=args.hot_fraction,
                policy=args.policy,
                steps=args.steps,
                batch=args.batch,
                seed=args.seed,
                dtype=dtype,
                chunk_rows=args.chunk_rows,
            )
            for dtype in ("float64", "float32")
        ]
        if args.json:
            print(json.dumps([
                {
                    "dtype": r.dtype,
                    "hot_fraction": r.hot_fraction,
                    "policy": r.policy,
                    "steps": r.steps,
                    "losses_identical": r.losses_identical,
                    "digests_identical": r.digests_identical,
                    "bit_identical": r.bit_identical,
                    "state_digest": r.digest_tiered,
                    "tier_stats": r.tier_stats,
                    "metric_hits": r.metric_hits,
                    "metric_misses": r.metric_misses,
                }
                for r in results
            ], indent=2))
        else:
            print(ext_tiering.render_train(results))
        if not all(r.bit_identical for r in results):
            print("error: tiered training diverged from the flat table",
                  file=sys.stderr)
            return 1
        return 0

    # sweep: measured simulated overhead vs the analytic tier-miss model.
    points = ext_tiering.run_sweep(
        hot_fractions=tuple(float(f) for f in args.hot_fractions.split(",")),
        skews=tuple(float(s) for s in args.skews.split(",")),
        policies=tuple(args.policies.split(",")),
        num_rows=args.rows,
        chunk_rows=args.chunk_rows,
        warmup=args.warmup,
        measure=args.measure,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps({
            "max_rel_err": args.max_rel_err,
            "points": [vars(p) | {"rel_err": p.rel_err} for p in points],
        }, indent=2))
    else:
        print(ext_tiering.render_sweep(points))
    worst = max(points, key=lambda p: p.rel_err)
    if worst.rel_err > args.max_rel_err:
        print(
            f"error: measured overhead diverges from the analytic model by "
            f"{worst.rel_err:.1%} (> {args.max_rel_err:.0%}) at "
            f"hot={worst.hot_fraction} skew={worst.skew} policy={worst.policy}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DLRM training-efficiency reproduction (HPCA 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="describe a model configuration")
    p.add_argument("--model", default="M1_prod")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("throughput", help="evaluate one training setup")
    p.add_argument("--model", default="M1_prod")
    p.add_argument("--platform", default="BigBasin",
                   choices=["cpu", "BigBasin", "BigBasin-16GB", "Zion"])
    p.add_argument("--placement", default="gpu_memory",
                   choices=["gpu_memory", "system_memory", "remote_cpu", "hybrid"])
    p.add_argument("--batch", type=int, default=1600)
    p.add_argument("--trainers", type=int, default=8)
    p.add_argument("--sparse-ps", type=int, default=8)
    p.add_argument("--dense-ps", type=int, default=2)
    p.set_defaults(func=_cmd_throughput)

    p = sub.add_parser("optimize", help="rank all feasible setups for a model")
    p.add_argument("--model", default="M1_prod")
    p.add_argument("--objective", default="throughput",
                   choices=["throughput", "perf_per_watt"])
    p.add_argument("--min-throughput", type=float, default=0.0)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("figures", help="regenerate paper figures/tables")
    p.add_argument("--only", nargs="*", metavar="FIG",
                   help=f"subset of {sorted(_FIGURES)}")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel sweep workers (0 = one per core; default 1 = in process)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="memoize grid points under DIR (default $REPRO_CACHE_DIR"
                        " or .repro-cache when --workers enables the runner)")
    p.add_argument("--no-cache", action="store_true",
                   help="run the parallel sweeps without the on-disk result cache")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("cache", help="inspect or clear the on-disk result cache")
    p.add_argument("action", choices=["info", "clear"])
    p.add_argument("--cache-dir", default=None, metavar="DIR")
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser("report", help="write the consolidated reproduction report")
    p.add_argument("--output", default="-", help="path or '-' for stdout")
    p.add_argument("--with-training", action="store_true",
                   help="include the (slow) Figure 15 real-training experiment")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fleet", help="fleet characterization report")
    p.add_argument("--days", type=int, default=7)
    p.add_argument("--runs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "trace", help="run an experiment with tracing and write a Chrome trace"
    )
    p.add_argument("experiment", choices=TRACE_EXPERIMENTS)
    p.add_argument("--out", default="trace.json", help="output Chrome-trace path")
    p.add_argument("--model", default=None,
                   help="model spec for cpu_sim/gpu_sim/train targets")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser(
        "faults", help="fault-injection scenarios on the cluster simulation"
    )
    p.add_argument("scenario", choices=FAULT_SCENARIOS)
    p.add_argument("--model", default="test:128x8",
                   help="model spec; checkpoint bytes (and so recovery cost)"
                        " scale with the embedding tables")
    p.add_argument("--mode", default="both", choices=["sync", "async", "both"],
                   help="synchronization discipline(s) to simulate")
    p.add_argument("--horizon", type=float, default=1.0,
                   help="simulated seconds (default 1.0)")
    p.add_argument("--checkpoint-interval", type=float, default=0.25,
                   help="seconds between checkpoints (default 0.25; must"
                        " exceed the checkpoint write cost to make progress)")
    p.add_argument("--mtbf", type=float, default=1.0,
                   help="per-sparse-PS MTBF seconds for the mtbf/interval-sweep"
                        " scenarios (default 1.0)")
    p.add_argument("--trainers", type=int, default=8)
    p.add_argument("--sparse-ps", type=int, default=4)
    p.add_argument("--dense-ps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser(
        "mp", help="multi-process hybrid-parallel training (shared-memory shards)"
    )
    p.add_argument("action", choices=MP_ACTIONS)
    p.add_argument("--model", default=None,
                   help="model spec (default: the mp scaling test model)")
    p.add_argument("--workers-n", type=int, default=2, metavar="N",
                   dest="workers_n", help="worker processes for 'train' (default 2)")
    p.add_argument("--workers", default="1,2,4",
                   help="comma-separated worker counts for 'scaling' (default 1,2,4)")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--batch", type=int, default=256,
                   help="global batch size (split across workers)")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--reps", type=int, default=2,
                   help="measurement repetitions for 'scaling'")
    p.add_argument("--reduction", default="ordered", choices=["ordered", "ring"],
                   help="dense allreduce order: 'ordered' is bit-deterministic, "
                        "'ring' is bandwidth-optimal")
    p.add_argument("--verify", action="store_true",
                   help="train: also run the serial reference and compare")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   dest="checkpoint_every",
                   help="write a sharded checkpoint every N global steps "
                        "(train/faults; enables elastic restart)")
    p.add_argument("--checkpoint-dir", default=None, dest="checkpoint_dir",
                   help="where checkpoints live (default: a temp dir)")
    p.add_argument("--restarts", type=int, default=1,
                   help="worker-set respawns permitted after a crash "
                        "(default 1)")
    p.add_argument("--kill-rank", type=int, default=1, dest="kill_rank",
                   help="faults: rank to SIGKILL (default 1)")
    p.add_argument("--kill-step", type=int, default=5, dest="kill_step",
                   help="faults: global step to kill at (default 5)")
    p.add_argument("--kill-phase", default="loss", dest="kill_phase",
                   choices=["loss", "allreduce", "checkpoint"],
                   help="faults: where inside the step the kill lands")
    p.add_argument("--dtype", default=None,
                   choices=["float64", "float32"],
                   help="compute dtype (train: default the model's; faults: float64)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_mp)

    p = sub.add_parser(
        "tier", help="software-managed tiered embedding store (hot DRAM / cold SCM)"
    )
    p.add_argument("action", choices=TIER_ACTIONS)
    p.add_argument("--hot-fraction", type=float, default=0.05, dest="hot_fraction",
                   help="train: hot-tier capacity as a fraction of rows")
    p.add_argument("--policy", default="freq", choices=["lru", "lfu", "freq"],
                   help="train: hot-tier admission/eviction policy")
    p.add_argument("--steps", type=int, default=8, help="train: optimizer steps")
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--chunk-rows", type=int, default=4, dest="chunk_rows",
                   help="rows per migration chunk")
    p.add_argument("--hot-fractions", default="0.02,0.05,0.1",
                   dest="hot_fractions",
                   help="sweep: comma-separated hot-tier fractions")
    p.add_argument("--skews", default="0.9,1.05",
                   help="sweep: comma-separated Zipf exponents")
    p.add_argument("--policies", default="lru,freq",
                   help="sweep: comma-separated policies")
    p.add_argument("--rows", type=int, default=4096,
                   help="sweep: table rows")
    p.add_argument("--warmup", type=int, default=20_000,
                   help="sweep: cache warm-up accesses (excluded)")
    p.add_argument("--measure", type=int, default=40_000,
                   help="sweep: measured accesses per point")
    p.add_argument("--max-rel-err", type=float, default=0.25, dest="max_rel_err",
                   help="sweep: per-point measured-vs-analytic gate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_tier)

    p = sub.add_parser("train", help="functional training run on synthetic data")
    p.add_argument("--model", default="test:32x8")
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--examples", type=int, default=20_000)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train)

    return parser


def main(argv: list[str] | None = None) -> int:
    from .hardware import CapacityError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"error: does not fit — {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
