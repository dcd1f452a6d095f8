"""Integration tests: full-stack scenarios crossing module boundaries."""

import numpy as np
import pytest

from repro.configs import build_m1, build_m3, make_test_model
from repro.core import (
    Adagrad,
    DLRM,
    Trainer,
    evaluate,
    grid_search,
)
from repro.data import SyntheticDataGenerator
from repro.distributed import ClusterConfig, EASGDConfig, EASGDTrainer, simulate_cpu_cluster
from repro.hardware import BIG_BASIN, DUAL_SOCKET_CPU, ZION, CapacityError
from repro.perf import cpu_cluster_throughput, gpu_server_throughput
from repro.placement import (
    PlacementStrategy,
    auto_plan,
    feasible_strategies,
    plan_placement,
)


class TestTrainThenTune:
    """Data -> model -> training -> hyper-parameter search, end to end."""

    def test_lr_search_improves_over_bad_lr(self, tiny_config):
        def objective(lr: float) -> float:
            gen = SyntheticDataGenerator(tiny_config, rng=11, seed_teacher=True)
            model = DLRM(tiny_config, rng=2)
            trainer = Trainer(
                model,
                lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=lr),
            )
            trainer.train(gen.batches(64), max_examples=6_000)
            eval_gen = SyntheticDataGenerator(tiny_config, rng=11, seed_teacher=True)
            return evaluate(model, [eval_gen.batch(512)])["normalized_entropy"]

        result = grid_search(objective, 1e-4, 0.5, num=5)
        worst = max(t.loss for t in result.trials)
        assert result.best.loss < worst - 1e-4


class TestPlacementPerfConsistency:
    """The placement planner and the perf model must agree on feasibility."""

    def test_m1_full_path(self):
        m1 = build_m1()
        plan = plan_placement(m1, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
        report = gpu_server_throughput(m1, 1600, BIG_BASIN, plan)
        assert report.throughput > 0
        assert report.breakdown.total == pytest.approx(report.iteration_time_s)

    def test_m3_cannot_take_the_m1_path(self):
        m3 = build_m3()
        with pytest.raises(CapacityError):
            plan_placement(m3, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
        feasible = feasible_strategies(
            m3, BIG_BASIN, ps_platform=DUAL_SOCKET_CPU, max_ps=8
        )
        assert PlacementStrategy.REMOTE_CPU in feasible
        plan = plan_placement(
            m3, BIG_BASIN, PlacementStrategy.REMOTE_CPU, num_ps=8,
            ps_platform=DUAL_SOCKET_CPU,
        )
        report = gpu_server_throughput(m3, 800, BIG_BASIN, plan)
        assert report.throughput > 0

    def test_auto_plan_throughput_ordering_is_sane(self):
        """auto_plan's choice should not be beaten badly by the rejected
        strategies it skipped (on platforms where both are feasible)."""
        m = make_test_model(512, 16, hash_size=1_000_000)
        plan = auto_plan(m, BIG_BASIN)
        auto_thr = gpu_server_throughput(m, 1600, BIG_BASIN, plan).throughput
        sys_plan = plan_placement(m, BIG_BASIN, PlacementStrategy.SYSTEM_MEMORY)
        sys_thr = gpu_server_throughput(m, 1600, BIG_BASIN, sys_plan).throughput
        assert auto_thr >= sys_thr

    def test_zion_auto_plan_for_giant_model(self):
        m = make_test_model(512, 64, hash_size=40_000_000)  # ~1.3 TB
        plan = auto_plan(m, ZION)
        report = gpu_server_throughput(m, 1600, ZION, plan)
        assert report.throughput > 0


class TestAnalyticVsEventSimulation:
    """The DES and the analytical model must tell the same story."""

    @pytest.mark.parametrize("trainers,ps", [(2, 1), (6, 3)])
    def test_throughput_within_2x(self, trainers, ps):
        m = make_test_model(512, 16)
        analytic = cpu_cluster_throughput(m, 200, trainers, ps, 1).throughput
        des = simulate_cpu_cluster(
            m, ClusterConfig(trainers, ps, 1, seed=0), horizon_s=1.0
        ).throughput
        assert 0.5 < des / analytic < 2.0

    def test_both_detect_ps_bottleneck(self):
        """Starving the sparse PS tier must cap throughput in both models."""
        m = make_test_model(64, 64, hash_size=1_000_000)
        rich = cpu_cluster_throughput(m, 200, 12, 8, 2).throughput
        starved = cpu_cluster_throughput(m, 200, 12, 1, 2).throughput
        assert starved < rich
        des_rich = simulate_cpu_cluster(
            m, ClusterConfig(12, 8, 2, seed=1), horizon_s=0.5
        ).throughput
        des_starved = simulate_cpu_cluster(
            m, ClusterConfig(12, 1, 2, seed=1), horizon_s=0.5
        ).throughput
        assert des_starved < des_rich


class TestDistributedQualityVsThroughputStory:
    """§VI-C in one test: async scaling buys throughput, costs quality."""

    def test_easgd_vs_single_worker_quality(self, tiny_config):
        budget = 12_000
        gen1 = SyntheticDataGenerator(tiny_config, rng=21, seed_teacher=True)
        single = Trainer(
            DLRM(tiny_config, rng=5),
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        single.train(gen1.batches(64), max_examples=budget)
        eval_gen = SyntheticDataGenerator(tiny_config, rng=21, seed_teacher=True)
        eval_batches = [eval_gen.batch(1024)]
        single_ne = evaluate(single.model, eval_batches)["normalized_entropy"]

        gen2 = SyntheticDataGenerator(tiny_config, rng=21, seed_teacher=True)
        multi = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=4, tau=8), lr=0.05, rng=5
        )
        multi.train(gen2.batches(64), max_examples=budget)
        multi_ne = evaluate(multi.center_dlrm(), eval_batches)["normalized_entropy"]

        # the tightly-synchronized setup is at least as good (paper §VI-C)
        assert single_ne <= multi_ne + 0.01
