"""Tests for repro.distributed: DES core, cluster sim, EASGD."""

from dataclasses import replace

import numpy as np
import pytest

from repro.configs import make_test_model
from repro.core import DLRM, Adagrad, Trainer, evaluate
from repro.core import embedding as embedding_mod
from repro.data import SyntheticDataGenerator
from repro.distributed import (
    ClusterConfig,
    EASGDConfig,
    EASGDTrainer,
    Resource,
    Simulator,
    simulate_cpu_cluster,
)
from repro.perf import cpu_cluster_throughput


class TestSimulatorCore:
    def test_events_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(0.2, lambda: order.append("b"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.3, lambda: order.append("c"))
        sim.run(until=1.0)
        assert order == ["a", "b", "c"]
        assert sim.now == 1.0
        assert sim.events_processed == 3

    def test_ties_fifo(self):
        sim = Simulator()
        order = []
        for tag in "abc":
            sim.schedule(0.5, lambda t=tag: order.append(t))
        sim.run(1.0)
        assert order == ["a", "b", "c"]

    def test_horizon_respected(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append(1))
        sim.run(until=1.0)
        assert not fired

    def test_chained_scheduling(self):
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                sim.schedule(0.1, tick)

        sim.schedule(0.0, tick)
        sim.run(until=10.0)
        assert count[0] == 5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_past_schedule_at_rejected(self):
        sim = Simulator()
        sim.run(1.0)
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)


class TestResource:
    def test_service_time(self):
        r = Resource("r", rate=100.0)
        done = r.submit(now=0.0, size_bytes=50.0)
        assert done == pytest.approx(0.5)

    def test_fifo_queueing(self):
        r = Resource("r", rate=100.0)
        first = r.submit(0.0, 100.0)
        second = r.submit(0.0, 100.0)  # arrives while busy
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_idle_gap_not_counted_busy(self):
        r = Resource("r", rate=100.0)
        r.submit(0.0, 50.0)
        r.submit(10.0, 50.0)
        assert r.busy_time == pytest.approx(1.0)
        assert r.utilization(20.0) == pytest.approx(0.05)

    def test_extra_latency(self):
        r = Resource("r", rate=100.0)
        assert r.submit(0.0, 100.0, extra_latency=0.5) == pytest.approx(1.5)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Resource("r", rate=0.0)


class TestClusterSimulation:
    @pytest.fixture(scope="class")
    def model(self):
        return make_test_model(512, 16)

    def test_throughput_close_to_analytic(self, model):
        cfg = ClusterConfig(num_trainers=4, num_sparse_ps=2, num_dense_ps=1, seed=0)
        des = simulate_cpu_cluster(model, cfg, horizon_s=1.0)
        analytic = cpu_cluster_throughput(model, 200, 4, 2, 1)
        assert des.throughput == pytest.approx(analytic.throughput, rel=0.5)

    def test_scaling_with_trainers(self, model):
        small = simulate_cpu_cluster(
            model, ClusterConfig(2, 2, 1, seed=0), horizon_s=1.0
        )
        big = simulate_cpu_cluster(
            model, ClusterConfig(6, 2, 1, seed=0), horizon_s=1.0
        )
        assert big.throughput > 1.8 * small.throughput

    def test_utilizations_bounded(self, model):
        cfg = ClusterConfig(4, 2, 1, jitter_sigma=0.2, seed=3)
        r = simulate_cpu_cluster(model, cfg, horizon_s=0.5)
        for values in (
            r.trainer_cpu_utilization,
            r.sparse_ps_mem_utilization,
            r.dense_ps_nic_utilization,
        ):
            assert all(0 <= v <= 1 for v in values)

    def test_jitter_creates_spread(self, model):
        cfg = ClusterConfig(8, 4, 1, jitter_sigma=0.3, seed=1)
        r = simulate_cpu_cluster(model, cfg, horizon_s=0.5)
        assert np.std(r.sparse_ps_mem_utilization) > 0.01

    def test_summary_keys(self, model):
        r = simulate_cpu_cluster(model, ClusterConfig(2, 1, 1), horizon_s=0.2)
        assert set(r.utilization_summary()) == {
            "trainer_cpu",
            "trainer_nic",
            "sparse_ps_mem",
            "sparse_ps_nic",
            "dense_ps_nic",
        }

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(0, 1, 1)
        with pytest.raises(ValueError):
            ClusterConfig(1, 1, 1, batch_per_trainer=0)


class TestEASGD:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            EASGDConfig(num_workers=0)
        with pytest.raises(ValueError):
            EASGDConfig(alpha=1.5)
        with pytest.raises(ValueError):
            EASGDConfig(tau=0)

    def test_training_reduces_loss(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2, tau=2), lr=0.05, rng=0)
        history = trainer.train(tiny_generator.batches(64), max_examples=16000)
        assert np.mean(history[-5:]) < history[0]

    def test_center_model_learns(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2, tau=2), lr=0.05, rng=0)
        eval_batches = [tiny_generator.batch(512)]
        ne_before = evaluate(trainer.center_dlrm(), eval_batches)["normalized_entropy"]
        trainer.train(tiny_generator.batches(64), max_examples=16000)
        ne_after = evaluate(trainer.center_dlrm(), eval_batches)["normalized_entropy"]
        assert ne_after < ne_before

    def test_elastic_sync_pulls_workers_together(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2, tau=1, alpha=0.5), lr=0.05, rng=0)
        trainer.train(tiny_generator.batches(32), max_examples=4000)
        w0 = trainer.workers[0].get_dense_state()
        w1 = trainer.workers[1].get_dense_state()
        center = trainer.center_state
        for a, b, c in zip(w0, w1, center):
            # workers stay within a bounded distance of the center
            assert np.linalg.norm(a - c) < 10 * np.sqrt(c.size) + 1
            assert np.linalg.norm(b - c) < 10 * np.sqrt(c.size) + 1

    def test_workers_share_embedding_tables(self, tiny_config):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2), rng=0)
        t0 = trainer.workers[0].embedding_tables()[0]
        t1 = trainer.workers[1].embedding_tables()[0]
        assert t0 is t1

    def test_workers_draw_no_tables(self, tiny_config, monkeypatch):
        """Only the center draws its tables: the workers share them."""
        draws = []
        draw = embedding_mod._draw_uniform
        monkeypatch.setattr(
            embedding_mod, "_draw_uniform",
            lambda weight, *args: (draws.append(weight.shape), draw(weight, *args)),
        )
        EASGDTrainer(tiny_config, EASGDConfig(num_workers=4), rng=0)
        assert len(draws) == len(tiny_config.tables)

    def test_round_requires_matching_batches(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2), rng=0)
        with pytest.raises(ValueError):
            trainer.round([tiny_generator.batch(8)])

    def test_stream_ending_mid_budget_raises(self, tiny_config, tiny_generator):
        """Two full rounds, then a third that gets one of its two batches:
        the run raises, as ``Trainer.train`` does, and says what it took."""
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2), rng=0)
        stream = iter([tiny_generator.batch(16) for _ in range(5)])
        with pytest.raises(ValueError, match=r"after 64 examples \(2 rounds; 16 more"):
            trainer.train(stream, max_examples=160)
        assert trainer.examples_seen == 64

    @pytest.mark.parametrize("backend", ["fused", "numpy"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_worker_is_the_plain_trainer(self, tiny_config, dtype, backend):
        """One worker that never syncs steps exactly as ``Trainer`` does."""
        config = replace(tiny_config, compute_dtype=dtype, backend=backend)
        easgd = EASGDTrainer(config, EASGDConfig(num_workers=1, tau=1000), lr=0.05, rng=7)
        history = easgd.train(
            SyntheticDataGenerator(config, rng=3).batches(24), max_examples=24 * 10
        )
        plain = Trainer(
            DLRM(config, rng=7),
            lambda m: Adagrad(m.dense_parameters(), m.embedding_tables(), lr=0.05),
        )
        result = plain.train(
            SyntheticDataGenerator(config, rng=3).batches(24), max_examples=24 * 10
        )
        assert history == result.loss_history
        worker = easgd.workers[0]
        for got, want in zip(worker.dense_parameters(), plain.model.dense_parameters()):
            np.testing.assert_array_equal(got.value, want.value)
        tables = plain.model.embedding_tables()
        accumulators = plain.optimizer.slots()[1]
        for i, table in enumerate(easgd.center_model.embedding_tables()):
            np.testing.assert_array_equal(table.weight, tables[i].weight)
            np.testing.assert_array_equal(
                easgd.accumulators[i], accumulators[table.spec.name]
            )


class TestStragglerInjection:
    """'The tail at scale': one slow PS gates synchronous lookups (§III)."""

    def test_one_straggler_caps_throughput(self):
        m = make_test_model(64, 64, hash_size=1_000_000)
        healthy = simulate_cpu_cluster(
            m, ClusterConfig(8, 4, 1, seed=2), horizon_s=0.5
        )
        degraded = simulate_cpu_cluster(
            m,
            ClusterConfig(8, 4, 1, straggler_fraction=0.25, straggler_slowdown=4.0, seed=2),
            horizon_s=0.5,
        )
        assert degraded.throughput < 0.7 * healthy.throughput

    def test_straggler_shows_in_utilization_spread(self):
        m = make_test_model(64, 64, hash_size=1_000_000)
        r = simulate_cpu_cluster(
            m,
            ClusterConfig(8, 4, 1, straggler_fraction=0.25, straggler_slowdown=4.0, seed=2),
            horizon_s=0.5,
        )
        utils = r.sparse_ps_mem_utilization
        # the straggler is visibly busier than its healthy peers
        assert max(utils) > 1.5 * min(utils)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(1, 1, 1, straggler_fraction=1.5)
        with pytest.raises(ValueError):
            ClusterConfig(1, 1, 1, straggler_slowdown=0.5)


class TestGpuServerSimulation:
    def test_close_to_analytic(self):
        from repro.distributed import simulate_gpu_server
        from repro.hardware import BIG_BASIN
        from repro.perf import gpu_server_throughput
        from repro.placement import PlacementStrategy, plan_placement

        m = make_test_model(512, 32, hash_size=2_000_000)
        plan = plan_placement(m, BIG_BASIN, PlacementStrategy.GPU_MEMORY)
        analytic = gpu_server_throughput(m, 1600, BIG_BASIN, plan).throughput
        des = simulate_gpu_server(m, 1600, BIG_BASIN, plan, num_iterations=20)
        assert 0.5 < des.throughput / analytic < 2.0

    def test_jitter_slows_lockstep_iterations(self):
        from repro.distributed import simulate_gpu_server
        from repro.hardware import BIG_BASIN
        from repro.placement import plan_gpu_memory

        m = make_test_model(512, 32, hash_size=2_000_000)
        plan = plan_gpu_memory(m, BIG_BASIN)
        calm = simulate_gpu_server(m, 1600, BIG_BASIN, plan, num_iterations=30, seed=3)
        noisy = simulate_gpu_server(
            m, 1600, BIG_BASIN, plan, num_iterations=30, gpu_jitter_sigma=0.3, seed=3
        )
        # waiting for the slowest of 8 jittered GPUs costs throughput
        assert noisy.throughput < calm.throughput

    def test_gpu_busy_fractions_bounded(self):
        from repro.distributed import simulate_gpu_server
        from repro.hardware import BIG_BASIN
        from repro.placement import plan_gpu_memory

        m = make_test_model(512, 32, hash_size=2_000_000)
        plan = plan_gpu_memory(m, BIG_BASIN)
        r = simulate_gpu_server(m, 1600, BIG_BASIN, plan, num_iterations=10)
        assert len(r.gpu_busy_fraction) == 8
        assert all(0 <= b <= 1 for b in r.gpu_busy_fraction)
        assert 0 <= r.host_busy_fraction <= 1
        assert r.gpu_imbalance >= 1.0

    def test_hot_table_creates_imbalance(self):
        from repro.core import InteractionType, MLPSpec, ModelConfig, TableSpec
        from repro.distributed import simulate_gpu_server
        from repro.hardware import BIG_BASIN
        from repro.placement import PlannerConfig, plan_gpu_memory

        tables = (TableSpec("hot", 4_000_000, dim=64, mean_lookups=200.0),) + tuple(
            TableSpec(f"cold{i}", 4_000_000, dim=64, mean_lookups=2.0)
            for i in range(7)
        )
        m = ModelConfig("hot", 64, tables, MLPSpec((128,)), MLPSpec((128,)),
                        InteractionType.CONCAT)
        table_wise = plan_gpu_memory(m, BIG_BASIN)
        row_wise = plan_gpu_memory(m, BIG_BASIN, cfg=PlannerConfig(partitioning="row_wise"))
        imb_t = simulate_gpu_server(m, 1600, BIG_BASIN, table_wise, 10).gpu_imbalance
        imb_r = simulate_gpu_server(m, 1600, BIG_BASIN, row_wise, 10).gpu_imbalance
        assert imb_t > imb_r

    def test_validation(self):
        from repro.distributed import simulate_gpu_server
        from repro.hardware import BIG_BASIN, DUAL_SOCKET_CPU
        from repro.placement import plan_gpu_memory

        m = make_test_model(64, 4)
        plan = plan_gpu_memory(m, BIG_BASIN)
        with pytest.raises(ValueError):
            simulate_gpu_server(m, 1600, BIG_BASIN, plan, num_iterations=0)
        with pytest.raises(ValueError):
            simulate_gpu_server(m, 0, BIG_BASIN, plan)
        with pytest.raises(ValueError):
            simulate_gpu_server(m, 1600, DUAL_SOCKET_CPU, plan)


class TestReaderTier:
    """§IV-B.2: readers are scaled so data loading never stalls training;
    under-provisioning them must visibly cap throughput."""

    def test_ample_readers_do_not_stall(self):
        m = make_test_model(512, 16)
        base = simulate_cpu_cluster(m, ClusterConfig(6, 3, 1, seed=0), horizon_s=0.5)
        with_readers = simulate_cpu_cluster(
            m, ClusterConfig(6, 3, 1, num_readers=20, seed=0), horizon_s=0.5
        )
        assert with_readers.throughput == pytest.approx(base.throughput, rel=0.1)

    def test_starved_readers_cap_throughput(self):
        m = make_test_model(512, 16)
        base = simulate_cpu_cluster(m, ClusterConfig(6, 3, 1, seed=0), horizon_s=0.5)
        starved = simulate_cpu_cluster(
            m,
            ClusterConfig(6, 3, 1, num_readers=1, reader_examples_per_s=20_000, seed=0),
            horizon_s=0.5,
        )
        assert starved.throughput < 0.5 * base.throughput
        # the cap is the reader tier's aggregate rate
        assert starved.throughput <= 20_000 * 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(1, 1, 1, num_readers=0)
        with pytest.raises(ValueError):
            ClusterConfig(1, 1, 1, reader_examples_per_s=0)


class TestDegradationWindows:
    """Soft failures via FaultPlan.degradations: a component running N-times
    slower for a window (the resilience-layer route to stragglers)."""

    def test_degraded_ps_costs_throughput(self):
        from repro.resilience import ComponentKind, DegradationWindow, FaultPlan

        m = make_test_model(64, 64, hash_size=1_000_000)
        healthy = simulate_cpu_cluster(
            m, ClusterConfig(8, 4, 1, seed=2), horizon_s=0.5
        )
        plan = FaultPlan(
            degradations=(
                DegradationWindow(
                    ComponentKind.SPARSE_PS, 0, start_s=0.0, duration_s=0.5,
                    slowdown=4.0,
                ),
            )
        )
        degraded = simulate_cpu_cluster(
            m, ClusterConfig(8, 4, 1, seed=2, fault_plan=plan), horizon_s=0.5
        )
        assert degraded.throughput < 0.85 * healthy.throughput

    def test_window_end_restores_service(self):
        from repro.resilience import ComponentKind, DegradationWindow, FaultPlan

        m = make_test_model(64, 64, hash_size=1_000_000)

        def run(duration):
            plan = FaultPlan(
                degradations=(
                    DegradationWindow(
                        ComponentKind.SPARSE_PS, 0, start_s=0.0,
                        duration_s=duration, slowdown=8.0,
                    ),
                )
            )
            return simulate_cpu_cluster(
                m, ClusterConfig(8, 4, 1, seed=2, fault_plan=plan), horizon_s=0.5
            ).throughput

        # a window covering 20% of the horizon hurts less than one covering
        # all of it (service rates are restored at end_s)
        assert run(0.1) > run(0.5)

    def test_degraded_trainer_only_slows_itself(self):
        from repro.resilience import ComponentKind, DegradationWindow, FaultPlan

        m = make_test_model(512, 16)
        plan = FaultPlan(
            degradations=(
                DegradationWindow(
                    ComponentKind.TRAINER, 0, start_s=0.0, duration_s=0.5,
                    slowdown=4.0,
                ),
            )
        )
        r = simulate_cpu_cluster(
            m, ClusterConfig(4, 2, 1, seed=0, fault_plan=plan), horizon_s=0.5
        )
        base = simulate_cpu_cluster(
            m, ClusterConfig(4, 2, 1, seed=0), horizon_s=0.5
        )
        # async cluster: one slow trainer dents aggregate throughput by
        # roughly its own share, not 4x
        assert 0.6 * base.throughput < r.throughput < base.throughput


class TestEASGDMembership:
    """Worker dropout/rejoin (§III-A.6): async training degrades gracefully."""

    def test_drop_and_continue_on_survivors(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=3, tau=2), lr=0.05, rng=0
        )
        stream = tiny_generator.batches(16)
        trainer.round([next(stream) for _ in range(3)])
        trainer.drop_worker(1)
        assert trainer.active_workers() == [0, 2]
        loss = trainer.round([next(stream) for _ in range(2)])
        assert np.isfinite(loss)
        assert trainer.drops == 1

    def test_round_batch_count_follows_membership(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=3), lr=0.05, rng=0
        )
        trainer.drop_worker(0)
        stream = tiny_generator.batches(8)
        with pytest.raises(ValueError):
            trainer.round([next(stream) for _ in range(3)])

    def test_train_keeps_learning_after_dropout(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=3, tau=2), lr=0.05, rng=0
        )
        stream = tiny_generator.batches(64)
        trainer.train(stream, max_examples=6000)
        trainer.drop_worker(2)
        history = trainer.train(stream, max_examples=16000)
        assert np.mean(history[-5:]) < np.mean(history[:5]) + 0.05

    def test_rejoin_restores_from_center(self, tiny_config, tiny_generator):
        trainer = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=2, tau=1), lr=0.05, rng=0
        )
        stream = tiny_generator.batches(16)
        trainer.round([next(stream) for _ in range(2)])
        trainer.drop_worker(1)
        trainer.round([next(stream)])
        trainer.rejoin_worker(1)
        assert trainer.active_workers() == [0, 1]
        assert trainer.rejoins == 1
        # the rejoined replica restarted from the center copy, bit for bit
        for p, center in zip(
            trainer.workers[1].dense_parameters(), trainer.center_state
        ):
            assert np.array_equal(p.value, center)

    def test_rejoin_keeps_the_shared_sparse_state(self, tiny_config, tiny_generator):
        """The tables and their Adagrad accumulators are one shared state
        that a rejoin leaves alone; only the worker's dense half restarts."""
        trainer = EASGDTrainer(
            tiny_config, EASGDConfig(num_workers=2, tau=1), lr=0.05, rng=0
        )
        stream = tiny_generator.batches(16)
        trainer.round([next(stream) for _ in range(2)])
        trainer.drop_worker(1)
        trainer.round([next(stream)])
        tables = trainer.center_model.embedding_tables()
        shared = trainer.accumulators
        before = [(t.weight.copy(), a.copy()) for t, a in zip(tables, shared)]
        trainer.rejoin_worker(1)
        for table, accumulator, (weight, state) in zip(tables, shared, before):
            np.testing.assert_array_equal(table.weight, weight)
            np.testing.assert_array_equal(accumulator, state)
        for p, center in zip(trainer.workers[1].dense_parameters(), trainer.center_state):
            np.testing.assert_array_equal(p.value, center)
        assert not any(s.any() for s in trainer.trainers[1].optimizer.slots()[0])
        for worker_trainer in trainer.trainers:
            adopted = worker_trainer.optimizer.slots()[1].values()
            assert all(s is a for s, a in zip(adopted, shared, strict=True))

    def test_membership_validation(self, tiny_config):
        trainer = EASGDTrainer(tiny_config, EASGDConfig(num_workers=2), rng=0)
        with pytest.raises(ValueError):
            trainer.drop_worker(5)
        with pytest.raises(ValueError):
            trainer.rejoin_worker(0)  # not down
        trainer.drop_worker(0)
        with pytest.raises(ValueError):
            trainer.drop_worker(0)  # already down
        with pytest.raises(ValueError):
            trainer.drop_worker(1)  # last active worker
