"""Tests for repro.resilience: faults, retries, recovery economics, and the
fault-tolerant behavior of the cluster simulation and functional trainers.

Kill-and-restore of the single-process trainer (a checkpoint, a lost
window, a bit-identical resume) is ``tests/test_checkpoint.py``."""

import numpy as np
import pytest

from repro.configs import make_test_model
from repro.distributed import ClusterConfig, SyncMode, simulate_cpu_cluster
from repro.hardware import DUAL_SOCKET_CPU
from repro.obs.registry import MetricsRegistry
from repro.resilience import (
    ComponentKind,
    DegradationWindow,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    GoodputLedger,
    RetryPolicy,
    checkpoint_write_time_s,
    expected_goodput_fraction,
    model_checkpoint_bytes,
    restore_time_s,
    young_daly_interval_s,
)


# ---------------------------------------------------------------------------
# RetryPolicy


class TestRetryPolicy:
    def test_backoff_grows_then_caps(self):
        p = RetryPolicy(max_attempts=6, base_delay_s=0.01, multiplier=2.0,
                        max_delay_s=0.05, jitter=0.0)
        delays = [p.backoff_s(a) for a in range(1, 6)]
        assert delays == [0.01, 0.02, 0.04, 0.05, 0.05]

    def test_jitter_stays_in_band(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=1.0, max_delay_s=0.1,
                        jitter=0.5)
        rng = np.random.default_rng(0)
        for _ in range(100):
            d = p.backoff_s(1, rng)
            assert 0.05 <= d <= 0.1

    def test_no_rng_means_deterministic_even_with_jitter(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=1.0, max_delay_s=0.1,
                        jitter=0.5)
        assert p.backoff_s(1) == 0.1

    def test_total_penalty_counts_deadline_and_backoff(self):
        p = RetryPolicy(max_attempts=4, base_delay_s=0.01, multiplier=2.0,
                        max_delay_s=1.0, jitter=0.0, deadline_s=0.1)
        assert p.total_penalty_s(0) == 0.0
        assert p.total_penalty_s(2) == pytest.approx(0.1 + 0.01 + 0.1 + 0.02)

    def test_retries_excludes_first_attempt(self):
        assert RetryPolicy(max_attempts=4).retries() == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -0.1},
            {"multiplier": 0.5},
            {"base_delay_s": 0.5, "max_delay_s": 0.1},
            {"jitter": 1.5},
            {"deadline_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_bad_attempt_number(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_s(0)


# ---------------------------------------------------------------------------
# FaultPlan / FaultInjector


class TestFaultPlan:
    def test_noop_detection(self):
        assert FaultPlan().is_noop
        assert not FaultPlan(sparse_ps_mtbf_s=1.0).is_noop
        assert not FaultPlan(drop_probability=0.1).is_noop
        assert not FaultPlan(
            scheduled_crashes=(FaultEvent(ComponentKind.TRAINER, 0, 0.5),)
        ).is_noop

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(sparse_ps_mtbf_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.0)
        with pytest.raises(ValueError):
            DegradationWindow(ComponentKind.TRAINER, 0, start_s=0.0,
                              duration_s=0.5, slowdown=0.5)
        with pytest.raises(ValueError):
            DegradationWindow("gpu", 0, start_s=0.0, duration_s=0.5)

    def test_scheduled_crashes_filtered_by_horizon(self):
        plan = FaultPlan(
            scheduled_crashes=(
                FaultEvent(ComponentKind.SPARSE_PS, 0, 0.25),
                FaultEvent(ComponentKind.SPARSE_PS, 1, 5.0),
            )
        )
        events = FaultInjector(plan).sample_crashes(
            {ComponentKind.SPARSE_PS: 2}, horizon_s=1.0
        )
        assert [e.time_s for e in events] == [0.25]

    def test_sampling_is_deterministic_in_seed(self):
        plan = FaultPlan(trainer_mtbf_s=0.2, seed=42)
        counts = {ComponentKind.TRAINER: 4}
        a = FaultInjector(plan).sample_crashes(counts, 1.0)
        b = FaultInjector(plan).sample_crashes(counts, 1.0)
        assert a == b
        c = FaultInjector(FaultPlan(trainer_mtbf_s=0.2, seed=43)).sample_crashes(
            counts, 1.0
        )
        assert a != c

    def test_sampled_events_sorted_and_capped(self):
        plan = FaultPlan(trainer_mtbf_s=0.001, max_random_crashes=5)
        events = FaultInjector(plan).sample_crashes({ComponentKind.TRAINER: 2}, 1.0)
        times = [e.time_s for e in events]
        assert times == sorted(times)
        assert len(events) <= 10  # 5 per component

    def test_drop_probability_rate(self):
        inj = FaultInjector(FaultPlan(drop_probability=0.3, seed=1))
        rate = sum(inj.drops_request() for _ in range(2000)) / 2000
        assert 0.25 < rate < 0.35
        assert not FaultInjector(FaultPlan()).drops_request()

    def test_slowdown_windows(self):
        w = DegradationWindow(ComponentKind.SPARSE_PS, 1, start_s=0.2,
                              duration_s=0.3, slowdown=4.0)
        inj = FaultInjector(FaultPlan(degradations=(w,)))
        assert inj.slowdown_at(ComponentKind.SPARSE_PS, 1, 0.1) == 1.0
        assert inj.slowdown_at(ComponentKind.SPARSE_PS, 1, 0.3) == 4.0
        assert inj.slowdown_at(ComponentKind.SPARSE_PS, 1, 0.5) == 1.0
        assert inj.slowdown_at(ComponentKind.SPARSE_PS, 0, 0.3) == 1.0


# ---------------------------------------------------------------------------
# Recovery economics


class TestRecovery:
    def test_checkpoint_bytes_match_config(self):
        model = make_test_model(64, 4)
        payload = model.dense_parameter_bytes + model.embedding_bytes
        assert model_checkpoint_bytes(model, include_optimizer=False) == payload
        assert model_checkpoint_bytes(model) == 2 * payload

    def test_sharding_speeds_up_write_and_restore(self):
        b = 1e9
        assert checkpoint_write_time_s(b, DUAL_SOCKET_CPU, shards=4) < \
            checkpoint_write_time_s(b, DUAL_SOCKET_CPU, shards=1)
        assert restore_time_s(b, DUAL_SOCKET_CPU, shards=4) < \
            restore_time_s(b, DUAL_SOCKET_CPU, shards=1)

    def test_restore_exceeds_write(self):
        # restore adds restart overhead + a cold memory fill
        b = 1e9
        assert restore_time_s(b, DUAL_SOCKET_CPU) > \
            checkpoint_write_time_s(b, DUAL_SOCKET_CPU)

    def test_young_daly_formula(self):
        assert young_daly_interval_s(200.0, 1.0) == pytest.approx(20.0)
        with pytest.raises(ValueError):
            young_daly_interval_s(0.0, 1.0)

    def test_expected_goodput_peaks_near_young_daly(self):
        mtbf, cost = 100.0, 0.5
        yd = young_daly_interval_s(mtbf, cost)
        at_yd = expected_goodput_fraction(yd, cost, mtbf)
        assert at_yd > expected_goodput_fraction(yd / 20, cost, mtbf)
        assert at_yd > expected_goodput_fraction(yd * 20, cost, mtbf)
        assert 0.0 < at_yd < 1.0


class TestGoodputLedger:
    def test_credit_and_goodput(self):
        led = GoodputLedger()
        led.credit(100)
        led.credit(50)
        assert led.useful_examples == 150
        assert led.goodput(3.0) == pytest.approx(50.0)

    def test_rollback_to_watermark(self):
        led = GoodputLedger()
        led.credit(100)
        led.mark_checkpoint(0.1)
        led.credit(60)
        lost = led.rollback(1.0)
        assert lost == 60
        assert led.useful_examples == 100
        assert led.completed_examples == 160  # gross is monotone
        assert led.checkpoint_time_s == pytest.approx(0.1)

    def test_partial_rollback_is_shard_fraction(self):
        led = GoodputLedger()
        led.credit(100)
        assert led.rollback(0.25) == 25
        assert led.useful_examples == 75

    def test_rollback_twice_does_not_double_count(self):
        led = GoodputLedger()
        led.credit(100)
        led.rollback(1.0)
        assert led.rollback(1.0) == 0
        assert led.useful_examples == 0

    def test_validation(self):
        led = GoodputLedger()
        with pytest.raises(ValueError):
            led.credit(-1)
        with pytest.raises(ValueError):
            led.rollback(1.5)
        with pytest.raises(ValueError):
            led.goodput(0.0)


# ---------------------------------------------------------------------------
# Event-level cluster resilience (the paper's sync-vs-async argument)


class TestClusterResilience:
    @pytest.fixture(scope="class")
    def model(self):
        return make_test_model(128, 8)

    def _config(self, **kw):
        base = dict(num_trainers=8, num_sparse_ps=4, num_dense_ps=1, seed=0)
        base.update(kw)
        return ClusterConfig(**base)

    def test_failure_free_goodput_equals_throughput(self, model):
        result = simulate_cpu_cluster(model, self._config(), horizon_s=0.5)
        assert result.goodput == pytest.approx(result.throughput)
        assert result.availability == 1.0
        assert result.lost_examples == 0
        assert result.crashes == 0
        assert result.fault_events == []

    def test_noop_plan_is_bit_identical_to_no_plan(self, model):
        a = simulate_cpu_cluster(model, self._config(), horizon_s=0.5)
        b = simulate_cpu_cluster(
            model, self._config(fault_plan=FaultPlan()), horizon_s=0.5
        )
        assert a.throughput == b.throughput
        assert a.iterations_completed == b.iterations_completed
        assert a.trainer_cpu_utilization == b.trainer_cpu_utilization

    def test_async_survives_ps_crash_sync_drops_more(self, model):
        """The headline acceptance: under a single sparse-PS crash, async
        goodput stays within 25% of failure-free while sync loses strictly
        more (full rollback + global stall)."""
        horizon = 1.0
        baseline = simulate_cpu_cluster(model, self._config(), horizon_s=horizon)
        plan = FaultPlan(
            scheduled_crashes=(FaultEvent(ComponentKind.SPARSE_PS, 1, 0.5),)
        )
        outcomes = {}
        for mode in SyncMode.ALL:
            cfg = self._config(
                sync_mode=mode, fault_plan=plan, checkpoint_interval_s=0.25
            )
            outcomes[mode] = simulate_cpu_cluster(model, cfg, horizon_s=horizon)
        async_r, sync_r = outcomes[SyncMode.ASYNC], outcomes[SyncMode.SYNC]
        assert async_r.crashes == 1 and sync_r.crashes == 1
        # async keeps >= 75% of failure-free goodput
        assert async_r.goodput >= 0.75 * baseline.goodput
        # sync loses strictly more than async, every way you slice it
        assert sync_r.goodput < async_r.goodput
        assert sync_r.lost_examples > async_r.lost_examples
        assert sync_r.availability < async_r.availability
        # the crash costs something in both modes
        assert async_r.goodput < baseline.goodput

    def test_trainer_crash_cheaper_than_ps_crash(self, model):
        def run(kind):
            plan = FaultPlan(scheduled_crashes=(FaultEvent(kind, 0, 0.5),))
            cfg = self._config(fault_plan=plan, checkpoint_interval_s=0.25)
            return simulate_cpu_cluster(model, cfg, horizon_s=1.0)

        trainer_r = run(ComponentKind.TRAINER)
        ps_r = run(ComponentKind.SPARSE_PS)
        # a trainer holds no embedding shard: restoring it moves far fewer
        # bytes, so its downtime (and goodput dent) is smaller
        assert trainer_r.recovery_time < ps_r.recovery_time
        assert trainer_r.goodput > ps_r.goodput

    def test_request_drops_are_retried_not_fatal(self, model):
        # deadline sized to the ~3.5ms iteration (the default 50ms RPC
        # timeout would burn ~15 iterations per drop)
        retry = RetryPolicy(max_attempts=4, base_delay_s=0.001, multiplier=2.0,
                            max_delay_s=0.01, jitter=0.5, deadline_s=0.005)
        plan = FaultPlan(drop_probability=0.02, seed=3)
        cfg = self._config(fault_plan=plan, retry=retry)
        result = simulate_cpu_cluster(model, cfg, horizon_s=0.5)
        assert result.requests_dropped > 0
        assert result.retries > 0
        # with p=0.02 and 4 attempts, full-failure probability is ~2e-7:
        # the cluster keeps most of its throughput
        base = simulate_cpu_cluster(model, self._config(), horizon_s=0.5)
        assert result.goodput > 0.5 * base.goodput
        assert result.goodput < base.goodput

    def test_checkpoint_interval_tradeoff(self, model):
        """Too-frequent checkpointing costs goodput (write stalls)."""
        plan = FaultPlan(sparse_ps_mtbf_s=2.0, seed=0)

        def goodput(tau):
            cfg = self._config(fault_plan=plan, checkpoint_interval_s=tau)
            return simulate_cpu_cluster(model, cfg, horizon_s=1.0).goodput

        # checkpoint cost for this model/shard count is ~8ms; an interval
        # of 20ms spends ~1/3 of all time checkpointing
        assert goodput(0.25) > goodput(0.02)

    def test_resilience_summary_keys(self, model):
        result = simulate_cpu_cluster(model, self._config(), horizon_s=0.25)
        summary = result.resilience_summary()
        for key in ("goodput", "throughput", "availability", "lost_examples",
                    "crashes", "retries", "requests_dropped", "recovery_time_s",
                    "stall_time_s", "checkpoint_time_s", "checkpoints_taken"):
            assert key in summary
            assert isinstance(summary[key], float)

    def test_registry_receives_resilience_series(self, model):
        registry = MetricsRegistry()
        plan = FaultPlan(
            scheduled_crashes=(FaultEvent(ComponentKind.SPARSE_PS, 0, 0.1),)
        )
        cfg = self._config(fault_plan=plan, checkpoint_interval_s=0.2)
        simulate_cpu_cluster(model, cfg, horizon_s=0.5, registry=registry)
        assert registry.get("resilience.crashes").value == 1
        assert registry.get("resilience.goodput").value > 0
        assert 0 <= registry.get("resilience.availability").value <= 1

    def test_fault_spans_traced(self, model):
        from repro.obs import Tracer

        tracer = Tracer()
        plan = FaultPlan(
            scheduled_crashes=(FaultEvent(ComponentKind.SPARSE_PS, 0, 0.1),)
        )
        cfg = self._config(
            sync_mode=SyncMode.SYNC, fault_plan=plan, checkpoint_interval_s=0.2
        )
        simulate_cpu_cluster(model, cfg, horizon_s=0.5, tracer=tracer)
        fault_spans = [s for s in tracer.spans if s.category == "fault"]
        names = {s.name for s in fault_spans}
        assert any("sparse_ps0_down" in n for n in names)
        assert "sync_rollback" in names

    def test_config_validation(self, model):
        with pytest.raises(ValueError):
            self._config(sync_mode="bsp")
        with pytest.raises(ValueError):
            self._config(checkpoint_interval_s=0.0)


# ---------------------------------------------------------------------------
# Extension experiment wiring


class TestFaultToleranceExperiment:
    def test_run_and_render(self):
        from repro.experiments import ext_fault_tolerance

        result = ext_fault_tolerance.run(
            horizon_s=0.5, mtbf_s=1.0, intervals=(0.05, 0.2)
        )
        assert result.failure_free_goodput > 0
        assert result.young_daly_s > 0
        assert len(result.interval_points) == 2
        modes = {o.sync_mode for o in result.mode_outcomes}
        assert modes == {"async", "sync"}
        assert result.outcome("sync").goodput <= result.outcome("async").goodput
        text = ext_fault_tolerance.render(result)
        assert "goodput" in text
        assert "Young/Daly" in text
