"""Tests for the observability layer (repro.obs) and its integrations.

Covers the tracer (nesting, synthetic timelines, Chrome export), the
metrics registry (counters/gauges/histograms, labels, merging), the
simulator/telemetry integrations, and — critically —
the overhead guard: instrumented code paths with the default
:data:`~repro.obs.NULL_TRACER` must be *bit-identical* to uninstrumented
runs, and enabled tracing must stay cheap.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.distributed.cluster import ClusterConfig, simulate_cpu_cluster
from repro.distributed.simulator import Resource
from repro.distributed.sync import EASGDConfig, EASGDTrainer
from repro.fleet.telemetry import aggregate_run_registries, collect_utilization_samples
from repro.obs import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
    merge_all,
)
from repro.perf.pipeline import cpu_cluster_throughput


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_begin_end_records_span(self):
        t = Tracer()
        s = t.begin("work", "compute", t0=1.0, batch=64)
        t.end(s, t1=3.5)
        assert s.duration == pytest.approx(2.5)
        assert s.attributes == {"batch": 64}
        assert t.finished() == [s]

    def test_nesting_assigns_parents(self):
        t = Tracer()
        outer = t.begin("outer", "iteration", t0=0.0)
        inner = t.begin("inner", "compute", t0=0.1)
        t.end(inner, t1=0.2)
        t.end(outer, t1=1.0)
        assert inner.parent == 0
        assert t.spans[inner.parent] is outer
        assert outer.parent is None

    def test_strict_nesting_enforced(self):
        t = Tracer()
        outer = t.begin("outer", "iteration", t0=0.0)
        t.begin("inner", "compute", t0=0.1)
        with pytest.raises(ValueError, match="strict nesting"):
            t.end(outer, t1=1.0)

    def test_end_before_begin_rejected(self):
        t = Tracer()
        s = t.begin("x", "compute", t0=5.0)
        with pytest.raises(ValueError, match="t1"):
            t.end(s, t1=4.0)

    def test_span_context_manager_wall_clock(self):
        t = Tracer()
        with t.span("step", "iteration", step=3):
            time.sleep(0.001)
        (s,) = t.finished()
        assert s.name == "step" and s.attributes == {"step": 3}
        assert s.duration > 0

    def test_record_parents_under_open_span(self):
        t = Tracer()
        parent = t.begin("iter", "iteration", t0=0.0)
        child = t.record("lookup", "memory", t0=0.0, duration=0.25, table=2)
        t.end(parent, t1=1.0)
        assert child.parent == 0
        assert child.t1 == pytest.approx(0.25)

    def test_record_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            Tracer().record("x", "compute", t0=0.0, duration=-1.0)

    def test_reserve_lays_out_sequentially(self):
        t = Tracer()
        a = t.reserve(2.0)
        b = t.reserve(3.0)
        assert (a, b) == (0.0, 2.0)
        assert t.reserve(0.0) == 5.0

    def test_total_by_category(self):
        t = Tracer()
        t.record("a", "compute", t0=0.0, duration=1.0)
        t.record("b", "comm", t0=1.0, duration=2.0)
        t.record("c", "compute", t0=3.0, duration=0.5)
        assert t.total_by_category() == {"comm": 2.0, "compute": 1.5}

    def test_open_spans_excluded_from_export(self):
        t = Tracer()
        t.begin("open", "compute", t0=0.0)
        t.record("done", "comm", t0=0.0, duration=1.0)
        events = t.to_chrome()["traceEvents"]
        assert [e["name"] for e in events] == ["done"]

    def test_chrome_export_structure(self, tmp_path):
        t = Tracer()
        parent = t.begin("iteration", "iteration", t0=0.0)
        t.record("fwd", "compute", t0=0.0, duration=0.002, layer=1)
        t.end(parent, t1=0.01)
        path = tmp_path / "trace.json"
        assert t.export_chrome(str(path)) == 2
        payload = json.loads(path.read_text())
        by_name = {e["name"]: e for e in payload["traceEvents"]}
        fwd = by_name["fwd"]
        assert fwd["ph"] == "X"
        assert fwd["dur"] == pytest.approx(2000.0)  # seconds -> microseconds
        assert fwd["args"]["parent"] == "iteration"
        assert fwd["args"]["layer"] == 1


class TestNullTracer:
    def test_disabled_and_inert(self, tmp_path):
        nt = NullTracer()
        assert nt.enabled is False
        s = nt.begin("x", "compute")
        nt.end(s)
        with nt.span("y", "comm"):
            pass
        nt.record("z", "memory", t0=0.0, duration=1.0)
        assert nt.reserve(10.0) == 0.0
        assert nt.finished() == [] and nt.spans == []
        assert nt.total_by_category() == {}
        path = tmp_path / "null.json"
        assert nt.export_chrome(str(path)) == 0
        assert json.loads(path.read_text())["traceEvents"] == []


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_merge(self):
        a, b = Counter("n"), Counter("n")
        a.inc()
        a.inc(2.5)
        b.inc(4)
        a.update(b)
        assert a.value == pytest.approx(7.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)

    def test_labeled_children_merge(self):
        a, b = Counter("reqs"), Counter("reqs")
        a.labels(server="ps0").inc(3)
        b.labels(server="ps0").inc(4)
        b.labels(server="ps1").inc(1)
        a.update(b)
        assert a.labels(server="ps0").value == 7
        assert a.labels(server="ps1").value == 1


class TestGauge:
    def test_merge_takes_max(self):
        a, b = Gauge("peak"), Gauge("peak")
        a.set(3.0)
        b.set(5.0)
        a.update(b)
        assert a.value == 5.0

    def test_merge_with_unset(self):
        a, b = Gauge("peak"), Gauge("peak")
        b.set(2.0)
        a.update(b)
        assert a.value == 2.0


class TestHistogram:
    def test_observe_updates_stats(self):
        h = Histogram("lat")
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(0.7 / 3)
        assert (h.min, h.max) == (0.1, 0.4)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram("lat").observe(float("nan"))

    def test_empty_quantile_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Histogram("lat").quantile(0.5)

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.min <= h.quantile(0.0) <= h.max
        assert h.min <= h.quantile(0.5) <= h.max
        assert h.quantile(1.0) == h.max

    def test_merge_requires_same_buckets(self):
        a = Histogram("lat", buckets=(1.0, 2.0))
        b = Histogram("lat", buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="bucket"):
            a.update(b)

    def test_merge_combines_counts(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.observe(0.5)
        b.observe(8.0)
        a.update(b)
        assert a.count == 2
        assert (a.min, a.max) == (0.5, 8.0)
        assert a.total == pytest.approx(8.5)


class TestMetricsRegistry:
    def test_get_or_create_idempotent(self):
        r = MetricsRegistry()
        assert r.counter("c") is r.counter("c")
        assert r.gauge("g") is r.gauge("g")
        assert r.histogram("h") is r.histogram("h")
        assert len(r) == 3 and "c" in r

    def test_type_conflict_rejected(self):
        r = MetricsRegistry()
        r.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            r.gauge("x")

    def test_merge_is_pure(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        merged = a.merge(b)
        assert merged.counter("n").value == 3
        assert a.counter("n").value == 1  # untouched

    def test_merge_all_matches_pairwise(self):
        regs = []
        for i in range(4):
            r = MetricsRegistry()
            r.counter("n").inc(i + 1)
            r.gauge("peak").set(float(i))
            r.histogram("lat").observe(0.1 * (i + 1))
            regs.append(r)
        folded = merge_all(regs)
        assert folded.counter("n").value == 10
        assert folded.gauge("peak").value == 3.0
        assert folded.histogram("lat").count == 4

    def test_to_dict_deterministic(self):
        r = MetricsRegistry()
        r.counter("b").inc()
        r.counter("a").inc()
        assert list(r.to_dict()) == ["a", "b"]
        assert json.loads(json.dumps(r.to_dict())) == r.to_dict()

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError):
            MetricsRegistry().get("missing")


# ---------------------------------------------------------------------------
# Integrations: simulator resources, breakdown tracing, telemetry bridges
# ---------------------------------------------------------------------------


class TestResourceTelemetry:
    def test_resource_populates_labeled_histograms(self):
        reg = MetricsRegistry()
        r = Resource("ps_nic", rate=1e9, registry=reg)
        now = 0.0
        for _ in range(5):
            now = r.submit(now, 1e6)
        depth = reg.histogram("resource_queue_depth").labels(resource="ps_nic")
        wait = reg.histogram("resource_queue_wait_s").labels(resource="ps_nic")
        busy = reg.histogram("resource_busy_s").labels(resource="ps_nic")
        assert depth.count == wait.count == busy.count == 5
        assert busy.mean == pytest.approx(1e6 / 1e9)

    def test_resource_without_registry_unchanged(self):
        r = Resource("nic", rate=1e9)
        done = r.submit(0.0, 1e6)
        assert done == pytest.approx(1e-3)
        assert r.jobs_served == 1


class TestBreakdownTracing:
    def test_cpu_cluster_trace_covers_categories(self):
        from repro.configs import make_test_model

        model = make_test_model(256, 8)
        tracer = Tracer()
        cpu_cluster_throughput(
            model, 100, num_trainers=4, num_sparse_ps=4, num_dense_ps=1,
            tracer=tracer,
        )
        cats = tracer.categories()
        assert "iteration" in cats
        assert {"compute", "comm"} <= cats
        # every child stays inside its parent interval
        for s in tracer.finished():
            if s.parent is not None:
                p = tracer.spans[s.parent]
                assert s.t0 >= p.t0 - 1e-12
                assert s.t1 <= p.t1 + 1e-12

    def test_cluster_sim_emits_iteration_spans(self, tiny_config):
        tracer = Tracer()
        reg = MetricsRegistry()
        simulate_cpu_cluster(
            tiny_config,
            ClusterConfig(num_trainers=2, num_sparse_ps=2, num_dense_ps=1, seed=0),
            horizon_s=0.05,
            tracer=tracer,
            registry=reg,
        )
        names = {s.name for s in tracer.finished()}
        assert any(n.startswith("trainer") and n.endswith("iteration") for n in names)
        assert "resource_queue_depth" in reg


class TestLoggerRegistryBridge:
    def test_per_run_registries_merge_fleet_wide(self):
        runs = []
        for i in range(3):
            reg = MetricsRegistry()
            reg.histogram("loss").observe(1.0 / (i + 1))
            reg.counter("telemetry_points").inc()
            runs.append(reg)
        fleet = aggregate_run_registries(runs)
        assert fleet.histogram("loss").count == 3
        assert fleet.histogram("loss").total == pytest.approx(1.0 + 1 / 2 + 1 / 3)
        assert fleet.counter("telemetry_points").value == 3


class TestFleetAggregation:
    def test_collect_samples_fills_registry(self, tiny_config):
        reg = MetricsRegistry()
        samples = collect_utilization_samples(
            tiny_config,
            num_runs=2,
            num_trainers=2,
            num_sparse_ps=2,
            num_dense_ps=1,
            horizon_s=0.05,
            seed=1,
            registry=reg,
        )
        assert len(samples.trainer_cpu) == 4  # 2 runs x 2 trainers
        assert reg.counter("runs").value == 2
        util = reg.histogram("utilization")
        assert util.count > 0
        assert util.labels(resource="trainer_cpu").count == 4


# ---------------------------------------------------------------------------
# CLI trace smoke test
# ---------------------------------------------------------------------------


class TestCliTrace:
    def test_trace_fig14_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert cli_main(["trace", "fig14", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        assert len(events) > 0
        cats = {e["cat"] for e in events}
        assert {"compute", "memory", "comm"} <= cats
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
        assert str(out) in capsys.readouterr().out

    def test_trace_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["trace", "bogus", "--out", "/tmp/x.json"])


# ---------------------------------------------------------------------------
# Overhead guard: NullTracer must be free and bit-identical
# ---------------------------------------------------------------------------


def _run_easgd(tiny_config, tracer):
    trainer = EASGDTrainer(
        tiny_config, EASGDConfig(num_workers=2, tau=2), lr=0.05, rng=0,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    from repro.data import SyntheticDataGenerator

    data = SyntheticDataGenerator(tiny_config, rng=3)
    stream = data.batches(16)
    return trainer.train(stream, max_examples=200)


class TestOverheadGuard:
    def test_analytic_model_identical_with_null_tracer(self):
        from repro.configs import make_test_model

        model = make_test_model(256, 8)
        kwargs = dict(num_trainers=4, num_sparse_ps=4, num_dense_ps=1)
        base = cpu_cluster_throughput(model, 100, **kwargs)
        nulled = cpu_cluster_throughput(model, 100, tracer=NULL_TRACER, **kwargs)
        assert nulled.throughput == base.throughput
        assert nulled.iteration_time_s == base.iteration_time_s
        assert nulled.breakdown.total == base.breakdown.total

    def test_sync_training_identical_with_null_tracer(self, tiny_config):
        losses_base = _run_easgd(tiny_config, None)
        losses_null = _run_easgd(tiny_config, NULL_TRACER)
        assert losses_base == losses_null  # bit-identical histories
