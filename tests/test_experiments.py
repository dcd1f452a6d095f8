"""Tests for the experiment drivers (fast paths; heavy runs live in benchmarks/)."""

import numpy as np
import pytest

from repro.experiments import (
    fig01_production,
    fig02_workloads,
    fig06_07_embedding_stats,
    fig09_servers,
    fig10_feature_sweep,
    fig11_batch_scaling,
    fig12_hash_scaling,
    fig13_mlp_dims,
    fig14_placement,
    fig15_accuracy,
    table1_platforms,
    table2_models,
    table3_comparison,
)
from repro.placement import PlacementStrategy


class TestTableDrivers:
    def test_table1_render_contains_platforms(self):
        out = table1_platforms.render(table1_platforms.run())
        for name in ("DualSocketCPU", "BigBasin", "Zion"):
            assert name in out

    def test_table2_registry(self):
        result = table2_models.run()
        assert set(result.by_name()) == {"M1_prod", "M2_prod", "M3_prod"}
        assert "Table II" in table2_models.render(result)

    def test_table3_rows_and_render(self):
        result = table3_comparison.run()
        assert len(result.comparisons) == 3
        out = table3_comparison.render(result)
        assert "paper 2.25x" in out and "paper 0.43x" in out


class TestFigureDrivers:
    def test_fig01_relative_fields(self):
        result = fig01_production.run()
        m1 = result.by_name()["M1_prod"]
        assert m1.big_basin_relative == pytest.approx(m1.big_basin / m1.cpu)
        assert "Figure 1" in fig01_production.render(result)

    def test_fig02_deterministic(self):
        a = fig02_workloads.run(seed=3, num_days=2)
        b = fig02_workloads.run(seed=3, num_days=2)
        assert a.by_family()["search"].runs_per_day == b.by_family()["search"].runs_per_day

    def test_fig06_07_kde_is_density(self):
        result = fig06_07_embedding_stats.run()
        for m in result.models:
            assert np.all(m.kde_density >= 0)
            assert len(m.kde_grid) == len(m.kde_density)

    def test_fig09_histogram_totals(self):
        result = fig09_servers.run(num_runs=50, seed=1)
        assert sum(result.trainer_histogram.values()) == 50
        assert sum(result.ps_histogram.values()) == 50
        with pytest.raises(ValueError):
            fig09_servers.run(num_runs=0)

    def test_fig10_lookup_api(self):
        result = fig10_feature_sweep.run(dense_sweep=(64,), sparse_sweep=(4, 16))
        point = result.at(64, 16)
        assert point.speedup > 0
        with pytest.raises(KeyError):
            result.at(1, 1)

    def test_fig11_small_sweep(self):
        result = fig11_batch_scaling.run(
            cpu_batches=(100, 200, 400), gpu_batches=(400, 800)
        )
        assert len(result.cpu_throughput) == 3
        assert result.gpu_throughput[1] > result.gpu_throughput[0]

    def test_fig11_tracer_records_every_in_process_point(self):
        from repro.obs.tracer import Tracer
        from repro.runtime import SweepRunner

        kw = dict(cpu_batches=(100, 200), gpu_batches=(400, 800))
        default, explicit = Tracer(), Tracer()
        fig11_batch_scaling.run(tracer=default, **kw)
        fig11_batch_scaling.run(tracer=explicit, runner=SweepRunner(workers=1), **kw)
        assert len(default.finished()) == len(explicit.finished()) > 0

    def test_fig11_tracer_refuses_a_runner_it_cannot_see_into(self, tmp_path):
        """Points computed in forked workers or served from a cache record
        no span here; a recording tracer with such a runner is an error,
        not an empty trace."""
        from repro.obs.tracer import NULL_TRACER, Tracer
        from repro.runtime import ResultCache, SweepRunner

        kw = dict(cpu_batches=(100, 200), gpu_batches=(400, 800))
        for runner in (
            SweepRunner(workers=2),
            SweepRunner(workers=1, cache=ResultCache(tmp_path)),
        ):
            tracer = Tracer()
            with pytest.raises(ValueError, match="recording tracer"):
                fig11_batch_scaling.run(tracer=tracer, runner=runner, **kw)
            assert tracer.finished() == []
            # nothing to lose without a recording tracer
            assert fig11_batch_scaling.run(tracer=NULL_TRACER, runner=runner, **kw)

    def test_fig12_small_sweep(self):
        result = fig12_hash_scaling.run(hash_sweep=(100_000, 1_000_000))
        assert result.cpu_flatness() < 1.05
        assert all(p.gpu_throughput is not None for p in result.points)

    def test_fig13_normalization(self):
        result = fig13_mlp_dims.run(mlp_sweep=("64^2", "512^3"))
        norm = result.normalized()
        assert norm[0][1] == pytest.approx(1.0)
        assert norm[0][2] == pytest.approx(1.0)

    def test_fig14_lookup(self):
        result = fig14_placement.run(num_remote_ps=4)
        assert result.throughput("BigBasin", PlacementStrategy.GPU_MEMORY) > 0
        with pytest.raises(KeyError):
            result.throughput("Nope", PlacementStrategy.GPU_MEMORY)


class TestFig15Fast:
    """Cheap configurations of the accuracy driver (full runs are benched)."""

    def test_tiny_run_structure(self):
        result = fig15_accuracy.run(
            baseline_batch=64,
            gpu_batches=(128, 512),
            example_budget=4_000,
            tuning_trials=2,
            num_seeds=1,
        )
        assert len(result.points) == 2
        assert result.points[0].steps_taken > result.points[1].steps_taken
        assert "Figure 15" in fig15_accuracy.render(result)

    def test_held_out_is_built_once_and_read_only(self):
        """Every point of a run shares one teacher and one set of eval
        batches; nothing a point does writes to them."""
        import hashlib
        import pickle

        point = dict(
            batch_size=64, lr=0.05, example_budget=640, data_seed=0,
            model_seed=1, teacher_seed=999, eval_seed=5000,
            num_eval_batches=2, eval_batch_size=256,
        )
        key = (999, 5000, 2, 256)
        teacher, batches = fig15_accuracy._held_out(*key)
        digest = hashlib.sha256(pickle.dumps((teacher, batches))).hexdigest()
        first = fig15_accuracy.train_eval_point(**point)
        second = fig15_accuracy.train_eval_point(**point)
        assert first == second
        again = fig15_accuracy._held_out(*key)
        assert again[0] is teacher and again[1] is batches
        assert hashlib.sha256(pickle.dumps(again)).hexdigest() == digest
        arrays = [teacher.dense_weights, *teacher.table_latents.values()]
        for batch in batches:
            arrays += [batch.dense, batch.labels]
            arrays += [a for r in batch.sparse.values() for a in (r.values, r.offsets)]
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            batches[0].dense[0, 0] = 1.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            fig15_accuracy.run(baseline_batch=1024, example_budget=8)
        with pytest.raises(ValueError):
            fig15_accuracy.run(num_seeds=0)

    def test_sync_mode_comparison_runs(self):
        result = fig15_accuracy.run_sync_mode_comparison(
            num_async_workers=2, batch_size=64, example_budget=4_000
        )
        assert np.isfinite(result.async_ne) and np.isfinite(result.sync_ne)


class TestHashAccuracyExtension:
    def test_small_run_structure(self):
        from repro.experiments import ext_hash_accuracy

        result = ext_hash_accuracy.run(
            id_space=2000,
            hash_sizes=(2000, 50),
            example_budget=4_000,
        )
        assert len(result.points) == 2
        assert result.points[0].expected_ids_per_row == 1
        assert result.points[1].expected_ids_per_row == 40
        assert "hash size" in ext_hash_accuracy.render(result)

    def test_validation(self):
        from repro.experiments import ext_hash_accuracy

        with pytest.raises(ValueError):
            ext_hash_accuracy.run(id_space=10, hash_sizes=(100, 10))
        with pytest.raises(ValueError):
            ext_hash_accuracy.run(hash_sizes=(100,))
