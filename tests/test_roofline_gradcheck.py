"""Tests for the roofline report and the gradient checker the suite uses."""

import numpy as np
import pytest

from repro.configs import make_test_model
from repro.hardware.specs import SKYLAKE_SOCKET, V100_32GB
from repro.perf import roofline_report
from repro.perf.roofline import render

from helpers import check_gradients


class TestRooflineReport:
    @pytest.fixture(scope="class")
    def report(self):
        return roofline_report(make_test_model(512, 32), batch=1600, device=V100_32GB)

    def test_all_operators_present(self, report):
        names = set(report.by_name())
        assert {"bottom_mlp_fwd", "top_mlp_bwd", "emb_lookup", "emb_update"} <= names
        assert len(report.operators) == 9

    def test_embedding_ops_memory_bound_everywhere(self):
        """The structural fact behind the paper: embedding ops sit deep in
        memory-bound territory on both CPU and GPU."""
        m = make_test_model(512, 32)
        for device in (V100_32GB, SKYLAKE_SOCKET):
            r = roofline_report(m, 1600, device).by_name()
            assert r["emb_lookup"].bound == "memory"
            assert r["emb_update"].bound == "memory"
            assert r["emb_lookup"].intensity < roofline_report(m, 1600, device).ridge_point

    def test_mlp_gemms_compute_bound_on_cpu(self):
        r = roofline_report(make_test_model(512, 32), 1600, SKYLAKE_SOCKET).by_name()
        assert r["bottom_mlp_fwd"].bound == "compute"
        assert r["top_mlp_fwd"].bound == "compute"

    def test_intensity_matches_cost(self, report):
        for op in report.operators:
            if op.bytes > 0:
                assert op.intensity == pytest.approx(op.flops / op.bytes)

    def test_memory_bound_fraction_in_range(self, report):
        assert 0 <= report.memory_bound_time_fraction <= 1

    def test_dominant_operator_has_max_time(self, report):
        dom = report.dominant_operator()
        assert dom.time_s == max(o.time_s for o in report.operators)

    def test_render_contains_ridge(self, report):
        out = render(report)
        assert "ridge point" in out and "emb_lookup" in out

    def test_bad_batch_rejected(self):
        with pytest.raises(ValueError):
            roofline_report(make_test_model(64, 4), 0, V100_32GB)


class TestCheckGradients:
    def test_builtin_model_passes(self, tiny_config, tiny_generator):
        from repro.core import DLRM

        model = DLRM(tiny_config, rng=1)
        result = check_gradients(model, tiny_generator.batch(4), tolerance=1e-5)
        assert result.passed, result.worst()
        # every dense parameter and every table was checked
        assert any(k.startswith("table/") for k in result.max_abs_error)
        assert any("bottom" in k for k in result.max_abs_error)

    def test_detects_a_broken_backward(self, tiny_config, tiny_generator):
        from repro.core import DLRM

        model = DLRM(tiny_config, rng=1)
        # sabotage: scale the scorer's weight gradient
        original = model.scorer.backward

        def broken(grad_out):
            result = original(grad_out)
            model.scorer.weight.grad *= 2.0
            return result

        model.scorer.backward = broken
        result = check_gradients(model, tiny_generator.batch(4), tolerance=1e-5)
        assert not result.passed
        name, _ = result.worst()
        assert "scorer" in name

    def test_validation(self, tiny_config, tiny_generator):
        from repro.core import DLRM

        model = DLRM(tiny_config, rng=1)
        with pytest.raises(ValueError):
            check_gradients(model, tiny_generator.batch(2), eps=0.0)
