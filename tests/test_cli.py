"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, resolve_model


class TestResolveModel:
    def test_production_names(self):
        assert resolve_model("M1_prod").num_sparse == 30
        assert resolve_model("M3_prod").num_sparse == 127

    def test_test_spec(self):
        m = resolve_model("test:256x16")
        assert m.num_dense == 256 and m.num_sparse == 16
        assert m.tables[0].hash_size == 100_000

    def test_test_spec_with_hash(self):
        m = resolve_model("test:64x4:5000")
        assert m.tables[0].hash_size == 5000

    @pytest.mark.parametrize("spec", ["nope", "test:abc", "test:4", "test:4x"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            resolve_model(spec)


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "--model", "M2_prod"]) == 0
        out = capsys.readouterr().out
        assert "M2_prod" in out and "1024-1024-512" in out

    def test_describe_unknown_model_errors(self, capsys):
        assert main(["describe", "--model", "bogus"]) == 2
        assert "error" in capsys.readouterr().err

    def test_throughput_gpu(self, capsys):
        code = main([
            "throughput", "--model", "test:256x16",
            "--platform", "BigBasin", "--placement", "gpu_memory",
            "--batch", "1600",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ex/s" in out and "Iteration breakdown" in out

    def test_throughput_cpu(self, capsys):
        code = main([
            "throughput", "--model", "test:256x16", "--platform", "cpu",
            "--batch", "200", "--trainers", "4",
        ])
        assert code == 0
        assert "CPU x4T" in capsys.readouterr().out

    def test_optimize(self, capsys):
        code = main(["optimize", "--model", "test:256x16", "--top", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Best setups" in out
        # 3 rows + title + header + rule
        assert len(out.strip().splitlines()) == 6

    def test_figures_subset(self, capsys):
        assert main(["figures", "--only", "table1", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Figure 2" in out

    def test_figures_unknown_rejected(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2

    def test_fleet(self, capsys):
        assert main(["fleet", "--days", "2", "--runs", "40"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out

    def test_train(self, capsys):
        code = main([
            "train", "--model", "test:16x4:1000", "--batch", "64",
            "--examples", "2000",
        ])
        assert code == 0
        assert "NE" in capsys.readouterr().out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "curve"])


class TestCommandsExtra:
    def test_throughput_remote_placement(self, capsys):
        code = main([
            "throughput", "--model", "test:64x8:1000000",
            "--platform", "BigBasin", "--placement", "remote_cpu",
            "--batch", "800", "--sparse-ps", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "remote_cpu" in out and "remote_rpc" in out

    def test_throughput_infeasible_reports_error(self, capsys):
        # a model too big for one Big Basin's HBM under gpu_memory placement
        code = main([
            "throughput", "--model", "test:64x64:50000000",
            "--platform", "BigBasin", "--placement", "gpu_memory",
        ])
        assert code != 0 or "error" in capsys.readouterr().err.lower()

    def test_train_refuses_production_scale(self, capsys):
        assert main(["train", "--model", "M3_prod"]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_optimize_with_floor(self, capsys):
        code = main([
            "optimize", "--model", "test:256x16",
            "--min-throughput", "1",
            "--objective", "perf_per_watt", "--top", "2",
        ])
        assert code == 0


class TestTraceCommand:
    def test_trace_train_emits_fused_step_spans(self, capsys, tmp_path):
        """``repro trace train`` runs the fused Trainer and the exported
        Chrome trace carries the per-phase spans with ``fused`` marked."""
        import json

        out = tmp_path / "trace.json"
        code = main(["trace", "train", "--model", "test:16x4:2000",
                     "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        events = json.loads(out.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        # the fused train step's span structure
        for expected in ("train_step", "forward", "model_forward",
                         "loss_forward", "backward", "loss_backward",
                         "model_backward", "optimizer_step"):
            assert expected in names, f"missing span {expected!r}"
        steps = [e for e in events if e["name"] == "train_step"]
        assert len(steps) == 25
        # the CLI trains with the default fused dense path; spans say so
        assert all(e["args"].get("fused") is True for e in steps)
        fwd = [e for e in events if e["name"] == "forward"]
        assert fwd and all(e["args"].get("fused") is True for e in fwd)
        # sub-spans are parented into the step structure
        assert any(e["args"].get("parent") == "forward"
                   for e in events if e["name"] == "model_forward")


class TestMpCommand:
    def test_mp_train_verified_bitwise(self, capsys):
        code = main([
            "mp", "train", "--workers-n", "2", "--steps", "2",
            "--batch", "32", "--verify",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 workers x 2 steps" in out
        assert "shard balance" in out
        assert "bit-identical" in out

    def test_mp_train_json(self, capsys):
        import json

        code = main([
            "mp", "train", "--workers-n", "2", "--steps", "2",
            "--batch", "32", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert len(payload["losses"]) == 2
        assert len(payload["owner_bytes"]) == 2
        assert payload["state_digest"]

    def test_mp_train_custom_model_spec(self, capsys):
        code = main([
            "mp", "train", "--model", "test:16x4:500", "--workers-n", "2",
            "--steps", "2", "--batch", "16",
        ])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out

    def test_mp_train_applies_dtype(self, capsys):
        """``--dtype`` reaches the trained model: each run is its dtype's
        serial reference, and no flag trains the model's own float32."""
        import dataclasses
        import json

        from repro.distributed.mp import HybridRunConfig, run_hybrid_serial
        from repro.experiments.ext_mp_scaling import default_config

        run = HybridRunConfig(workers=2, steps=2, batch_size=32, lr=0.01, seed=0)
        for flag, dtype in ((["--dtype", "float64"], "float64"), ([], "float32")):
            code = main([
                "mp", "train", "--workers-n", "2", "--steps", "2",
                "--batch", "32", "--verify", "--json", *flag,
            ])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["verified_bitwise"] is True
            config = dataclasses.replace(default_config(), compute_dtype=dtype)
            assert payload["losses"] == run_hybrid_serial(config, run).losses

    def test_mp_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mp", "bogus"])
