"""Command-line harness: all four subcommands, exit codes, file outputs."""

import json

import pytest

from fleetlab.cli import EXIT_DATA, EXIT_OK, main
from fleetlab.gnn import GnnConfig, init_params, save_checkpoint


def run_gen(tmp_path, **overrides):
    args = {
        "--roads": "12",
        "--steps": "30",
        "--mean-calls": "0.1",
        "--drivers": "8",
        "--seed": "3",
        "--out": str(tmp_path / "city"),
    }
    args.update(overrides)
    argv = ["gen"]
    for k, v in args.items():
        argv += [k, v]
    assert main(argv) == EXIT_OK
    return tmp_path / "city"


class TestGen:
    def test_writes_fileset_and_prints_summary(self, tmp_path, capsys):
        out = run_gen(tmp_path)
        for name in ("graph.json", "calls.csv", "drivers.csv", "speeds.csv", "initial_idle.csv"):
            assert (out / name).exists()
        printed = capsys.readouterr().out
        assert "resolved config" in printed
        assert "12 roads" in printed

    def test_missing_output_dir_is_created(self, tmp_path):
        nested = tmp_path / "deep" / "nested" / "city"
        assert main(["gen", "--roads", "5", "--steps", "10", "--out", str(nested)]) == EXIT_OK
        assert (nested / "graph.json").exists()

    def test_invalid_rate_flag_exits_with_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--roads", "5", "--mean-calls", "lots", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestTrain:
    def test_defaults_write_checkpoint_and_metrics(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        out = tmp_path / "run"
        rc = main(
            [
                "train",
                "--scenario-dir", str(city),
                "--gnn", "gcn",
                "--layers", "2",
                "--hidden", "8",
                "--policy", "pow",
                "--beta", "3",
                "--epochs", "1",
                "--steps", "10",
                "--seed", "1",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert (out / "checkpoint.json").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("#") and "policy=pow" in metrics[0] and "beta=3" in metrics[0]
        assert metrics[1] == "epoch,step,loss,epsilon,served,generated,response_rate"
        assert len(metrics) == 12
        assert "resolved config" in capsys.readouterr().out

    def test_resume_continues_epoch_counter(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        out = tmp_path / "run"
        base = [
            "train",
            "--scenario-dir", str(city),
            "--gnn", "gcn",
            "--layers", "2",
            "--hidden", "8",
            "--policy", "exp",
            "--steps", "5",
            "--seed", "1",
        ]
        assert main(base + ["--epochs", "1", "--out", str(out)]) == EXIT_OK
        meta = json.loads((out / "checkpoint.json").read_text())["meta"]
        assert meta["epochs_completed"] == 1
        out2 = tmp_path / "run2"
        rc = main(
            base
            + ["--epochs", "2", "--resume", str(out / "checkpoint.json"), "--out", str(out2)]
        )
        assert rc == EXIT_OK
        assert "resuming" in capsys.readouterr().out
        meta2 = json.loads((out2 / "checkpoint.json").read_text())["meta"]
        assert meta2["epochs_completed"] == 2

    def test_missing_scenario_dir_is_data_error(self, tmp_path):
        rc = main(
            [
                "train",
                "--scenario-dir", str(tmp_path / "nowhere"),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == EXIT_DATA


class TestEval:
    def test_baselines_table(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        out = tmp_path / "table.csv"
        rc = main(
            [
                "eval",
                "--scenario-dir", str(city),
                "--baselines", "random,proportional",
                "--driver-scales", "1.0,0.5",
                "--seeds", "0,1,2",
                "--steps", "15",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "method,driver_scale,mean,std,seeds"
        assert len(lines) == 5  # 2 methods x 2 scales
        assert "random" in capsys.readouterr().out

    def test_checkpoint_method_evaluates(self, tmp_path):
        city = run_gen(tmp_path)
        run = tmp_path / "run"
        main(
            [
                "train",
                "--scenario-dir", str(city),
                "--gnn", "gcn",
                "--layers", "2",
                "--hidden", "8",
                "--policy", "pow",
                "--epochs", "1",
                "--steps", "5",
                "--out", str(run),
            ]
        )
        out = tmp_path / "table.csv"
        rc = main(
            [
                "eval",
                "--scenario-dir", str(city),
                "--checkpoint", str(run / "checkpoint.json"),
                "--steps", "10",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert "pow" in out.read_text()

    def test_header_with_spaces_loads(self, tmp_path):
        city = run_gen(tmp_path)
        drivers = city / "drivers.csv"
        lines = drivers.read_text().splitlines()
        drivers.write_text("\n".join(["t, total"] + lines[1:]) + "\n")
        rc = main(
            ["eval", "--scenario-dir", str(city), "--baselines", "random",
             "--steps", "5", "--out", str(tmp_path / "t.csv")]
        )
        assert rc == EXIT_OK

    @pytest.mark.parametrize(
        "corrupt",
        ["malformed-json", "missing-config", "missing-arrays", "mismatched-arrays"],
    )
    def test_bad_checkpoint_is_data_error(self, tmp_path, corrupt):
        city = run_gen(tmp_path)
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gcn", layers=2, hidden_dim=8)
        save_checkpoint(path, cfg, init_params(cfg), meta={"policy_name": "pow"})
        payload = json.loads(path.read_text())
        if corrupt == "malformed-json":
            path.write_text(path.read_text()[:-10])
        else:
            if corrupt == "mismatched-arrays":
                payload["config"]["layers"] = 3  # arrays still hold two layers
            else:
                del payload[corrupt.split("-")[1]]
            path.write_text(json.dumps(payload))
        rc = main(
            ["eval", "--scenario-dir", str(city), "--checkpoint", str(path),
             "--steps", "5", "--out", str(tmp_path / "t.csv")]
        )
        assert rc == EXIT_DATA

    def test_version_one_gat_checkpoint_is_data_error(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gat", layers=2, hidden_dim=4, heads=2)
        params = init_params(cfg)
        save_checkpoint(path, cfg, params, meta={"policy_name": "pow"})
        payload = json.loads(path.read_text())
        # the version-1 layout held one weight and two (d_head, 1) vectors per head
        payload["version"] = 1
        payload["arrays"] = [
            {"name": f"layer{layer}.head{head}.{part}", "shape": list(a.shape),
             "values": a.ravel().tolist()}
            for layer in range(cfg.layers)
            for head in range(cfg.heads)
            for part, a in (
                ("weight", params[f"layer{layer}.weight"][:, head]),
                ("att_src", params[f"layer{layer}.att_src"][head][:, None]),
                ("att_dst", params[f"layer{layer}.att_dst"][head][:, None]),
            )
        ]
        path.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(
            ["eval", "--scenario-dir", str(city), "--checkpoint", str(path),
             "--steps", "5", "--out", str(tmp_path / "t.csv")]
        )
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "version 1" in err
        assert "Traceback" not in err

    def test_nothing_to_evaluate_is_usage_error(self, tmp_path):
        city = run_gen(tmp_path)
        rc = main(
            ["eval", "--scenario-dir", str(city), "--out", str(tmp_path / "t.csv")]
        )
        assert rc == 2


class TestToy:
    def test_default_grid_both_families(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["toy", "--points", "60", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 120  # header + 2 families x 60 points
        assert "resolved config" in capsys.readouterr().out

    def test_single_family(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["toy", "--family", "pow", "--points", "60", "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 61

    def test_custom_counts_override_defaults(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "toy",
                "--family", "exp",
                "--points", "5",
                "--drivers", "6,0",
                "--calls", "1,2",
                "--out", str(out),
            ]
        )
        assert rc == EXIT_OK
        assert '"drivers": [6.0, 0.0]' in capsys.readouterr().out
