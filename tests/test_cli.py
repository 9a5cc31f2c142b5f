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


def eval_argv(city, tmp_path, *extra):
    return ["eval", "--scenario-dir", str(city), "--baselines", "random",
            "--steps", "3", "--out", str(tmp_path / "t.csv"), *extra]


class TestScenarioInputErrors:
    """Malformed scenario files are data errors (exit 3), never tracebacks."""

    def edit_graph(self, city, edit):
        graph = json.loads((city / "graph.json").read_text())
        edit(graph)
        (city / "graph.json").write_text(json.dumps(graph))

    @pytest.mark.parametrize("node", [{"x": 1}, [1, 2]])
    def test_unhashable_node_is_data_error(self, tmp_path, capsys, node):
        city = run_gen(tmp_path)
        self.edit_graph(city, lambda g: g["nodes"].append(node))
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA
        assert capsys.readouterr().err.startswith("data error: ")

    def test_unhashable_road_end_is_data_error(self, tmp_path):
        city = run_gen(tmp_path)
        self.edit_graph(city, lambda g: g["roads"][0].update({"to": {"x": 1}}))
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA

    def test_non_integer_road_id_is_data_error(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        self.edit_graph(city, lambda g: g["roads"][3].update({"id": "x"}))
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA
        assert "road ids must be integers" in capsys.readouterr().err

    def test_non_utf8_calls_file_is_data_error(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        calls = city / "calls.csv"
        calls.write_bytes(calls.read_bytes() + b"1,2,3,4,\xff\xfe\n")
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_graph_file_is_data_error(self, tmp_path):
        city = run_gen(tmp_path)
        (city / "graph.json").write_bytes(b'{"nodes": ["\xff"]}')
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA

    def test_infinite_length_is_data_error(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        self.edit_graph(city, lambda g: g["roads"][0].update({"length_m": "inf"}))
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA
        assert "infinite length" in capsys.readouterr().err

    def test_infinite_speed_is_data_error(self, tmp_path, capsys):
        city = run_gen(tmp_path)
        (city / "speeds.csv").write_text("t,road,speed\n2,1,inf\n")
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA
        assert "positive and finite" in capsys.readouterr().err

    def test_speed_that_saturates_the_network_still_evaluates(self, tmp_path):
        city = run_gen(tmp_path)
        (city / "speeds.csv").write_text("t,road,speed\n0,1,1e30\n")
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gcn", layers=1, hidden_dim=4, speed_scale=500.0)
        params = init_params(cfg)
        params["layer0.weight"][2] = -1.0  # speed drives Q below exp()'s underflow
        save_checkpoint(path, cfg, params, meta={"policy_name": "pow", "beta": 2.0})
        rc = main(["eval", "--scenario-dir", str(city), "--checkpoint", str(path),
                   "--steps", "3", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_OK

    def test_count_beyond_64_bits_is_data_error(self, tmp_path):
        city = run_gen(tmp_path)
        (city / "initial_idle.csv").write_text("road,count\n0," + "9" * 30 + "\n")
        assert main(eval_argv(city, tmp_path)) == EXIT_DATA


class TestUsageErrors:
    """Malformed or out-of-range option values exit 2 with a usage message."""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--seeds", "a"],
            ["--seeds", "1,"],
            ["--seeds", "-1"],
            ["--driver-scales", "x"],
            ["--driver-scales", "-0.5"],
            ["--baselines", "bogus"],
            ["--order-expiry", "-5"],
            ["--steps", "-3"],
            ["--steps", "0"],
            ["--episodes", "0"],
        ],
    )
    def test_eval_option_values(self, tmp_path, capsys, extra):
        city = run_gen(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(eval_argv(city, tmp_path, *extra))
        assert err.value.code == 2
        assert f"argument {extra[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--drivers", "a"], ["--drivers", "1,2,3"], ["--calls", "3,-1"]])
    def test_toy_option_values(self, tmp_path, extra):
        with pytest.raises(SystemExit) as err:
            main(["toy", "--out", str(tmp_path / "s.csv"), *extra])
        assert err.value.code == 2

    def test_train_seed_and_steps(self, tmp_path):
        for extra in (["--seed", "-1"], ["--steps", "-3"], ["--order-expiry", "-1"]):
            with pytest.raises(SystemExit) as err:
                main(["train", "--scenario-dir", str(tmp_path), "--out", str(tmp_path), *extra])
            assert err.value.code == 2

    def test_zero_expiry_and_empty_baselines_are_valid(self, tmp_path):
        city = run_gen(tmp_path)
        assert main(eval_argv(city, tmp_path, "--order-expiry", "0", "--seeds", "0, 2")) == EXIT_OK
        assert main(["eval", "--scenario-dir", str(city), "--baselines", "",
                     "--out", str(tmp_path / "t.csv")]) == 2  # nothing to evaluate


class TestCheckpointMetaErrors:
    @pytest.mark.parametrize(
        "meta", [7.5, {"policy_name": "bogus"}, {"policy_name": "pow", "beta": float("nan")},
                 {"policy_name": "pow", "beta": "high"}],
    )
    def test_bad_meta_is_data_error(self, tmp_path, meta):
        city = run_gen(tmp_path)
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gcn", layers=1, hidden_dim=4)
        save_checkpoint(path, cfg, init_params(cfg), meta={})
        payload = json.loads(path.read_text())
        payload["meta"] = meta
        path.write_text(json.dumps(payload))
        rc = main(["eval", "--scenario-dir", str(city), "--checkpoint", str(path),
                   "--steps", "3", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_DATA

    def test_negative_epoch_count_on_resume_is_data_error(self, tmp_path):
        city = run_gen(tmp_path)
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gcn", layers=1, hidden_dim=4)
        save_checkpoint(path, cfg, init_params(cfg), meta={"epochs_completed": -1})
        rc = main(["train", "--scenario-dir", str(city), "--resume", str(path),
                   "--steps", "2", "--out", str(tmp_path / "run")])
        assert rc == EXIT_DATA

    def test_non_numeric_feature_scale_is_data_error(self, tmp_path):
        city = run_gen(tmp_path)
        path = tmp_path / "checkpoint.json"
        cfg = GnnConfig(kind="gcn", layers=1, hidden_dim=4)
        save_checkpoint(path, cfg, init_params(cfg), meta={"policy_name": "pow"})
        payload = json.loads(path.read_text())
        payload["config"]["count_scale"] = "abc"
        path.write_text(json.dumps(payload))
        rc = main(["eval", "--scenario-dir", str(city), "--checkpoint", str(path),
                   "--steps", "3", "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_DATA
