"""Self-test of the benchmark code on tiny cities (a few seconds).

    python3 benchmarks/selftest.py

Each workload runs shrunk (12 roads, small networks, 3-step calls) through
`run.main`, untraced and traced. The test checks that every metric
BENCHMARK.json names is printed with its unit, that the traced run records
calls in every layer the workload exercises (and none in gnn for the eval
workload), that a failed output check is counted, and that the benchmark
refuses to run where fleetlab's sources are missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from citygen import CitySpec, write_city  # noqa: E402
from fleetlab.gnn import GnnConfig  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
MOVES = json.loads((HERE / "moves.json").read_text())["moves"]
TINY_CITY = CitySpec(roads=12, drivers=40, horizon=60)
TINY_NETWORKS = {"gat": GnnConfig(kind="gat", layers=2, heads=2, hidden_dim=4), "gcn": GnnConfig(kind="gcn", layers=2, hidden_dim=4)}
EXERCISED = {  # layer -> a span every call of the workload reaches, by workload kind
    True: {"scenario": "scenario.load_scenario_dir", "roadnet": "roadnet.build_dual_graph",
           "sim": "sim.step", "gnn": "gnn.backward", "marl": "marl.dqn_loss"},
    False: {"scenario": "scenario.load_scenario_dir", "roadnet": "roadnet.build_dual_graph",
            "sim": "sim.step", "marl": "marl.policy_from_q"},
}


def shrink():
    run.SETUP_SAMPLES = 1
    run.WORK = ROOT / ".bench_work" / "selftest"
    for name, w in workloads.WORKLOADS.items():
        network = TINY_NETWORKS[w.network.kind] if w.trains else None
        workloads.WORKLOADS[name] = replace(w, city=TINY_CITY, steps_per_call=3, network=network)


def run_once(name: str, trace: int) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)])
    assert code == 0, f"{name} trace={trace} exited {code}"
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


def check_declared_file():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    for metric in DECLARED["per_layer"]:
        name = metric["name"]
        key = name if name in MOVES else name.rsplit(".", 1)[0]
        assert key in MOVES, f"{name} has no entry in moves.json"
        for workload, targets in MOVES[key].items():
            assert workload in workloads.WORKLOADS and set(targets) <= e2e, (name, workload, targets)


def check_metrics(name: str, trace: int):
    result, text = run_once(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared], sorted(
        set(result["metrics"]) ^ {m["name"] for m in declared}
    )
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], (metric, got)
        assert metric["name"] in text
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in result["metrics"]), result
        assert "error_rate" in text
        return
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    trains = workloads.WORKLOADS[name].trains
    for layer, span in EXERCISED[trains].items():
        assert metrics[f"{span}.calls"] > 0, f"{name}: no calls recorded in {layer} ({span})"
    if not trains:
        assert all(v == 0 for k, v in metrics.items() if k.startswith("gnn.") and k.endswith(".calls"))


def check_failures_counted():
    original = workloads.Bench.check
    workloads.Bench.check = lambda self, outcome: ["forced failure"]
    try:
        result, text = run_once("eval-city1k", 0)
    finally:
        workloads.Bench.check = original
    assert not result["correct"] and result["failed"] == result["attempted"] > 0, result
    assert "FAILED CHECK: forced failure" in text


def check_inputs_seeded():
    base = run.WORK / "citygen"
    first = write_city(base / "a", TINY_CITY, 5)
    assert write_city(base / "b", TINY_CITY, 5) == first
    assert write_city(base / "c", TINY_CITY, 6) != first


def check_refuses_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-city1k", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and '"metrics"' not in done.stdout, (done.returncode, done.stdout)


def main() -> int:
    shrink()
    check_declared_file()
    check_inputs_seeded()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_metrics(name, trace)
            print(f"ok {name} trace={trace}")
    check_failures_counted()
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
