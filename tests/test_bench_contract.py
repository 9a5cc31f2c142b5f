"""The surface the benchmark reads from fleetlab, pinned.

`benchmarks/tracing.py` wraps fleetlab functions at the module attributes
their callers look up (`sim.relocate`, `marl.dqn_loss`, ...) and reads counts
from their arguments and results; `benchmarks/workloads.py` checks world state
through `world.queues`, `world.total_drivers()`, `world.counters`,
`world.time` and `world.scenario`. A refactor that inlines a phase or changes
a result's shape would make a trace read zero without failing; these tests
fail instead.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np

from fleetlab import gnn, marl, sim
from fleetlab.roadnet import build_dual_graph
from fleetlab.scenario import CallRecord, Scenario

from conftest import network_with_loops

PHASES = (
    "advance_drivers", "relocate", "assign_orders", "spawn_and_expire_orders",
    "rebalance_drivers", "observe",
)
STEPS = 12
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def small_city(seed=5):
    """A city whose fleet schedule grows and shrinks, with queues that fill."""
    rng = np.random.default_rng(seed)
    net = network_with_loops(rng, max_roads=10)
    n = net.n_roads
    totals = 20 + np.array([0, 0, 3, 3, 1, -2, -2, 0, 4, 4, 1, 0, 0])
    calls = [
        CallRecord(int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(STEPS)),
                   int(rng.integers(1, 4)), 1.0)
        for _ in range(6 * n)
    ]
    scn = Scenario(
        initial_idle_per_road=np.bincount(rng.integers(n, size=20), minlength=n),
        calls=tuple(calls),
        total_drivers_series=totals.astype(np.int64),
        speed_series=rng.uniform(200.0, 900.0, size=(STEPS + 1, n)),
        horizon=STEPS + 1,
    )
    return net, scn


def proportional(net):
    return marl.make_policy_provider(marl.PolicyKind("proportional"), build_dual_graph(net))


def counting(monkeypatch, owner, names, calls):
    for name in names:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)


def test_step_runs_every_phase_through_the_module(monkeypatch):
    net, scn = small_city()
    world = sim.init_world(net, scn, seed=1)
    provider = proportional(net)
    obs = sim.observe(world)
    calls = Counter()
    counting(monkeypatch, sim, PHASES, calls)
    for _ in range(STEPS):
        obs, _ = sim.step(world, provider(obs))
    assert calls == {name: STEPS for name in PHASES}


def test_marl_reaches_sim_and_its_own_layers_through_modules(monkeypatch):
    net, scn = small_city()
    calls = Counter()
    counting(monkeypatch, sim, ("step", "observe"), calls)
    counting(monkeypatch, marl, ("policy_from_q", "td_targets", "dqn_loss", "forward_graph"), calls)
    marl.evaluate(proportional(net), lambda i: sim.init_world(net, scn, i), 1, 4)
    assert calls["step"] == 4 and calls["policy_from_q"] == 4
    calls.clear()
    config = marl.TrainConfig(policy=marl.PolicyKind("pow", beta=2.0), epochs=1, steps_per_epoch=3)
    marl.train(gnn.GnnConfig(kind="gcn", layers=1, hidden_dim=4),
               lambda i: sim.init_world(net, scn, i), config)
    assert calls["step"] == calls["td_targets"] == calls["dqn_loss"] == 3
    assert calls["forward_graph"] >= 3


def test_counts_the_tracer_reads(monkeypatch):
    net, scn = small_city()
    world = sim.init_world(net, scn, seed=2)
    provider = proportional(net)
    seen = {"idle_at_match": [], "movers": []}
    assign, relocate, observe = sim.assign_orders, sim.relocate, sim.observe

    def assign_spy(w):
        seen["idle_at_match"].append(int(observe(w).idle_counts.sum()))
        return assign(w)

    def relocate_spy(w, policy, movers):
        before = w.counters.relocations
        moved = relocate(w, policy, movers)
        assert len(moved) == len(movers) == w.counters.relocations - before
        seen["movers"].append(len(moved))
        return moved

    monkeypatch.setattr(sim, "assign_orders", assign_spy)
    monkeypatch.setattr(sim, "relocate", relocate_spy)
    obs = sim.observe(world)
    for t in range(1, STEPS + 1):
        obs, outcome = sim.step(world, provider(obs))
        assert len(outcome.samples) == seen["idle_at_match"][-1]
        assert sum(len(q) for q in world.queues) == int(obs.call_counts.sum())
        assert world.time == t
        assert world.total_drivers() == scn.total_drivers_series[t]
        assert world.scenario is scn
    assert sum(seen["movers"]) > 0 and sum(seen["idle_at_match"]) > 0
    assert world.counters.drivers_added and world.counters.drivers_removed
    assert world.counters.orders_served and world.counters.orders_generated


def import_tracing():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCHMARKS))
    return tracing


def test_benchmark_tracer_records_every_sim_span():
    tracing = import_tracing()
    net, scn = small_city()
    recorder = tracing.Recorder("sim.step")
    with tracing.traced(recorder):
        result = marl.evaluate(proportional(net), lambda i: sim.init_world(net, scn, i), 1, 6)
    totals = recorder.totals()
    for name in ("sim.init_world", "sim.step", *(f"sim.{p}" for p in PHASES)):
        assert totals[name]["calls"] > 0, name
    for count in ("sim.idle_at_match", "sim.relocations", "sim.served", "sim.generated",
                  "sim.drivers", "sim.open_orders"):
        assert recorder.counts[count] > 0, count
    assert result.rates[0] is not None


def test_benchmark_tracer_counts_one_sample_per_idle_agent_in_training():
    tracing = import_tracing()
    net, scn = small_city()
    recorder = tracing.Recorder("sim.step")
    config = marl.TrainConfig(policy=marl.PolicyKind("entropy", beta=2.0), epochs=1, steps_per_epoch=4)
    with tracing.traced(recorder):
        marl.train(gnn.GnnConfig(kind="gcn", layers=1, hidden_dim=4),
                   lambda i: sim.init_world(net, scn, i), config)
    counts = recorder.counts
    assert counts["marl.samples"] == counts["sim.idle_at_match"] > 0
    assert recorder.totals()["marl.soft_td_targets"]["calls"] == 4
