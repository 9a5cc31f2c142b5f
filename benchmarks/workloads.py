"""Workload definitions and the black-box calls the benchmark times.

Every timed call is a whole `marl.train` (train workloads) or `marl.evaluate`
(eval workload) call on a fresh world at t=0, with the same seed, so all calls
of one run must produce the same trajectory digest. Set-up is what a user pays
before that: load the scenario files, build the world, the dual graph and the
parameters, and run the first step.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fleetlab
from citygen import CitySpec
from fleetlab import gnn, marl, roadnet, scenario, sim

SRC = Path(__file__).resolve().parents[1] / "src"
if Path(fleetlab.__file__).resolve().parents[1] != SRC:
    raise ImportError(f"fleetlab imported from {fleetlab.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    name: str
    city: CitySpec
    policy: marl.PolicyKind
    steps_per_call: int
    network: gnn.GnnConfig | None = None  # None: a baseline through make_policy_provider

    @property
    def trains(self) -> bool:
        return self.network is not None


# Steps per call keep one call near 2-5 s on a 2-core box, so a 30 s run holds
# several calls, each long enough for queues to form. train-soft1k runs 100
# steps so that the default target sync (every 100 steps) fires once a call.
# eval-city1k runs 10: its calls vary most from call to call, and a median
# over some 15 calls per run holds steadier than one over 8.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-gat200",
            CitySpec(roads=200, drivers=2000),
            marl.PolicyKind("pow", beta=2.0),
            steps_per_call=20,
            network=gnn.GnnConfig(kind="gat", layers=8, heads=8, hidden_dim=32),
        ),
        Workload(
            "eval-city1k",
            CitySpec(roads=1000, drivers=10000),
            marl.PolicyKind("proportional"),
            steps_per_call=10,
        ),
        Workload(
            "train-soft1k",
            CitySpec(roads=1000, drivers=1000),
            marl.PolicyKind("entropy", beta=2.0),
            steps_per_call=100,
            network=gnn.GnnConfig(kind="gcn", layers=2, hidden_dim=16),
        ),
    )
}


@dataclass
class Outcome:
    """What one call left behind for the checks."""

    result: object  # TrainResult or EvalResult
    world: sim.WorldState


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


class Bench:
    """One workload on one generated city; drives fleetlab only through its API."""

    def __init__(self, workload: Workload, scenario_dir: Path, seed: int):
        self.workload = workload
        self.scenario_dir = scenario_dir
        self.seed = seed
        self.reference: str | None = None
        self.dual: roadnet.DualGraph | None = None
        self._worlds: list[sim.WorldState] = []

    def _factory(self, index: int) -> sim.WorldState:
        world = sim.init_world(self.network, self.scenario, self.seed)
        self._worlds.append(world)
        return world

    def _run(self, steps: int):
        w = self.workload
        if w.trains:
            config = marl.TrainConfig(policy=w.policy, epochs=1, steps_per_epoch=steps, seed=self.seed)
            return marl.train(w.network, self._factory, config)
        return marl.evaluate(self.provider, self._factory, episodes=1, steps_per_episode=steps)

    def setup(self) -> float:
        """Load, build and run the first step; return the seconds it took."""
        start = time.perf_counter()
        self.network, self.scenario = scenario.load_scenario_dir(self.scenario_dir)
        if not self.workload.trains:  # train builds its own world, dual graph and parameters
            self.dual = roadnet.build_dual_graph(self.network)
            self.provider = marl.make_policy_provider(self.workload.policy, self.dual)
        self._run(1)
        return time.perf_counter() - start

    def call(self) -> tuple[float, Outcome]:
        """One timed call of `steps_per_call` steps from t=0."""
        self._worlds.clear()
        start = time.perf_counter()
        result = self._run(self.workload.steps_per_call)
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(result, self._worlds[-1])

    def check(self, outcome: Outcome) -> list[str]:
        """Output checks; the first call's trajectory digest is the reference."""
        problems = []
        world, result = outcome.world, outcome.result
        counters = world.counters
        obs = sim.observe(world)
        if counters.orders_served > counters.orders_generated:
            problems.append(f"served {counters.orders_served} > generated {counters.orders_generated}")
        series = self.scenario.total_drivers_series
        scheduled = int(series[min(world.time, len(series) - 1)])
        if world.total_drivers() != scheduled:
            problems.append(f"fleet {world.total_drivers()} != scheduled {scheduled}")
        queued = sum(len(q) for q in world.queues)
        if int(obs.call_counts.sum()) != queued:
            problems.append(f"observed calls {int(obs.call_counts.sum())} != queued orders {queued}")

        if self.workload.trains:
            rows = result.step_metrics
            if len(rows) != self.workload.steps_per_call:
                problems.append(f"{len(rows)} step_metrics rows, expected {self.workload.steps_per_call}")
            bad = [r["step"] for r in rows if not math.isfinite(r["loss"])]
            if bad:
                problems.append(f"non-finite loss at steps {bad[:5]}")
            if self.dual is None:  # train builds its own; this one serves the Q-value check
                self.dual = roadnet.build_dual_graph(self.network)
            q = gnn.forward(result.gnn_config, result.params, self.dual, obs.features())
            if not (np.isfinite(q).all() and (q > 0).all() and (q < 1).all()):
                problems.append("Q values not finite or outside (0, 1)")
            trajectory = [[r["loss"], r["served"], r["generated"]] for r in rows]
        else:
            try:
                self.provider(obs).check_rows()
            except ValueError as exc:
                problems.append(f"policy rows: {exc}")
            trajectory = [result.rates, obs.idle_counts.tolist(), obs.call_counts.tolist()]
        digest = _digest([trajectory, counters.orders_served, counters.orders_generated, world.time])
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            problems.append(f"trajectory digest {digest} != first call's {self.reference}")
        return problems
