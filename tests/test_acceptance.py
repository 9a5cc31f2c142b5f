"""Acceptance suite: the headline behaviors, one test per criterion.

Each test prints a PASS line with its measured numbers once its assertions
hold, so `pytest tests/test_acceptance.py -v -s` doubles as a report.
Criterion 7, the trained-policy ordering experiment (stochastic > eps-greedy >
greedy > random on a desk-scale city), is pending: it is not in this file yet
(ROADMAP item 4). Everything here finishes in seconds.
"""

import time
from dataclasses import astuple

import numpy as np
import pytest

from fleetlab import marl, sim, toylab
from fleetlab.gnn import GnnConfig, backward, forward, forward_graph, init_params
from fleetlab.marl import PolicyKind, TabularMdp, TrainConfig, policy_from_q, tabular_expected_sarsa
from fleetlab.roadnet import build_dual_graph, successors
from fleetlab.scenario import SynthParams, generate_network, generate_synthetic
from fleetlab.sim import Observation

from conftest import central_difference, random_network, two_path_pairs
from test_expected_sarsa import deterministic_mdp, random_policy, solve_bellman_q


def report(criterion: str, detail: str) -> None:
    print(f"\nPASS criterion {criterion}: {detail}")


class TestCriterion1ToySweep:
    def test_beta_sweep_limits_peak_and_argmax(self):
        start = time.monotonic()
        grid = np.logspace(-6, 6, 121)
        stats = {}
        for family in ("pow", "exp"):
            points = toylab.sweep_beta(grid, family)
            rewards = np.array([p.reward for p in points])
            assert rewards[0] == pytest.approx(8.0, abs=0.01), f"{family} at beta=1e-6"
            assert rewards[-1] == pytest.approx(7.0, abs=0.01), f"{family} at beta=1e6"
            best = int(np.argmax(rewards))
            assert 9.0 <= rewards[best] <= 10.0, f"{family} peak {rewards[best]}"
            assert 1.0 <= points[best].beta <= 3.0, f"{family} argmax {points[best].beta}"
            stats[family] = (rewards[best], points[best].beta)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
        report(
            "1",
            "toy sweep: limits 8.0/7.0; "
            + ", ".join(f"{f} peak {r:.3f} at beta {b:.2f}" for f, (r, b) in stats.items())
            + f"; {elapsed:.2f}s",
        )


class TestCriterion2ClosedForms:
    def test_total_reward_exact_values(self):
        cases = {(0.3, 0.7): 10.0, (0.5, 0.5): 8.0, (0.0, 1.0): 7.0}
        for policy, expected in cases.items():
            assert toylab.total_reward(list(policy)) == pytest.approx(expected, abs=1e-12)
        report("2", "total reward [0.3,0.7]->10, [0.5,0.5]->8, [0,1]->7 exactly")


class TestCriterion3ExpectedSarsaOracle:
    def test_twenty_random_mdps_match_linear_solve(self):
        start = time.monotonic()
        rng = np.random.default_rng(424242)
        worst = 0.0
        for trial in range(20):
            n_s = int(rng.integers(2, 11))
            n_a = int(rng.integers(1, 5))
            mdp = deterministic_mdp(rng, n_s, n_a)
            policy = random_policy(rng, n_s, n_a)
            q = tabular_expected_sarsa(
                mdp, policy, alpha_schedule=1.0, gamma=0.9,
                steps=200 * n_s * n_a, seed=trial,
            )
            err = float(np.abs(q - solve_bellman_q(mdp, policy, 0.9)).max())
            worst = max(worst, err)
            assert err < 1e-3, f"trial {trial}: max error {err}"
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
        report("3", f"20 random MDPs, worst max-abs error {worst:.2e} < 1e-3; {elapsed:.2f}s")


class TestCriterion4GradientChecks:
    def test_both_kinds_match_central_differences(self):
        start = time.monotonic()
        rng = np.random.default_rng(777)
        worst = {"gcn": 0.0, "gat": 0.0}
        for kind, heads in (("gcn", 1), ("gat", 2)):
            cfg = GnnConfig(
                kind=kind, layers=2, hidden_dim=4, heads=heads,
                count_scale=1.0, speed_scale=1.0,
            )
            for trial in range(10):
                net = random_network(rng, max_roads=12)
                dual = build_dual_graph(net)
                params = init_params(cfg, seed=trial)
                features = rng.normal(size=(net.n_roads, 3))
                targets = rng.uniform(0.2, 0.8, size=net.n_roads)
                roads = np.arange(net.n_roads)

                graph = forward_graph(cfg, params, dual, features)
                grads = backward(((graph[roads] - targets) ** 2).sum())

                def loss_value(_x=None):
                    q = forward(cfg, params, dual, features)
                    return float(((q[roads] - targets) ** 2).sum())

                for name in params.names():
                    numeric = central_difference(loss_value, params[name], h=1e-5)
                    auto = grads[name]
                    denom = np.maximum(np.maximum(np.abs(auto), np.abs(numeric)), 1e-3)
                    err = float((np.abs(auto - numeric) / denom).max())
                    worst[kind] = max(worst[kind], err)
                    assert err <= 1e-4, f"{kind} trial {trial} param {name}: {err}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        report(
            "4",
            f"10+10 instances, max relative error gcn {worst['gcn']:.2e}, "
            f"gat {worst['gat']:.2e} (<= 1e-4); {elapsed:.2f}s",
        )


class TestCriterion5PolicyProperties:
    def test_thousand_random_q_vectors(self):
        rng = np.random.default_rng(31415)
        kinds = [
            PolicyKind("random"),
            PolicyKind("proportional"),
            PolicyKind("greedy"),
            PolicyKind("eps-greedy", epsilon=0.1),
            PolicyKind("pow", beta=2.0),
            PolicyKind("exp", beta=2.0),
            PolicyKind("entropy", beta=2.0),
        ]
        networks = [random_network(rng, max_roads=10) for _ in range(50)]
        duals = [build_dual_graph(net) for net in networks]
        checked = 0
        for i in range(1000):
            dual = duals[i % len(duals)]
            n = dual.node_count
            q = rng.uniform(0.001, 0.999, size=n)
            obs = Observation(
                rng.integers(0, 4, size=n), rng.integers(0, 4, size=n), rng.uniform(1, 9, size=n)
            )
            for kind in kinds:
                policy = policy_from_q(q, dual, kind, obs)
                for road in range(n):
                    _, probs = policy.distribution(road)
                    assert abs(probs.sum() - 1.0) <= 1e-9
                    assert (probs >= 0.0).all()
            for name in ("pow", "exp"):
                sharp = policy_from_q(q, dual, PolicyKind(name, beta=1e6))
                flat = policy_from_q(q, dual, PolicyKind(name, beta=1e-6))
                for road in range(n):
                    actions, probs = sharp.distribution(road)
                    values = q[actions]
                    order = np.sort(values)[::-1]
                    if len(values) > 1 and order[0] - order[1] > 1e-9:  # untied
                        assert probs[int(np.argmax(values))] >= 1.0 - 1e-6
                    _, flat_probs = flat.distribution(road)
                    uniform = np.full(len(flat_probs), 1.0 / len(flat_probs))
                    assert np.abs(flat_probs - uniform).max() <= 1e-3
            checked += 1
        assert checked == 1000
        report("5", "1000 q vectors x 7 kinds: rows sum to 1 +/- 1e-9; beta limits hold")


class TestCriterion6SimulatorConservation:
    def test_hundred_step_random_runs(self):
        rng = np.random.default_rng(99)
        for seed in (11, 22, 33):
            n_roads = 8
            net = generate_network(n_roads, seed=seed, n_nodes=4)
            params = SynthParams(
                roads=n_roads, mean_calls_per_step=0.3, hotspot_roads=0.25,
                hotspot_boost=3.0, duration_range=(1, 6), driver_base=12,
                seed=seed, steps=101,
            )
            scn = generate_synthetic(net, params)
            dual = build_dual_graph(net)
            policy = policy_from_q(np.full(n_roads, 0.5), dual, PolicyKind("random"))

            def run(world_seed):
                world = sim.init_world(net, scn, seed=world_seed)
                initial = world.total_drivers()
                trace = []
                closure = {
                    j: {j, *successors(net, j)} for j in range(n_roads)
                }
                for _ in range(100):
                    before = dict(zip(
                        world.driver_id.tolist(),
                        zip(world.road.tolist(), (world.serving_remaining == 0).tolist()),
                    ))
                    obs, outcome = sim.step(world, policy)
                    series = world.scenario.total_drivers_series
                    target = int(series[min(world.time, len(series) - 1)])
                    assert world.total_drivers() == target
                    c = world.counters
                    assert target == initial + c.drivers_added - c.drivers_removed
                    assert c.orders_served <= c.orders_generated
                    open_orders = sum(len(q) for q in world.queues)
                    assert c.orders_generated == c.orders_served + c.orders_expired + open_orders
                    idle_before = {i for i, (_, idle) in before.items() if idle}
                    s = outcome.samples
                    sampled = set(s.driver_id.tolist())
                    assert idle_before <= sampled
                    assert len(sampled) == len(s)
                    assert outcome.served == s.reward.sum()
                    assert not (s.controllable_next & (s.reward == 1)).any()
                    for i, road in zip(s.driver_id.tolist(), s.road_after_move.tolist()):
                        if i in idle_before:
                            assert road in closure[before[i][0]]
                    arrays = (
                        s.driver_id, s.road_after_move, s.controllable_next, s.reward,
                        obs.idle_counts, obs.call_counts, world.road, world.position,
                    )
                    trace.append(([a.tolist() for a in arrays], outcome.served,
                                  outcome.generated, astuple(c)))
                return trace

            assert run(1000 + seed) == run(1000 + seed)  # bit-identical replay
        report(
            "6",
            "3 seeds x 100 steps: fleet matches target "
            "and initial + added - removed, served <= generated, "
            "generated == served + expired + open, served agents not controllable, <=1 transition per step, bit-identical replays",
        )


class TestCriterion8LineGraphCounts:
    def test_fifty_random_networks_against_enumeration(self):
        rng = np.random.default_rng(2718)
        for trial in range(50):
            net = random_network(rng, max_roads=30)
            dual = build_dual_graph(net)
            pairs = two_path_pairs(net)
            assert dual.node_count == net.n_roads
            assert len(dual.edges) == len(pairs) + net.n_roads, f"trial {trial}"
        report("8", "50 networks: dual nodes == roads, edges == 2-paths + roads")
