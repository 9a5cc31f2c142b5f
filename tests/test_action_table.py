"""The dual graph's action table against frozen per-road loops.

Policy rows, TD targets, soft targets, relocation and the GNN's neighbourhood
table all read `DualGraph.indptr` / `DualGraph.actions`. The oracles below are
the per-road and per-driver loops those consumers replaced, kept verbatim in
behaviour; each reads its action lists from `roadnet.successors`,
independently of the table.
"""

import copy

import numpy as np
import pytest

from fleetlab import sim
from fleetlab.marl import Policy, PolicyKind, policy_from_q, soft_td_targets, td_targets
from fleetlab.roadnet import RoadNetwork, build_dual_graph, neighbourhoods, successors
from fleetlab.scenario import Scenario
from fleetlab.sim import Observation, Transitions

from conftest import network_with_loops

KINDS = [
    PolicyKind("random"),
    PolicyKind("proportional"),
    PolicyKind("greedy"),
    PolicyKind("eps-greedy", epsilon=0.3),
    PolicyKind("pow", beta=2.0),
    PolicyKind("exp", beta=3.0),
    PolicyKind("entropy", beta=0.5),
]


# -- frozen oracles ----------------------------------------------------------


def oracle_actions(net, road):
    return np.asarray(successors(net, road) or [road], dtype=np.intp)


def oracle_power_weights(q, beta):
    logs = beta * np.log(q)
    w = np.exp(logs - logs.max())
    return w / w.sum()


def oracle_softmax_weights(q, beta):
    w = np.exp(beta * (q - q.max()))
    return w / w.sum()


def oracle_greedy_row(q_row):
    row = np.zeros(len(q_row))
    row[int(np.argmax(q_row))] = 1.0
    return row


def oracle_policy_rows(q, net, kind, observation):
    rows = []
    for road in range(net.n_roads):
        acts = oracle_actions(net, road)
        if len(acts) == 1:
            rows.append((acts, np.ones(1)))
            continue
        if kind.name == "random":
            p = np.full(len(acts), 1.0 / len(acts))
        elif kind.name == "proportional":
            counts = observation.call_counts[acts].astype(np.float64)
            total = counts.sum()
            p = counts / total if total > 0 else np.full(len(acts), 1.0 / len(acts))
        elif kind.name == "greedy":
            p = oracle_greedy_row(q[acts])
        elif kind.name == "eps-greedy":
            p = (1.0 - kind.epsilon) * oracle_greedy_row(q[acts]) + kind.epsilon / len(acts)
        elif kind.name == "pow":
            p = oracle_power_weights(q[acts], kind.beta)
        else:
            p = oracle_softmax_weights(q[acts], kind.beta)
        rows.append((acts, p))
    return rows


def sample_rows(samples):
    return zip(
        samples.road_after_move.tolist(), samples.controllable_next.tolist(),
        samples.reward.tolist(),
    )


def oracle_td_targets(samples, q_next, rows, gamma):
    targets = np.empty(len(samples))
    for i, (road, controllable, reward) in enumerate(sample_rows(samples)):
        if reward:
            targets[i] = 1.0
        elif controllable:
            acts, p = rows[road]
            targets[i] = gamma * float(p @ q_next[acts])
        else:
            targets[i] = gamma * float(q_next[road])
    return targets


def oracle_soft_td_targets(samples, q_next, net, beta, gamma):
    targets = np.empty(len(samples))
    for i, (road, controllable, reward) in enumerate(sample_rows(samples)):
        if reward:
            targets[i] = 1.0
            continue
        acts = oracle_actions(net, road) if controllable else np.array([road])
        q = q_next[acts]
        m = q.max()
        targets[i] = (gamma / beta) * (beta * m + np.log(np.exp(beta * (q - m)).sum()))
    return targets


def oracle_relocate(world, policy, movers):
    if policy.n_roads != world.network.n_roads:
        raise ValueError("policy does not cover the world's roads")
    targets = []
    for i in movers:
        actions, probs = policy.distribution(world.road[i])
        nxt = int(actions[world.rng.choice(len(actions), p=probs)])
        world.road[i] = nxt
        world.position[i] = float(world.rng.uniform())
        targets.append(nxt)
    return np.array(targets, dtype=np.intp)


def oracle_neighbourhoods(net):
    """Per-road edge loop: road j hears itself and each successor, ascending, once."""
    rows = [sorted({j, *successors(net, j)}) for j in range(net.n_roads)]
    return np.cumsum([0, *map(len, rows)]), np.concatenate(rows)


# -- inputs --------------------------------------------------------------------


def random_inputs(rng, net):
    n = net.n_roads
    tied = np.clip(np.round(rng.uniform(0.0, 1.0, size=n), 1), 0.1, 0.9)  # many exact ties
    obs = Observation(
        rng.integers(0, 3, size=n), rng.integers(0, 4, size=n), rng.uniform(1, 9, size=n)
    )
    return (tied, rng.uniform(0.01, 0.99, size=n)), obs


def random_samples(rng, n_roads, count=40):
    rows = []
    for _ in range(count):
        served = bool(rng.random() < 0.2)
        road = int(rng.integers(n_roads))
        rows.append((road, bool(rng.random() < 0.6) and not served, int(served)))
    roads, controllable, reward = zip(*rows)
    return Transitions(
        np.arange(count), np.array(roads), np.array(controllable), np.array(reward)
    )


# -- tests --------------------------------------------------------------------


class TestAgainstPerRoadOracles:
    def test_fifty_networks_policy_rows_and_targets(self):
        rng = np.random.default_rng(8086)
        loops = dead_ends = ties = 0
        for _ in range(50):
            net = network_with_loops(rng)
            dual = build_dual_graph(net)
            loops += sum(r.from_node == r.to_node for r in net.roads)
            dead_ends += sum(not successors(net, j) for j in range(net.n_roads))
            q_vectors, obs = random_inputs(rng, net)
            samples = random_samples(rng, net.n_roads)
            for q in q_vectors:
                ties += len(set(q.tolist())) < len(q)
                for kind in KINDS:
                    policy = policy_from_q(q, dual, kind, obs)
                    oracle = oracle_policy_rows(q, net, kind, obs)
                    for road, (acts, p) in enumerate(oracle):
                        got_acts, got_p = policy.distribution(road)
                        assert np.array_equal(got_acts, acts)
                        if kind.name == "proportional":
                            assert np.array_equal(got_p, p)
                        else:
                            np.testing.assert_allclose(got_p, p, rtol=0, atol=1e-15)
                    np.testing.assert_allclose(
                        td_targets(samples, q, policy, 0.9),
                        oracle_td_targets(samples, q, oracle, 0.9),
                        rtol=0, atol=1e-12,
                    )
                for beta in (0.5, 2.0, 50.0):
                    np.testing.assert_allclose(
                        soft_td_targets(samples, q, dual, beta, 0.9),
                        oracle_soft_td_targets(samples, q, net, beta, 0.9),
                        rtol=0, atol=1e-12,
                    )
        assert loops and dead_ends and ties  # the inputs exercise every special case

    def test_neighbourhoods_match_successor_loop(self):
        rng = np.random.default_rng(4242)
        loops = dead_ends = 0
        for _ in range(50):
            net = network_with_loops(rng)
            dual = build_dual_graph(net)
            loops += sum(r.from_node == r.to_node for r in net.roads)
            dead_ends += sum(not successors(net, j) for j in range(net.n_roads))
            indptr, src = neighbourhoods(dual.indptr, dual.actions)
            want_indptr, want_src = oracle_neighbourhoods(net)
            assert np.array_equal(indptr, want_indptr) and np.array_equal(src, want_src)
            assert indptr.dtype == src.dtype == np.intp
            dst = np.repeat(np.arange(net.n_roads), np.diff(want_indptr))
            assert dual.edges == tuple(sorted(zip(want_src.tolist(), dst.tolist())))
        assert loops and dead_ends


def relocation_world(seed, n_drivers=3000):
    rng = np.random.default_rng(seed)
    net = network_with_loops(rng, max_roads=20)
    n = net.n_roads
    scn = Scenario(
        initial_idle_per_road=np.bincount(rng.integers(n, size=n_drivers), minlength=n),
        calls=(),
        total_drivers_series=np.full(2, n_drivers, dtype=np.int64),
        speed_series=np.full((2, n), 500.0),
        horizon=2,
    )
    world = sim.init_world(net, scn, seed=seed)
    world.position[::3] = 0.999  # every third driver reaches its road end
    return world, sim.advance_drivers(world)


def relocate_both(world, policy, ids):
    """Run the vectorized and the oracle relocation on twin worlds."""
    twin = copy.deepcopy(world)
    got = sim.relocate(world, policy, ids)
    want = oracle_relocate(twin, policy, ids)
    return (world, got), (twin, want)


def fork_world():
    """50 drivers on road 0, which forks into roads 1 and 2; all of them move."""
    net = RoadNetwork.from_edges(
        ["a", "b", "c", "d"], [("a", "b", 900.0), ("b", "c", 900.0), ("b", "d", 900.0)]
    )
    scn = Scenario(np.array([50, 0, 0]), (), np.full(2, 50), np.full((2, 3), 900.0), 2)
    world = sim.init_world(net, scn, seed=3)
    return world, sim.advance_drivers(world), build_dual_graph(net)


class TestRelocateAgainstRngChoice:
    def test_same_roads_positions_and_generator_state(self):
        for seed in range(6):
            world, ids = relocation_world(seed)
            dual = build_dual_graph(world.network)
            q = np.random.default_rng(seed).uniform(0.05, 0.95, size=dual.node_count)
            kind = KINDS[seed % len(KINDS)]
            policy = policy_from_q(q, dual, kind, sim.observe(world)).mixed_with_uniform(0.25)
            (world, got), (twin, want) = relocate_both(world, policy, ids)
            assert np.array_equal(got, want) and len(got) == len(ids)
            assert world.road.tolist() == twin.road.tolist()
            assert world.position.tolist() == twin.position.tolist()
            assert world.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_no_movers_draws_nothing(self):
        world, _, dual = fork_world()
        state = world.rng.bit_generator.state
        policy = policy_from_q(np.zeros(3), dual, KINDS[0])
        assert len(sim.relocate(world, policy, np.array([], dtype=np.intp))) == 0
        assert world.rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "row, raises",
        [
            ([1.5, -0.5], True),  # negative entry
            ([0.5, 0.5 + 2e-8], True),  # sum beyond the slack rng.choice allows
            ([0.5, 0.5 - 2e-8], True),
            ([0.5, 0.5 + 1e-8], False),  # within it: both sample the same way
            ([np.nan, 0.5], True),
        ],
    )
    def test_row_checks_match_rng_choice(self, row, raises):
        world, ids, dual = fork_world()
        policy = Policy(dual.indptr, dual.actions, np.concatenate([row, [1.0, 1.0]]))
        if raises:
            for relocate in (sim.relocate, oracle_relocate):
                with pytest.raises(ValueError):
                    relocate(copy.deepcopy(world), policy, ids)
        else:
            (world, got), (twin, want) = relocate_both(world, policy, ids)
            assert np.array_equal(got, want)
            assert world.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_draw_on_a_cdf_step_takes_the_next_action(self):
        world, ids, dual = fork_world()
        u = copy.deepcopy(world.rng).random()  # the first mover's choice draw
        probs = np.array([u, 1.0 - u, 1.0, 1.0])
        assert probs[0] + probs[1] == 1.0  # so the normalized CDF step is u itself
        policy = Policy(dual.indptr, dual.actions, probs)
        (world, got), (twin, want) = relocate_both(world, policy, ids)
        assert np.array_equal(got, want) and ids[0] == 0 and got[0] == 2
