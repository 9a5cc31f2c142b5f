"""Simulator: per-phase contracts, conservation invariants, and determinism."""

import numpy as np
import pytest

from fleetlab import sim
from fleetlab.marl import Policy, PolicyKind, policy_from_q, uniform_policy
from fleetlab.roadnet import RoadNetwork, build_dual_graph, successors
from fleetlab.scenario import CallRecord, Scenario


def make_scenario(
    n_roads,
    initial=None,
    calls=(),
    horizon=20,
    total=None,
    speed=600.0,
):
    if initial is None:
        initial = [0] * n_roads
    if total is None:
        total = int(sum(initial))
    return Scenario(
        initial_idle_per_road=np.asarray(initial, dtype=np.int64),
        calls=tuple(calls),
        total_drivers_series=np.full(horizon, total, dtype=np.int64),
        speed_series=np.full((horizon, n_roads), float(speed)),
        horizon=horizon,
    )


def chain_network():
    # a -> b -> c -> d, three 1000 m roads; road 2 is a dead end
    return RoadNetwork.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b", 1000.0), ("b", "c", 1000.0), ("c", "d", 1000.0)],
    )


def fork_network():
    # road 0 feeds roads 1 and 2
    return RoadNetwork.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b", 1000.0), ("b", "c", 1000.0), ("b", "d", 1000.0)],
    )


def stay_policy(network):
    return uniform_policy(build_dual_graph(network))


class TestInitWorld:
    def test_initial_distribution_placement(self):
        net = chain_network()
        scn = make_scenario(3, initial=[2, 0, 1])
        world = sim.init_world(net, scn, seed=1)
        assert world.total_drivers() == 3
        assert world.road.tolist() == [0, 0, 2]
        assert ((0.0 <= world.position) & (world.position < 1.0)).all()
        assert world.time == 0

    def test_empty_distribution_is_valid(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3), seed=1)
        assert world.total_drivers() == 0
        assert world.counters.orders_generated == 0

    def test_same_seed_gives_identical_positions(self):
        net = chain_network()
        scn = make_scenario(3, initial=[5, 3, 2])
        a = sim.init_world(net, scn, seed=42)
        b = sim.init_world(net, scn, seed=42)
        assert a.position.tolist() == b.position.tolist()

    def test_road_count_mismatch_raises(self):
        net = chain_network()
        with pytest.raises(sim.ConfigurationError):
            sim.init_world(net, make_scenario(2, initial=[1, 1]), seed=0)

    def test_orders_opening_at_step_zero_are_enqueued(self):
        net = chain_network()
        scn = make_scenario(3, calls=[CallRecord(1, 2, 0, 3, 5.0)])
        world = sim.init_world(net, scn, seed=0)
        assert len(world.queues[1]) == 1
        assert world.counters.orders_generated == 1


class TestAdvanceDrivers:
    def test_reaching_road_end_marks_controllable(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        world.position[0] = 0.5  # 600 m step covers the remaining 500 m
        movers = sim.advance_drivers(world)
        assert movers.tolist() == [0]
        assert world.position[0] == 0.5  # frozen until relocation

    def test_short_move_updates_position(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        world.position[0] = 0.1
        movers = sim.advance_drivers(world)
        assert len(movers) == 0
        assert world.position[0] == pytest.approx(0.7)

    def test_exact_boundary_counts_as_controllable(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        world.position[0] = 0.4  # 0.4 + 600/1000 == 1.0 exactly
        assert sim.advance_drivers(world).tolist() == [0]

    def test_serving_driver_counts_down_and_drops_off(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        world.serving_remaining[0] = 2
        world.dropoff_road[0] = 2
        assert len(sim.advance_drivers(world)) == 0
        assert world.serving_remaining[0] == 1 and world.road[0] == 0
        assert len(sim.advance_drivers(world)) == 0
        assert world.serving_remaining[0] == 0 and world.road[0] == 2
        assert world.dropoff_road[0] == -1 and 0.0 <= world.position[0] < 1.0


class TestRelocate:
    def test_degenerate_policy_moves_everyone(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[4, 0, 0]), seed=0)
        world.position[:] = 0.9
        movers = sim.advance_drivers(world)
        moved = sim.relocate(world, stay_policy(net), movers)
        assert moved.tolist() == [1] * 4  # road 0 has the single successor 1
        assert world.road.tolist() == [1] * 4
        assert world.counters.relocations == 4

    def test_dead_end_driver_stays_with_fresh_position(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[0, 0, 1]), seed=0)
        world.position[0] = 0.95
        movers = sim.advance_drivers(world)
        moved = sim.relocate(world, stay_policy(net), movers)
        assert movers.tolist() == [0] and moved.tolist() == [2]
        assert world.counters.relocations == 1  # a dead-end stay counts as a relocation
        assert world.road[0] == 2 and world.position[0] != 0.95

    def test_even_split_law_of_large_numbers(self):
        net = fork_network()
        world = sim.init_world(net, make_scenario(3, initial=[10_000, 0, 0]), seed=7)
        world.position[:] = 0.99
        movers = sim.advance_drivers(world)
        dual = build_dual_graph(net)
        policy = policy_from_q(np.array([0.5, 0.5, 0.5]), dual, PolicyKind("random"))
        sim.relocate(world, policy, movers)
        on_road_1 = int((world.road == 1).sum())
        assert abs(on_road_1 / 10_000 - 0.5) < 0.02

    def test_policy_missing_row_raises(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        small = Policy(np.array([0, 1]), np.array([0]), np.array([1.0]))  # covers one road only
        with pytest.raises(ValueError):
            sim.relocate(world, small, np.array([0]))


class TestAssignOrders:
    def build(self, idle, orders):
        net = chain_network()
        calls = [CallRecord(0, 2, 0, 4, 1.0) for _ in range(orders)]
        world = sim.init_world(
            net, make_scenario(3, initial=[idle, 0, 0], calls=calls), seed=3
        )
        return world

    def test_three_drivers_two_orders(self):
        world = self.build(3, 2)
        idle, rewards = sim.assign_orders(world)
        assert idle.tolist() == [0, 1, 2] and rewards.sum() == 2
        assert world.counters.orders_served == 2
        assert world.serving_count() == 2

    def test_one_driver_three_orders(self):
        world = self.build(1, 3)
        _, rewards = sim.assign_orders(world)
        assert rewards.tolist() == [1]
        assert len(world.queues[0]) == 2

    def test_no_drivers_serves_nothing(self):
        world = self.build(0, 2)
        idle, rewards = sim.assign_orders(world)
        assert len(idle) == len(rewards) == 0
        assert world.counters.orders_served == 0

    def test_matched_driver_takes_order_duration_and_destination(self):
        world = self.build(1, 1)
        sim.assign_orders(world)
        assert world.serving_remaining[0] == 4 and world.dropoff_road[0] == 2


class TestSpawnAndExpire:
    def test_spawn_at_matching_step(self):
        net = chain_network()
        calls = [CallRecord(2, 0, 7, 3, 1.0), CallRecord(2, 0, 7, 3, 1.0)]
        world = sim.init_world(net, make_scenario(3, calls=calls), seed=0)
        assert len(world.queues[2]) == 0
        world.time = 7
        spawned = sim.spawn_and_expire_orders(world)
        assert spawned == 2 and len(world.queues[2]) == 2

    def test_expiry_removes_stale_orders(self):
        net = chain_network()
        world = sim.init_world(
            net, make_scenario(3, calls=[CallRecord(0, 1, 5, 3, 1.0)]), seed=0, order_expiry=2
        )
        world.time = 5
        sim.spawn_and_expire_orders(world)
        assert len(world.queues[0]) == 1
        world.time = 7  # age 2, still allowed
        sim.spawn_and_expire_orders(world)
        assert len(world.queues[0]) == 1
        world.time = 8  # age 3 exceeds expiry 2
        sim.spawn_and_expire_orders(world)
        assert len(world.queues[0]) == 0

    def test_no_calls_means_zero_generated(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3), seed=0)
        world.time = 4
        assert sim.spawn_and_expire_orders(world) == 0

    def test_invalid_road_reference_raises(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, calls=[CallRecord(99, 0, 2, 1, 1.0)]), seed=0)
        world.time = 2
        with pytest.raises(sim.ConfigurationError):
            sim.spawn_and_expire_orders(world)

    def test_call_index_is_built_once_per_scenario(self):
        net = chain_network()
        scn = make_scenario(3, calls=[CallRecord(0, 1, 1, 2, 1.0), CallRecord(2, 0, 0, 1, 1.0)])
        a, b = sim.init_world(net, scn, seed=0), sim.init_world(net, scn, seed=1)
        assert a.scenario.call_table is b.scenario.call_table
        assert scn.call_table.start_time.tolist() == [0, 1]
        assert not scn.call_table.duration.flags.writeable  # shared, so read-only
        assert [len(q) for q in a.queues] == [0, 0, 1]

    def test_expiry_pops_only_the_expired_front(self):
        net = chain_network()
        calls = [CallRecord(0, 1, t, 3, 1.0) for t in (0, 0, 1, 2)]
        world = sim.init_world(net, make_scenario(3, calls=calls), seed=0, order_expiry=1)
        for t in (1, 2):
            world.time = t
            sim.spawn_and_expire_orders(world)
        assert len(world.queues[0]) == 2  # the two t=0 orders aged past 1 step
        assert world.counters.orders_expired == 2


class TestRebalance:
    def test_grows_to_target(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[90, 0, 0]), seed=0)
        assert sim.rebalance_drivers(world, 100) == 10
        assert world.total_drivers() == 100
        assert (world.counters.drivers_added, world.counters.drivers_removed) == (10, 0)

    def test_shrinks_but_never_removes_serving(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[90, 0, 0]), seed=0)
        world.serving_remaining[:5] = 3
        world.dropoff_road[:5] = 1
        assert sim.rebalance_drivers(world, 80) == -10
        assert world.total_drivers() == 80
        assert world.serving_count() == 5
        assert world.driver_id[:5].tolist() == [0, 1, 2, 3, 4]
        assert (np.diff(world.driver_id) > 0).all()  # removals keep fleet order
        assert (world.counters.drivers_added, world.counters.drivers_removed) == (0, 10)

    def test_noop_when_matching(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[7, 0, 0]), seed=0)
        assert sim.rebalance_drivers(world, 7) == 0

    def test_target_below_serving_raises(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[5, 0, 0]), seed=0)
        world.serving_remaining[:] = 2
        world.dropoff_road[:] = 1
        with pytest.raises(sim.ConfigurationError):
            sim.rebalance_drivers(world, 3)


class TestObserve:
    def test_empty_world_all_zero(self):
        net = chain_network()
        obs = sim.observe(sim.init_world(net, make_scenario(3, speed=300.0), seed=0))
        assert obs.idle_counts.tolist() == [0, 0, 0]
        assert obs.call_counts.tolist() == [0, 0, 0]
        assert obs.speeds.tolist() == [300.0, 300.0, 300.0]

    def test_counts_reflect_drivers_and_calls(self):
        net = chain_network()
        scn = make_scenario(3, initial=[0, 0, 1], calls=[CallRecord(0, 1, 0, 2, 1.0)])
        obs = sim.observe(sim.init_world(net, scn, seed=0))
        assert obs.idle_counts.tolist() == [0, 0, 1]
        assert obs.call_counts.tolist() == [1, 0, 0]

    def test_serving_driver_not_counted_idle(self):
        net = chain_network()
        world = sim.init_world(net, make_scenario(3, initial=[1, 0, 0]), seed=0)
        world.serving_remaining[0] = 2
        assert sim.observe(world).idle_counts.tolist() == [0, 0, 0]

    def test_features_matrix_shape(self):
        net = chain_network()
        obs = sim.observe(sim.init_world(net, make_scenario(3), seed=0))
        assert obs.features().shape == (3, 3)


class TestStep:
    def test_matching_call_terminates_with_reward(self):
        net = chain_network()
        scn = make_scenario(3, initial=[1, 0, 0], calls=[CallRecord(0, 2, 0, 3, 1.0)], speed=100.0)
        world = sim.init_world(net, scn, seed=0)
        _, outcome = sim.step(world, stay_policy(net))
        samples = outcome.samples
        assert len(samples) == 1
        assert samples.reward.tolist() == [1] and samples.road_after_move.tolist() == [0]
        assert samples.controllable_next.tolist() == [False]
        assert outcome.served == 1

    def test_no_drivers_still_generates(self):
        net = chain_network()
        scn = make_scenario(3, total=0, calls=[CallRecord(0, 1, 1, 2, 1.0)])
        world = sim.init_world(net, scn, seed=0)
        _, outcome = sim.step(world, stay_policy(net))
        assert len(outcome.samples) == 0
        assert outcome.generated == 1

    def test_sample_flags_next_step_controllability(self):
        net = chain_network()
        scn = make_scenario(3, initial=[2, 0, 0], speed=400.0)
        world = sim.init_world(net, scn, seed=0)
        # after +0.4 -> 0.45, next step 0.85 < 1: not controllable;
        # after +0.4 -> 0.85, next step 1.25 >= 1: controllable
        world.position[:] = [0.05, 0.45]
        _, outcome = sim.step(world, stay_policy(net))
        assert outcome.samples.driver_id.tolist() == [0, 1]
        assert outcome.samples.controllable_next.tolist() == [False, True]

    def test_fixed_seed_trajectories_are_bit_identical(self):
        net = fork_network()
        calls = [CallRecord(t % 3, (t + 1) % 3, t, 3, 1.0) for t in range(15)]
        scn = make_scenario(3, initial=[5, 3, 2], calls=calls, horizon=16, total=12)
        runs = []
        for _ in range(2):
            world = sim.init_world(net, scn, seed=11)
            policy = stay_policy(net)
            log = []
            for _ in range(15):
                obs, outcome = sim.step(world, policy)
                s = outcome.samples
                log.append([
                    a.tolist() for a in (s.driver_id, s.road_after_move, s.controllable_next,
                                         s.reward, obs.idle_counts, obs.call_counts,
                                         world.road, world.position)
                ] + [outcome.served, outcome.generated])
            log.append((world.counters.orders_generated, world.counters.orders_served))
            runs.append(log)
        assert runs[0] == runs[1]


class TestStepInvariants:
    def run_random_world(self, seed, steps=100):
        rng = np.random.default_rng(seed)
        net = fork_network()
        dual = build_dual_graph(net)
        calls = [
            CallRecord(int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(steps)), int(rng.integers(1, 6)), 1.0)
            for _ in range(60)
        ]
        totals = rng.integers(5, 25, size=steps + 1)
        scn = Scenario(
            initial_idle_per_road=np.array([int(totals[0]), 0, 0]),
            calls=tuple(sorted(calls, key=lambda c: (c.start_time, c.start_road))),
            total_drivers_series=np.asarray(totals, dtype=np.int64),
            speed_series=rng.uniform(200.0, 900.0, size=(steps + 1, 3)),
            horizon=steps + 1,
        )
        world = sim.init_world(net, scn, seed=seed)
        policy = policy_from_q(np.full(3, 0.5), dual, PolicyKind("random"))
        yield world  # before any step
        for _ in range(steps):
            before = dict(zip(world.driver_id.tolist(),
                              zip(world.road.tolist(), (world.serving_remaining == 0).tolist())))
            obs, outcome = sim.step(world, policy)
            yield world, obs, outcome, before

    def test_conservation_suite(self):
        for seed in (1, 2, 3):
            runner = self.run_random_world(seed)
            world = next(runner)
            net = world.network
            closure = {
                j: {j, *successors(net, j)} for j in range(net.n_roads)
            }
            for world, obs, outcome, before in runner:
                series = world.scenario.total_drivers_series
                target = int(series[min(world.time, len(series) - 1)])
                assert world.total_drivers() == target
                assert world.counters.orders_served <= world.counters.orders_generated
                idle_before = {i for i, (_, idle) in before.items() if idle}
                samples = outcome.samples
                sampled = set(samples.driver_id.tolist())
                # released drivers join the idle set mid-step, so sampled >= idle_before
                assert idle_before <= sampled
                assert len(sampled) == len(samples)
                assert not (samples.controllable_next & (samples.reward == 1)).any()
                for i, road in zip(samples.driver_id.tolist(), samples.road_after_move.tolist()):
                    if i in idle_before:
                        assert road in closure[before[i][0]]
                rate = sim.order_response_rate(world.counters)
                if rate is not None:
                    assert 0.0 <= rate <= 1.0


class TestResponseRate:
    def test_simple_fraction(self):
        assert sim.order_response_rate(sim.Counters(100, 50)) == pytest.approx(0.5)

    def test_zero_served(self):
        assert sim.order_response_rate(sim.Counters(100, 0)) == 0.0

    def test_undefined_when_nothing_generated(self):
        assert sim.order_response_rate(sim.Counters(0, 0)) is None
