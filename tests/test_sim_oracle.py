"""The array-state simulator against the frozen object simulator (`sim_oracle`).

Both run the same scenario from the same seed; every step must give equal
observations, transitions, counters, fleets and generator states.
"""

from dataclasses import astuple

import numpy as np
import pytest

import sim_oracle
from fleetlab import sim
from fleetlab.marl import PolicyKind, policy_from_q
from fleetlab.roadnet import build_dual_graph, successors
from fleetlab.scenario import CallRecord, Scenario

from conftest import network_with_loops

KINDS = (PolicyKind("random"), PolicyKind("proportional"), PolicyKind("pow", beta=2.0))
STEPS = 25


def random_case(rng):
    """A network with loop roads and dead ends, a fleet schedule that grows and
    shrinks, trips as short as one step, and an order expiry of 0 to 3 steps."""
    net = network_with_loops(rng)
    n = net.n_roads
    initial = rng.integers(0, 6, size=n)
    swings = rng.integers(-3, 4, size=STEPS + 1)
    swings[0] = 0
    totals = np.maximum(0, initial.sum() + np.cumsum(swings))
    calls = [
        CallRecord(
            int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(STEPS)),
            int(rng.integers(1, 4)), 1.0,
        )
        for _ in range(int(rng.integers(n, 4 * n * 3)))
    ]  # unsorted: same-step calls keep their scenario order
    scn = Scenario(
        initial_idle_per_road=initial,
        calls=tuple(calls),
        total_drivers_series=totals.astype(np.int64),
        speed_series=rng.uniform(100.0, 900.0, size=(STEPS + 1, n)),
        horizon=STEPS + 1,
    )
    return net, scn, int(rng.integers(0, 4))


def fleet(world):
    return (
        world.driver_id.tolist(), world.road.tolist(), world.position.tolist(),
        world.serving_remaining.tolist(), world.dropoff_road.tolist(),
    )


def oracle_fleet(world):
    drivers = world.drivers
    return tuple(
        [getattr(d, name) for d in drivers]
        for name in ("driver_id", "road", "position", "serving_remaining", "dropoff_road")
    )


def assert_same_observation(got, want):
    for name in ("idle_counts", "call_counts", "speeds"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_fifty_networks_step_for_step():
    rng = np.random.default_rng(4096)
    seen = dict.fromkeys(
        ("loops", "dead_ends", "added", "removed", "one_step_trips", "expired", "served"), 0
    )
    for trial in range(50):
        net, scn, expiry = random_case(rng)
        dual = build_dual_graph(net)
        world = sim.init_world(net, scn, seed=trial, order_expiry=expiry)
        oracle = sim_oracle.init_world(net, scn, seed=trial, order_expiry=expiry)
        assert fleet(world) == oracle_fleet(oracle)
        obs, want_obs = sim.observe(world), sim_oracle.observe(oracle)
        assert_same_observation(obs, want_obs)
        for t in range(STEPS):
            q = rng.uniform(0.05, 0.95, size=net.n_roads)
            policy = policy_from_q(q, dual, KINDS[t % len(KINDS)], obs)
            try:
                want_obs, want = sim_oracle.step(oracle, policy)
            except sim_oracle.ConfigurationError:  # schedule below the serving count
                with pytest.raises(sim.ConfigurationError):
                    sim.step(world, policy)
                break
            obs, got = sim.step(world, policy)
            assert_same_observation(obs, want_obs)
            samples = got.samples
            assert len(samples) == len(want.samples)
            assert samples.driver_id.tolist() == [s.driver_id for s in want.samples]
            assert samples.road_after_move.tolist() == [s.road_after_move for s in want.samples]
            assert samples.controllable_next.tolist() == [
                s.was_controllable_next for s in want.samples
            ]
            assert samples.reward.tolist() == [s.reward for s in want.samples]
            assert (got.served, got.generated) == (want.served, want.generated)
            assert astuple(world.counters) == astuple(oracle.counters)
            assert fleet(world) == oracle_fleet(oracle)
            assert world.rng.bit_generator.state == oracle.rng.bit_generator.state, (trial, t)
        c = world.counters
        seen["loops"] += sum(r.from_node == r.to_node for r in net.roads)
        seen["dead_ends"] += sum(not successors(net, j) for j in range(net.n_roads))
        seen["added"] += c.drivers_added
        seen["removed"] += c.drivers_removed
        seen["one_step_trips"] += sum(call.duration == 1 for call in scn.calls)
        seen["expired"] += c.orders_expired
        seen["served"] += c.orders_served
    assert all(seen.values()), seen
