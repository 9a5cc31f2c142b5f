"""Test oracle: the object simulator that the array-state `fleetlab.sim` replaced.

Kept unchanged in behaviour (one `Driver` object per vehicle, one frozen
`TransitionSample` per idle agent, per-driver loops) so that tests can check
the array simulator reproduces it step for step, RNG stream included. Only
the imports differ from the original module.

Fleet repositioning environment: drivers on roads, order matching, step cycle.

A step advances drivers by road speed, relocates the controllable ones under a
per-road policy, matches idle drivers to open orders, spawns and expires
orders, rebalances the fleet to the scheduled total, and emits the next
observation together with one transition sample per idle agent.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from fleetlab.roadnet import RoadNetwork

if TYPE_CHECKING:  # imported for annotations only; sim never calls into marl
    from fleetlab.marl import Policy
    from fleetlab.scenario import Scenario

__all__ = [
    "ConfigurationError",
    "Driver",
    "Order",
    "Counters",
    "Observation",
    "TransitionSample",
    "StepOutcome",
    "WorldState",
    "init_world",
    "advance_drivers",
    "relocate",
    "assign_orders",
    "spawn_and_expire_orders",
    "rebalance_drivers",
    "observe",
    "step",
    "order_response_rate",
]

DEFAULT_ORDER_EXPIRY = 10  # steps an unserved order stays in its queue
CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))  # the row-sum slack rng.choice allows


class ConfigurationError(ValueError):
    """Scenario and network disagree, or a scenario precondition is violated."""


@dataclass
class Driver:
    """A vehicle on a road; serving drivers are opaque until drop-off."""

    driver_id: int
    road: int
    position: float  # fraction of road length, in [0, 1)
    serving_remaining: int = 0  # 0 means idle
    dropoff_road: int = -1

    @property
    def idle(self) -> bool:
        return self.serving_remaining == 0


@dataclass(frozen=True)
class Order:
    order_id: int
    start_road: int
    end_road: int
    start_time: int
    duration: int  # steps of service once matched, >= 1
    price: float  # carried through for data fidelity; rewards are binary
    expiry: int  # steps the order may wait unserved


@dataclass
class Counters:
    """Running totals since the world was initialized."""

    orders_generated: int = 0
    orders_served: int = 0
    orders_expired: int = 0
    relocations: int = 0  # controllable drivers sampled by `relocate`, stays included
    drivers_added: int = 0
    drivers_removed: int = 0


@dataclass(frozen=True)
class Observation:
    """Per-road (idle driver count, open call count, speed) snapshot."""

    idle_counts: np.ndarray
    call_counts: np.ndarray
    speeds: np.ndarray

    def features(self) -> np.ndarray:
        """Stack into the (n_roads, 3) float matrix consumed by the Q network."""
        return np.stack(
            [
                self.idle_counts.astype(np.float64),
                self.call_counts.astype(np.float64),
                self.speeds.astype(np.float64),
            ],
            axis=1,
        )


@dataclass(frozen=True)
class TransitionSample:
    """One idle agent's experience from a single step.

    `road_after_move` is where the agent ended up after this step's relocation.
    `was_controllable_next` says whether the agent will be able to leave that
    road at the next decision point (resolved from its frozen position and the
    next step's speed), which is the branch the bootstrap value depends on.
    """

    driver_id: int
    road_after_move: int
    was_controllable_next: bool
    reward: int  # 1 iff an order was assigned this step
    terminated: bool  # True exactly when reward == 1


@dataclass(frozen=True)
class StepOutcome:
    samples: tuple[TransitionSample, ...]
    served: int  # orders matched this step
    generated: int  # orders spawned this step


class WorldState:
    """Mutable simulation state; mutate from a single thread only."""

    def __init__(
        self,
        network: RoadNetwork,
        scenario: "Scenario",
        rng: np.random.Generator,
        order_expiry: int = DEFAULT_ORDER_EXPIRY,
    ):
        self.network = network
        self.scenario = scenario
        self.rng = rng
        self.order_expiry = int(order_expiry)
        self.time = 0
        self.drivers: list[Driver] = []
        self.queues: list[deque[Order]] = [deque() for _ in range(network.n_roads)]
        self.speeds = np.asarray(scenario.speed_series[0], dtype=np.float64).copy()
        self.counters = Counters()
        self._next_driver_id = 0
        self._next_order_id = 0
        # calls indexed by start step for O(1) spawning
        self.calls_by_time: dict[int, list] = {}
        for call in scenario.calls:
            self.calls_by_time.setdefault(call.start_time, []).append(call)

    def new_driver(self, road: int, position: float) -> Driver:
        d = Driver(self._next_driver_id, road, position)
        self._next_driver_id += 1
        self.drivers.append(d)
        return d

    def total_drivers(self) -> int:
        return len(self.drivers)

    def serving_count(self) -> int:
        return sum(1 for d in self.drivers if not d.idle)


def init_world(
    network: RoadNetwork,
    scenario: "Scenario",
    seed: int,
    order_expiry: int = DEFAULT_ORDER_EXPIRY,
) -> WorldState:
    """Deploy the initial idle fleet and enqueue orders that open at step 0."""
    n = network.n_roads
    if len(scenario.initial_idle_per_road) != n:
        raise ConfigurationError(
            f"initial idle distribution covers {len(scenario.initial_idle_per_road)} "
            f"roads but the network has {n}"
        )
    if scenario.speed_series.shape[1] != n:
        raise ConfigurationError(
            f"speed series covers {scenario.speed_series.shape[1]} roads, expected {n}"
        )
    world = WorldState(
        network, scenario, np.random.default_rng(seed), order_expiry=order_expiry
    )
    for road, count in enumerate(scenario.initial_idle_per_road):
        for _ in range(int(count)):
            world.new_driver(road, float(world.rng.uniform()))
    _spawn_orders(world)  # orders whose start time is step 0
    return world


def _spawn_orders(world: WorldState) -> int:
    spawned = 0
    for call in world.calls_by_time.get(world.time, ()):
        if not 0 <= call.start_road < world.network.n_roads:
            raise ConfigurationError(
                f"call at t={call.start_time} references road {call.start_road} "
                f"outside 0..{world.network.n_roads - 1}"
            )
        order = Order(
            order_id=world._next_order_id,
            start_road=call.start_road,
            end_road=call.end_road,
            start_time=call.start_time,
            duration=call.duration,
            price=call.price,
            expiry=world.order_expiry,
        )
        world._next_order_id += 1
        world.queues[call.start_road].append(order)
        spawned += 1
    world.counters.orders_generated += spawned
    return spawned


def _expire_orders(world: WorldState) -> int:
    removed = 0
    for road, queue in enumerate(world.queues):
        kept = deque(o for o in queue if world.time - o.start_time <= o.expiry)
        removed += len(queue) - len(kept)
        world.queues[road] = kept
    return removed


def advance_drivers(world: WorldState) -> set[int]:
    """Move every driver one step; return ids of idle drivers able to change road.

    Idle drivers travel by their road's current speed. Those reaching the road
    end (>= comparison) are controllable, with position frozen until
    relocation. Serving drivers count down and, on reaching zero, reappear idle
    at their drop-off road with a fresh uniform position.
    """
    controllable: set[int] = set()
    for d in world.drivers:
        if not d.idle:
            d.serving_remaining -= 1
            if d.serving_remaining == 0:
                d.road = d.dropoff_road
                d.dropoff_road = -1
                d.position = float(world.rng.uniform())
            continue
        length = world.network.roads[d.road].length
        # same expression for the threshold and the move keeps rounding consistent
        new_position = d.position + world.speeds[d.road] / length
        if new_position >= 1.0:
            controllable.add(d.driver_id)
        else:
            d.position = float(new_position)
    return controllable


def relocate(
    world: WorldState, policy: "Policy", controllable_ids: set[int]
) -> dict[int, int]:
    """Sample each controllable driver's next road from the policy row of its road.

    Positions on the new road are uniform in [0, 1). Roads with no successors
    carry a degenerate stay distribution, so the driver keeps its road but still
    resamples its position. Non-controllable drivers implicitly take the stay
    action and are untouched here. Movers are sampled at once by inverse CDF;
    in fleet order each takes two draws, choice then position, which is the
    stream and the row checks of `rng.choice(p=row)` then `rng.uniform()`.
    """
    if policy.n_roads != world.network.n_roads:
        raise ValueError(
            f"policy covers {policy.n_roads} roads, world has {world.network.n_roads}"
        )
    movers = [d for d in world.drivers if d.driver_id in controllable_ids]
    roads = np.array([d.road for d in movers], dtype=np.intp)
    start = policy.indptr[roads]
    degree = policy.indptr[roads + 1] - start
    slot = np.arange(degree.max(initial=1))  # with no movers, one empty column
    inside = slot < degree[:, None]
    rows = np.where(inside, policy.probs[np.where(inside, start[:, None] + slot, 0)], 0.0)
    cdf = rows.cumsum(axis=1)  # padding repeats each row's total
    total = cdf[:, -1:]
    if (rows < 0).any() or not (np.abs(total - 1.0) <= CHOICE_ATOL).all():
        raise ValueError("policy rows must be non-negative and sum to 1")
    draws = world.rng.random((len(movers), 2))
    # entries <= u, as searchsorted(side="right"); the padding is 1.0 > u
    picks = (cdf / total <= draws[:, :1]).sum(axis=1)
    targets = policy.actions[start + picks].tolist()
    for d, road, position in zip(movers, targets, draws[:, 1].tolist()):
        d.road = road
        d.position = position
    world.counters.relocations += len(movers)
    return {d.driver_id: d.road for d in movers}


def assign_orders(world: WorldState) -> dict[int, int]:
    """Match idle drivers to queued orders road by road; return reward per idle driver.

    Each road serves min(idle, queued) orders, oldest first, with the served
    drivers drawn uniformly without replacement from every idle driver on the
    road (controllable or not). Matched drivers start serving and earn 1.
    """
    idle_by_road: dict[int, list[Driver]] = {}
    rewards: dict[int, int] = {}
    for d in world.drivers:
        if d.idle:
            idle_by_road.setdefault(d.road, []).append(d)
            rewards[d.driver_id] = 0
    for road in range(world.network.n_roads):
        queue = world.queues[road]
        candidates = idle_by_road.get(road)
        if not queue or not candidates:
            continue
        k = min(len(candidates), len(queue))
        chosen = world.rng.choice(len(candidates), size=k, replace=False)
        for idx in chosen:
            order = queue.popleft()
            d = candidates[int(idx)]
            d.serving_remaining = order.duration
            d.dropoff_road = order.end_road
            rewards[d.driver_id] = 1
            world.counters.orders_served += 1
    return rewards


def spawn_and_expire_orders(world: WorldState) -> int:
    """Enqueue calls opening at the current step and drop orders past expiry."""
    spawned = _spawn_orders(world)
    world.counters.orders_expired += _expire_orders(world)
    return spawned


def rebalance_drivers(world: WorldState, target_total: int) -> int:
    """Add or remove idle drivers so the fleet matches the scheduled total.

    New drivers appear on uniformly random roads and positions; removals pick
    uniformly among idle drivers only. Serving drivers are never removed.
    """
    serving = world.serving_count()
    if target_total < serving:
        raise ConfigurationError(
            f"target fleet size {target_total} below {serving} currently serving"
        )
    delta = int(target_total) - world.total_drivers()
    if delta > 0:
        for _ in range(delta):
            road = int(world.rng.integers(world.network.n_roads))
            world.new_driver(road, float(world.rng.uniform()))
        world.counters.drivers_added += delta
    elif delta < 0:
        idle = [d for d in world.drivers if d.idle]
        drop_idx = world.rng.choice(len(idle), size=-delta, replace=False)
        doomed = {idle[int(i)].driver_id for i in drop_idx}
        world.drivers = [d for d in world.drivers if d.driver_id not in doomed]
        world.counters.drivers_removed -= delta
    return delta


def observe(world: WorldState) -> Observation:
    """Per-road idle counts (controllable or not), open call counts, and speeds."""
    n = world.network.n_roads
    idle = np.zeros(n, dtype=np.int64)
    for d in world.drivers:
        if d.idle:
            idle[d.road] += 1
    calls = np.array([len(q) for q in world.queues], dtype=np.int64)
    return Observation(idle, calls, world.speeds.copy())


def step(world: WorldState, policy: "Policy") -> tuple[Observation, StepOutcome]:
    """Run one full cycle: advance, relocate, match, tick, spawn, rebalance, observe.

    Every driver that was idle at matching time yields exactly one sample.
    Drivers spawned by this step's rebalance join the agent set next step;
    drivers it removes keep the sample they already earned.
    """
    controllable_ids = advance_drivers(world)
    relocate(world, policy, controllable_ids)
    rewards = assign_orders(world)
    agents = [(d, rewards[d.driver_id]) for d in world.drivers if d.driver_id in rewards]

    world.time += 1
    generated = spawn_and_expire_orders(world)

    series = world.scenario.total_drivers_series
    target = int(series[min(world.time, len(series) - 1)])
    rebalance_drivers(world, target)

    speed_row = min(world.time, world.scenario.speed_series.shape[0] - 1)
    world.speeds = np.asarray(
        world.scenario.speed_series[speed_row], dtype=np.float64
    ).copy()

    samples = []
    for d, reward in agents:
        if reward:
            controllable_next = False  # episode ends on a served order
        else:
            length = world.network.roads[d.road].length
            controllable_next = d.position + world.speeds[d.road] / length >= 1.0
        samples.append(
            TransitionSample(
                driver_id=d.driver_id,
                road_after_move=d.road,
                was_controllable_next=bool(controllable_next),
                reward=int(reward),
                terminated=bool(reward),
            )
        )

    served = sum(r for _, r in agents)
    return observe(world), StepOutcome(tuple(samples), served, generated)


def order_response_rate(counters: Counters) -> float | None:
    """Served orders over generated orders; None when nothing was generated."""
    if counters.orders_generated == 0:
        return None
    return counters.orders_served / counters.orders_generated
