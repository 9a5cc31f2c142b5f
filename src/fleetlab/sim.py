"""Fleet repositioning environment: drivers on roads, order matching, step cycle.

A step advances drivers by road speed, relocates the controllable ones under a
per-road policy, matches idle drivers to open orders, spawns and expires
orders, rebalances the fleet to the scheduled total, and emits the next
observation together with one transition per idle agent.

The fleet is held as parallel arrays in fleet order (`road`, `position`,
`serving_remaining`, `dropoff_road`, `driver_id`); every phase is array
operations over them, with random draws taken in fleet order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .roadnet import RoadNetwork

if TYPE_CHECKING:  # imported for annotations only; sim never calls into marl
    from .marl import Policy
    from .scenario import Scenario

__all__ = [
    "ConfigurationError",
    "Counters",
    "Observation",
    "Transitions",
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
class Transitions:
    """Every idle agent's experience from one step, one array entry per agent.

    `road_after_move` is where the agent ended up after this step's relocation.
    `controllable_next` says whether the agent will be able to leave that road
    at the next decision point (resolved from its frozen position and the next
    step's speed), which is the branch the bootstrap value depends on. A reward
    of 1 means an order was assigned, which ends the agent's episode.
    """

    driver_id: np.ndarray
    road_after_move: np.ndarray
    controllable_next: np.ndarray  # bool
    reward: np.ndarray  # 0 or 1

    def __len__(self) -> int:
        return len(self.driver_id)


@dataclass(frozen=True)
class StepOutcome:
    samples: Transitions
    served: int  # orders matched this step
    generated: int  # orders spawned this step


class WorldState:
    """Mutable simulation state; mutate from a single thread only.

    Drivers are parallel arrays in fleet order; a serving driver
    (`serving_remaining` > 0) is opaque until drop-off at `dropoff_road`.
    Each road's queue holds `scenario.call_table` rows, oldest first.
    """

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
        self.length = np.array([r.length for r in network.roads], dtype=np.float64)
        self.driver_id = np.zeros(0, dtype=np.int64)
        self.road = np.zeros(0, dtype=np.intp)
        self.position = np.zeros(0, dtype=np.float64)  # fraction of road length, in [0, 1)
        self.serving_remaining = np.zeros(0, dtype=np.int64)  # 0 means idle
        self.dropoff_road = np.zeros(0, dtype=np.intp)
        self.queues: list[deque[int]] = [deque() for _ in range(network.n_roads)]
        self.speeds = np.asarray(scenario.speed_series[0], dtype=np.float64).copy()
        self.counters = Counters()
        self._next_driver_id = 0

    def total_drivers(self) -> int:
        return len(self.driver_id)

    def serving_count(self) -> int:
        return int((self.serving_remaining > 0).sum())

    def _add_drivers(self, roads: np.ndarray, positions: np.ndarray) -> None:
        start, self._next_driver_id = self._next_driver_id, self._next_driver_id + len(roads)
        self.driver_id = np.append(self.driver_id, np.arange(start, self._next_driver_id))
        self.road = np.append(self.road, np.asarray(roads, dtype=np.intp))
        self.position = np.append(self.position, positions)
        self.serving_remaining = np.append(self.serving_remaining, np.zeros(len(roads), np.int64))
        self.dropoff_road = np.append(self.dropoff_road, np.full(len(roads), -1, np.intp))

    def _keep_drivers(self, keep: np.ndarray) -> None:
        for name in ("driver_id", "road", "position", "serving_remaining", "dropoff_road"):
            setattr(self, name, getattr(self, name)[keep])


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
    roads = np.repeat(np.arange(n), np.asarray(scenario.initial_idle_per_road, dtype=np.int64))
    world._add_drivers(roads, world.rng.uniform(size=len(roads)))
    _spawn_orders(world)  # orders whose start time is step 0
    return world


def _spawn_orders(world: WorldState) -> int:
    table = world.scenario.call_table
    rows = table.opening(world.time)
    roads = table.start_road[rows.start : rows.stop]
    bad = (roads < 0) | (roads >= world.network.n_roads)
    if bad.any():
        raise ConfigurationError(
            f"call at t={world.time} references road {roads[bad][0]} "
            f"outside 0..{world.network.n_roads - 1}"
        )
    for row, road in zip(rows, roads.tolist()):
        world.queues[road].append(row)
    world.counters.orders_generated += len(rows)
    return len(rows)


def _expire_orders(world: WorldState) -> int:
    """Drop each queue's expired front; queues are FIFO by start time with one expiry."""
    oldest_kept = world.time - world.order_expiry
    start_time = world.scenario.call_table.start_time
    removed = 0
    for queue in world.queues:
        while queue and start_time[queue[0]] < oldest_kept:
            queue.popleft()
            removed += 1
    return removed


def advance_drivers(world: WorldState) -> np.ndarray:
    """Move every driver one step; return the fleet indices of idle drivers able to change road.

    Idle drivers travel by their road's current speed. Those reaching the road
    end (>= comparison) are controllable, with position frozen until
    relocation. Serving drivers count down and, on reaching zero, reappear idle
    at their drop-off road with a fresh uniform position, drawn in fleet order.
    """
    serving = world.serving_remaining > 0
    idle = np.flatnonzero(~serving)
    world.serving_remaining[serving] -= 1
    returned = np.flatnonzero(serving & (world.serving_remaining == 0))
    world.road[returned] = world.dropoff_road[returned]
    world.dropoff_road[returned] = -1
    world.position[returned] = world.rng.uniform(size=len(returned))

    roads = world.road[idle]
    # same expression for the threshold and the move keeps rounding consistent
    new_position = world.position[idle] + world.speeds[roads] / world.length[roads]
    reached = new_position >= 1.0
    world.position[idle[~reached]] = new_position[~reached]
    return idle[reached]


def relocate(world: WorldState, policy: "Policy", movers: np.ndarray) -> np.ndarray:
    """Sample each mover's next road from the policy row of its road; return the new roads.

    `movers` are fleet indices. Positions on the new road are uniform in
    [0, 1). Roads with no successors carry a degenerate stay distribution, so
    the driver keeps its road but still resamples its position. Non-controllable
    drivers implicitly take the stay action and are untouched here. Movers are
    sampled at once by inverse CDF; in the order given each takes two draws,
    choice then position, which is the stream and the row checks of
    `rng.choice(p=row)` then `rng.uniform()`.
    """
    if policy.n_roads != world.network.n_roads:
        raise ValueError(
            f"policy covers {policy.n_roads} roads, world has {world.network.n_roads}"
        )
    movers = np.asarray(movers, dtype=np.intp)
    roads = world.road[movers]
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
    targets = policy.actions[start + picks]
    world.road[movers] = targets
    world.position[movers] = draws[:, 1]
    world.counters.relocations += len(movers)
    return targets


def assign_orders(world: WorldState) -> tuple[np.ndarray, np.ndarray]:
    """Match idle drivers to queued orders road by road.

    Returns the fleet indices of every idle driver, in fleet order, and each
    one's reward. Each road serves min(idle, queued) orders, oldest first, with
    the served drivers drawn uniformly without replacement from every idle
    driver on the road (controllable or not), roads in ascending order. Matched
    drivers start serving and earn 1.
    """
    idle = np.flatnonzero(world.serving_remaining == 0)
    idle_roads = world.road[idle]
    queued = np.array([len(q) for q in world.queues], dtype=np.int64)
    waiting = np.flatnonzero(queued[idle_roads] > 0)  # idle drivers on roads with orders
    by_road = waiting[np.argsort(idle_roads[waiting], kind="stable")]  # fleet order within a road
    roads, first, count = np.unique(idle_roads[by_road], return_index=True, return_counts=True)
    chosen, calls = [], []
    for road, lo, n_idle in zip(roads.tolist(), first.tolist(), count.tolist()):
        queue = world.queues[road]
        k = min(n_idle, len(queue))
        chosen.append(lo + world.rng.choice(n_idle, size=k, replace=False))
        calls.extend(queue.popleft() for _ in range(k))
    matched = by_road[np.concatenate(chosen, dtype=np.intp)] if chosen else by_road[:0]
    table = world.scenario.call_table
    world.serving_remaining[idle[matched]] = table.duration[calls]
    world.dropoff_road[idle[matched]] = table.end_road[calls]
    world.counters.orders_served += len(calls)
    reward = np.zeros(len(idle), dtype=np.int64)
    reward[matched] = 1
    return idle, reward


def spawn_and_expire_orders(world: WorldState) -> int:
    """Enqueue calls opening at the current step and drop orders past expiry."""
    spawned = _spawn_orders(world)
    world.counters.orders_expired += _expire_orders(world)
    return spawned


def rebalance_drivers(world: WorldState, target_total: int) -> int:
    """Add or remove idle drivers so the fleet matches the scheduled total.

    New drivers appear on uniformly random roads and positions, one draw pair
    per driver; removals pick uniformly among idle drivers only, in fleet
    order. Serving drivers are never removed.
    """
    serving = world.serving_count()
    if target_total < serving:
        raise ConfigurationError(
            f"target fleet size {target_total} below {serving} currently serving"
        )
    delta = int(target_total) - world.total_drivers()
    if delta > 0:
        draws = [
            (int(world.rng.integers(world.network.n_roads)), float(world.rng.uniform()))
            for _ in range(delta)
        ]
        roads, positions = zip(*draws)
        world._add_drivers(np.array(roads), np.array(positions))
        world.counters.drivers_added += delta
    elif delta < 0:
        idle = np.flatnonzero(world.serving_remaining == 0)
        keep = np.ones(world.total_drivers(), dtype=bool)
        keep[idle[world.rng.choice(len(idle), size=-delta, replace=False)]] = False
        world._keep_drivers(keep)
        world.counters.drivers_removed -= delta
    return delta


def observe(world: WorldState) -> Observation:
    """Per-road idle counts (controllable or not), open call counts, and speeds."""
    n = world.network.n_roads
    idle = np.bincount(world.road[world.serving_remaining == 0], minlength=n)
    calls = np.array([len(q) for q in world.queues], dtype=np.int64)
    return Observation(idle, calls, world.speeds.copy())


def step(world: WorldState, policy: "Policy") -> tuple[Observation, StepOutcome]:
    """Run one full cycle: advance, relocate, match, tick, spawn, rebalance, observe.

    Every driver that was idle at matching time yields exactly one transition.
    Drivers spawned by this step's rebalance join the agent set next step;
    drivers it removes keep the transition they already earned.
    """
    movers = advance_drivers(world)
    relocate(world, policy, movers)
    agents, reward = assign_orders(world)
    ids, roads, positions = world.driver_id[agents], world.road[agents], world.position[agents]

    world.time += 1
    generated = spawn_and_expire_orders(world)

    series = world.scenario.total_drivers_series
    target = int(series[min(world.time, len(series) - 1)])
    rebalance_drivers(world, target)

    speed_row = min(world.time, world.scenario.speed_series.shape[0] - 1)
    world.speeds = np.asarray(
        world.scenario.speed_series[speed_row], dtype=np.float64
    ).copy()

    # an episode ends on a served order, so a rewarded agent is never controllable next
    controllable_next = (reward == 0) & (
        positions + world.speeds[roads] / world.length[roads] >= 1.0
    )
    samples = Transitions(ids, roads, controllable_next, reward)
    return observe(world), StepOutcome(samples, int(reward.sum()), generated)


def order_response_rate(counters: Counters) -> float | None:
    """Served orders over generated orders; None when nothing was generated."""
    if counters.orders_generated == 0:
        return None
    return counters.orders_served / counters.orders_generated
