"""Scenario files, synthetic city generation, and Q-value export.

On disk a scenario is a directory of five line-oriented files:

  graph.json        {"nodes": [id, ...], "roads": [{"id", "from", "to", "length_m"}]}
  calls.csv         start_road,end_road,start_time,duration,price
  drivers.csv       t,total                    (fleet size per step; length = horizon)
  speeds.csv        t,road,speed               (sparse overrides over a default)
  initial_idle.csv  road,count                 (idle drivers deployed at step 0)

A speed override at (t, road) holds from step t onward until the next override
for that road; roads with no override run at the default speed. One step is
nominally one simulated minute, but nothing depends on the unit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from functools import cached_property
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .roadnet import RoadNetwork, validate

__all__ = [
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioReferenceError",
    "ScenarioLengthError",
    "CallRecord",
    "CallTable",
    "Scenario",
    "SynthParams",
    "DEFAULT_SPEED",
    "load_network",
    "write_network",
    "load_scenario",
    "load_scenario_dir",
    "write_scenario",
    "generate_network",
    "generate_synthetic",
    "generate_city",
    "scale_drivers",
    "export_q",
]

DEFAULT_SPEED = 500.0  # meters per step when no override applies

GRAPH_FILE = "graph.json"
CALLS_FILE = "calls.csv"
DRIVERS_FILE = "drivers.csv"
SPEEDS_FILE = "speeds.csv"
INITIAL_FILE = "initial_idle.csv"


class ScenarioError(ValueError):
    """Base class for scenario file problems."""


class ScenarioParseError(ScenarioError):
    """A file could not be parsed (bad JSON, bad number, missing column)."""


class ScenarioReferenceError(ScenarioError):
    """A record references a road index outside the network."""


class ScenarioLengthError(ScenarioError):
    """A series is too short or a record falls outside the horizon."""


@dataclass(frozen=True)
class CallRecord:
    start_road: int
    end_road: int
    start_time: int
    duration: int
    price: float


@dataclass(frozen=True, eq=False)
class CallTable:
    """The calls as parallel read-only int arrays, stably sorted by start step.

    Calls opening at step t are rows `opening(t)`, in their scenario order.
    """

    start_road: np.ndarray
    end_road: np.ndarray
    start_time: np.ndarray
    duration: np.ndarray

    def opening(self, t: int) -> range:
        lo, hi = np.searchsorted(self.start_time, [t, t + 1])
        return range(int(lo), int(hi))


@dataclass(frozen=True)
class Scenario:
    """Everything the simulator needs besides the network itself."""

    initial_idle_per_road: np.ndarray  # (n_roads,) ints
    calls: tuple[CallRecord, ...]
    total_drivers_series: np.ndarray  # (horizon,) ints
    speed_series: np.ndarray  # (horizon, n_roads) floats
    horizon: int

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            np.array_equal(self.initial_idle_per_road, other.initial_idle_per_road)
            and self.calls == other.calls
            and np.array_equal(self.total_drivers_series, other.total_drivers_series)
            and np.array_equal(self.speed_series, other.speed_series)
            and self.horizon == other.horizon
        )

    @cached_property
    def call_table(self) -> CallTable:
        """Built once per scenario and shared by every world that replays it."""
        columns = [
            np.fromiter(map(attrgetter(name), self.calls), dtype=np.int64, count=len(self.calls))
            for name in ("start_road", "end_road", "start_time", "duration")
        ]
        order = np.argsort(columns[2], kind="stable")
        columns = [column[order] for column in columns]
        for column in columns:
            column.setflags(write=False)  # shared by every world replaying this scenario
        return CallTable(*columns)


def _check_scenario(network: RoadNetwork, scenario: Scenario, origin: str = "scenario") -> None:
    n = network.n_roads
    if len(scenario.initial_idle_per_road) != n:
        raise ScenarioLengthError(
            f"{origin}: initial idle distribution covers "
            f"{len(scenario.initial_idle_per_road)} roads, network has {n}"
        )
    if scenario.horizon < 1:
        raise ScenarioLengthError(f"{origin}: horizon must be at least 1 step")
    if len(scenario.total_drivers_series) < scenario.horizon:
        raise ScenarioLengthError(f"{origin}: driver series shorter than horizon")
    if scenario.speed_series.shape != (scenario.horizon, n):
        raise ScenarioLengthError(
            f"{origin}: speed series has shape {scenario.speed_series.shape}, "
            f"expected ({scenario.horizon}, {n})"
        )
    if not ((scenario.speed_series > 0) & np.isfinite(scenario.speed_series)).all():
        raise ScenarioError(f"{origin}: speeds must be positive and finite")
    if (scenario.initial_idle_per_road < 0).any() or (scenario.total_drivers_series < 0).any():
        raise ScenarioError(f"{origin}: driver counts must be non-negative")
    for i, call in enumerate(scenario.calls):
        where = f"{origin}: call record {i}"
        if not 0 <= call.start_road < n:
            raise ScenarioReferenceError(f"{where}: start road {call.start_road} outside 0..{n - 1}")
        if not 0 <= call.end_road < n:
            raise ScenarioReferenceError(f"{where}: end road {call.end_road} outside 0..{n - 1}")
        if call.start_time < 0 or not 1 <= call.duration < 2**63 or call.price < 0:
            raise ScenarioError(f"{where}: invalid timing or price")
        if call.start_time >= scenario.horizon:
            raise ScenarioLengthError(
                f"{where}: starts at t={call.start_time}, beyond horizon {scenario.horizon}"
            )


# -- files --------------------------------------------------------------------


def load_network(path: str | Path) -> RoadNetwork:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ScenarioParseError(f"{path}: invalid JSON ({exc})") from exc
    try:
        nodes = list(data["nodes"])
        roads = [
            (entry["id"], entry["from"], entry["to"], float(entry["length_m"]))
            for entry in data["roads"]
        ]
        {*nodes, *(end for road in roads for end in road[1:3])}  # node ids must be hashable
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: malformed graph structure ({exc})") from exc
    if not all(type(road[0]) is int for road in roads):
        raise ScenarioParseError(f"{path}: road ids must be integers")
    roads.sort(key=lambda r: r[0])
    network = RoadNetwork.from_edges(nodes, [(u, v, l) for _id, u, v, l in roads])
    declared = [r[0] for r in roads]
    if declared != list(range(len(declared))):
        raise ScenarioParseError(f"{path}: road ids must be dense 0..{len(declared) - 1}")
    problems = validate(network)
    if problems:
        raise ScenarioError(f"{path}: " + "; ".join(problems))
    return network


def write_network(path: str | Path, network: RoadNetwork) -> None:
    data = {
        "nodes": list(network.intersections),
        "roads": [
            {"id": r.road_id, "from": r.from_node, "to": r.to_node, "length_m": r.length}
            for r in network.roads
        ],
    }
    Path(path).write_text(json.dumps(data, indent=1))


def _read_csv_rows(path: Path, columns: Sequence[str]) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            header = [c.strip() for c in reader.fieldnames or ()]
            if header != list(columns):
                raise ScenarioParseError(
                    f"{path}: expected header {','.join(columns)}, got {reader.fieldnames}"
                )
            reader.fieldnames = header  # rows are keyed by the stripped names
            return list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ScenarioParseError(f"{path}: cannot read ({exc})") from exc


def _int64(text: str) -> int:
    """An integer that fits the int64 arrays driver counts are stored in."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} does not fit in 64 bits")
    return value


def _parse(path: Path, line: int, value: str, kind, what: str):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}, record {line}: bad {what} {value!r}") from exc


def load_scenario(
    graph_path: str | Path,
    calls_path: str | Path,
    drivers_path: str | Path,
    speeds_path: str | Path,
    initial_path: str | Path,
    default_speed: float = DEFAULT_SPEED,
) -> tuple[RoadNetwork, Scenario]:
    """Load and fully validate a scenario; errors name the offending file and record."""
    network = load_network(graph_path)
    n = network.n_roads

    calls = []
    calls_path = Path(calls_path)
    for i, row in enumerate(_read_csv_rows(calls_path, ["start_road", "end_road", "start_time", "duration", "price"])):
        calls.append(
            CallRecord(
                start_road=_parse(calls_path, i, row["start_road"], int, "road index"),
                end_road=_parse(calls_path, i, row["end_road"], int, "road index"),
                start_time=_parse(calls_path, i, row["start_time"], int, "step"),
                duration=_parse(calls_path, i, row["duration"], int, "duration"),
                price=_parse(calls_path, i, row["price"], float, "price"),
            )
        )

    drivers_path = Path(drivers_path)
    driver_rows = _read_csv_rows(drivers_path, ["t", "total"])
    if not driver_rows:
        raise ScenarioLengthError(f"{drivers_path}: driver series is empty")
    series = np.zeros(len(driver_rows), dtype=np.int64)
    for i, row in enumerate(driver_rows):
        t = _parse(drivers_path, i, row["t"], int, "step")
        if t != i:
            raise ScenarioParseError(f"{drivers_path}, record {i}: steps must run 0,1,2,...")
        series[i] = _parse(drivers_path, i, row["total"], _int64, "driver count")
    horizon = len(series)

    speeds = np.full((horizon, n), float(default_speed))
    speeds_path = Path(speeds_path)
    overrides = []
    for i, row in enumerate(_read_csv_rows(speeds_path, ["t", "road", "speed"])):
        overrides.append(
            (
                _parse(speeds_path, i, row["t"], int, "step"),
                _parse(speeds_path, i, row["road"], int, "road index"),
                _parse(speeds_path, i, row["speed"], float, "speed"),
            )
        )
    for i, (t, road, speed) in enumerate(sorted(overrides)):
        if not 0 <= road < n:
            raise ScenarioReferenceError(
                f"{speeds_path}, record {i}: road {road} outside 0..{n - 1}"
            )
        if 0 <= t < horizon:
            speeds[t:, road] = speed  # holds until the next override for this road

    initial_path = Path(initial_path)
    initial = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(_read_csv_rows(initial_path, ["road", "count"])):
        road = _parse(initial_path, i, row["road"], int, "road index")
        if not 0 <= road < n:
            raise ScenarioReferenceError(
                f"{initial_path}, record {i}: road {road} outside 0..{n - 1}"
            )
        initial[road] = _parse(initial_path, i, row["count"], _int64, "driver count")

    scenario = Scenario(
        initial_idle_per_road=initial,
        calls=tuple(calls),
        total_drivers_series=series,
        speed_series=speeds,
        horizon=horizon,
    )
    _check_scenario(network, scenario, origin=str(calls_path.parent))
    return network, scenario


def load_scenario_dir(
    directory: str | Path,
    graph_path: str | Path | None = None,
    default_speed: float = DEFAULT_SPEED,
) -> tuple[RoadNetwork, Scenario]:
    d = Path(directory)
    return load_scenario(
        graph_path if graph_path is not None else d / GRAPH_FILE,
        d / CALLS_FILE,
        d / DRIVERS_FILE,
        d / SPEEDS_FILE,
        d / INITIAL_FILE,
        default_speed=default_speed,
    )


def write_scenario(
    directory: str | Path,
    network: RoadNetwork,
    scenario: Scenario,
    default_speed: float = DEFAULT_SPEED,
) -> dict[str, Path]:
    """Write all five scenario files; speed rows are emitted only on change."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = {
        "graph": d / GRAPH_FILE,
        "calls": d / CALLS_FILE,
        "drivers": d / DRIVERS_FILE,
        "speeds": d / SPEEDS_FILE,
        "initial": d / INITIAL_FILE,
    }
    write_network(paths["graph"], network)

    with open(paths["calls"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_road", "end_road", "start_time", "duration", "price"])
        for c in scenario.calls:
            writer.writerow([c.start_road, c.end_road, c.start_time, c.duration, repr(c.price)])

    with open(paths["drivers"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "total"])
        for t, total in enumerate(scenario.total_drivers_series):
            writer.writerow([t, int(total)])

    with open(paths["speeds"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "road", "speed"])
        previous = np.full(network.n_roads, float(default_speed))
        for t in range(scenario.horizon):
            for road in range(network.n_roads):
                v = scenario.speed_series[t, road]
                if v != previous[road]:
                    writer.writerow([t, road, repr(float(v))])
                    previous[road] = v

    with open(paths["initial"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["road", "count"])
        for road, count in enumerate(scenario.initial_idle_per_road):
            if count:
                writer.writerow([road, int(count)])
    return paths


# -- synthetic generation -------------------------------------------------------


@dataclass(frozen=True)
class SynthParams:
    """Knobs for the synthetic city and demand generator.

    `demand_daily_profile` fixes the horizon when given; otherwise a flat
    profile of length `steps` is used. Hotspot roads receive `hotspot_boost`
    times the base call rate.
    """

    roads: int = 50
    mean_calls_per_step: float = 0.05  # per road per step before modifiers
    hotspot_roads: float = 0.1  # fraction of roads boosted
    hotspot_boost: float = 4.0
    demand_daily_profile: tuple[float, ...] | None = None
    duration_range: tuple[int, int] = (5, 15)
    driver_base: int = 30
    seed: int = 0
    steps: int = 240
    speed: float = DEFAULT_SPEED

    def __post_init__(self):
        if self.mean_calls_per_step < 0:
            raise ValueError("call rate must be non-negative")
        if self.hotspot_boost < 1.0:
            raise ValueError("hotspot boost must be >= 1")
        if not 0.0 <= self.hotspot_roads <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        if self.duration_range[0] < 1 or self.duration_range[1] < self.duration_range[0]:
            raise ValueError("invalid duration range")

    def profile(self) -> np.ndarray:
        if self.demand_daily_profile is not None:
            return np.asarray(self.demand_daily_profile, dtype=np.float64)
        return np.ones(self.steps)


def generate_network(
    n_roads: int,
    seed: int = 0,
    length_range: tuple[float, float] = (200.0, 1200.0),
    n_nodes: int | None = None,
) -> RoadNetwork:
    """Random directed network: a cycle through all nodes plus random extra roads.

    The cycle keeps the city loosely connected; extra roads may run parallel to
    existing ones but never loop a node onto itself. Fewer nodes per road mean
    denser intersections with larger successor sets.
    """
    if n_roads < 1:
        raise ValueError("need at least one road")
    rng = np.random.default_rng(seed)
    if n_nodes is None:
        n_nodes = max(2, n_roads // 3)
    if n_nodes < 2:
        raise ValueError("need at least two intersections")
    nodes = list(range(n_nodes))
    edges: list[tuple[int, int, float]] = []

    def length() -> float:
        return float(rng.uniform(*length_range))

    for i in range(min(n_roads, n_nodes)):
        edges.append((i, (i + 1) % n_nodes, length()))
    while len(edges) < n_roads:
        u, v = rng.choice(n_nodes, size=2, replace=False)
        edges.append((int(u), int(v), length()))
    return RoadNetwork.from_edges(nodes, edges)


def generate_synthetic(network: RoadNetwork, params: SynthParams) -> Scenario:
    """Sample a Poisson demand scenario on the network, deterministic per seed."""
    rng = np.random.default_rng(params.seed)
    n = network.n_roads
    profile = params.profile()
    horizon = len(profile)

    n_hot = int(round(n * params.hotspot_roads))
    boost = np.ones(n)
    if n_hot:
        hot = rng.choice(n, size=n_hot, replace=False)
        boost[hot] = params.hotspot_boost

    calls: list[CallRecord] = []
    lo, hi = params.duration_range
    for t in range(horizon):
        rates = params.mean_calls_per_step * profile[t] * boost
        counts = rng.poisson(rates)
        for road in range(n):
            for _ in range(int(counts[road])):
                duration = int(rng.integers(lo, hi + 1))
                calls.append(
                    CallRecord(
                        start_road=road,
                        end_road=int(rng.integers(n)),
                        start_time=t,
                        duration=duration,
                        price=round(100.0 * duration, 2),
                    )
                )

    drivers = np.maximum(0, np.round(params.driver_base * profile)).astype(np.int64)
    initial = rng.multinomial(int(drivers[0]), np.full(n, 1.0 / n)).astype(np.int64)
    speeds = np.full((horizon, n), float(params.speed))

    scenario = Scenario(
        initial_idle_per_road=initial,
        calls=tuple(calls),
        total_drivers_series=drivers,
        speed_series=speeds,
        horizon=horizon,
    )
    _check_scenario(network, scenario, origin="generated scenario")
    return scenario


def generate_city(params: SynthParams) -> tuple[RoadNetwork, Scenario]:
    """Random network and matching demand scenario from one parameter set."""
    network = generate_network(params.roads, seed=params.seed)
    return network, generate_synthetic(network, params)


def scale_drivers(scenario: Scenario, fraction: float) -> Scenario:
    """Reduce both the initial distribution and the fleet series, rounding down."""
    if fraction < 0:
        raise ValueError("driver scale must be non-negative")
    return replace(
        scenario,
        initial_idle_per_road=np.maximum(
            0, np.floor(scenario.initial_idle_per_road * fraction)
        ).astype(np.int64),
        total_drivers_series=np.maximum(
            0, np.floor(scenario.total_drivers_series * fraction)
        ).astype(np.int64),
    )


# -- export -----------------------------------------------------------------------


def export_q(
    network: RoadNetwork,
    q_values: Sequence[float],
    path: str | Path,
    coordinates: dict | None = None,
) -> None:
    """Write per-road Q values as a GeoJSON-style feature collection.

    `coordinates`, when given, maps node ids to (x, y) pairs and fills each
    road's LineString; otherwise geometry is null. Values outside (0, 1) are
    written verbatim with an `out_of_range` warning flag.
    """
    q = np.asarray(q_values, dtype=np.float64)
    if q.shape != (network.n_roads,):
        raise ValueError(f"need one q value per road: got {q.shape}, roads {network.n_roads}")
    features = []
    for road in network.roads:
        value = float(q[road.road_id])
        geometry = None
        if coordinates is not None:
            geometry = {
                "type": "LineString",
                "coordinates": [
                    list(coordinates[road.from_node]),
                    list(coordinates[road.to_node]),
                ],
            }
        properties = {
            "road_id": road.road_id,
            "q": value,
            "length_m": road.length,
        }
        if not 0.0 < value < 1.0:
            properties["out_of_range"] = True
        features.append({"type": "Feature", "geometry": geometry, "properties": properties})
    Path(path).write_text(
        json.dumps({"type": "FeatureCollection", "features": features}, indent=1)
    )
