"""The benchmark's own city generator: writes the five scenario files.

It deliberately does not call `fleetlab.scenario.generate_city`, so a change to
the program's generator cannot shift a workload unnoticed. The shape follows
the `fleetlab gen` defaults: a ring of intersections plus random extra roads
(about three roads per intersection), Poisson calls at `calls_per_road` per
road per step, a `hotspot_frac` share of roads boosted `hotspot_boost` times,
trip durations drawn uniformly from `durations`, a constant scheduled fleet and
no speed overrides. The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FILES = ("graph.json", "calls.csv", "drivers.csv", "speeds.csv", "initial_idle.csv")


@dataclass(frozen=True)
class CitySpec:
    roads: int
    drivers: int
    horizon: int = 1440
    calls_per_road: float = 0.05
    hotspot_frac: float = 0.1
    hotspot_boost: float = 4.0
    durations: tuple[int, int] = (5, 15)
    length_m: tuple[float, float] = (200.0, 1200.0)


def _lines(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def write_city(directory: Path, spec: CitySpec, seed: int) -> str:
    """Write the scenario files for `seed` into `directory`; return their digest."""
    rng = np.random.default_rng([seed, spec.roads, spec.drivers])
    n = spec.roads
    n_nodes = max(2, n // 3)
    ring = min(n, n_nodes)
    src = np.concatenate([np.arange(ring), rng.integers(n_nodes, size=n - ring)])
    # an extra road never loops an intersection onto itself
    hop = np.concatenate([np.ones(ring, dtype=np.int64), 1 + rng.integers(n_nodes - 1, size=n - ring)])
    dst = (src + hop) % n_nodes
    lengths = rng.uniform(*spec.length_m, size=n)

    boost = np.ones(n)
    boost[rng.choice(n, size=int(round(n * spec.hotspot_frac)), replace=False)] = spec.hotspot_boost
    counts = rng.poisson(spec.calls_per_road * boost, size=(spec.horizon, n))
    busy_t, busy_road = np.nonzero(counts)
    per_cell = counts[busy_t, busy_road]
    start_time = np.repeat(busy_t, per_cell)
    start_road = np.repeat(busy_road, per_cell)
    end_road = rng.integers(n, size=start_road.size)
    duration = rng.integers(spec.durations[0], spec.durations[1] + 1, size=start_road.size)

    initial = rng.multinomial(spec.drivers, np.full(n, 1.0 / n))

    roads = ",\n".join(
        f'  {{"id": {i}, "from": {int(u)}, "to": {int(v)}, "length_m": {float(l)!r}}}'
        for i, (u, v, l) in enumerate(zip(src, dst, lengths))
    )
    texts = {
        "graph.json": f'{{"nodes": {list(range(n_nodes))},\n "roads": [\n{roads}\n]}}\n',
        "calls.csv": _lines(
            "start_road,end_road,start_time,duration,price",
            zip(start_road, end_road, start_time, duration, 100.0 * duration),
        ),
        "drivers.csv": _lines("t,total", ((t, spec.drivers) for t in range(spec.horizon))),
        "speeds.csv": "t,road,speed\n",
        "initial_idle.csv": _lines("road,count", ((r, c) for r, c in enumerate(initial) if c)),
    }
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in FILES:
        data = texts[name].encode()
        (directory / name).write_bytes(data)
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()[:16]
