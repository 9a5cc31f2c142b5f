"""Shared test helpers: independent graph builders and finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from fleetlab.roadnet import RoadNetwork


def random_network(rng: np.random.Generator, max_roads: int = 30) -> RoadNetwork:
    """Random directed network with no self-loop roads, for property checks.

    Built straight from primitive draws, independently of the package's own
    scenario generator.
    """
    n_nodes = int(rng.integers(2, 9))
    n_roads = int(rng.integers(1, max_roads + 1))
    edges = []
    for _ in range(n_roads):
        u = int(rng.integers(n_nodes))
        v = int(rng.integers(n_nodes - 1))
        if v >= u:
            v += 1  # never a loop road
        edges.append((u, v, float(rng.uniform(100.0, 2000.0))))
    return RoadNetwork.from_edges(range(n_nodes), edges)


def network_with_loops(rng: np.random.Generator, max_roads: int = 14) -> RoadNetwork:
    """Random network where loop roads, parallel roads and dead ends all occur."""
    n_nodes = int(rng.integers(2, 7))
    edges = [
        (int(rng.integers(n_nodes)), int(rng.integers(n_nodes)), float(rng.uniform(100, 900)))
        for _ in range(int(rng.integers(1, max_roads + 1)))
    ]
    return RoadNetwork.from_edges(range(n_nodes), edges)


def two_path_pairs(network: RoadNetwork) -> set[tuple[int, int]]:
    """Brute-force enumeration of consecutive road pairs (a, b) in the network."""
    pairs = set()
    for a in network.roads:
        for b in network.roads:
            if a.to_node == b.from_node:
                pairs.add((a.road_id, b.road_id))
    return pairs


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    out = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(x)
        flat[i] = orig - h
        lo = f(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * h)
    return grad


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
