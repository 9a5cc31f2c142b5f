"""Directed road networks and the reversed line-graph transform used by the GNN."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

__all__ = [
    "Road",
    "RoadNetwork",
    "DualGraph",
    "validate",
    "successors",
    "build_dual_graph",
    "neighbourhoods",
]


@dataclass(frozen=True)
class Road:
    """One directed road segment between two intersections."""

    road_id: int
    from_node: Hashable
    to_node: Hashable
    length: float  # meters, > 0


@dataclass(frozen=True)
class RoadNetwork:
    """A directed graph whose nodes are intersections and whose edges are roads.

    Road ids are dense indices 0..n_roads-1 matching their position in `roads`.
    Instances are immutable and safe to share between concurrent simulations.
    """

    intersections: tuple
    roads: tuple[Road, ...]

    @staticmethod
    def from_edges(
        nodes: Iterable[Hashable],
        edges: Iterable[tuple[Hashable, Hashable, float]],
    ) -> "RoadNetwork":
        """Build a network from (from_node, to_node, length) triples, ids by position."""
        roads = tuple(
            Road(i, u, v, float(length)) for i, (u, v, length) in enumerate(edges)
        )
        return RoadNetwork(tuple(nodes), roads)

    @property
    def n_roads(self) -> int:
        return len(self.roads)


@dataclass(frozen=True, eq=False)
class DualGraph:
    """Road-adjacency graph the GNN computes on: one node per road.

    Road j's relocation choices are `actions[indptr[j]:indptr[j + 1]]`: its
    successors in the ORIGINAL orientation, ascending, or just j at a dead end.
    The arrays are read-only and shared by every policy built on this graph.
    Road j's GNN neighbourhood (`neighbourhoods`) is j plus that row: the dual's
    edges reverse each consecutive pair of roads a -> b into b -> a, plus one
    self-loop per road.
    """

    node_count: int
    indptr: np.ndarray  # (node_count + 1,) row offsets into `actions`
    actions: np.ndarray  # (indptr[-1],) road ids

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (src, dst) message pairs: road dst hears itself and its actions."""
        indptr, src = neighbourhoods(self.indptr, self.actions)
        dst = np.repeat(np.arange(self.node_count), np.diff(indptr))
        return tuple(sorted(zip(src.tolist(), dst.tolist())))


def neighbourhoods(indptr: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GNN neighbourhoods of an action table as dst-sorted CSR arrays.

    Road j hears `src[nbr_indptr[j]:nbr_indptr[j + 1]]`: j itself and its
    action row, ascending, with j counted once where the row already lists it
    (a dead end or a loop road). Returns `(nbr_indptr, src)`; no row is empty.
    """
    n = len(indptr) - 1
    roads = np.arange(n)
    dst = np.repeat(roads, np.diff(indptr))
    listed = actions != dst
    dst = np.concatenate([roads, dst[listed]])
    src = np.concatenate([roads, actions[listed]])
    src = src[np.lexsort((src, dst))]
    nbr_indptr = np.concatenate([[0], np.cumsum(np.bincount(dst, minlength=n))]).astype(np.intp)
    return nbr_indptr, src


def validate(network: RoadNetwork) -> list[str]:
    """Check network invariants; return one message per violation (empty == valid)."""
    violations: list[str] = []
    if network.n_roads == 0:
        violations.append("network has no roads")
    nodes = set(network.intersections)
    for i, road in enumerate(network.roads):
        if road.road_id != i:
            violations.append(
                f"road at position {i} has id {road.road_id}; ids must be dense 0..n-1"
            )
        if road.from_node not in nodes:
            violations.append(f"road {road.road_id}: dangling node {road.from_node!r}")
        if road.to_node not in nodes:
            violations.append(f"road {road.road_id}: dangling node {road.to_node!r}")
        if not road.length > 0:
            violations.append(f"road {road.road_id}: non-positive length {road.length}")
        elif road.length == float("inf"):
            violations.append(f"road {road.road_id}: infinite length")
    return violations


def successors(network: RoadNetwork, road: int) -> list[int]:
    """Roads leaving the intersection this road ends at, ascending by road id."""
    if not 0 <= road < network.n_roads:
        raise IndexError(f"road index {road} out of range 0..{network.n_roads - 1}")
    end = network.roads[road].to_node
    return [r.road_id for r in network.roads if r.from_node == end]


def build_dual_graph(network: RoadNetwork) -> DualGraph:
    """Construct the reversed line graph with per-road self-loops.

    A road that loops back onto its own start node is its own successor; the
    resulting dual edge coincides with the self-loop and is kept only once.
    """
    problems = validate(network)
    if problems:
        raise ValueError("invalid network: " + "; ".join(problems))

    outgoing: dict[Hashable, list[int]] = {}
    for road in network.roads:  # ids are dense positions, so each list ascends
        outgoing.setdefault(road.from_node, []).append(road.road_id)
    rows = [outgoing.get(road.to_node) or [road.road_id] for road in network.roads]

    indptr = np.cumsum([0, *map(len, rows)], dtype=np.intp)
    actions = np.concatenate(rows, dtype=np.intp)
    for table in (indptr, actions):
        table.setflags(write=False)
    return DualGraph(node_count=network.n_roads, indptr=indptr, actions=actions)
