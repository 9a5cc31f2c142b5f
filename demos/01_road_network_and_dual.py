"""Tour of the road-network types: build a small city, inspect its dual graph.

The dual graph is what the Q network computes on: one node per road, a
self-loop per road, and a reversed edge for every consecutive-road pair, so
each road aggregates information from itself and from the roads a driver
could move onto next.

Run: python3 demos/01_road_network_and_dual.py
"""

import numpy as np

from fleetlab.roadnet import RoadNetwork, build_dual_graph, successors, validate

# A toy downtown: one-way loop around four corners plus two shortcuts.
network = RoadNetwork.from_edges(
    nodes=["nw", "ne", "se", "sw"],
    edges=[
        ("nw", "ne", 400.0),  # road 0
        ("ne", "se", 300.0),  # road 1
        ("se", "sw", 400.0),  # road 2
        ("sw", "nw", 300.0),  # road 3
        ("ne", "sw", 550.0),  # road 4, diagonal shortcut
        ("sw", "ne", 550.0),  # road 5, opposite diagonal
    ],
)

print("violations:", validate(network) or "none")
print(f"{network.n_roads} roads over {len(network.intersections)} intersections\n")

for road in network.roads:
    succ = successors(network, road.road_id)
    print(
        f"road {road.road_id}: {road.from_node:>2} -> {road.to_node:<2} "
        f"({road.length:.0f} m), successors {succ}"
    )

dual = build_dual_graph(network)
print(f"\ndual graph: {dual.node_count} nodes, {len(dual.edges)} directed edges")
print("edges (src -> dst, information flows src to dst):")
print("  " + ", ".join(f"{s}->{d}" for s, d in dual.edges))

# Sanity: every road has one self-loop and one reversed edge per successor.
expected = dual.node_count + sum(len(successors(network, j)) for j in range(dual.node_count))
print(f"expected edge count {expected} == actual {len(dual.edges)}")

# Each road's in-neighborhood in the dual = itself plus its successors.
adjacency = np.zeros((dual.node_count, dual.node_count), dtype=int)
for src, dst in dual.edges:
    adjacency[dst, src] = 1
print("\naggregation neighborhoods (rows are receiving roads):")
print(adjacency)
