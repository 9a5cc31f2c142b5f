"""The segment-op GCN/GAT forward against the frozen dense forward it replaced.

The oracle is the dense n x n forward, kept in behaviour: a mean-aggregation
matrix built by a per-road successor loop, and one GAT attention matrix per head
with -1e9 added off the edges, head outputs concatenated. It runs on the same
autodiff engine, reads per-head arrays unstacked from the stacked layout, and
has its own per-head initialization. Concatenation is a sum of products with
0/1 placement matrices, which is exact in floating point.
"""

import numpy as np
import pytest

from fleetlab.gnn import GnnConfig, Tensor, backward, forward_graph, init_params
from fleetlab.roadnet import build_dual_graph, successors

from conftest import network_with_loops

# -- frozen oracle ----------------------------------------------------------------


def oracle_layer_dims(config):
    return [
        (3 if layer == 0 else config.hidden_dim, 1 if layer == config.layers - 1 else config.hidden_dim)
        for layer in range(config.layers)
    ]


def oracle_glorot(rng, fan_in, fan_out, shape):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def oracle_init_params(config, seed):
    """The per-head layout: layer{l}.head{h}.weight (d_in, d_head), att_* (d_head, 1)."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for layer, (d_in, d_out) in enumerate(oracle_layer_dims(config)):
        if config.kind == "gcn":
            arrays[f"layer{layer}.weight"] = oracle_glorot(rng, d_in, d_out, (d_in, d_out))
            continue
        d_head = 1 if layer == config.layers - 1 else d_out // config.heads
        for head in range(config.heads):
            prefix = f"layer{layer}.head{head}"
            arrays[f"{prefix}.weight"] = oracle_glorot(rng, d_in, d_head, (d_in, d_head))
            arrays[f"{prefix}.att_src"] = oracle_glorot(rng, d_head, 1, (d_head, 1))
            arrays[f"{prefix}.att_dst"] = oracle_glorot(rng, d_head, 1, (d_head, 1))
    return arrays


def unstack(config, params):
    """Per-head arrays (views) of a stacked parameter store."""
    if config.kind == "gcn":
        return {name: a for name, a in params.items()}
    arrays = {}
    for layer in range(config.layers):
        for head in range(config.heads):
            prefix = f"layer{layer}.head{head}"
            arrays[f"{prefix}.weight"] = params[f"layer{layer}.weight"][:, head, :]
            arrays[f"{prefix}.att_src"] = params[f"layer{layer}.att_src"][head][:, None]
            arrays[f"{prefix}.att_dst"] = params[f"layer{layer}.att_dst"][head][:, None]
    return arrays


def stack_heads(config, grads):
    """Stacked layout of per-head arrays (parameters or their gradients)."""
    if config.kind == "gcn":
        return grads
    stacked = {}
    for layer in range(config.layers):
        heads = [f"layer{layer}.head{h}" for h in range(config.heads)]
        stacked[f"layer{layer}.weight"] = np.stack([grads[f"{p}.weight"] for p in heads], axis=1)
        for att in ("att_src", "att_dst"):
            stacked[f"layer{layer}.{att}"] = np.stack([grads[f"{p}.{att}"][:, 0] for p in heads])
    return stacked


def oracle_mean_matrix(net):
    n = net.n_roads
    adj = np.eye(n)
    for road in range(n):
        adj[road, successors(net, road)] = 1.0
    return adj / adj.sum(axis=1, keepdims=True)


def oracle_forward_graph(config, arrays, net, features):
    mean = oracle_mean_matrix(net)
    n = net.n_roads
    x = np.asarray(features, dtype=np.float64).copy()
    x[:, :2] /= config.count_scale
    x[:, 2] /= config.speed_scale if config.speed_scale is not None else 1.0

    def leaf(name):
        return Tensor(arrays[name], name=name)

    h = x
    if config.kind == "gcn":
        for layer in range(config.layers):
            agg = mean @ (h @ leaf(f"layer{layer}.weight"))
            h = agg.sigmoid() if layer == config.layers - 1 else agg.relu()
        return h.reshape(n)

    mask_bias = np.where(mean > 0.0, 0.0, -1e9)
    for layer in range(config.layers):
        outputs = []
        for head in range(config.heads):
            prefix = f"layer{layer}.head{head}"
            z = h @ leaf(f"{prefix}.weight")
            s_src = (z @ leaf(f"{prefix}.att_src")).reshape(1, n)
            s_dst = (z @ leaf(f"{prefix}.att_dst")).reshape(n, 1)
            logits = (s_dst + s_src).leaky_relu(config.leaky_slope) + mask_bias
            weights = (logits - logits.values.max(axis=1, keepdims=True)).exp()
            outputs.append((weights / weights.sum(axis=1, keepdims=True)) @ z)
        if layer == config.layers - 1:
            total = outputs[0]
            for extra in outputs[1:]:
                total = total + extra
            h = (total * (1.0 / config.heads)).sigmoid()
        else:
            d_head = outputs[0].shape[1]
            place = np.eye(config.heads * d_head)
            joined = outputs[0] @ place[:d_head]
            for head, out in enumerate(outputs[1:], start=1):
                joined = joined + out @ place[head * d_head : (head + 1) * d_head]
            h = joined.relu()
    return h.reshape(n)


# -- tests ------------------------------------------------------------------------

CONFIGS = [
    GnnConfig(kind="gcn", layers=3, hidden_dim=6, count_scale=4.0, speed_scale=600.0),
    GnnConfig(kind="gat", layers=3, hidden_dim=8, heads=4, count_scale=4.0, speed_scale=600.0),
]


def squared_error(q, roads, targets):
    return ((q[roads] - targets) ** 2.0).sum()


class TestDenseOracle:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.kind)
    def test_fifty_networks_outputs_and_gradients(self, config):
        rng = np.random.default_rng(1903)
        loops = dead_ends = parallel = 0
        for trial in range(50):
            net = network_with_loops(rng)
            n = net.n_roads
            loops += sum(r.from_node == r.to_node for r in net.roads)
            dead_ends += sum(not successors(net, j) for j in range(n))
            parallel += len({(r.from_node, r.to_node) for r in net.roads}) < n
            params = init_params(config, seed=trial)
            features = np.column_stack(
                [rng.integers(0, 9, size=(n, 2)), rng.uniform(100.0, 900.0, size=n)]
            )
            roads = rng.integers(n, size=3 * n)  # repeated roads, as in a sample batch
            targets = rng.uniform(0.1, 0.9, size=len(roads))

            q = forward_graph(config, params, build_dual_graph(net), features)
            want = oracle_forward_graph(config, unstack(config, params), net, features)
            np.testing.assert_allclose(q.values, want.values, rtol=0, atol=1e-12)

            grads = backward(squared_error(q, roads, targets))
            want_grads = stack_heads(config, backward(squared_error(want, roads, targets)))
            assert set(grads) == set(want_grads) == set(params.names())
            # an att_dst gradient is exactly zero where a head's logits all sit on
            # one side of the leaky ReLU (softmax ignores a per-row shift), so it
            # holds only rounding noise: the absolute floor is 1e-9 of the
            # largest gradient entry
            floor = 1e-9 * max(np.abs(g).max() for g in want_grads.values())
            for name, grad in grads.items():
                assert grad.shape == params[name].shape
                np.testing.assert_allclose(
                    grad, want_grads[name], rtol=1e-9, atol=floor, err_msg=name
                )
        assert loops and dead_ends and parallel  # every special case occurred

    @pytest.mark.parametrize(
        "config",
        [
            GnnConfig(kind="gat", layers=1, heads=3),
            GnnConfig(kind="gat", layers=8, hidden_dim=32, heads=8),
            GnnConfig(kind="gat", layers=2, hidden_dim=5, heads=1),
            GnnConfig(kind="gcn", layers=4, hidden_dim=7),
        ],
        ids=["gat-L1", "gat-L8H8", "gat-H1", "gcn-L4"],
    )
    def test_stacked_init_equals_per_head_init(self, config):
        for seed in (0, 7):
            params = init_params(config, seed)
            stacked = stack_heads(config, oracle_init_params(config, seed))
            assert list(stacked) == params.names()
            for name, values in stacked.items():
                assert np.array_equal(params[name], values), name
