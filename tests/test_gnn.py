"""Q-network checks: closed forms, gradient oracles, equivariance, parameter ops."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fleetlab.gnn import (
    AdamOptimizer,
    GnnConfig,
    ParamStore,
    backward,
    copy_into_target,
    forward,
    forward_graph,
    init_params,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from fleetlab.roadnet import RoadNetwork, build_dual_graph, successors

from conftest import central_difference, network_with_loops, random_network


def unscaled(**kwargs) -> GnnConfig:
    return GnnConfig(count_scale=1.0, speed_scale=1.0, **kwargs)


def single_road_dual():
    return build_dual_graph(RoadNetwork.from_edges(["a", "b"], [("a", "b", 10.0)]))


def chain_dual():
    net = RoadNetwork.from_edges(["a", "b", "c"], [("a", "b", 10.0), ("b", "c", 10.0)])
    return build_dual_graph(net)


class TestGcnClosedForms:
    def test_single_road_sums_inputs_through_sigmoid(self):
        cfg = unscaled(kind="gcn", layers=1)
        params = ParamStore({"layer0.weight": np.ones((3, 1))})
        x = np.array([[0.3, -1.2, 2.0]])
        q = forward(cfg, params, single_road_dual(), x)
        expected = 1.0 / (1.0 + np.exp(-(0.3 - 1.2 + 2.0)))
        assert q == pytest.approx([expected])

    def test_zero_weights_give_one_half_everywhere(self):
        cfg = unscaled(kind="gcn", layers=2, hidden_dim=5)
        params = init_params(cfg, seed=3)
        zeros = ParamStore({name: np.zeros_like(a) for name, a in params.items()})
        dual = chain_dual()
        q = forward(cfg, zeros, dual, np.arange(6, dtype=float).reshape(2, 3))
        assert q == pytest.approx([0.5, 0.5])

    def test_two_road_chain_mean_aggregation_by_hand(self):
        # road 0 aggregates {itself, road 1}; road 1 aggregates only itself
        cfg = unscaled(kind="gcn", layers=1)
        w = np.array([[0.5], [-1.0], [0.25]])
        params = ParamStore({"layer0.weight": w})
        x = np.array([[1.0, 2.0, 4.0], [3.0, 0.0, -2.0]])
        z = x @ w  # per-road transformed feature
        expected = [
            1.0 / (1.0 + np.exp(-((z[0, 0] + z[1, 0]) / 2.0))),
            1.0 / (1.0 + np.exp(-z[1, 0])),
        ]
        q = forward(cfg, params, chain_dual(), x)
        assert q == pytest.approx(expected)

    def test_feature_scaling_divides_counts_and_speed(self):
        cfg = GnnConfig(kind="gcn", layers=1, count_scale=10.0, speed_scale=500.0)
        params = ParamStore({"layer0.weight": np.ones((3, 1))})
        q = forward(cfg, params, single_road_dual(), np.array([[10.0, 20.0, 250.0]]))
        expected = 1.0 / (1.0 + np.exp(-(1.0 + 2.0 + 0.5)))
        assert q == pytest.approx([expected])


class TestOutputsAndPurity:
    @pytest.mark.parametrize("kind,heads", [("gcn", 1), ("gat", 4)])
    def test_outputs_strictly_inside_unit_interval(self, rng, kind, heads):
        cfg = unscaled(kind=kind, layers=3, hidden_dim=8, heads=heads)
        for _ in range(5):
            net = random_network(rng, max_roads=15)
            dual = build_dual_graph(net)
            params = init_params(cfg, seed=int(rng.integers(1000)))
            features = rng.normal(size=(net.n_roads, 3)) * 5.0
            q = forward(cfg, params, dual, features)
            assert ((q > 0.0) & (q < 1.0)).all()

    @pytest.mark.parametrize("kind,heads", [("gcn", 1), ("gat", 2)])
    def test_forward_is_bit_identical_across_calls(self, rng, kind, heads):
        cfg = unscaled(kind=kind, layers=2, hidden_dim=4, heads=heads)
        net = random_network(rng, max_roads=10)
        dual = build_dual_graph(net)
        params = init_params(cfg, seed=9)
        features = rng.normal(size=(net.n_roads, 3))
        first = forward(cfg, params, dual, features)
        second = forward(cfg, params, dual, features)
        assert np.array_equal(first, second)

    def test_feature_shape_mismatch_raises(self):
        cfg = unscaled(kind="gcn", layers=1)
        params = ParamStore({"layer0.weight": np.ones((3, 1))})
        with pytest.raises(ValueError):
            forward(cfg, params, chain_dual(), np.zeros((3, 3)))


class TestGcnPermutationEquivariance:
    def test_relabeling_roads_permutes_outputs(self, rng):
        cfg = unscaled(kind="gcn", layers=3, hidden_dim=6)
        for _ in range(8):
            net = random_network(rng, max_roads=20)
            n = net.n_roads
            params = init_params(cfg, seed=5)
            features = rng.normal(size=(n, 3))
            q = forward(cfg, params, build_dual_graph(net), features)

            perm = rng.permutation(n)
            edges = [net.roads[i] for i in perm]
            permuted = RoadNetwork.from_edges(
                net.intersections, [(r.from_node, r.to_node, r.length) for r in edges]
            )
            q_perm = forward(cfg, params, build_dual_graph(permuted), features[perm])
            np.testing.assert_allclose(q_perm, q[perm], rtol=1e-9, atol=1e-12)


class TestGatAttention:
    def test_attention_rows_sum_to_one_over_predecessors(self, rng):
        cfg = unscaled(kind="gat", layers=2, hidden_dim=8, heads=2)
        for _ in range(5):
            net = network_with_loops(rng, max_roads=12)
            dual = build_dual_graph(net)
            params = init_params(cfg, seed=int(rng.integers(1000)))
            capture = {}
            forward_graph(cfg, params, dual, rng.normal(size=(net.n_roads, 3)), capture=capture)
            indptr, src = capture["indptr"], capture["src"]
            assert len(capture["attention"]) == cfg.layers
            for att in capture["attention"]:
                assert att.shape == (len(src), cfg.heads)
                assert (att > 0.0).all()
            for dst in range(net.n_roads):
                heard = src[indptr[dst] : indptr[dst + 1]]
                # exactly road dst's neighbourhood: itself and its successors, once each
                assert sorted(heard.tolist()) == sorted({dst, *successors(net, dst)})
                for att in capture["attention"]:
                    np.testing.assert_allclose(
                        att[indptr[dst] : indptr[dst + 1]].sum(axis=0), 1.0, rtol=0, atol=1e-12
                    )


def ring_dual(n_roads):
    nodes = range(n_roads)
    return build_dual_graph(
        RoadNetwork.from_edges(nodes, [(i, (i + 1) % n_roads, 100.0) for i in nodes])
    )


class TestMemory:
    def test_gat_forward_on_five_thousand_roads_stays_sparse(self):
        # one dense 5,000 x 5,000 float64 array alone would take 200 MB
        cfg = unscaled(kind="gat", layers=2, hidden_dim=32, heads=4)
        dual = ring_dual(5000)
        params = init_params(cfg, seed=0)
        features = np.random.default_rng(0).normal(size=(5000, 3))
        tracemalloc.start()
        try:
            q = forward_graph(cfg, params, dual, features)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.shape == (5000,)
        assert peak < 50 * 2**20, f"forward_graph peaked at {peak / 2**20:.1f} MB"


def graph_refs(root):
    """Weak references to every node of the graph that produced `root`."""
    refs, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node))
        stack.extend(node._parents)
    return refs


class TestGraphLifetime:
    """A graph is freed by reference counting alone, without the cycle collector."""

    @pytest.mark.parametrize("kind,heads", [("gcn", 1), ("gat", 2)])
    @pytest.mark.parametrize("run_backward", [False, True])
    def test_dropping_the_result_frees_every_node(self, rng, kind, heads, run_backward):
        cfg = unscaled(kind=kind, layers=2, hidden_dim=4, heads=heads)
        net = network_with_loops(rng)
        dual = build_dual_graph(net)
        params = init_params(cfg, seed=1)
        enabled = gc.isenabled()
        gc.disable()
        try:
            q = forward_graph(cfg, params, dual, rng.normal(size=(net.n_roads, 3)))
            if run_backward:
                q = ((q - 0.5) ** 2.0).sum()
                grads = backward(q)
                assert set(grads) == set(params.names())
            refs = graph_refs(q)
            assert len(refs) > 10 and all(ref() is not None for ref in refs)
            del q
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()


def max_relative_gradient_error(cfg, dual, features, params, targets):
    """Autodiff vs central differences over every parameter entry."""
    roads = np.arange(dual.node_count)

    def loss_value() -> float:
        q = forward(cfg, params, dual, features)
        return float(((q[roads] - targets) ** 2).sum())

    graph = forward_graph(cfg, params, dual, features)
    diff = graph[roads] - targets
    grads = backward((diff**2).sum())

    worst = 0.0
    for name in params.names():
        arr = params[name]
        # central_difference mutates entries of `arr` in place between probes
        numeric = central_difference(lambda _x: loss_value(), arr, h=1e-5)
        auto = grads[name]
        denom = np.maximum(np.maximum(np.abs(auto), np.abs(numeric)), 1e-3)
        worst = max(worst, float((np.abs(auto - numeric) / denom).max()))
    return worst


class TestGradientOracle:
    @pytest.mark.parametrize("kind,heads", [("gcn", 1), ("gat", 2)])
    def test_two_layer_gradients_match_finite_differences(self, rng, kind, heads):
        cfg = unscaled(kind=kind, layers=2, hidden_dim=4, heads=heads)
        for trial in range(3):
            net = random_network(rng, max_roads=12)
            dual = build_dual_graph(net)
            params = init_params(cfg, seed=trial)
            features = rng.normal(size=(net.n_roads, 3))
            targets = rng.uniform(0.2, 0.8, size=net.n_roads)
            err = max_relative_gradient_error(cfg, dual, features, params, targets)
            assert err <= 1e-4, f"{kind} gradient error {err}"


class TestParameterOps:
    def test_sgd_examples(self):
        params = ParamStore({"w": np.array([1.0])})
        sgd_step(params, {"w": np.array([2.0])}, 0.1)
        assert params["w"] == pytest.approx([0.8])
        sgd_step(params, {"w": np.array([0.0])}, 0.1)
        assert params["w"] == pytest.approx([0.8])
        sgd_step(params, {"w": np.array([5.0])}, 0.0)
        assert params["w"] == pytest.approx([0.8])

    def test_sgd_shape_mismatch_raises(self):
        params = ParamStore({"w": np.ones((2, 2))})
        with pytest.raises(ValueError):
            sgd_step(params, {"w": np.ones(3)}, 0.1)

    def test_adam_moves_against_gradient(self):
        params = ParamStore({"w": np.array([1.0])})
        opt = AdamOptimizer(params, learning_rate=0.1)
        for _ in range(3):
            opt.step(params, {"w": np.array([2.0])})
        assert params["w"][0] < 1.0

    def test_copy_into_target_isolates_later_updates(self):
        cfg = unscaled(kind="gcn", layers=2, hidden_dim=4)
        online = init_params(cfg, seed=0)
        target = init_params(cfg, seed=1)
        copy_into_target(online, target)
        dual = chain_dual()
        x = np.ones((2, 3))
        assert np.array_equal(forward(cfg, online, dual, x), forward(cfg, target, dual, x))
        snapshot = {n: a.copy() for n, a in target.items()}
        sgd_step(online, {n: np.ones_like(a) for n, a in online.items()}, 0.5)
        for name, a in target.items():
            assert np.array_equal(a, snapshot[name])
        copy_into_target(online, target)
        copy_into_target(online, target)  # idempotent
        for name, a in target.items():
            assert np.array_equal(a, online[name])

    def test_copy_into_target_rejects_mismatched_configs(self):
        a = init_params(unscaled(kind="gcn", layers=2, hidden_dim=4), seed=0)
        b = init_params(unscaled(kind="gcn", layers=3, hidden_dim=4), seed=0)
        with pytest.raises(ValueError):
            copy_into_target(a, b)

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = unscaled(kind="gat", layers=2, hidden_dim=4, heads=2)
        params = init_params(cfg, seed=7)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, cfg, params, meta={"epochs_completed": 2})
        cfg2, params2, meta = load_checkpoint(path)
        assert cfg2 == cfg
        assert meta["epochs_completed"] == 2
        assert params.names() == params2.names()
        for name in params.names():
            np.testing.assert_array_equal(params[name], params2[name])

    def test_checkpoint_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_gat_hidden_dim_must_divide_by_heads(self):
        with pytest.raises(ValueError):
            init_params(unscaled(kind="gat", layers=2, hidden_dim=10, heads=4), seed=0)
