"""Graph Q-value approximators (mean-aggregation GCN and multi-head GAT).

Both networks run on the reversed line graph: each road's embedding is built
from itself (self-loop) and its successor roads, so the output of the final
sigmoid layer is one action value per road, strictly inside (0, 1). Messages
flow over the dual's neighbourhood table (`roadnet.neighbourhoods`) as row
gathers and segment sums, so a forward pass costs O(edges), never O(roads^2).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..roadnet import DualGraph, neighbourhoods
from .autodiff import Tensor, segment_sum

__all__ = [
    "GnnConfig",
    "ParamStore",
    "init_params",
    "forward",
    "forward_graph",
    "sgd_step",
    "AdamOptimizer",
    "copy_into_target",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

CHECKPOINT_FORMAT = "fleetlab-qnet"
CHECKPOINT_VERSION = 2
IN_FEATURES = 3  # idle count, call count, speed


class CheckpointError(ValueError):
    """A checkpoint file that is not a well-formed checkpoint of its own config."""


@dataclass(frozen=True)
class GnnConfig:
    """Architecture and input-scaling knobs for a Q network.

    `hidden_dim` is the width of a hidden layer; a GAT splits it evenly over
    its `heads`, so it must be divisible by `heads`. Count features are
    divided by `count_scale` and speeds by `speed_scale` before entering the
    network; leaving `speed_scale` unset (None) means no scaling until a
    caller, such as the trainer, resolves it from the scenario's maximum speed.
    """

    kind: str = "gcn"  # "gcn" | "gat"
    layers: int = 8
    hidden_dim: int = 32
    heads: int = 8
    count_scale: float = 10.0
    speed_scale: float | None = None
    leaky_slope: float = 0.2

    def validated(self) -> "GnnConfig":
        if self.kind not in ("gcn", "gat"):
            raise ValueError(f"unknown gnn kind {self.kind!r}")
        if self.layers < 1:
            raise ValueError("layers must be >= 1")
        if self.heads < 1:
            raise ValueError("heads must be >= 1")
        speed_scale = 1.0 if self.speed_scale is None else self.speed_scale
        numbers = {"count_scale": self.count_scale, "speed_scale": speed_scale,
                   "leaky_slope": self.leaky_slope}
        for name, value in numbers.items():
            if not isinstance(value, (int, float)) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.count_scale <= 0 or speed_scale <= 0:
            raise ValueError("feature scales must be positive")
        if self.kind == "gat" and self.layers > 1 and self.hidden_dim % self.heads:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by heads {self.heads}"
            )
        return self


class ParamStore:
    """Ordered, named float64 arrays for one network instance."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._arrays = {
            name: np.ascontiguousarray(a, dtype=np.float64) for name, a in arrays.items()
        }

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __len__(self) -> int:
        return len(self._arrays)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def n_parameters(self) -> int:
        return sum(a.size for a in self._arrays.values())

    def clone(self) -> "ParamStore":
        return ParamStore({name: a.copy() for name, a in self._arrays.items()})


def copy_into_target(online: ParamStore, target: ParamStore) -> None:
    """Overwrite target values with online values; later online updates stay local."""
    if online.names() != target.names():
        raise ValueError("parameter stores hold different parameter sets")
    for name, src in online.items():
        dst = target[name]
        if dst.shape != src.shape:
            raise ValueError(f"shape mismatch for {name}: {src.shape} vs {dst.shape}")
        np.copyto(dst, src)


def _layer_dims(config: GnnConfig) -> list[tuple[int, int]]:
    """(input_dim, output_dim) per layer; the final layer always maps to 1."""
    dims = []
    for layer in range(config.layers):
        d_in = IN_FEATURES if layer == 0 else config.hidden_dim
        d_out = 1 if layer == config.layers - 1 else config.hidden_dim
        dims.append((d_in, d_out))
    return dims


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: GnnConfig, seed: int = 0) -> ParamStore:
    """Seeded uniform Glorot initialization matching the config's architecture."""
    config = config.validated()
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for layer, (d_in, d_out) in enumerate(_layer_dims(config)):
        if config.kind == "gcn":
            arrays[f"layer{layer}.weight"] = _glorot(rng, d_in, d_out, (d_in, d_out))
        else:
            last = layer == config.layers - 1
            d_head = 1 if last else d_out // config.heads
            # drawn head by head (weight, att_src, att_dst), then stacked over heads
            draws = [
                (
                    _glorot(rng, d_in, d_head, (d_in, d_head)),
                    _glorot(rng, d_head, 1, d_head),
                    _glorot(rng, d_head, 1, d_head),
                )
                for _ in range(config.heads)
            ]
            weights, att_src, att_dst = zip(*draws)
            arrays[f"layer{layer}.weight"] = np.stack(weights, axis=1)  # (d_in, heads, d_head)
            arrays[f"layer{layer}.att_src"] = np.stack(att_src)  # (heads, d_head)
            arrays[f"layer{layer}.att_dst"] = np.stack(att_dst)
    return ParamStore(arrays)


def _normalize_features(config: GnnConfig, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64).copy()
    x[:, 0] /= config.count_scale
    x[:, 1] /= config.count_scale
    x[:, 2] /= config.speed_scale if config.speed_scale is not None else 1.0
    return x


def forward_graph(
    config: GnnConfig,
    params: ParamStore,
    dual: DualGraph,
    features: np.ndarray,
    capture: dict | None = None,
) -> Tensor:
    """Differentiable forward pass; returns per-road Q values with graph attached.

    Pass `capture` (a dict) to receive the neighbourhood arrays under "indptr"
    and "src" and, for GAT, one per-edge attention array `(edges, heads)` per
    layer under "attention", all as plain arrays.
    """
    config = config.validated()
    features = np.asarray(features, dtype=np.float64)
    n = dual.node_count
    if features.shape != (n, IN_FEATURES):
        raise ValueError(
            f"features shape {features.shape} does not match ({n}, {IN_FEATURES})"
        )
    indptr, src = neighbourhoods(dual.indptr, dual.actions)
    degree = np.diff(indptr)
    if capture is not None:
        capture.update(indptr=indptr, src=src)
    h = _normalize_features(config, features)

    if config.kind == "gcn":
        inv_degree = (1.0 / degree)[:, None]
        for layer in range(config.layers):
            w = Tensor(params[f"layer{layer}.weight"], name=f"layer{layer}.weight")
            agg = segment_sum((h @ w)[src], indptr) * inv_degree
            h = agg.sigmoid() if layer == config.layers - 1 else agg.relu()
        return h.reshape(n)

    dst = np.repeat(np.arange(n), degree)
    heads = config.heads
    for layer in range(config.layers):
        prefix = f"layer{layer}"
        w = Tensor(params[f"{prefix}.weight"], name=f"{prefix}.weight")
        a_src = Tensor(params[f"{prefix}.att_src"], name=f"{prefix}.att_src")
        a_dst = Tensor(params[f"{prefix}.att_dst"], name=f"{prefix}.att_dst")
        d_in, _, d_head = w.shape
        z = (h @ w.reshape(d_in, heads * d_head)).reshape(n, heads, d_head)
        score_src = (z * a_src).sum(axis=2)  # (n, heads)
        score_dst = (z * a_dst).sum(axis=2)
        logits = (score_dst[dst] + score_src[src]).leaky_relu(config.leaky_slope)
        # subtracting the detached segment max leaves the softmax (and its
        # gradient) unchanged while keeping exp() in range
        shift = np.maximum.reduceat(logits.values, indptr[:-1], axis=0)
        weights = (logits - shift[dst]).exp()
        attention = weights / segment_sum(weights, indptr)[dst]  # (edges, heads)
        if capture is not None:
            capture.setdefault("attention", []).append(attention.values.copy())
        agg = segment_sum(attention.reshape(len(src), heads, 1) * z[src], indptr)
        if layer == config.layers - 1:
            h = (agg.sum(axis=1) * (1.0 / heads)).sigmoid()
        else:
            h = agg.reshape(n, heads * d_head).relu()
    return h.reshape(n)


def forward(
    config: GnnConfig, params: ParamStore, dual: DualGraph, features: np.ndarray
) -> np.ndarray:
    """Plain inference: per-road Q values in (0, 1) as an ndarray."""
    return forward_graph(config, params, dual, features).values


def sgd_step(params: ParamStore, grads: dict[str, np.ndarray], learning_rate: float) -> ParamStore:
    """In-place p <- p - lr * g for every gradient entry; returns the store."""
    for name, grad in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter {name!r}")
        arr = params[name]
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != arr.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match {name} {arr.shape}"
            )
        arr -= learning_rate * grad
    return params


class AdamOptimizer:
    """Adaptive-moment alternative to plain SGD, behind the same step interface."""

    def __init__(
        self,
        params: ParamStore,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = {name: np.zeros_like(a) for name, a in params.items()}
        self._v = {name: np.zeros_like(a) for name, a in params.items()}

    def step(self, params: ParamStore, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, grad in grads.items():
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad * grad
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            arr = params[name]
            arr -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def save_checkpoint(
    path: str | Path,
    config: GnnConfig,
    params: ParamStore,
    meta: dict | None = None,
) -> None:
    """Write a versioned JSON checkpoint of named arrays plus the architecture."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "meta": meta or {},
        "arrays": [
            {"name": name, "shape": list(a.shape), "values": a.ravel().tolist()}
            for name, a in params.items()
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path: str | Path) -> tuple[GnnConfig, ParamStore, dict]:
    """Read a checkpoint; its arrays must match `init_params(config)` in names and shapes.

    Only the current version loads: a version-1 file (one GAT array per head)
    raises `CheckpointError` like any other foreign file.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except ValueError as exc:  # malformed JSON or text
        raise CheckpointError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {payload.get('version')}")
    try:
        config = GnnConfig(**payload["config"])
        params = ParamStore({
            entry["name"]: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
            for entry in payload["arrays"]
        })
        copy_into_target(params, init_params(config))  # raises unless names and shapes match
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: arrays and config do not match ({exc!r})") from exc
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is not an object")
    return config, params, meta
