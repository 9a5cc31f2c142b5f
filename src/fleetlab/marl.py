"""Relocation policies, expected-SARSA targets, and the online DQN training loop.

Learned policies map each road's successor Q values to a probability vector
(power, exponential/softmax, greedy, epsilon-greedy), while the baselines
ignore Q entirely (uniform, call-proportional). Training follows the online
scheme with a periodically synced target network and no replay memory: one
gradient step per simulator step on the summed per-agent squared error.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import sim
from .gnn import (
    AdamOptimizer,
    GnnConfig,
    ParamStore,
    backward,
    copy_into_target,
    forward,
    forward_graph,
    init_params,
    sgd_step,
)
from .roadnet import DualGraph, build_dual_graph
from .sim import Observation, Transitions, WorldState

LOG = logging.getLogger(__name__)

__all__ = [
    "PolicyKind",
    "Policy",
    "TrainConfig",
    "TrainResult",
    "EvalResult",
    "power_weights",
    "softmax_weights",
    "policy_from_q",
    "uniform_policy",
    "td_targets",
    "dqn_loss",
    "soft_q_target",
    "soft_td_targets",
    "make_policy_provider",
    "train",
    "evaluate",
    "write_metrics_csv",
    "TabularMdp",
    "tabular_expected_sarsa",
]

POLICY_NAMES = ("random", "proportional", "greedy", "eps-greedy", "pow", "exp", "entropy")
Q_BASED = ("greedy", "eps-greedy", "pow", "exp", "entropy")


@dataclass(frozen=True)
class PolicyKind:
    """A policy family plus its parameter (beta for pow/exp/entropy, epsilon for eps-greedy)."""

    name: str
    beta: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.name!r}, expected one of {POLICY_NAMES}")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be finite and > 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")

    @property
    def trainable(self) -> bool:
        return self.name in Q_BASED

    def label(self) -> str:
        if self.name in ("pow", "exp", "entropy"):
            return f"{self.name}(beta={self.beta:g})"
        if self.name == "eps-greedy":
            return f"eps-greedy(eps={self.epsilon:g})"
        return self.name


class Policy:
    """Per-road probability rows over a dual graph's action table.

    `indptr` and `actions` are the table (see `DualGraph`), shared rather than
    copied; `probs` holds one probability per action slot, so road j's row is
    `probs[indptr[j]:indptr[j + 1]]`. Rows always sum to 1.
    """

    def __init__(self, indptr: np.ndarray, actions: np.ndarray, probs: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.actions = np.asarray(actions, dtype=np.intp)
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.probs.shape != self.actions.shape or self.indptr[-1] != len(self.actions):
            raise ValueError("indptr, actions and probs must describe the same table")

    @property
    def n_roads(self) -> int:
        return len(self.indptr) - 1

    def distribution(self, road: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= road < self.n_roads:
            raise LookupError(f"policy has no row for road {road}")
        row = slice(self.indptr[road], self.indptr[road + 1])
        return self.actions[row], self.probs[row]

    def mixed_with_uniform(self, epsilon: float) -> "Policy":
        """Exploration mix (1 - eps) * self + eps * uniform over each action list."""
        if epsilon == 0.0:
            return self
        degree = np.diff(self.indptr)
        mixed = (1.0 - epsilon) * self.probs + epsilon / np.repeat(degree, degree)
        return Policy(self.indptr, self.actions, mixed)

    def check_rows(self, atol: float = 1e-9) -> None:
        starts = self.indptr[:-1]
        bad = ~(np.abs(np.add.reduceat(self.probs, starts) - 1.0) <= atol)
        bad |= np.minimum.reduceat(self.probs, starts) < 0
        if bad.any():
            road = int(np.argmax(bad))
            raise ValueError(f"road {road}: invalid probability row {self.distribution(road)[1]}")


def _segment_softmax(x: np.ndarray, indptr: np.ndarray, scale: float = 1.0):
    """Per segment `x[indptr[j]:indptr[j + 1]]`: softmax(scale * x) and log sum exp(scale * x).

    Both shift by the segment max, so a large scale cannot overflow.
    """
    starts, degree = indptr[:-1], np.diff(indptr)
    peak = np.maximum.reduceat(x, starts)
    w = np.exp(scale * (x - np.repeat(peak, degree)))
    total = np.add.reduceat(w, starts)
    return w / np.repeat(total, degree), scale * peak + np.log(total)


def power_weights(
    q: np.ndarray, beta: float, strict: bool = True, indptr: np.ndarray | None = None
) -> np.ndarray:
    """Normalized q**beta per segment, computed in log space so huge beta cannot overflow.

    Segments are `q[indptr[j]:indptr[j + 1]]`; without `indptr`, q is one
    segment. With `strict` every q must be positive (guaranteed by the sigmoid
    output head); otherwise zeros are allowed and receive zero weight, and a
    segment of zeros falls back to uniform.
    """
    q = np.asarray(q, dtype=np.float64)
    indptr = np.array([0, q.size]) if indptr is None else indptr
    if strict:
        if (q <= 0).any():
            raise ValueError("power policy requires strictly positive q values")
    elif (q < 0).any():
        raise ValueError("power policy requires non-negative q values")
    positive = q > 0
    logs = np.full(q.shape, -np.inf)
    logs[positive] = beta * np.log(q[positive])
    all_zero = ~np.logical_or.reduceat(positive, indptr[:-1])
    logs[np.repeat(all_zero, np.diff(indptr))] = 0.0
    return _segment_softmax(logs, indptr)[0]


def softmax_weights(q: np.ndarray, beta: float, indptr: np.ndarray | None = None) -> np.ndarray:
    """Normalized exp(beta * q) per segment (one segment without `indptr`), max-shifted."""
    q = np.asarray(q, dtype=np.float64)
    return _segment_softmax(q, np.array([0, q.size]) if indptr is None else indptr, beta)[0]


def policy_from_q(
    q: np.ndarray,
    dual: DualGraph,
    kind: PolicyKind,
    observation: Observation | None = None,
) -> Policy:
    """Build the per-road relocation distribution a policy family induces from Q.

    The proportional baseline needs the observation (it weighs successors by
    their open call counts); every other family ignores it. Dead-end roads get
    the degenerate stay distribution.
    """
    q = np.asarray(q, dtype=np.float64)
    if kind.name == "proportional" and observation is None:
        raise ValueError("proportional policy requires the current observation")
    indptr, actions = dual.indptr, dual.actions
    starts, degree = indptr[:-1], np.diff(indptr)
    if kind.name == "random":
        probs = 1.0 / np.repeat(degree, degree)
    elif kind.name == "proportional":
        counts = observation.call_counts[actions].astype(np.float64)
        totals = np.repeat(np.add.reduceat(counts, starts), degree)
        probs = np.divide(counts, totals, out=1.0 / np.repeat(degree, degree), where=totals > 0)
    elif kind.name in ("greedy", "eps-greedy"):
        values, slots = q[actions], np.arange(len(actions))
        is_best = values == np.repeat(np.maximum.reduceat(values, starts), degree)
        first = np.minimum.reduceat(np.where(is_best, slots, len(slots)), starts)
        probs = np.zeros(len(actions))
        probs[first] = 1.0  # the lowest index wins a tie
        if kind.name == "eps-greedy":
            return Policy(indptr, actions, probs).mixed_with_uniform(kind.epsilon)
    elif kind.name == "pow":
        probs = power_weights(q[actions], kind.beta, indptr=indptr)
    else:  # "exp" and "entropy" share the softmax form
        probs = softmax_weights(q[actions], kind.beta, indptr=indptr)
    return Policy(indptr, actions, probs)


def uniform_policy(dual: DualGraph) -> Policy:
    return policy_from_q(np.zeros(dual.node_count), dual, PolicyKind("random"))


# -- targets -------------------------------------------------------------


def _targets(samples: Transitions, controlled, pinned, scale: float) -> np.ndarray:
    """1 if served, else scale * (controlled if the agent can leave its road, else pinned)."""
    roads = samples.road_after_move
    bootstrap = np.where(samples.controllable_next, controlled[roads], pinned[roads])
    return np.where(samples.reward == 1, 1.0, scale * bootstrap)


def td_targets(
    samples: Transitions,
    q_next: np.ndarray,
    policy_next: Policy,
    gamma: float,
) -> np.ndarray:
    """Per-sample regression target: 1 on service, else discounted bootstrap.

    A served order terminates the episode, so the target is the reward alone;
    otherwise the idle reward is 0 and only the discounted expectation remains.
    Controllable agents bootstrap on their road's successor values averaged
    under the policy row (a dead end's stay row makes this the road's own
    value); non-controllable agents are pinned to their road's value.
    Targets are constants: no gradient flows through the target network.
    """
    expected = np.add.reduceat(
        policy_next.probs * q_next[policy_next.actions], policy_next.indptr[:-1]
    )
    return _targets(samples, expected, q_next, gamma)


def dqn_loss(q_pred, samples: Transitions, targets: np.ndarray):
    """Summed squared error between targets and predicted Q at each sample's road.

    Works on a plain ndarray or on an autodiff Tensor (for the training step);
    samples landing on the same road contribute independent terms.
    """
    diff = q_pred[samples.road_after_move] - np.asarray(targets, dtype=np.float64)
    return (diff**2).sum()


def soft_q_target(
    reward: float,
    q_soft_next: np.ndarray,
    beta: float,
    gamma: float,
    terminated: bool = False,
) -> float:
    """Soft (log-sum-exp) backup: reward + (gamma / beta) * log sum exp(beta * q).

    Terminated samples return 1 exactly as the standard targets do. An agent
    with no choice passes its single stay value, making the backup collapse to
    reward + gamma * q.
    """
    if terminated:
        return 1.0
    q = np.asarray(q_soft_next, dtype=np.float64)
    if q.size == 0:
        raise ValueError("soft backup needs at least one successor value")
    return float(reward + (gamma / beta) * _segment_softmax(q, np.array([0, q.size]), beta)[1][0])


def soft_td_targets(
    samples: Transitions,
    q_next: np.ndarray,
    dual: DualGraph,
    beta: float,
    gamma: float,
) -> np.ndarray:
    """Soft-value targets mirroring the controllability branch of the backup.

    An agent that cannot leave backs up over its stay value alone: beta * q.
    """
    soft = _segment_softmax(q_next[dual.actions], dual.indptr, beta)[1]
    return _targets(samples, soft, beta * q_next, gamma / beta)


# -- training ---------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    policy: PolicyKind
    gamma: float = 0.9
    epochs: int = 5
    steps_per_epoch: int = 1440
    learning_rate: float = 1e-3
    target_sync_every: int = 100
    optimizer: str = "sgd"  # "sgd" | "adam"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not self.policy.trainable:
            raise ValueError(f"policy {self.policy.name!r} has no Q network to train")


@dataclass
class TrainResult:
    params: ParamStore
    gnn_config: GnnConfig
    step_metrics: list[dict]
    epoch_metrics: list[dict]


def _epsilon_schedule(total_steps: int) -> Callable[[int], float]:
    """Linear anneal from 1 at the first step to 0 at the last."""

    def epsilon(step_index: int) -> float:
        if total_steps <= 1:
            return 0.0
        return max(0.0, 1.0 - step_index / (total_steps - 1))

    return epsilon


def _resolve_speed_scale(config: GnnConfig, world: WorldState) -> GnnConfig:
    if config.speed_scale is not None:
        return config
    return replace(config, speed_scale=float(np.max(world.scenario.speed_series)))


def train(
    gnn_config: GnnConfig,
    world_factory: Callable[[int], WorldState],
    train_config: TrainConfig,
    params: ParamStore | None = None,
    start_epoch: int = 0,
) -> TrainResult:
    """Online DQN with a stochastic policy built from the current Q values.

    Per step: Q and the behavior policy come from the online network, the
    behavior mixes in annealed uniform exploration, the simulator advances,
    targets come from the target network's Q and (unmixed) policy on the next
    observation, and one gradient step minimizes the summed squared error.
    The target network syncs every `target_sync_every` gradient steps. There
    is no replay memory. Fully deterministic for a fixed seed.
    """
    cfg = train_config
    total_steps = cfg.epochs * cfg.steps_per_epoch
    if params is None and total_steps == 0:
        return TrainResult(init_params(gnn_config.validated(), cfg.seed), gnn_config, [], [])

    first_world = world_factory(start_epoch)
    gnn_config = _resolve_speed_scale(gnn_config.validated(), first_world)
    dual = build_dual_graph(first_world.network)

    online = params if params is not None else init_params(gnn_config, cfg.seed)
    target = online.clone()
    adam = AdamOptimizer(online, cfg.learning_rate) if cfg.optimizer == "adam" else None
    epsilon_at = _epsilon_schedule(total_steps)

    step_metrics: list[dict] = []
    epoch_metrics: list[dict] = []
    global_step = start_epoch * cfg.steps_per_epoch

    for epoch in range(start_epoch, cfg.epochs):
        world = first_world if epoch == start_epoch else world_factory(epoch)
        obs = sim.observe(world)
        losses = []
        for t in range(cfg.steps_per_epoch):
            eps = epsilon_at(global_step)
            q_graph = forward_graph(gnn_config, online, dual, obs.features())
            behavior = policy_from_q(q_graph.values, dual, cfg.policy, obs).mixed_with_uniform(eps)

            obs_next, outcome = sim.step(world, behavior)

            q_next = forward(gnn_config, target, dual, obs_next.features())
            if cfg.policy.name == "entropy":
                targets = soft_td_targets(
                    outcome.samples, q_next, dual, cfg.policy.beta, cfg.gamma
                )
            else:
                policy_next = policy_from_q(q_next, dual, cfg.policy, obs_next)
                targets = td_targets(outcome.samples, q_next, policy_next, cfg.gamma)

            loss = dqn_loss(q_graph, outcome.samples, targets)
            grads = backward(loss)
            if adam is not None:
                adam.step(online, grads)
            else:
                sgd_step(online, grads, cfg.learning_rate)

            global_step += 1
            if cfg.target_sync_every > 0 and global_step % cfg.target_sync_every == 0:
                copy_into_target(online, target)

            rate = sim.order_response_rate(world.counters)
            losses.append(loss.item())
            step_metrics.append(
                {
                    "epoch": epoch,
                    "step": t,
                    "loss": loss.item(),
                    "epsilon": eps,
                    "served": world.counters.orders_served,
                    "generated": world.counters.orders_generated,
                    "response_rate": rate if rate is not None else float("nan"),
                }
            )
            obs = obs_next
        rate = sim.order_response_rate(world.counters)
        epoch_metrics.append(
            {
                "epoch": epoch,
                "mean_loss": float(np.mean(losses)) if losses else 0.0,
                "served": world.counters.orders_served,
                "generated": world.counters.orders_generated,
                "response_rate": rate if rate is not None else float("nan"),
            }
        )
        LOG.info(
            "epoch %d: served %d / %d (rate %s)",
            epoch,
            world.counters.orders_served,
            world.counters.orders_generated,
            f"{rate:.3f}" if rate is not None else "n/a",
        )
    return TrainResult(online, gnn_config, step_metrics, epoch_metrics)


def write_metrics_csv(
    path: str | Path, step_metrics: Iterable[dict], header_note: str | None = None
) -> None:
    """Step metrics as CSV; an optional '# key=value ...' comment line leads."""
    columns = ["epoch", "step", "loss", "epsilon", "served", "generated", "response_rate"]
    with open(path, "w", newline="") as fh:
        if header_note:
            fh.write(f"# {header_note}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in step_metrics:
            writer.writerow({c: row[c] for c in columns})


# -- evaluation ---------------------------------------------------------------


@dataclass
class EvalResult:
    rates: list[float | None]
    mean: float | None
    std: float | None


def make_policy_provider(
    kind: PolicyKind,
    dual: DualGraph,
    gnn_config: GnnConfig | None = None,
    params: ParamStore | None = None,
) -> Callable[[Observation], Policy]:
    """Map observations to policies, through the Q network when the kind needs one."""
    if kind.trainable:
        if gnn_config is None or params is None:
            raise ValueError(f"policy {kind.name!r} needs a trained network")
        cfg = gnn_config.validated()

        def provider(obs: Observation) -> Policy:
            q = forward(cfg, params, dual, obs.features())
            return policy_from_q(q, dual, kind, obs)

    else:
        zeros = np.zeros(dual.node_count)

        def provider(obs: Observation) -> Policy:
            return policy_from_q(zeros, dual, kind, obs)

    return provider


def evaluate(
    provider: Callable[[Observation], Policy],
    world_factory: Callable[[int], WorldState],
    episodes: int,
    steps_per_episode: int,
) -> EvalResult:
    """Run greedy-free test episodes (no exploration mix) and average response rates.

    Episodes whose world generated no orders contribute an undefined (None)
    rate and are excluded from the mean; if every episode is undefined the
    mean itself is None.
    """
    rates: list[float | None] = []
    for episode in range(episodes):
        world = world_factory(episode)
        obs = sim.observe(world)
        for _ in range(steps_per_episode):
            obs, _ = sim.step(world, provider(obs))
        rates.append(sim.order_response_rate(world.counters))
    defined = [r for r in rates if r is not None]
    if not defined:
        return EvalResult(rates, None, None)
    return EvalResult(rates, float(np.mean(defined)), float(np.std(defined)))


# -- tabular oracle operation ---------------------------------------------------


@dataclass(frozen=True)
class TabularMdp:
    """Small explicit MDP: row-stochastic transitions (S, A, S), rewards (S, A)."""

    transitions: np.ndarray
    rewards: np.ndarray

    @property
    def n_states(self) -> int:
        return self.rewards.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rewards.shape[1]


def tabular_expected_sarsa(
    mdp: TabularMdp,
    fixed_policy: np.ndarray,
    alpha_schedule: float | Callable[[int], float],
    gamma: float,
    steps: int,
    seed: int = 0,
) -> np.ndarray:
    """Expected-SARSA updates under a fixed policy on an explicit MDP.

    The update bootstraps on the policy-expected next value
    sum_a' pi(a'|s') Q(s', a'). State-action pairs are visited in a
    round-robin sweep (exploring starts) so every entry keeps updating, with
    the successor state sampled from the transition table. `alpha_schedule`
    is either a constant or a function of the pair's visit count (1-based).
    """
    policy = np.asarray(fixed_policy, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n_s, n_a = mdp.n_states, mdp.n_actions
    q = np.zeros((n_s, n_a))
    visits = np.zeros((n_s, n_a), dtype=np.int64)
    pairs = [(s, a) for s in range(n_s) for a in range(n_a)]
    for k in range(steps):
        s, a = pairs[k % len(pairs)]
        visits[s, a] += 1
        alpha = (
            alpha_schedule(visits[s, a]) if callable(alpha_schedule) else alpha_schedule
        )
        s_next = int(rng.choice(n_s, p=mdp.transitions[s, a]))
        expected = float(policy[s_next] @ q[s_next])
        q[s, a] += alpha * (mdp.rewards[s, a] + gamma * expected - q[s, a])
    return q
