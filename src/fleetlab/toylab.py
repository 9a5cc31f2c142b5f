"""Two-road toy model: closed-form rewards and the stochastic-policy fixed point.

All drivers start on road 1 and split between staying (action 0) and moving to
road 2 (action 1). Rewards are capped at one order per driver, so the total
reward is sum_j min(pi_j * N1, calls_j) and the best split matches the call
distribution exactly. Iterating "policy from Q, Q from realized per-driver
reward" exposes how the power/exponential policy families trade off against
the sharpness parameter beta.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .marl import power_weights, softmax_weights

__all__ = [
    "ToyConfig",
    "PAPER_CONFIG",
    "FixedPointResult",
    "SweepPoint",
    "reward_per_unit_driver",
    "total_reward",
    "fixed_point_iterate",
    "sweep_beta",
    "write_sweep_csv",
    "optimal_reward",
]

FAMILIES = ("pow", "exp")


@dataclass(frozen=True)
class ToyConfig:
    """Driver and call counts for the two roads, plus Q-iteration settings.

    Only `drivers[0]` distributes (the second entry is carried for fidelity
    with the standard two-road setup, which puts every driver on road 1).
    Fractional driver mass is allowed.
    """

    drivers: tuple[float, float] = (10.0, 0.0)
    calls: tuple[float, float] = (3.0, 7.0)
    alpha: float = 1.0
    q_init: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if min(self.drivers) < 0 or min(self.calls) < 0:
            raise ValueError("drivers and calls must be non-negative")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")


PAPER_CONFIG = ToyConfig()


def reward_per_unit_driver(
    policy: Sequence[float], config: ToyConfig = PAPER_CONFIG
) -> np.ndarray:
    """Expected reward per unit of driver mass sent to each road.

    Road j earns min(1, calls_j / (pi_j * N1)). An action receiving zero mass
    has no drivers to observe a reward, so its entry is flagged as NaN
    (undefined, never used for updates).
    """
    pi = np.asarray(policy, dtype=np.float64)
    calls = np.asarray(config.calls, dtype=np.float64)
    mass = pi * config.drivers[0]
    out = np.full(2, np.nan)
    occupied = mass > 0
    with np.errstate(divide="ignore"):
        out[occupied] = np.minimum(1.0, calls[occupied] / mass[occupied])
    return out


def total_reward(policy: Sequence[float], config: ToyConfig = PAPER_CONFIG) -> float:
    """Total served orders: sum_j min(pi_j * N1, calls_j)."""
    pi = np.asarray(policy, dtype=np.float64)
    calls = np.asarray(config.calls, dtype=np.float64)
    return float(np.minimum(pi * config.drivers[0], calls).sum())


def _policy_of(q: np.ndarray, beta: float, family: str) -> np.ndarray:
    if family == "pow":
        return power_weights(q, beta, strict=False)
    if family == "exp":
        return softmax_weights(q, beta)
    raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


@dataclass(frozen=True)
class FixedPointResult:
    policy: np.ndarray
    reward: float
    converged: bool
    iterations: int
    mode: str  # "fixed-point" | "cycle-mean" | "max-iters"


def fixed_point_iterate(
    beta: float,
    family: str,
    config: ToyConfig = PAPER_CONFIG,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> FixedPointResult:
    """Iterate policy <- normalize(F_beta(Q)), Q <- realized per-unit reward.

    Actions with zero driver mass keep their Q value (nothing was observed).
    Convergence is declared when the policy stops moving, or, in the
    oscillatory regime where the raw sequence settles into an exact two-step
    alternation, when consecutive iterates stabilize pairwise; the returned
    policy is then the alternation midpoint (the averaged iterate), which is
    the stationary split the oscillation brackets.
    """
    q = np.asarray(config.q_init, dtype=np.float64)
    n1 = config.drivers[0]
    calls = np.asarray(config.calls, dtype=np.float64)
    prev: np.ndarray | None = None
    prev2: np.ndarray | None = None
    pi = _policy_of(q, beta, family)
    for iteration in range(1, max_iters + 1):
        pi = _policy_of(q, beta, family)
        mass = pi * n1
        occupied = mass > 0
        # near-zero mass overflows the ratio; min() caps it at 1 either way
        with np.errstate(divide="ignore", over="ignore"):
            observed = np.minimum(1.0, np.divide(calls, mass, where=occupied, out=np.ones_like(calls)))
        q = np.where(occupied, (1 - config.alpha) * q + config.alpha * observed, q)
        if prev is not None and np.abs(pi - prev).max() < tol:
            return FixedPointResult(pi, total_reward(pi, config), True, iteration, "fixed-point")
        if prev2 is not None and np.abs(pi - prev2).max() < tol:
            mid = (pi + prev) / 2.0
            mid = mid / mid.sum()
            return FixedPointResult(mid, total_reward(mid, config), True, iteration, "cycle-mean")
        prev2, prev = prev, pi
    return FixedPointResult(pi, total_reward(pi, config), False, max_iters, "max-iters")


@dataclass(frozen=True)
class SweepPoint:
    beta: float
    family: str
    reward: float
    converged: bool


def sweep_beta(
    beta_grid: Sequence[float],
    family: str,
    config: ToyConfig = PAPER_CONFIG,
    max_iters: int = 10_000,
    tol: float = 1e-10,
) -> list[SweepPoint]:
    """Converged total reward for each beta on the grid."""
    if len(beta_grid) == 0:
        raise ValueError("beta grid must be non-empty")
    points = []
    for beta in beta_grid:
        result = fixed_point_iterate(beta, family, config, max_iters=max_iters, tol=tol)
        points.append(SweepPoint(float(beta), family, result.reward, result.converged))
    return points


def write_sweep_csv(path: str | Path, points: Iterable[SweepPoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["beta", "family", "reward", "converged"])
        for p in points:
            writer.writerow([repr(p.beta), p.family, repr(p.reward), int(p.converged)])


def optimal_reward(config: ToyConfig = PAPER_CONFIG) -> float:
    """Best achievable total reward over all splits: min(N1, calls_0 + calls_1).

    Sending calls_j / N1 of the fleet to each road serves every call when
    drivers suffice; otherwise every driver can be matched.
    """
    return float(min(config.drivers[0], config.calls[0] + config.calls[1]))
