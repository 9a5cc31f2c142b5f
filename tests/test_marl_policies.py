"""Policy families, bootstrap values, TD targets, and the soft backup."""

import math

import numpy as np
import pytest

from fleetlab.gnn import Tensor
from fleetlab.marl import (
    Policy,
    PolicyKind,
    dqn_loss,
    policy_from_q,
    power_weights,
    soft_q_target,
    soft_td_targets,
    softmax_weights,
    td_targets,
)
from fleetlab.roadnet import RoadNetwork, build_dual_graph, successors
from fleetlab.sim import Observation, Transitions


def fork_dual():
    # road 0 -> {1, 2}; roads 1, 2 dead ends
    net = RoadNetwork.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0)],
    )
    return build_dual_graph(net)


def sample(road, controllable_next, reward=0):
    return road, controllable_next, reward


def samples(*rows):
    """One agent's transition per (road, controllable_next, reward) row."""
    table = np.array(rows, dtype=np.intp).reshape(-1, 3)
    return Transitions(np.arange(len(table)), table[:, 0], table[:, 1] == 1, table[:, 2])


class TestPolicyFamilies:
    def test_pow_equal_values_split_evenly(self):
        for beta in (0.3, 1.0, 7.0, 1e6):
            assert power_weights(np.array([1.0, 1.0]), beta) == pytest.approx([0.5, 0.5])

    def test_pow_beta_one_is_plain_normalization(self):
        assert power_weights(np.array([0.2, 0.8]), 1.0) == pytest.approx([0.2, 0.8])

    def test_exp_beta_one_matches_independent_evaluation(self):
        # straight from the definition with math.exp
        e02, e08 = math.exp(0.2), math.exp(0.8)
        expected = [e02 / (e02 + e08), e08 / (e02 + e08)]
        assert expected[0] == pytest.approx(0.3543, abs=5e-5)
        assert softmax_weights(np.array([0.2, 0.8]), 1.0) == pytest.approx(expected)

    def test_greedy_tie_break_prefers_lowest_index(self):
        dual = fork_dual()
        policy = policy_from_q(np.array([0.0, 0.9, 0.9]), dual, PolicyKind("greedy"))
        _, probs = policy.distribution(0)
        assert probs == pytest.approx([1.0, 0.0])

    def test_eps_greedy_mixes_uniform(self):
        dual = fork_dual()
        kind = PolicyKind("eps-greedy", epsilon=0.2)
        policy = policy_from_q(np.array([0.0, 0.3, 0.8]), dual, kind)
        _, probs = policy.distribution(0)
        assert probs == pytest.approx([0.1, 0.9])

    def test_random_is_uniform_over_successors(self):
        policy = policy_from_q(np.zeros(3), fork_dual(), PolicyKind("random"))
        _, probs = policy.distribution(0)
        assert probs == pytest.approx([0.5, 0.5])

    def test_proportional_follows_call_counts(self):
        obs = Observation(np.zeros(3, dtype=int), np.array([5, 1, 3]), np.ones(3))
        policy = policy_from_q(np.zeros(3), fork_dual(), PolicyKind("proportional"), obs)
        _, probs = policy.distribution(0)
        assert probs == pytest.approx([0.25, 0.75])

    def test_proportional_uniform_when_no_calls(self):
        obs = Observation(np.zeros(3, dtype=int), np.zeros(3, dtype=int), np.ones(3))
        policy = policy_from_q(np.zeros(3), fork_dual(), PolicyKind("proportional"), obs)
        _, probs = policy.distribution(0)
        assert probs == pytest.approx([0.5, 0.5])

    def test_proportional_requires_observation(self):
        with pytest.raises(ValueError):
            policy_from_q(np.zeros(3), fork_dual(), PolicyKind("proportional"))

    def test_entropy_policy_matches_exp_policy(self):
        dual = fork_dual()
        q = np.array([0.1, 0.7, 0.4])
        p_exp = policy_from_q(q, dual, PolicyKind("exp", beta=3.0))
        p_ent = policy_from_q(q, dual, PolicyKind("entropy", beta=3.0))
        for road in range(3):
            assert p_exp.distribution(road)[1] == pytest.approx(p_ent.distribution(road)[1])

    def test_dead_end_gets_degenerate_stay_row(self):
        policy = policy_from_q(np.array([0.2, 0.4, 0.9]), fork_dual(), PolicyKind("pow", beta=2.0))
        actions, probs = policy.distribution(2)
        assert actions.tolist() == [2] and probs == pytest.approx([1.0])

    def test_pow_rejects_non_positive_values(self):
        with pytest.raises(ValueError):
            power_weights(np.array([0.5, 0.0]), 2.0)
        with pytest.raises(ValueError):
            power_weights(np.array([0.5, -0.1]), 2.0, strict=False)


class TestPolicyProperties:
    KINDS = [
        PolicyKind("random"),
        PolicyKind("proportional"),
        PolicyKind("greedy"),
        PolicyKind("eps-greedy", epsilon=0.1),
        PolicyKind("pow", beta=2.0),
        PolicyKind("exp", beta=2.0),
        PolicyKind("entropy", beta=2.0),
    ]

    def test_rows_always_sum_to_one_with_valid_support(self, rng):
        from conftest import random_network

        for _ in range(25):
            net = random_network(rng, max_roads=12)
            dual = build_dual_graph(net)
            q = rng.uniform(0.01, 0.99, size=net.n_roads)
            obs = Observation(
                rng.integers(0, 5, size=net.n_roads),
                rng.integers(0, 5, size=net.n_roads),
                rng.uniform(1, 10, size=net.n_roads),
            )
            for kind in self.KINDS:
                policy = policy_from_q(q, dual, kind, obs)
                policy.check_rows(atol=1e-9)
                for road in range(net.n_roads):
                    actions, _ = policy.distribution(road)
                    allowed = successors(net, road) or [road]
                    assert set(actions.tolist()) <= set(allowed) | {road}

    def test_large_beta_approaches_greedy(self):
        dual = fork_dual()
        q = np.array([0.5, 0.31, 0.72])
        for name in ("pow", "exp"):
            policy = policy_from_q(q, dual, PolicyKind(name, beta=1e6))
            _, probs = policy.distribution(0)
            assert probs[1] >= 1.0 - 1e-6  # argmax successor is road 2 -> index 1

    def test_small_beta_approaches_uniform(self):
        dual = fork_dual()
        q = np.array([0.5, 0.31, 0.72])
        for name in ("pow", "exp"):
            policy = policy_from_q(q, dual, PolicyKind(name, beta=1e-6))
            _, probs = policy.distribution(0)
            assert probs == pytest.approx([0.5, 0.5], abs=1e-3)

    def test_greedy_selection_invariant_to_positive_scaling(self, rng):
        dual = fork_dual()
        for _ in range(50):
            q = rng.uniform(0.05, 0.95, size=3)
            for c in (0.1, 1.0, 17.3):
                base = policy_from_q(q, dual, PolicyKind("greedy"))
                scaled = policy_from_q(c * q, dual, PolicyKind("greedy"))
                assert np.array_equal(base.distribution(0)[1], scaled.distribution(0)[1])

    def test_mixed_with_uniform_keeps_rows_normalized(self):
        dual = fork_dual()
        policy = policy_from_q(np.array([0.2, 0.9, 0.1]), dual, PolicyKind("greedy"))
        mixed = policy.mixed_with_uniform(0.3)
        mixed.check_rows()
        _, probs = mixed.distribution(0)
        assert probs == pytest.approx([0.85, 0.15])


class TestExpectedFutureQ:
    """The bootstrap value a non-terminated sample's TD target discounts."""

    def bootstrap(self, q, policy, s):
        return td_targets(samples(s), q, policy, gamma=0.5)[0] / 0.5

    def test_non_controllable_reads_own_road(self):
        q = np.array([0.1, 0.4, 0.9])
        policy = policy_from_q(q, fork_dual(), PolicyKind("random"))
        assert self.bootstrap(q, policy, sample(1, False)) == pytest.approx(0.4)

    def test_controllable_takes_policy_average(self):
        q = np.array([0.0, 0.2, 0.6])
        policy = policy_from_q(q, fork_dual(), PolicyKind("random"))
        assert self.bootstrap(q, policy, sample(0, True)) == pytest.approx(0.4)

    def test_controllable_with_pow_weights(self):
        # pow(beta=1) on q=[0.2, 0.6] gives [0.25, 0.75]; 0.25*0.2 + 0.75*0.6 = 0.5
        q = np.array([0.0, 0.2, 0.6])
        policy = policy_from_q(q, fork_dual(), PolicyKind("pow", beta=1.0))
        assert self.bootstrap(q, policy, sample(0, True)) == pytest.approx(0.5)

    def test_controllable_dead_end_falls_back_to_own_road(self):
        q = np.array([0.1, 0.4, 0.9])
        policy = policy_from_q(q, fork_dual(), PolicyKind("random"))
        assert self.bootstrap(q, policy, sample(2, True)) == pytest.approx(0.9)


class TestTdTargets:
    def test_terminated_sample_targets_one(self):
        q = np.full(3, 0.7)
        policy = policy_from_q(q, fork_dual(), PolicyKind("random"))
        y = td_targets(samples(sample(0, False, reward=1)), q, policy, gamma=0.9)
        assert y == pytest.approx([1.0])

    def test_non_terminated_discounts_bootstrap(self):
        q = np.full(3, 0.5)
        policy = policy_from_q(q, fork_dual(), PolicyKind("random"))
        y = td_targets(samples(sample(1, False)), q, policy, gamma=0.9)
        assert y == pytest.approx([0.45])

    def test_zero_bootstrap_gives_zero(self):
        q = np.zeros(3)
        policy = policy_from_q(np.full(3, 0.5), fork_dual(), PolicyKind("random"))
        y = td_targets(samples(sample(0, True), sample(1, False)), q, policy, gamma=0.9)
        assert y == pytest.approx([0.0, 0.0])


class TestDqnLoss:
    def test_zero_when_predictions_match(self):
        q = np.array([0.3, 0.6, 0.9])
        batch = samples(sample(0, False), sample(2, False))
        assert dqn_loss(q, batch, np.array([0.3, 0.9])) == pytest.approx(0.0)

    def test_single_sample_squared_error(self):
        q = np.array([0.6, 0.0, 0.0])
        assert dqn_loss(q, samples(sample(0, False)), np.array([1.0])) == pytest.approx(0.16)

    def test_same_road_samples_sum_independently(self):
        q = np.array([0.5, 0.0, 0.0])
        batch = samples(sample(0, False), sample(0, False))
        assert dqn_loss(q, batch, np.array([1.0, 0.0])) == pytest.approx(0.25 + 0.25)

    def test_tensor_input_produces_gradient(self):
        from fleetlab.gnn import backward

        q = Tensor(np.array([0.5, 0.2, 0.1]), name="q")
        loss = dqn_loss(q, samples(sample(0, False), sample(0, False)), np.array([1.0, 0.0]))
        grads = backward(loss)
        # d/dq0 [(0.5-1)^2 + (0.5-0)^2] = 2(-0.5) + 2(0.5) = 0
        assert grads["q"][0] == pytest.approx(0.0)
        assert grads["q"][1:] == pytest.approx([0.0, 0.0])

    def test_empty_sample_batch_gives_zero_loss(self):
        assert dqn_loss(np.array([0.5]), samples(), np.array([])) == pytest.approx(0.0)


class TestSoftQTarget:
    def test_matches_log_expression(self):
        # R=0, gamma=0.9, beta=1, q=[0,0]: 0.9 * ln 2
        got = soft_q_target(0.0, np.array([0.0, 0.0]), beta=1.0, gamma=0.9)
        assert got == pytest.approx(0.9 * math.log(2.0))

    def test_large_beta_approaches_hard_max(self):
        got = soft_q_target(0.0, np.array([0.3, 0.9]), beta=1e6, gamma=0.9)
        assert got == pytest.approx(0.9 * 0.9, abs=1e-6)

    def test_terminated_returns_one(self):
        assert soft_q_target(1.0, np.array([0.3]), 2.0, 0.9, terminated=True) == 1.0

    def test_single_value_collapses_to_discounted_value(self):
        got = soft_q_target(0.0, np.array([0.4]), beta=3.0, gamma=0.9)
        assert got == pytest.approx(0.9 * 0.4)

    def test_empty_successors_rejected(self):
        with pytest.raises(ValueError):
            soft_q_target(0.0, np.array([]), 1.0, 0.9)

    def test_soft_td_targets_branch_on_controllability(self):
        dual = fork_dual()
        q = np.array([0.1, 0.5, 0.7])
        targets = soft_td_targets(
            samples(sample(0, True), sample(0, False), sample(2, True), sample(1, False, reward=1)),
            q,
            dual,
            beta=2.0,
            gamma=0.9,
        )
        expected_ctrl = soft_q_target(0.0, q[[1, 2]], 2.0, 0.9)
        assert targets[0] == pytest.approx(expected_ctrl)
        assert targets[1] == pytest.approx(0.9 * 0.1)  # pinned to own road
        assert targets[2] == pytest.approx(0.9 * 0.7)  # dead end stays
        assert targets[3] == 1.0


class TestPolicyKindValidation:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            PolicyKind("softmax")

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            PolicyKind("pow", beta=0.0)
        with pytest.raises(ValueError):
            PolicyKind("eps-greedy", epsilon=1.5)

    def test_policy_row_lookup_errors(self):
        policy = Policy(np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(LookupError):
            policy.distribution(3)
