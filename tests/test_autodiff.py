"""Reverse-mode engine checks: analytic gradients and finite-difference oracles."""

import numpy as np
import pytest

from fleetlab.gnn import Tensor, backward, segment_sum

from conftest import central_difference


def grad_of(build_loss, x0):
    """Autodiff gradient of a scalar expression in one named leaf."""
    leaf = Tensor(np.array(x0, dtype=np.float64), name="x")
    return backward(build_loss(leaf))["x"]


class TestAnalyticExamples:
    def test_square_at_three(self):
        g = grad_of(lambda w: w * w, 3.0)
        assert g == pytest.approx(6.0)

    def test_sigmoid_at_zero(self):
        g = grad_of(lambda w: w.sigmoid(), 0.0)
        assert g == pytest.approx(0.25)

    def test_pow_operator(self):
        g = grad_of(lambda w: w**3.0, 2.0)
        assert g == pytest.approx(12.0)

    def test_exp(self):
        g = grad_of(lambda w: w.exp(), 1.5)
        assert g == pytest.approx(np.exp(1.5))

    def test_backward_on_non_scalar_raises(self):
        t = Tensor(np.zeros(3), name="x")
        with pytest.raises(ValueError):
            backward(t + 1.0)

    def test_unused_named_leaf_reports_zero_gradient(self):
        a = Tensor(2.0, name="a")
        loss = a * a
        b = Tensor(np.ones(2), name="b")  # never touches the loss
        grads = backward(loss)
        assert "b" not in grads  # not part of the graph at all
        loss2 = (a * a) + (b * 0.0).sum()
        grads2 = backward(loss2)
        assert np.array_equal(grads2["b"], np.zeros(2))


def fd_check(build_loss, x0, h=1e-5, tol=1e-6):
    x0 = np.asarray(x0, dtype=np.float64)
    auto = grad_of(build_loss, x0.copy())

    def value(x):
        return float(build_loss(Tensor(x)).values)

    numeric = central_difference(value, x0.copy(), h=h)
    np.testing.assert_allclose(auto, numeric, rtol=tol, atol=tol)


class TestFiniteDifferenceOracle:
    def test_broadcast_add_mul(self, rng):
        c = rng.normal(size=(1, 4))

        def loss(x):
            return ((x + c) * (x * 2.0 + 1.0)).sum()

        fd_check(loss, rng.normal(size=(3, 4)))

    def test_matmul_constant_left_and_right(self, rng):
        left = rng.normal(size=(4, 3))
        right = rng.normal(size=(2, 4))

        def loss(x):
            return ((left @ x) @ right).sum()

        fd_check(loss, rng.normal(size=(3, 2)), tol=1e-5)

    def test_tensor_tensor_matmul(self, rng):
        def loss(x):
            return (x @ x.reshape(3, 2)).sum()

        fd_check(loss, rng.normal(size=(2, 3)))

    def test_gather_accumulates_duplicates(self, rng):
        idx = np.array([0, 2, 2, 1])

        def loss(x):
            return (x[idx] ** 2.0).sum()

        fd_check(loss, rng.normal(size=5))

    def test_sum_axis_keepdims_and_div(self, rng):
        def loss(x):
            e = x.exp()
            return (e / e.sum(axis=1, keepdims=True)).sum(axis=0, keepdims=False).sum()

        fd_check(loss, rng.normal(size=(3, 4)))

    def test_relu_leaky_sigmoid_chain(self, rng):
        def loss(x):
            return (x.relu() + x.leaky_relu(0.2)).sigmoid().sum()

        # keep entries away from the kink at 0
        x0 = rng.normal(size=(4, 3))
        x0[np.abs(x0) < 0.1] = 0.5
        fd_check(loss, x0)

    @pytest.mark.parametrize("shape", [(7, 3), (7, 2, 3)], ids=["2d", "3d"])
    def test_segment_sum_with_length_one_segments(self, rng, shape):
        indptr = np.array([0, 1, 4, 5, 7])  # lengths 1, 3, 1, 2
        weights = rng.normal(size=(4, *shape[1:]))

        def loss(x):
            return (segment_sum(x * x, indptr) * weights).sum()

        fd_check(loss, rng.normal(size=shape))

    @pytest.mark.parametrize("shape", [(5, 3), (5, 2, 3)], ids=["2d", "3d"])
    def test_row_gather_with_repeated_indices(self, rng, shape):
        idx = np.array([0, 2, 2, 1, 2, 0, 4])  # row 3 never gathered
        weights = rng.normal(size=(len(idx), *shape[1:]))

        def loss(x):
            return ((x[idx] ** 2.0) * weights).reshape(-1).sum()

        fd_check(loss, rng.normal(size=shape))
        grad = grad_of(loss, np.ones(shape))
        assert np.array_equal(grad[3], np.zeros(shape[1:]))

    def test_segment_sum_values_and_bad_segments(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = segment_sum(x, np.array([0, 1, 4]))
        assert np.array_equal(out.values, [[0.0, 1.0, 2.0], [18.0, 21.0, 24.0]])
        for bad in ([0, 0, 4], [0, 2, 3], [1, 4]):  # empty segment, rows left over, offset start
            with pytest.raises(ValueError):
                segment_sum(x, np.array(bad))

    def test_rsub_and_neg(self, rng):
        def loss(x):
            return (1.0 - (-x)).sum()

        fd_check(loss, rng.normal(size=4))


class TestValueSemantics:
    def test_sigmoid_is_stable_for_large_inputs(self):
        t = Tensor(np.array([-800.0, 800.0]))
        s = t.sigmoid().values
        assert s[0] == pytest.approx(0.0, abs=1e-300)
        assert s[1] == pytest.approx(1.0)
        assert np.isfinite(s).all()

    def test_sigmoid_never_underflows_to_zero(self):
        s = Tensor(np.array([-1e30, -800.0, -700.0, 0.0])).sigmoid().values
        assert (s > 0).all()  # power policies need strictly positive Q
        assert s[2] == np.exp(-700.0) / (1.0 + np.exp(-700.0))  # unclamped where exp is normal

    def test_gradient_accumulates_across_reuse(self):
        x = Tensor(2.0, name="x")
        loss = x * x + x * 3.0
        assert backward(loss)["x"] == pytest.approx(2 * 2.0 + 3.0)

    def test_numpy_does_not_hijack_mixed_ops(self):
        x = Tensor(np.ones(3), name="x")
        out = np.ones(3) @ (x * 2.0)
        assert isinstance(out, Tensor)
        assert out.values == pytest.approx(6.0)
