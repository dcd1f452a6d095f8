"""Tests for repro.core.mlp: layers, activations, gradient correctness."""

import numpy as np
import pytest

from repro.core import MLP, Linear, MLPSpec, Parameter, ReLU, Sigmoid

from helpers import numeric_grad_scalar


class TestParameter:
    def test_zero_grad(self, rng):
        p = Parameter(rng.normal(size=(3, 2)))
        p.grad += 1.0
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_value_is_float64_contiguous(self):
        p = Parameter(np.arange(6, dtype=np.float32).reshape(2, 3).T)
        assert p.value.dtype == np.float64
        assert p.value.flags["C_CONTIGUOUS"]


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_forward_matches_manual(self, rng):
        layer = Linear(2, 2, rng)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.value.T + layer.bias.value
        np.testing.assert_allclose(layer.forward(x), expected)

    def test_rejects_wrong_width(self, rng):
        layer = Linear(4, 3, rng)
        with pytest.raises(ValueError):
            layer.forward(rng.normal(size=(5, 5)))

    def test_backward_before_forward_raises(self, rng):
        layer = Linear(4, 3, rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((5, 3)))

    def test_weight_gradient_numeric(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        expected = numeric_grad_scalar(loss, layer.weight.value)
        layer.weight.zero_grad()
        out = layer.forward(x)
        layer.backward(2 * (out - target))
        np.testing.assert_allclose(layer.weight.grad, expected, rtol=1e-5, atol=1e-7)

    def test_input_gradient_numeric(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss():
            return float(((layer.forward(x) - target) ** 2).sum())

        expected = numeric_grad_scalar(loss, x)
        out = layer.forward(x)
        grad_in = layer.backward(2 * (out - target))
        np.testing.assert_allclose(grad_in, expected, rtol=1e-5, atol=1e-7)

    def test_gradient_accumulates_across_backwards(self, rng):
        layer = Linear(2, 2, rng)
        x = rng.normal(size=(3, 2))
        g = rng.normal(size=(3, 2))
        layer.forward(x)
        layer.backward(g)
        once = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * once)


class TestActivations:
    def test_relu_forward(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_backward_masks(self):
        relu = ReLU()
        relu.forward(np.array([[-1.0, 3.0]]))
        grad = relu.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 7.0]])

    def test_sigmoid_range_and_stability(self):
        sig = Sigmoid()
        out = sig.forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.all((out >= 0) & (out <= 1))
        assert out[0, 1] == pytest.approx(0.5)
        assert np.isfinite(out).all()

    def test_sigmoid_backward_numeric(self, rng):
        x = rng.normal(size=(3, 2))

        def loss():
            return float(Sigmoid().forward(x).sum())

        expected = numeric_grad_scalar(loss, x)
        sig = Sigmoid()
        sig.forward(x)
        grad = sig.backward(np.ones((3, 2)))
        np.testing.assert_allclose(grad, expected, rtol=1e-6, atol=1e-9)


class TestMLP:
    def test_shapes_and_parameter_count(self, rng):
        spec = MLPSpec((8, 4))
        mlp = MLP(6, spec, rng)
        out = mlp.forward(rng.normal(size=(3, 6)))
        assert out.shape == (3, 4)
        n_params = sum(p.size for p in mlp.parameters())
        assert n_params == spec.num_parameters(6)

    def test_final_activation_flag(self, rng):
        mlp = MLP(4, MLPSpec((3,)), rng, final_activation=False)
        x = rng.normal(size=(100, 4))
        out = mlp.forward(x)
        # A purely linear head can go negative; with ReLU it cannot.
        assert (out < 0).any()

    def test_end_to_end_gradient_numeric(self, rng):
        mlp = MLP(3, MLPSpec((5, 2)), rng, final_activation=False)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((mlp.forward(x) ** 2).sum())

        for p in mlp.parameters():
            expected = numeric_grad_scalar(loss, p.value)
            for q in mlp.parameters():
                q.zero_grad()
            out = mlp.forward(x)
            mlp.backward(2 * out)
            np.testing.assert_allclose(p.grad, expected, rtol=1e-4, atol=1e-6)

    def test_backward_returns_input_gradient(self, rng):
        mlp = MLP(3, MLPSpec((5, 2)), rng, final_activation=False)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((mlp.forward(x) ** 2).sum())

        expected = numeric_grad_scalar(loss, x)
        out = mlp.forward(x)
        grad_in = mlp.backward(2 * out)
        np.testing.assert_allclose(grad_in, expected, rtol=1e-4, atol=1e-6)

    def test_input_grad_off_skips_only_dx(self, rng):
        """``input_grad=False`` (the stack's input is data): ``backward``
        returns ``None``, every parameter gradient is the default stack's."""
        stacks = [
            MLP(3, MLPSpec((5, 2)), np.random.default_rng(7), **kw)
            for kw in ({}, {"input_grad": False})
        ]
        assert [l.input_grad for l in stacks[1].layers[::2]] == [False, True]
        x = rng.normal(size=(4, 3))
        returned = [mlp.backward(2 * mlp.forward(x)) for mlp in stacks]
        assert returned[0].shape == x.shape and returned[1] is None
        for p, q in zip(*(mlp.parameters() for mlp in stacks)):
            assert p.grad.any()
            np.testing.assert_array_equal(q.grad, p.grad)
