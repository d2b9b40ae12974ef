"""Gradient correctness of every tape operation against finite differences."""

import numpy as np
import pytest

import tape as ad


def finite_diff(fn, x, step=1e-6):
    """Central-difference gradient of a scalar fn over array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus, minus = x.copy(), x.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (fn(plus) - fn(minus)) / (2 * step)
        it.iternext()
    return grad


def check_op(build, x):
    """build(Tensor) -> scalar Tensor; compare backward to finite differences."""
    t = ad.Tensor(x)
    out = build(t)
    ad.backward(out)
    numeric = finite_diff(lambda v: build(ad.Tensor(v)).item(), x)
    np.testing.assert_allclose(t.grad, numeric, rtol=1e-6, atol=1e-8)


RNG = np.random.default_rng(42)


class TestElementwise:
    def test_add_broadcast(self):
        x = RNG.standard_normal((3, 4))
        other = RNG.standard_normal(4)
        check_op(lambda t: ad.tsum(ad.mul(ad.add(t, other), ad.add(t, other))), x)

    def test_mul_div(self):
        x = RNG.standard_normal((3, 4)) + 3.0
        other = RNG.standard_normal((3, 4)) + 2.0
        check_op(lambda t: ad.tsum(ad.div(ad.mul(t, other), ad.add(t, 5.0))), x)

    def test_div_denominator_grad(self):
        x = RNG.standard_normal((4,)) + 3.0
        check_op(lambda t: ad.tsum(ad.div(2.0, t)), x)

    def test_exp_log(self):
        x = RNG.standard_normal((5,)) + 4.0
        check_op(lambda t: ad.tsum(ad.mul(ad.log(t), ad.exp(ad.mul(t, 0.1)))), x)

    def test_relu_and_zero_subgradient(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        t = ad.Tensor(x)
        out = ad.tsum(ad.relu(t))
        ad.backward(out)
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 0.0, 1.0, 1.0])


class TestMatrixOps:
    def test_matmul_both_sides(self):
        a = RNG.standard_normal((3, 4))
        b = RNG.standard_normal((4, 2))
        ta, tb = ad.Tensor(a), ad.Tensor(b)
        out = ad.tsum(ad.mul(ad.matmul(ta, tb), ad.matmul(ta, tb)))
        ad.backward(out)
        fn_a = lambda v: float(np.sum((v @ b) ** 2))
        fn_b = lambda v: float(np.sum((a @ v) ** 2))
        np.testing.assert_allclose(ta.grad, finite_diff(fn_a, a), rtol=1e-6)
        np.testing.assert_allclose(tb.grad, finite_diff(fn_b, b), rtol=1e-6)

    def test_transpose_reshape(self):
        x = RNG.standard_normal((2, 6))
        check_op(
            lambda t: ad.tsum(ad.mul(ad.reshape(ad.transpose(t), (3, 4)), 2.0)), x
        )

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError, match="2-D"):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))


class TestReductions:
    def test_sum_axes(self):
        x = RNG.standard_normal((3, 4))
        check_op(lambda t: ad.tsum(ad.mul(ad.tsum(t, axis=0), ad.tsum(t, axis=0))), x)
        check_op(
            lambda t: ad.tsum(ad.mul(ad.tsum(t, axis=1, keepdims=True), t)), x
        )

    def test_mean(self):
        x = RNG.standard_normal((6,))
        check_op(lambda t: ad.mean(ad.mul(t, t)), x)

    def test_logsumexp_matches_naive_value(self):
        x = RNG.standard_normal((4, 5)) * 30.0  # exercise the shift
        got = ad.logsumexp(ad.Tensor(x), axis=1).data
        expected = np.log(np.sum(np.exp(x - x.max(1, keepdims=True)), axis=1)) + x.max(1)
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_logsumexp_gradient(self):
        x = RNG.standard_normal((3, 4)) * 3.0
        check_op(lambda t: ad.tsum(ad.logsumexp(t, axis=1)), x)
        check_op(
            lambda t: ad.tsum(ad.mul(ad.logsumexp(t, axis=0, keepdims=True), 1.5)), x
        )


class TestGatherScatter:
    def test_take_rows_accumulates_repeats(self):
        x = RNG.standard_normal((4, 3))
        idx = np.array([0, 2, 0, 0])
        t = ad.Tensor(x)
        out = ad.tsum(ad.mul(ad.take_rows(t, idx), 2.0))
        ad.backward(out)
        expected = np.zeros_like(x)
        for i in idx:
            expected[i] += 2.0
        np.testing.assert_array_equal(t.grad, expected)

    def test_scatter_rows_roundtrip(self):
        x = RNG.standard_normal((2, 3))
        idx = np.array([3, 1])
        t = ad.Tensor(x)
        scattered = ad.scatter_rows(t, idx, 5)
        assert scattered.data.shape == (5, 3)
        np.testing.assert_array_equal(scattered.data[idx], x)
        ad.backward(ad.tsum(ad.mul(scattered, scattered)))
        np.testing.assert_allclose(t.grad, 2.0 * x)

    def test_gather_gradient_vs_fd(self):
        x = RNG.standard_normal((5, 2))
        idx = np.array([1, 1, 4, 0])
        check_op(lambda t: ad.tsum(ad.mul(ad.take_rows(t, idx), ad.take_rows(t, idx))), x)


class TestGraphStructure:
    def test_diamond_reuse(self):
        # the same node feeds two consumers; gradients must accumulate
        x = np.array([1.5, -0.5])
        t = ad.Tensor(x)
        shared = ad.mul(t, t)
        out = ad.tsum(ad.add(ad.mul(shared, 2.0), ad.mul(shared, 3.0)))
        ad.backward(out)
        np.testing.assert_allclose(t.grad, 10.0 * x)

    def test_same_tensor_twice_in_one_op(self):
        x = np.array([2.0, 3.0])
        t = ad.Tensor(x)
        ad.backward(ad.tsum(ad.mul(t, t)))
        np.testing.assert_allclose(t.grad, 2.0 * x)

    def test_backward_needs_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.Tensor(np.ones(3)))

    def test_operator_sugar(self):
        a, b = ad.Tensor([2.0]), ad.Tensor([4.0])
        out = ad.tsum((a + b) * a - b / a + (-a))
        ad.backward(out)
        assert out.item() == pytest.approx(2.0 * 6.0 - 2.0 - 2.0)

    def test_deep_chain_no_recursion_limit(self):
        t = ad.Tensor(np.ones(2))
        node = t
        for _ in range(5000):
            node = ad.add(node, 1e-6)
        ad.backward(ad.tsum(node))
        np.testing.assert_allclose(t.grad, 1.0)
