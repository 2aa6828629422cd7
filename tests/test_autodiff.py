import numpy as np
import pytest

from tricenter.autodiff import Tensor, no_grad
from tricenter.errors import ContractError, ShapeError

from gradcheck import HingeKinkError, finite_diff_check
from scalar_oracles import log


def test_add_mul_backward():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    y = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    (x * y).sum().backward()
    np.testing.assert_array_equal(x.grad, [4.0, 5.0, 6.0])
    np.testing.assert_array_equal(y.grad, [1.0, 2.0, 3.0])


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_l2_norm_gradient_analytic():
    # d||x||/dx = x / ||x||; at (3,4) that is (0.6, 0.8)
    x = Tensor([3.0, 4.0], requires_grad=True)
    (x * x).sum().pow(0.5).backward()
    np.testing.assert_allclose(x.grad, [0.6, 0.8], atol=1e-12)


def test_repeated_backward_accumulates():
    x = Tensor([2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    loss.backward()
    np.testing.assert_allclose(x.grad, [8.0])


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * 2.0).backward()


def test_matmul_shape_error():
    a = Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        a.affine(np.ones((2, 3)), np.zeros(3))
    with pytest.raises(ShapeError):
        a.affine(np.ones(3), np.zeros(1))


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(0)

    def loss_fn(a, b, c):
        return (a.affine(b, c).relu() * rng_fixed).sum()

    a0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=(4, 2))
    c0 = rng.normal(size=2)
    rng_fixed = rng.normal(size=(3, 2))
    assert finite_diff_check(loss_fn, [a0, b0, c0]) < 1e-6


def test_broadcast_bias_gradient():
    x = Tensor(np.ones((5, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    ((x + b) * 2.0).sum().backward()
    np.testing.assert_array_equal(b.grad, [10.0, 10.0, 10.0])
    np.testing.assert_array_equal(x.grad, np.full((5, 3), 2.0))


def test_take_accumulates_duplicate_rows():
    x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    x.take([0, 0, 2]).sum().backward()
    np.testing.assert_array_equal(x.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_no_grad_builds_no_graph():
    x = Tensor([1.0], requires_grad=True)
    with no_grad():
        y = x * 3.0
    assert y._parents == () and not y.requires_grad


def test_relu_gradient_zero_at_kink():
    x = Tensor([0.0, -1.0, 2.0], requires_grad=True)
    x.relu().sum().backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_finite_diff_quadratic_is_tiny():
    def loss_fn(v):
        return (v * v).sum()

    err = finite_diff_check(loss_fn, [np.array([0.3, -1.2, 2.0])])
    assert err < 1e-8


def test_finite_diff_flags_hinge_kink():
    def loss_fn(v):
        return v.sum().relu()

    with pytest.raises(HingeKinkError):
        finite_diff_check(loss_fn, [np.array([0.5, -0.5])])


def test_finite_diff_ignores_a_kink_no_input_reaches():
    # relu of a constant at its hinge: the loss is smooth in v all the same
    def loss_fn(v):
        return (v * v).sum() + Tensor(0.0).relu()

    assert finite_diff_check(loss_fn, [np.array([0.3, -1.2])]) < 1e-8


def test_exp_log_chain():
    def loss_fn(v):
        return log(v.exp() + 1.0).sum()

    assert finite_diff_check(loss_fn, [np.array([0.1, -0.7, 1.3])]) < 1e-8


def test_values_stay_finite_through_forward_backward():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    out = x.affine(w, np.zeros(2)).tanh().pow(2.0).sum()
    out.backward()
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()
