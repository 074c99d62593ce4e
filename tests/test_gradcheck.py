"""The finite-difference harness itself (the full suite runs in the
acceptance gate)."""

import numpy as np

from bnlab.gradcheck import numerical_gradient, relative_error


def test_numerical_gradient_on_quadratic():
    a = np.array([1.0, -2.0, 3.0])

    def f(x):
        return float((a * x * x).sum())

    x0 = np.array([0.5, 1.5, -1.0])
    grad = numerical_gradient(f, x0.copy())
    np.testing.assert_allclose(grad, 2 * a * x0, atol=1e-8)


def test_numerical_gradient_preserves_shape():
    def f(x):
        return float(np.sin(x).sum())

    x0 = np.linspace(0, 1, 12).reshape(2, 3, 2)
    grad = numerical_gradient(f, x0.copy())
    assert grad.shape == x0.shape
    np.testing.assert_allclose(grad, np.cos(x0), atol=1e-8)


def test_relative_error_scale_awareness():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    # deviations are scaled by the larger magnitude (floored at 1)
    assert relative_error(np.array([1000.0]), np.array([1001.0])) < 2e-3
    assert relative_error(np.array([0.0]), np.array([1e-3])) == 1e-3


def test_numerical_gradient_restores_its_array_bit_for_bit():
    # check-grad perturbs live inputs and parameters in place; values whose
    # +-h perturbation rounds, a negative zero and a strided view
    base = np.random.default_rng(0).standard_normal((4, 6)) * 1e3
    base[0, 0] = -0.0
    before = base.copy()
    view = base[:, ::2].T
    grad = numerical_gradient(lambda v: float((v ** 3).sum()), view)
    assert base.tobytes() == before.tobytes()
    np.testing.assert_allclose(grad, 3 * view ** 2, rtol=1e-4)


def test_numerical_gradient_reaches_an_array_the_function_reads():
    # a parameter's loss closes over the array instead of taking it
    a = np.array([[1.0, -2.0], [0.5, 3.0]])
    grad = numerical_gradient(lambda _: float((a * a).sum()), a)
    np.testing.assert_allclose(grad, 2 * a, atol=1e-8)
