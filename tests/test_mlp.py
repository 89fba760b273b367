import math

import numpy as np
import pytest

from fblink import mlp
from fblink.mlp import (MlpSpec, accuracy, forward, init_params, loss,
                        loss_and_grad, n_params, unflatten)
from fblink.streams import substream

SMALL = MlpSpec(n_in=12, n_hidden=7, n_out=10)


def small_batch(seed, n=40, spec=SMALL):
    rng = substream(seed, 0)
    x = rng.normal(size=(n, spec.n_in))
    y = rng.integers(0, spec.n_out, size=n)
    return x, y


def test_param_count_default_spec():
    assert n_params(MlpSpec()) == 15910


def test_init_bounds_and_determinism():
    spec = MlpSpec()
    m = init_params(spec, substream(0, 0))
    cut = spec.n_in * spec.n_hidden + spec.n_hidden
    assert np.abs(m[:cut]).max() <= 1.0 / math.sqrt(spec.n_in)
    assert np.abs(m[cut:]).max() <= 1.0 / math.sqrt(spec.n_hidden)
    np.testing.assert_array_equal(m, init_params(spec, substream(0, 0)))


def test_unflatten_shapes_and_inverse():
    m = init_params(SMALL, substream(1, 0))
    w1, b1, w2, b2 = unflatten(m, SMALL)
    assert w1.shape == (12, 7) and b1.shape == (7,)
    assert w2.shape == (7, 10) and b2.shape == (10,)
    back = np.concatenate([w1.ravel(), b1, w2.ravel(), b2])
    np.testing.assert_array_equal(back, m)
    with pytest.raises(ValueError):
        unflatten(m[:-1], SMALL)


def test_forward_rows_are_distributions():
    m = init_params(SMALL, substream(2, 0))
    x, _ = small_batch(2)
    p, h = forward(m, x, SMALL)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(p >= 0)
    assert np.all(h >= 0)


def test_zero_weights_give_uniform_softmax_and_log10_loss():
    m = np.zeros(n_params(SMALL))
    x, y = small_batch(3)
    p, _ = forward(m, x, SMALL)
    np.testing.assert_allclose(p, 0.1, rtol=1e-12)
    loss, _ = loss_and_grad(m, x, y, SMALL, reg=0.0)
    assert loss == pytest.approx(math.log(10.0), rel=1e-9)


def test_regularizer_contribution():
    m = init_params(SMALL, substream(4, 0))
    x, y = small_batch(4)
    l0, _ = loss_and_grad(m, x, y, SMALL, reg=0.0)
    l1, _ = loss_and_grad(m, x, y, SMALL, reg=5e-5)
    assert l1 - l0 == pytest.approx(5e-5 * float(m @ m), rel=1e-9)


def test_loss_is_the_loss_of_loss_and_grad():
    # hfl.train reports this loss every round; it must not move a bit
    for seed, reg in ((6, 0.0), (7, 5e-5)):
        m = init_params(MlpSpec(), substream(seed, 0))
        x, y = small_batch(seed, n=200, spec=MlpSpec())
        assert loss(m, x, y, MlpSpec(), reg) == loss_and_grad(
            m, x, y, MlpSpec(), reg)[0]


def test_gradient_matches_central_differences():
    m = init_params(SMALL, substream(5, 0))
    x, y = small_batch(5)
    reg = 5e-5
    _, g = loss_and_grad(m, x, y, SMALL, reg)
    h = 1e-5
    idx = substream(5, 1).choice(len(m), size=50, replace=False)
    for j in idx:
        e = np.zeros_like(m)
        e[j] = h
        lp, _ = loss_and_grad(m + e, x, y, SMALL, reg)
        lm, _ = loss_and_grad(m - e, x, y, SMALL, reg)
        fd = (lp - lm) / (2.0 * h)
        assert abs(fd - g[j]) <= 1e-4 * max(abs(fd), 1e-8)


def test_descent_on_separable_problem():
    rng = substream(6, 0)
    spec = MlpSpec(n_in=10, n_hidden=8, n_out=4)
    centers = rng.normal(scale=3.0, size=(4, 10))
    y = rng.integers(0, 4, size=120)
    x = centers[y] + rng.normal(scale=0.3, size=(120, 10))
    m = init_params(spec, substream(6, 1))
    losses = []
    for _ in range(50):
        loss, g = loss_and_grad(m, x, y, spec, reg=0.0)
        losses.append(loss)
        m = m - 0.5 * g
    assert losses[-1] < 0.2 * losses[0]
    assert accuracy(m, x, y, spec) > 0.95


def test_accuracy_on_known_classifier():
    # identity-ish map: class = argmax of the input coordinate
    spec = MlpSpec(n_in=10, n_hidden=10, n_out=10)
    w1 = np.eye(10) * 5.0
    w2 = np.eye(10) * 5.0
    m = np.concatenate([w1.ravel(), np.zeros(10), w2.ravel(), np.zeros(10)])
    x = np.eye(10)
    y = np.arange(10)
    assert accuracy(m, x, y, spec) == 1.0
