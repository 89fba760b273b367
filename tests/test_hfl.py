import math

import numpy as np
import pytest

from fblink import hfl, mlp
from fblink.datasets import synthetic_digits
from fblink.hfl import (CloudModel, add_ldp_noise, edge_aggregate,
                        estimate_sigma_w2, local_gradient,
                        privacy_mi_per_coord, shard_data, train)
from fblink.mlp import MlpSpec, init_params, loss_and_grad, n_params
from fblink.streams import substream

SMALL = MlpSpec(n_in=12, n_hidden=7, n_out=10)


def small_data(seed, n=60):
    rng = substream(seed, 0)
    x = rng.normal(size=(n, SMALL.n_in))
    y = rng.integers(0, SMALL.n_out, size=n)
    return x, y


# ---------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------


def test_shard_data_equal_shards_drop_remainder():
    x = np.arange(23 * 2.0).reshape(23, 2)
    y = np.arange(23)
    shards = shard_data(x, y, 4)
    assert len(shards) == 4
    assert all(len(yk) == 5 for _, yk in shards)
    np.testing.assert_array_equal(shards[3][1], y[15:20])
    with pytest.raises(ValueError):
        shard_data(x, y, 0)
    with pytest.raises(ValueError):
        shard_data(x[:3], y[:3], 4)


def test_local_gradient_scales_by_shard_size():
    x, y = small_data(1)
    m = init_params(SMALL, substream(1, 1))
    g = local_gradient(m, x, y, SMALL, reg=1e-4)
    _, g_mean = loss_and_grad(m, x, y, SMALL, 1e-4)
    np.testing.assert_allclose(g, len(y) * g_mean, rtol=1e-12)


def test_local_gradient_deterministic_across_identical_shards():
    x, y = small_data(2)
    m = init_params(SMALL, substream(2, 1))
    np.testing.assert_array_equal(local_gradient(m, x, y, SMALL, 0.0),
                                  local_gradient(m, x, y, SMALL, 0.0))


def test_local_gradient_finite_differences():
    # sum-over-samples gradient against a central difference of the summed
    # loss, 50 coordinates, h = 1e-5, 1e-4 relative
    x, y = small_data(3, n=30)
    m = init_params(SMALL, substream(3, 1))
    reg = 5e-5
    g = local_gradient(m, x, y, SMALL, reg)
    h = 1e-5
    s = len(y)
    for j in substream(3, 2).choice(len(m), size=50, replace=False):
        e = np.zeros_like(m)
        e[j] = h
        lp, _ = loss_and_grad(m + e, x, y, SMALL, reg)
        lm, _ = loss_and_grad(m - e, x, y, SMALL, reg)
        fd = s * (lp - lm) / (2.0 * h)
        assert abs(fd - g[j]) <= 1e-4 * max(abs(fd), 1e-6)


def test_ldp_noise_zero_variance_is_identity_copy():
    w = np.arange(5.0)
    out = add_ldp_noise(w, 0.0, substream(0, 0))
    np.testing.assert_array_equal(out, w)
    assert out is not w
    with pytest.raises(ValueError):
        add_ldp_noise(w, -1.0, substream(0, 0))


def test_ldp_noise_moments():
    w = np.zeros(200000)
    out = add_ldp_noise(w, 0.7, substream(4, 0))
    assert abs(np.var(out) / 0.7 - 1.0) < 0.03
    assert abs(np.mean(out)) < 3.0 * math.sqrt(0.7 / len(w))


def test_edge_aggregate_identities():
    rng = substream(5, 0)
    vs = [rng.normal(size=32) for _ in range(6)]
    np.testing.assert_array_equal(edge_aggregate(vs[:1]), vs[0])
    np.testing.assert_allclose(edge_aggregate(vs), np.sum(vs, axis=0),
                               rtol=1e-15)
    np.testing.assert_array_equal(edge_aggregate([np.zeros(4)] * 3),
                                  np.zeros(4))


def test_estimate_sigma_w2_plugin_consistency():
    # W_k drawn from the postulated model must recover sigma_w2 within 3%
    q, users = 10000, 10
    sw2 = 0.37
    rng = substream(6, 0)
    sizes = [60 + 10 * k for k in range(users)]
    ws = [rng.normal(scale=math.sqrt(s * sw2), size=q) for s in sizes]
    est = estimate_sigma_w2(ws, sizes)
    assert abs(est / sw2 - 1.0) < 0.03


def test_estimate_sigma_w2_exact_properties():
    assert estimate_sigma_w2([np.zeros(8)], [5]) == 0.0
    w = substream(7, 0).normal(size=64)
    base = estimate_sigma_w2([w], [4])
    assert estimate_sigma_w2([3.0 * w], [4]) == pytest.approx(9.0 * base,
                                                              rel=1e-12)


def test_cloud_update_identities():
    # lr 0 and a zero aggregate each keep the parameters; otherwise the step
    # is params - (lr/s_total)*aggregate
    x, y = small_data(17, n=20)
    q = n_params(SMALL)
    m0 = init_params(SMALL, substream(3, 6, 0))  # DOMAIN_INIT = 6
    for lr, agg in ((0.0, np.ones(q)), (1.0, np.zeros(q))):
        cloud = CloudModel(x, y, SMALL, lr, 10, seed=3)
        np.testing.assert_array_equal(cloud.params, m0)
        assert cloud.step(0, agg) == mlp.accuracy(m0, x, y, SMALL)
        np.testing.assert_array_equal(cloud.params, m0)
    cloud = CloudModel(x, y, SMALL, 0.5, 10, seed=3)
    cloud.step(0, np.full(q, 20.0))
    np.testing.assert_allclose(cloud.params, m0 - 1.0, rtol=1e-15)


def test_privacy_mi_examples():
    assert privacy_mi_per_coord(0.0, 100, 10, 0.5) == 0.0
    # s_total*sigma_w2 == K*sigma2 -> exactly half a bit
    assert privacy_mi_per_coord(0.05, 100, 10, 0.5) == pytest.approx(0.5)
    assert math.isinf(privacy_mi_per_coord(0.1, 100, 10, 0.0))


def test_privacy_mi_gaussian_cross_check():
    # closed form against a covariance estimate on simulated draws
    s_total, users, sw2, s2 = 100, 10, 0.004, 0.5
    rng = substream(8, 0)
    n = 1_000_000
    w = rng.normal(scale=math.sqrt(s_total * sw2), size=n)
    wp = w + rng.normal(scale=math.sqrt(users * s2), size=n)
    est = 0.5 * math.log2(np.var(wp) / np.var(wp - w))
    closed = privacy_mi_per_coord(sw2, s_total, users, s2)
    assert abs(closed - est) <= 0.02


def test_privacy_mi_strictly_decreasing_in_sigma2():
    grid = np.geomspace(0.01, 10.0, 25)
    vals = [privacy_mi_per_coord(0.01, 100, 10, s2) for s2 in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------


def run_to_end(*args, **kwargs):
    """The last model of a train run and every round's record."""
    params, records = None, []
    for params, rec in train(*args, **kwargs):
        records.append(rec)
    return params, records


def test_one_noiseless_round_equals_centralized_step():
    x, y = small_data(9, n=60)
    params, _ = run_to_end(x, y, x, y, SMALL, n_users=6, n_rounds=1, lr=0.7,
                           reg=1e-4, sigma2=0.0, seed=123)
    m0 = init_params(SMALL, substream(123, 6, 0))  # DOMAIN_INIT = 6
    _, g = loss_and_grad(m0, x, y, SMALL, 1e-4)
    np.testing.assert_allclose(params, m0 - 0.7 * g, atol=1e-9)


def test_noiseless_trajectory_matches_centralized_descent():
    x, y = small_data(10, n=60)
    rounds = 8
    params, _ = run_to_end(x, y, x, y, SMALL, n_users=6, n_rounds=rounds,
                           lr=0.5, reg=5e-5, sigma2=0.0, seed=77)
    m = init_params(SMALL, substream(77, 6, 0))
    for _ in range(rounds):
        _, g = loss_and_grad(m, x, y, SMALL, 5e-5)
        m = m - 0.5 * g
    np.testing.assert_allclose(params, m, atol=1e-6)


def test_transport_injection_is_paired():
    # identity transport reproduces the baseline exactly: same init, same
    # local noise substreams
    x, y = small_data(11, n=60)
    kw = dict(n_users=6, n_rounds=4, lr=0.5, reg=5e-5, sigma2=0.3, seed=99)
    base, base_rounds = run_to_end(x, y, x, y, SMALL, **kw)
    ident, ident_rounds = run_to_end(
        x, y, x, y, SMALL, transmit_fn=lambda a, t, s: (a, {}), **kw)
    np.testing.assert_array_equal(base, ident)
    for rb, ri in zip(base_rounds, ident_rounds):
        assert rb.sigma_w2_hat == ri.sigma_w2_hat
        assert rb.test_accuracy == ri.test_accuracy


def test_transport_is_handed_the_round_source_var():
    x, y = small_data(14, n=60)
    handed = []

    def recording(agg, t, source_var):
        handed.append(source_var)
        return agg, {}

    _, rounds = run_to_end(x, y, x, y, SMALL, n_users=6, n_rounds=3, lr=0.5,
                           reg=5e-5, sigma2=0.3, seed=21,
                           transmit_fn=recording)
    assert handed == [rec.source_var for rec in rounds]


@pytest.mark.parametrize("sigma2", [0.3, 1e308])
def test_non_finite_round_stops_before_the_transport(sigma2):
    # lr 1e300 throws the model far off in round 0's step, and the loss
    # after it overflows: the transport saw round 0's finite aggregate, and
    # no other. A noise variance of 1e308 sums to an infinite source
    # variance in round 0, which no transport sees. The baseline stops at
    # the same fault, and no RuntimeWarning is printed on the way.
    x, y = small_data(15, n=60)
    kw = dict(n_users=6, n_rounds=30, lr=1e300, reg=5e-5, sigma2=sigma2,
              seed=4)
    fault, sent = (("round 0's aggregate is not finite", []) if sigma2 > 1.0
                   else (r"round 0's model math failed \(overflow", [0]))
    handed = []

    def recording(agg, t, source_var):
        handed.append(t)
        return agg, {}

    for fn in (None, recording):
        with pytest.raises(FloatingPointError, match=fault):
            run_to_end(x, y, x, y, SMALL, transmit_fn=fn, **kw)
    assert handed == sent


def test_model_math_fault_raises_before_the_transport():
    # reg 1e300 overflows round 0's gradient power estimate, which warned
    # before the round's finiteness check stopped it
    x, y = small_data(15, n=60)
    handed = []

    def recording(agg, t, source_var):
        handed.append(t)
        return agg, {}

    with pytest.raises(FloatingPointError,
                       match="round 0's model math failed"):
        run_to_end(x, y, x, y, SMALL, n_users=6, n_rounds=3, lr=0.5,
                   reg=1e300, sigma2=0.3, seed=4, transmit_fn=recording)
    assert handed == []


def test_train_steps_its_cloud_model_once_per_round(monkeypatch):
    # the loop's update and accuracy are CloudModel.step's, called once per
    # round
    x, y = small_data(18, n=60)
    steps = []
    step = CloudModel.step

    def spy(self, t, aggregate):
        steps.append((t, step(self, t, aggregate)))
        return steps[-1][1]

    monkeypatch.setattr(CloudModel, "step", spy)
    _, rounds = run_to_end(x, y, x, y, SMALL, n_users=6, n_rounds=3, lr=0.5,
                           reg=5e-5, sigma2=0.3, seed=6)
    assert steps == [(rec.round_index, rec.test_accuracy) for rec in rounds]
    assert len(steps) == 3


def test_tag_diversifies_runs():
    x, y = small_data(12, n=60)
    kw = dict(n_users=6, n_rounds=2, lr=0.5, reg=5e-5, sigma2=0.3, seed=99)
    a, _ = run_to_end(x, y, x, y, SMALL, tag=0, **kw)
    b, _ = run_to_end(x, y, x, y, SMALL, tag=1, **kw)
    assert not np.array_equal(a, b)


def test_eavesdropper_shadow_model():
    # the shadow starts at the run's initial point and takes the public
    # update step on whatever she decodes; all-zero decodes keep it there
    x, y = small_data(13, n=60)
    kw = dict(n_users=6, n_rounds=3, lr=0.5, reg=0.0, sigma2=0.0, seed=5)
    run, run_rounds = run_to_end(x, y, x, y, SMALL, **kw)
    shadow = CloudModel(x, y, SMALL, 0.5, 60, seed=5)
    init = init_params(SMALL, substream(5, 6, 0))
    np.testing.assert_array_equal(shadow.params, init)
    zero = np.zeros(n_params(SMALL))
    acc = [shadow.step(t, zero) for t in range(3)]
    np.testing.assert_array_equal(shadow.params, init)
    assert acc == [mlp.accuracy(init, x, y, SMALL)] * 3
    # handed the run's own decodes, she holds the run's model
    aggs = []
    run_again, _ = run_to_end(x, y, x, y, SMALL, transmit_fn=lambda a, t, s: (
        aggs.append(a) or a, {}), **kw)
    np.testing.assert_array_equal(run_again, run)
    shadow = CloudModel(x, y, SMALL, 0.5, 60, seed=5)
    acc = [shadow.step(t, a) for t, a in enumerate(aggs)]
    np.testing.assert_array_equal(shadow.params, run)
    assert acc == [rec.test_accuracy for rec in run_rounds]
    # a diverging step is a fault naming her round
    with pytest.raises(FloatingPointError, match="round 7's model math"):
        shadow.step(7, np.full(n_params(SMALL), 1e308))


def test_train_runs_one_round_per_step_until_closed(monkeypatch):
    # train does no work before its first step and one round per step, and
    # once closed after round k it runs no round k+1: no transport and no
    # local gradient of it
    x, y = small_data(16, n=60)
    kw = dict(n_users=6, n_rounds=3, lr=0.5, reg=5e-5, sigma2=0.3, seed=8)
    handed = []
    steps = train(x, y, x, y, SMALL, transmit_fn=lambda a, t, s: (
        handed.append(t) or a, {}), **kw)
    assert handed == []
    for t, (_, rec) in enumerate(steps):
        assert handed == list(range(t + 1)) and rec.round_index == t
    assert handed == [0, 1, 2]
    grads = []
    local = hfl.local_gradient
    monkeypatch.setattr(hfl, "local_gradient",
                        lambda *args: grads.append(1) or local(*args))
    for k in range(3):
        handed, grads[:] = [], []
        steps = train(x, y, x, y, SMALL, transmit_fn=lambda a, t, s: (
            handed.append(t) or a, {}), **kw)
        for _ in range(k + 1):
            next(steps)
        steps.close()
        assert next(steps, None) is None
        assert handed == list(range(k + 1))
        assert len(grads) == (k + 1) * kw["n_users"]


def test_utility_identity_aggregate_noise_power():
    # (1/qT) sum E||eta_t||^2 = K*sigma2 within 3%
    q, users, s2, rounds = 4000, 10, 0.6, 5
    total = 0.0
    for t in range(rounds):
        noisy = [add_ldp_noise(np.zeros(q), s2, substream(14, 4, 0, t, k))
                 for k in range(users)]
        eta = edge_aggregate(noisy)
        total += float(eta @ eta)
    assert abs(total / (q * rounds) / (users * s2) - 1.0) < 0.03


def test_gradient_variance_decays_after_warmup():
    # the trend claim: 5-round moving average of sigma_w2_hat peaks early
    # and never rises afterwards on the desk-scale task
    x_tr, y_tr, x_te, y_te = synthetic_digits(500, 100, seed=20)
    spec = MlpSpec(784, 20, 10)
    _, rounds = run_to_end(x_tr, y_tr, x_te, y_te, spec, n_users=10,
                           n_rounds=30, lr=1.0, reg=5e-5, sigma2=0.5, seed=20)
    sw = np.array([r.sigma_w2_hat for r in rounds])
    ma = np.convolve(sw, np.ones(5) / 5.0, mode="valid")
    peak = int(ma.argmax())
    assert peak <= 5
    assert np.all(np.diff(ma[peak:]) <= 1e-12)
    assert sw[-5:].mean() < 0.1 * sw[:5].mean()
    # training made progress while the variance decayed
    assert rounds[-1].test_accuracy > 0.8
