"""Edge-aggregated federated gradient descent with local DP noise.

One edge serves n_users nodes holding equal data shards. Each round every
node sends the sum-over-samples gradient of the regularized cross-entropy at
the current model plus white Gaussian noise of variance sigma2 per
coordinate; the edge sums them and forwards one aggregate vector to the
cloud, which applies a plain gradient step scaled by the total sample count.

The transport between edge and cloud is injected (transmit_fn), so the same
loop runs the error-free baseline, the quantize-and-transmit chain, or any
test double. Local noise is drawn from substreams keyed (seed, round, user)
so runs that differ only in transport see identical noise.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import mlp
from .streams import DOMAIN_INIT, DOMAIN_LDP, substream

__all__ = [
    "shard_data",
    "local_gradient",
    "add_ldp_noise",
    "edge_aggregate",
    "estimate_sigma_w2",
    "cloud_update",
    "privacy_mi_per_coord",
    "RoundRecord",
    "TrainResult",
    "train",
]


def shard_data(x, y, n_users):
    """Split into n_users equal shards, dropping the remainder."""
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    per = len(y) // n_users
    if per == 0:
        raise ValueError("fewer samples than users")
    return [(x[k * per:(k + 1) * per], y[k * per:(k + 1) * per])
            for k in range(n_users)]


def local_gradient(m, x_k, y_k, spec, reg):
    """Sum-over-samples gradient of the regularized loss at m."""
    _, g = mlp.loss_and_grad(m, x_k, y_k, spec, reg)
    return len(y_k) * g


def add_ldp_noise(w, sigma2, rng):
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be >= 0")
    if sigma2 == 0.0:
        return np.array(w, dtype=float, copy=True)
    return w + rng.normal(scale=math.sqrt(sigma2), size=len(w))


def edge_aggregate(noisy_locals):
    return np.sum(noisy_locals, axis=0)


def estimate_sigma_w2(locals_, shard_sizes):
    """Per-sample, per-coordinate gradient power from the local sums.

    Under the white model a node's sum over s samples has coordinate variance
    s*sigma_w2, so each node contributes ||W_k||^2/(q*s_k) and the edge
    averages. Callers pass the pre-noise locals; the noise floor is accounted
    separately wherever the total source variance is formed.
    """
    locals_ = [np.asarray(w, dtype=float) for w in locals_]
    q = len(locals_[0])
    vals = [float(w @ w) / (q * s) for w, s in zip(locals_, shard_sizes)]
    return float(np.mean(vals))


def cloud_update(m, aggregate, lr, s_total):
    """Gradient step from the decoded sum: m - (lr/s_total)*aggregate."""
    return m - (lr / s_total) * np.asarray(aggregate, dtype=float)


def privacy_mi_per_coord(sigma_w2, s_total, n_users, sigma2):
    """Leakage cap, bits per coordinate, of the noisy aggregate about the
    clean one: 0.5*log2(1 + s_total*sigma_w2/(n_users*sigma2))."""
    if sigma2 <= 0.0:
        return math.inf
    return 0.5 * math.log2(1.0 + s_total * sigma_w2 / (n_users * sigma2))


@contextlib.contextmanager
def _model_math(t):
    """numpy's overflow, invalid value and division by zero raise inside, as
    a FloatingPointError naming round t."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as e:
        raise FloatingPointError(
            "round %d's model math failed (%s): the model diverged or its "
            "noise overflowed" % (t, e)) from None


@dataclass
class RoundRecord:
    round_index: int
    train_loss: float
    test_accuracy: float
    sigma_w2_hat: float
    source_var: float
    mi_per_coord: float
    utility_noise: float
    stats: dict = field(default_factory=dict)


@dataclass
class TrainResult:
    params: np.ndarray
    rounds: list
    eve_params: np.ndarray | None = None
    eve_accuracy: list = field(default_factory=list)


def train(x_train, y_train, x_test, y_test, spec, n_users, n_rounds, lr, reg,
          sigma2, seed, transmit_fn=None, tag=0):
    """Run the full loop and return the model plus per-round records.

    transmit_fn, when given, is called once per round as
    transmit_fn(aggregate, round_index, source_var), source_var being the
    round's RoundRecord.source_var, and returns (decoded_aggregate,
    eve_aggregate_or_None, stats_dict). None means the edge-to-cloud hop is
    error-free and the aggregate passes through unchanged. When any round
    reports an eavesdropped aggregate, a shadow model is updated with it from
    the same initial point: that is what an observer applying the public
    update rule to her own decodes would hold.

    tag diversifies the init and noise substreams across repetitions; two
    runs with the same (seed, tag) that differ only in transmit_fn share
    their initial point and every local noise draw, which is what makes
    coded-versus-clean comparisons paired.

    The model math of every round runs with numpy's overflow, invalid value
    and division by zero raised, and a round whose aggregate or source_var
    is not finite raises before transmit_fn sees it: a diverging run stops
    at its first fault with a FloatingPointError naming the round, whatever
    its transport. transmit_fn runs outside this, under its own checks.
    """
    shards = shard_data(x_train, y_train, n_users)
    s_total = sum(len(yk) for _, yk in shards)
    m = mlp.init_params(spec, substream(seed, DOMAIN_INIT, tag))
    m_eve = None
    records = []
    eve_acc = []
    for t in range(n_rounds):
        with _model_math(t):
            locals_ = [local_gradient(m, xk, yk, spec, reg)
                       for xk, yk in shards]
            noisy = [add_ldp_noise(w, sigma2,
                                   substream(seed, DOMAIN_LDP, tag, t, k))
                     for k, w in enumerate(locals_)]
            agg = edge_aggregate(noisy)
            sigma_w2_hat = estimate_sigma_w2(locals_,
                                             [len(yk) for _, yk in shards])
        # a Python float overflows to inf without a fault
        source_var = s_total * sigma_w2_hat + n_users * sigma2
        if not (math.isfinite(source_var) and np.isfinite(agg).all()):
            raise FloatingPointError(
                "round %d's aggregate is not finite: the model diverged or "
                "its noise overflowed" % t)

        eve_agg = None
        stats = {}
        if transmit_fn is not None:
            agg, eve_agg, stats = transmit_fn(agg, t, source_var)

        with _model_math(t):
            m = cloud_update(m, agg, lr, s_total)
            if eve_agg is not None:
                if m_eve is None:
                    m_eve = mlp.init_params(spec,
                                            substream(seed, DOMAIN_INIT, tag))
                m_eve = cloud_update(m_eve, eve_agg, lr, s_total)
                eve_acc.append(mlp.accuracy(m_eve, x_test, y_test, spec))
            train_loss = float(mlp.loss(m, x_train, y_train, spec, reg))
            test_accuracy = mlp.accuracy(m, x_test, y_test, spec)

        records.append(RoundRecord(
            round_index=t,
            train_loss=train_loss,
            test_accuracy=test_accuracy,
            sigma_w2_hat=sigma_w2_hat,
            source_var=source_var,
            mi_per_coord=privacy_mi_per_coord(sigma_w2_hat, s_total, n_users,
                                              sigma2),
            utility_noise=n_users * sigma2,
            stats=stats,
        ))
    return TrainResult(params=m, rounds=records, eve_params=m_eve,
                       eve_accuracy=eve_acc)
