"""One-hidden-layer softmax classifier operated on a flat parameter vector.

Everything downstream (quantization, transmission, aggregation) works on a
single float vector, so the model exposes flatten/unflatten and takes the
flat vector everywhere. Shapes are fixed by MlpSpec; no autodiff, the
backward pass is written out.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpSpec",
    "n_params",
    "init_params",
    "unflatten",
    "forward",
    "loss",
    "loss_and_grad",
    "accuracy",
]


@dataclass(frozen=True)
class MlpSpec:
    n_in: int = 784
    n_hidden: int = 20
    n_out: int = 10


def n_params(spec: MlpSpec) -> int:
    return (spec.n_in * spec.n_hidden + spec.n_hidden
            + spec.n_hidden * spec.n_out + spec.n_out)


def init_params(spec: MlpSpec, rng) -> np.ndarray:
    """Uniform +-1/sqrt(fan_in) for each layer, biases included."""
    b1 = 1.0 / np.sqrt(spec.n_in)
    b2 = 1.0 / np.sqrt(spec.n_hidden)
    w1 = rng.uniform(-b1, b1, size=spec.n_in * spec.n_hidden + spec.n_hidden)
    w2 = rng.uniform(-b2, b2, size=spec.n_hidden * spec.n_out + spec.n_out)
    return np.concatenate([w1, w2])


def unflatten(m, spec: MlpSpec):
    """Split the flat vector into (W1, b1, W2, b2)."""
    m = np.asarray(m, dtype=float)
    if m.shape != (n_params(spec),):
        raise ValueError("parameter vector has wrong length")
    i = 0
    w1 = m[i:i + spec.n_in * spec.n_hidden].reshape(spec.n_in, spec.n_hidden)
    i += spec.n_in * spec.n_hidden
    b1 = m[i:i + spec.n_hidden]
    i += spec.n_hidden
    w2 = m[i:i + spec.n_hidden * spec.n_out].reshape(spec.n_hidden, spec.n_out)
    i += spec.n_hidden * spec.n_out
    b2 = m[i:]
    return w1, b1, w2, b2


def forward(m, x, spec: MlpSpec):
    """Class probabilities for a batch x of shape (n, n_in)."""
    w1, b1, w2, b2 = unflatten(m, spec)
    h = np.maximum(x @ w1 + b1, 0.0)
    logits = h @ w2 + b2
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True), h


def _penalized_ce(p, y, m, reg):
    """Mean cross-entropy of probabilities p at labels y plus reg*||m||^2."""
    ce = -np.log(p[np.arange(len(y)), y] + 1e-12).mean()
    return ce + reg * float(m @ m)


def loss(m, x, y, spec: MlpSpec, reg):
    """The loss of loss_and_grad from one forward pass, without a gradient."""
    p, _ = forward(m, x, spec)
    return _penalized_ce(p, y, m, reg)


def loss_and_grad(m, x, y, spec: MlpSpec, reg):
    """Mean cross-entropy plus reg*||m||^2 and its gradient.

    y is a vector of integer labels. The regularizer covers biases too; the
    aggregate "sum over samples" form used upstream is n * this gradient for
    the data term, so local nodes scale accordingly.
    """
    n = len(y)
    w1, b1, w2, b2 = unflatten(m, spec)
    p, h = forward(m, x, spec)
    value = _penalized_ce(p, y, m, reg)

    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dw2 = h.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dh = dlogits @ w2.T
    dh[h <= 0.0] = 0.0
    dw1 = x.T @ dh
    db1 = dh.sum(axis=0)
    grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2]) + 2.0 * reg * m
    return value, grad


def accuracy(m, x, y, spec: MlpSpec) -> float:
    p, _ = forward(m, x, spec)
    return float((p.argmax(axis=1) == y).mean())
