"""Image/label loading for the learning experiments.

Reads the classic big-endian IDX files from a directory that holds all four;
with no directory configured it uses a synthetic 10-class Gaussian mixture
with the same shapes, so every experiment runs in a sealed environment. The
mixture is deliberately easy enough that a small classifier learns it in a
few dozen full-batch rounds, matching the role the real digits play in the
experiments.
"""

import math
import os
import struct

import numpy as np

from .streams import DOMAIN_DATA, substream

__all__ = ["load_idx_images", "load_idx_labels", "synthetic_digits",
           "load_dataset"]

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049
# the synthetic mixture's shapes, those of the IDX digits
_N_FEATURES, _N_CLASSES = 784, 10


def _read_idx(path, magic, n_dims):
    """The dimensions and the uint8 payload of an IDX file; a wrong magic
    number, or fewer bytes than the header promises, raises ValueError."""
    with open(path, "rb") as f:
        raw = f.read()
    head = 4 * (1 + n_dims)
    if len(raw) < head:
        raise ValueError("truncated IDX header in %s" % path)
    found, *dims = struct.unpack_from(">%dI" % (1 + n_dims), raw)
    if found != magic:
        raise ValueError("not an IDX file: magic %d, expected %d"
                         % (found, magic))
    size = math.prod(dims)
    if len(raw) - head < size:
        raise ValueError("truncated IDX file %s: %d of %d payload bytes"
                         % (path, len(raw) - head, size))
    return dims, np.frombuffer(raw, dtype=np.uint8, count=size, offset=head)


def load_idx_images(path) -> np.ndarray:
    """Images as floats in [0, 1], flattened to (n, rows*cols)."""
    (n, rows, cols), data = _read_idx(path, _IDX_IMAGES_MAGIC, 3)
    return data.reshape(n, rows * cols).astype(float) / 255.0


def load_idx_labels(path) -> np.ndarray:
    _, data = _read_idx(path, _IDX_LABELS_MAGIC, 1)
    return data.astype(np.int64)


def synthetic_digits(n_train, n_test, seed):
    """Sparse stroke-pattern stand-in with IDX-like shapes and value range.

    Each class lights a random ~11% subset of pixels at high intensity over a
    dark background, like a thresholded digit. Sparsity matters, not just
    separability: with dense all-positive inputs, full-batch descent at unit
    step kills ReLU units wholesale and training flatlines, which real digits
    do not do.
    """
    rng = substream(seed, DOMAIN_DATA)
    means = np.zeros((_N_CLASSES, _N_FEATURES))
    n_on = int(0.11 * _N_FEATURES)
    for c in range(_N_CLASSES):
        means[c, rng.choice(_N_FEATURES, n_on, replace=False)] = 0.8

    def draw(n):
        y = rng.integers(0, _N_CLASSES, size=n)
        x = means[y] + rng.normal(scale=0.25, size=(n, _N_FEATURES))
        return np.clip(x, 0.0, 1.0), y

    x_tr, y_tr = draw(n_train)
    x_te, y_te = draw(n_test)
    return x_tr, y_tr, x_te, y_te


def load_dataset(data_dir, n_train, n_test, seed):
    """IDX files from data_dir, or the synthetic mixture when it is empty.

    Expects train-images-idx3-ubyte / train-labels-idx1-ubyte (and the t10k
    pair) inside data_dir; any of them missing raises FileNotFoundError.
    Subsampling to n_train/n_test keeps desk-scale runs fast. Files holding
    fewer rows than that, or image and label counts that differ, raise
    ValueError.
    """
    names = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    if data_dir:
        paths = [os.path.join(data_dir, n) for n in names]
        missing = [p for p in paths if not os.path.exists(p)]
        if missing:
            raise FileNotFoundError("IDX files not found: %s" % missing)
        x_tr, x_te = (load_idx_images(p) for p in paths[0::2])
        y_tr, y_te = (load_idx_labels(p) for p in paths[1::2])
        if len(x_tr) != len(y_tr) or len(x_te) != len(y_te):
            raise ValueError("IDX image and label counts differ under %r"
                             % data_dir)
        if len(y_tr) < n_train or len(y_te) < n_test:
            raise ValueError(
                "IDX files under %r hold %d training and %d test rows, "
                "fewer than n_train=%d or n_test=%d"
                % (data_dir, len(y_tr), len(y_te), n_train, n_test))
        rng = substream(seed, DOMAIN_DATA)
        tr = rng.permutation(len(y_tr))[:n_train]
        te = rng.permutation(len(y_te))[:n_test]
        return x_tr[tr], y_tr[tr], x_te[te], y_te[te]
    return synthetic_digits(n_train, n_test, seed)
