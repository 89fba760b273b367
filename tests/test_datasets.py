import os
import shutil
import struct

import numpy as np
import pytest

from fblink.datasets import (load_dataset, load_idx_images, load_idx_labels,
                             synthetic_digits)


def write_idx_pair(dirpath, prefix, images, labels):
    n, rows, cols = images.shape
    with open(os.path.join(dirpath, prefix + "-images-idx3-ubyte"), "wb") as f:
        f.write(struct.pack(">IIII", 2051, n, rows, cols))
        f.write(images.astype(np.uint8).tobytes())
    with open(os.path.join(dirpath, prefix + "-labels-idx1-ubyte"), "wb") as f:
        f.write(struct.pack(">II", 2049, n))
        f.write(labels.astype(np.uint8).tobytes())


def test_idx_roundtrip(tmp_path):
    imgs = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(3, 2, 2)
    labs = np.array([1, 0, 9], dtype=np.uint8)
    write_idx_pair(tmp_path, "train", imgs, labs)
    x = load_idx_images(os.path.join(tmp_path, "train-images-idx3-ubyte"))
    y = load_idx_labels(os.path.join(tmp_path, "train-labels-idx1-ubyte"))
    assert x.shape == (3, 4)
    np.testing.assert_allclose(x * 255.0, imgs.reshape(3, 4), atol=1e-12)
    np.testing.assert_array_equal(y, labs)
    assert y.dtype == np.int64


def test_idx_magic_checked(tmp_path):
    p = os.path.join(tmp_path, "bogus")
    with open(p, "wb") as f:
        f.write(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(ValueError, match="magic"):
        load_idx_images(p)
    with pytest.raises(ValueError, match="magic"):
        load_idx_labels(p)


def test_idx_byte_count_checked(tmp_path):
    write_idx_pair(tmp_path, "train", np.zeros((3, 2, 2)), np.zeros(3))
    for name, load in (("train-images-idx3-ubyte", load_idx_images),
                       ("train-labels-idx1-ubyte", load_idx_labels)):
        p = os.path.join(tmp_path, name)
        with open(p, "rb") as f:
            raw = f.read()
        for cut in (len(raw) - 1, 6):
            with open(p, "wb") as f:
                f.write(raw[:cut])
            with pytest.raises(ValueError, match="truncated"):
                load(p)


def test_synthetic_shapes_and_ranges():
    x_tr, y_tr, x_te, y_te = synthetic_digits(200, 50, seed=3)
    assert x_tr.shape == (200, 784) and x_te.shape == (50, 784)
    assert y_tr.shape == (200,) and y_te.shape == (50,)
    assert x_tr.min() >= 0.0 and x_tr.max() <= 1.0
    assert set(np.unique(y_tr)) <= set(range(10))


def test_synthetic_is_sparse_and_deterministic():
    x_tr, _, _, _ = synthetic_digits(300, 10, seed=4)
    # background pixels clip to zero often; strokes stay a small fraction
    assert (x_tr == 0.0).mean() > 0.25
    again = synthetic_digits(300, 10, seed=4)[0]
    np.testing.assert_array_equal(x_tr, again)
    other = synthetic_digits(300, 10, seed=5)[0]
    assert not np.array_equal(x_tr, other)


def test_load_dataset_prefers_idx_files(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    labs = rng.integers(0, 10, size=30, dtype=np.uint8)
    write_idx_pair(tmp_path, "train", imgs, labs)
    write_idx_pair(tmp_path, "t10k", imgs[:10], labs[:10])
    x_tr, y_tr, x_te, y_te = load_dataset(str(tmp_path), 20, 5, seed=1)
    assert x_tr.shape == (20, 784) and x_te.shape == (5, 784)
    # subsample of the real rows, not synthetic
    flat = imgs.reshape(30, 784).astype(float) / 255.0
    assert all(any(np.array_equal(r, f) for f in flat) for r in x_tr)


def test_load_dataset_refuses_mismatched_counts(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(30, 28, 28), dtype=np.uint8)
    labs = rng.integers(0, 10, size=30, dtype=np.uint8)
    write_idx_pair(tmp_path, "t10k", imgs, labs)
    write_idx_pair(tmp_path, "train", imgs[:20], labs[:20])
    # 30 test images over the 20 training labels
    shutil.copy(os.path.join(tmp_path, "train-labels-idx1-ubyte"),
                os.path.join(tmp_path, "t10k-labels-idx1-ubyte"))
    with pytest.raises(ValueError, match="counts differ"):
        load_dataset(str(tmp_path), 10, 5, seed=1)


def test_load_dataset_refuses_missing_files(tmp_path):
    # a typo or a missing directory is an error, never a silent synthetic run
    with pytest.raises(FileNotFoundError, match="not found") as err:
        load_dataset(str(tmp_path / "nope"), 50, 10, seed=2)
    assert "train-images-idx3-ubyte" in str(err.value)
    assert "t10k-labels-idx1-ubyte" in str(err.value)
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(60, 28, 28), dtype=np.uint8)
    labs = rng.integers(0, 10, size=60, dtype=np.uint8)
    write_idx_pair(tmp_path, "train", imgs, labs)
    write_idx_pair(tmp_path, "t10k", imgs, labs)
    (tmp_path / "t10k-labels-idx1-ubyte").unlink()
    with pytest.raises(FileNotFoundError) as err:
        load_dataset(str(tmp_path), 50, 10, seed=2)
    assert "t10k-labels-idx1-ubyte" in str(err.value)
    assert "train-images-idx3-ubyte" not in str(err.value)


def test_load_dataset_silent_synthetic_without_dir():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x_tr, _, _, _ = load_dataset(None, 50, 10, seed=2)
        x_empty, _, _, _ = load_dataset("", 50, 10, seed=2)
    assert x_tr.shape == (50, 784)
    np.testing.assert_array_equal(x_empty, x_tr)
