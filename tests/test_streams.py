import hashlib

import numpy as np
import pytest

from fblink import streams
from fblink.streams import substream

from test_golden import BUMP


def test_same_path_same_draws():
    a = substream(7, 1, 2, 3).normal(size=16)
    b = substream(7, 1, 2, 3).normal(size=16)
    np.testing.assert_array_equal(a, b)


def test_distinct_paths_differ():
    a = substream(7, 1, 2, 3).normal(size=16)
    b = substream(7, 1, 2, 4).normal(size=16)
    c = substream(8, 1, 2, 3).normal(size=16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_creation_order_irrelevant():
    # interleaving draws on one stream must not disturb another
    s1 = substream(11, 5)
    _ = s1.normal(size=100)
    fresh = substream(11, 6).normal(size=8)
    np.testing.assert_array_equal(fresh, substream(11, 6).normal(size=8))


def test_numpy_integers_accepted():
    a = substream(3, np.int64(4)).normal(size=4)
    b = substream(3, 4).normal(size=4)
    np.testing.assert_array_equal(a, b)


def test_negative_path_rejected():
    with pytest.raises(ValueError):
        substream(3, -1)


def test_non_integer_path_rejected():
    with pytest.raises(ValueError):
        substream(3, 1.5)


@pytest.mark.parametrize("key", [(7.9, 1), (-1, 1), (7, True)])
def test_bad_seed_or_bool_path_rejected(key):
    # 7.9 and True would otherwise key the same stream as (7, 1)
    with pytest.raises(ValueError):
        substream(*key)


def test_stream_bytes_pinned():
    # a change of bit generator or of numpy's samplers moves every CSV digest;
    # this pin names the cause in one cheap test
    rng = substream(2026, 2, 0, 0)
    digest = hashlib.sha256()
    for arr in (rng.standard_normal(64), rng.random(64),
                rng.integers(0, 2**40, 16)):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == (
        "c0be99986637b3a4189d76750d89fc10c0495a4982275b4c9ad1768c6d99016b"
    ), BUMP


def test_domain_constants_distinct():
    doms = [v for k, v in vars(streams).items() if k.startswith("DOMAIN_")]
    assert len(doms) == len(set(doms))
