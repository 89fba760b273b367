import math

import numpy as np
import pytest

from fblink.analysis import plan_blocklength
from fblink.source_coding import (MAX_CHUNK_BITS, chunk, dequantize,
                                  quantize)
from fblink.streams import substream

from conftest import SNR, SNR_FB, TAU

D = 1e-4


def roundtrip(w, distortion, source_var, seed):
    pay = quantize(w, distortion, source_var, substream(seed, 0))
    return pay, dequantize(pay, substream(seed, 0))


def test_distortion_is_met():
    w = substream(1, 1).normal(size=100000)
    pay, wh = roundtrip(w, D, 1.0, 2)
    mse = float(np.mean((w - wh) ** 2))
    assert mse <= 1.05 * D
    assert mse >= 0.90 * D  # the dither keeps it from beating D either


def test_distortion_met_off_unit_variance():
    for var, seed in ((0.25, 3), (4.0, 4)):
        w = substream(seed, 1).normal(scale=math.sqrt(var), size=50000)
        _, wh = roundtrip(w, D, var, seed)
        assert float(np.mean((w - wh) ** 2)) <= 1.05 * D


def test_accounting_payload():
    w = substream(5, 1).normal(size=1000)
    pay = quantize(w, D, 1.0, substream(5, 0))
    assert pay.accounted_bits == math.ceil(1000 * pay.rate_bits_per_coord)
    assert pay.rate_bits_per_coord == pytest.approx(0.5 * math.log2(1 / D))
    assert pay.physical_bits == 1000 * pay.width_bits
    assert pay.physical_bits >= pay.accounted_bits


def test_zero_rate_when_distortion_covers_source():
    w = substream(6, 1).normal(size=100)
    pay = quantize(w, 2.0, 1.0, substream(6, 0))
    assert pay.physical_bits == 0 and pay.accounted_bits == 0
    np.testing.assert_array_equal(dequantize(pay, None), np.zeros(100))


def test_observer_without_dither_stream_pays_extra_error():
    w = substream(7, 1).normal(size=50000)
    pay = quantize(w, D, 1.0, substream(7, 0))
    wh = dequantize(pay, None)
    mse = float(np.mean((w - wh) ** 2))
    # quantization error plus an unsubtracted uniform dither of variance D
    assert 1.5 * D < mse < 3.0 * D


def test_bit_flip_stays_local():
    w = substream(8, 1).normal(size=64)
    pay = quantize(w, D, 1.0, substream(8, 0))
    flipped = pay.indices.copy()
    coord = 3
    flipped[coord * pay.width_bits + 1] ^= 1
    from dataclasses import replace
    wh_ok = dequantize(pay, substream(8, 0))
    wh_bad = dequantize(replace(pay, indices=flipped), substream(8, 0))
    diff = np.nonzero(wh_ok != wh_bad)[0]
    np.testing.assert_array_equal(diff, [coord])


def test_corrupted_word_saturates_like_encoder():
    w = np.zeros(4)
    pay = quantize(w, D, 1.0, substream(9, 0))
    garbage = np.ones_like(pay.indices)  # all-ones index words
    from dataclasses import replace
    wh = dequantize(replace(pay, indices=garbage), None)
    step = math.sqrt(12.0 * D)
    assert np.all(np.abs(wh) <= pay.k_half * step + step / 2 + 1e-12)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize(np.zeros(4), D, 0.0, substream(0, 0))
    with pytest.raises(ValueError):
        quantize(np.zeros(4), 0.0, 1.0, substream(0, 0))


def test_dequantize_length_check():
    w = substream(10, 1).normal(size=16)
    pay = quantize(w, D, 1.0, substream(10, 0))
    from dataclasses import replace
    with pytest.raises(ValueError):
        dequantize(replace(pay, indices=pay.indices[:-1]), None)


# ---------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------


def _layout(groups):
    return [(g.start, g.count, g.n_bits) for g in groups]


def test_chunk_slicing_and_budget_split():
    groups = chunk(200, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    # ascending chunk size: the 40-bit tail, then both full chunks
    assert _layout(groups) == [(160, 1, 40), (0, 2, MAX_CHUNK_BITS)]
    assert all(g.tau_chunk == TAU / 3 for g in groups)


def test_chunk_plans_match_direct_planning():
    for g in chunk(200, SNR, SNR_FB, 1.0, 1.0, TAU, 256):
        rep = plan_blocklength(g.n_bits, SNR, SNR_FB, 1.0, 1.0, TAU / 3, 256)
        assert (g.n_t, g.rate) == (rep.n_t, rep.rate)


def test_chunk_odd_tail_planned_at_even_budget():
    groups = chunk(119, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    assert _layout(groups) == [(80, 1, 39), (0, 1, 80)]
    rep = plan_blocklength(40, SNR, SNR_FB, 1.0, 1.0, TAU / 2, 256)
    assert (groups[0].n_t, groups[0].rate) == (rep.n_t, rep.rate)


def test_chunk_single_group_layouts():
    # a whole number of full chunks, or a payload shorter than one chunk
    assert _layout(chunk(240, SNR, SNR_FB, 1.0, 1.0, TAU, 256)) \
        == [(0, 3, 80)]
    short = chunk(7, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    assert _layout(short) == [(0, 1, 7)] and short[0].tau_chunk == TAU


def test_chunk_empty_payload():
    assert chunk(0, SNR, SNR_FB, 1.0, 1.0, TAU, 256) == []


def test_chunk_infeasible_returns_none():
    # feedback gain in outage for any blocklength
    assert chunk(200, SNR, SNR_FB, 1.0, 1e-4, TAU, 256) is None


def test_chunk_respects_n_max():
    assert chunk(80, SNR, SNR_FB, 1.0, 1.0, TAU, 4) is None
    # the 1-bit tail fits in 4 uses, but the full chunk does not
    assert chunk(81, SNR, SNR_FB, 1.0, 1.0, TAU, 4) is None


def test_chunk_validation():
    with pytest.raises(ValueError):
        chunk(-1, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
