import itertools
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
    # a diverged model's variance
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            quantize(np.zeros(4), D, bad, substream(0, 0))


def test_far_cells_saturate_with_their_sign():
    # (w + u)/step past the int64 range: cast before the clip, 1e300 came
    # out at the negative end
    p = quantize(np.array([1e300, -1e300, np.inf]), D, 1.0, substream(0, 0))
    assert np.rint(dequantize(p, None) / math.sqrt(12.0 * D)).tolist() == [
        p.k_half, -p.k_half, p.k_half]


def test_quantize_index_width_limit():
    # 5*sqrt(source_var)/step cells on either side of zero, 2^52 - 1 at most:
    # the widest payload has 53-bit indices, and one more cell is refused
    # before any integer index overflows
    step = math.sqrt(12.0 * D)
    widest = ((2 ** 52 - 1) * step / 5.0) ** 2
    p = quantize(np.array([-1e300, 0.0, 1e300]), D, widest, substream(0, 0))
    assert p.width_bits == 53
    assert np.rint(dequantize(p, None) / step).tolist() == [
        -(2 ** 52 - 1), 0, 2 ** 52 - 1]
    for var in (widest * 1.001, 1e301):
        with pytest.raises(OverflowError, match="53-bit"):
            quantize(np.zeros(4), D, var, substream(0, 0))
    with pytest.raises(OverflowError, match="53-bit"):
        quantize(np.zeros(4), 1e-300, 1.0, substream(0, 0))


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
    return [(g.count, g.n_bits) for g in groups]


def test_chunk_slicing_and_budget_split():
    # 200 bits: two full chunks and a 40-bit tail padded to a third
    (grp,) = chunk(200, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    assert (grp.count, grp.n_bits) == (3, MAX_CHUNK_BITS)
    assert grp.tau_chunk == TAU / 3


def test_chunk_plans_match_direct_planning():
    (grp,) = chunk(200, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    rep = plan_blocklength(MAX_CHUNK_BITS, SNR, SNR_FB, 1.0, 1.0, TAU / 3, 256)
    assert grp.n_t == rep.n_t


def test_chunk_odd_tail_planned_at_even_budget():
    # an odd payload shorter than a chunk is padded by one bit to split
    # evenly across the sub-channels; a longer one pads its tail to 80
    (short,) = chunk(39, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    assert (short.count, short.n_bits) == (1, 40)
    assert short.n_t == plan_blocklength(40, SNR, SNR_FB, 1.0, 1.0, TAU,
                                         256).n_t
    assert _layout(chunk(119, SNR, SNR_FB, 1.0, 1.0, TAU, 256)) == [(2, 80)]


def test_chunk_single_group_layouts():
    # a whole number of full chunks, a padded tail, or a payload shorter
    # than one chunk: always one group
    assert _layout(chunk(240, SNR, SNR_FB, 1.0, 1.0, TAU, 256)) == [(3, 80)]
    assert _layout(chunk(241, SNR, SNR_FB, 1.0, 1.0, TAU, 256)) == [(4, 80)]
    short = chunk(7, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
    assert _layout(short) == [(1, 8)] and short[0].tau_chunk == TAU


def _two_plan_rule(total_bits, gain_fwd, gain_fb, tau, n_max):
    """The two-group rule the padded chunk replaced: full chunks and an
    even-rounded tail, each planned at tau/n_chunks; None if either is
    infeasible, else the largest n_t."""
    n_full, tail = divmod(total_bits, MAX_CHUNK_BITS)
    tau_chunk = tau / (n_full + (tail > 0))
    n_ts = []
    for count, n_bits in ((n_full, MAX_CHUNK_BITS), (tail > 0, tail)):
        if count:
            rep = plan_blocklength(n_bits + (n_bits & 1), SNR, SNR_FB,
                                   gain_fwd, gain_fb, tau_chunk, n_max)
            if not rep.feasible:
                return None
            n_ts.append(rep.n_t)
    return max(n_ts)


def _feasibility_edge(total_bits, gain_fwd, tau, n_max):
    """The two feedback gains, a hair apart, across which the two-plan rule
    leaves feedback outage at this forward gain; () if it never does."""
    lo, hi = 1e-4, 100.0
    if _two_plan_rule(total_bits, gain_fwd, hi, tau, n_max) is None:
        return ()
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        if _two_plan_rule(total_bits, gain_fwd, mid, tau, n_max) is None:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_chunk_matches_two_plan_rule():
    grid = np.geomspace(1e-3, 10.0, 9).tolist()
    cases = 0
    for total, g_fwd, n_max in itertools.product(
            (1, 7, 79, 80, 81, 161, 239, 190920), (0.02, 0.3, 1.0, 4.0),
            (24, 256)):
        edge = _feasibility_edge(total, g_fwd, TAU, n_max)
        for g_fb in grid + list(edge):
            want = _two_plan_rule(total, g_fwd, g_fb, TAU, n_max)
            got = chunk(total, SNR, SNR_FB, g_fwd, g_fb, TAU, n_max)
            case = (total, g_fwd, g_fb, n_max)
            if want is None:
                assert got is None, case
            else:
                assert len(got) == 1 and got[0].n_t == want, case
        cases += len(edge) // 2
    assert cases >= 30  # most of the grid has an edge to sit on


def test_chunk_empty_payload():
    assert chunk(0, SNR, SNR_FB, 1.0, 1.0, TAU, 256) == []


def test_chunk_infeasible_returns_none():
    # feedback gain in outage for any blocklength
    assert chunk(200, SNR, SNR_FB, 1.0, 1e-4, TAU, 256) is None


def test_chunk_respects_n_max():
    assert chunk(80, SNR, SNR_FB, 1.0, 1.0, TAU, 4) is None
    # the 1-bit tail rides a padded full chunk, which does not fit
    assert chunk(81, SNR, SNR_FB, 1.0, 1.0, TAU, 4) is None


def test_chunk_validation():
    with pytest.raises(ValueError):
        chunk(-1, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
