import math

import numpy as np
import pytest

from fblink.adversary import (attack_first_use, attack_full_sequence,
                              exact_posterior_mi)
from fblink.analysis import eve_capacity_bits
from fblink.channel import NoiseSpec, Realization, cn_sample
from fblink.codec import (build_constellation, build_schedule,
                          draw_block_noise, run_block_batch)
from fblink.streams import substream

from conftest import SNR, SNR_FB, TAU, draw_messages

EVE = Realization(h=1.0, h_fb=1.0, g=math.sqrt(0.3), g_fb=1.0)
NOISE = NoiseSpec(1.0, 1.0, 1.0)


def _eavesdropped_batch(n, n_t, bits_per_sub, seed, zero_dither=False):
    sched = build_schedule(SNR, SNR_FB, TAU, n_t, EVE, NOISE)
    const = build_constellation(bits_per_sub)
    rng = substream(seed, 0)
    msg = draw_messages(rng, const, n)
    dither, ef, eb, ee = draw_block_noise(rng, n, n_t, NOISE, sched.d,
                                          capture_eve=True)
    if zero_dither:
        dither = np.zeros_like(dither)
    out = run_block_batch(sched, EVE, const, msg, dither, ef, eb, eta_eve=ee)
    return sched, const, msg, out


# ---------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------


def test_first_use_zero_gain_guesses_uniformly():
    const = build_constellation(4)
    z1 = np.full((2, 40000), 5.0)
    dec = attack_first_use(z1, 0.0, SNR, const, substream(1, 0))
    assert dec.shape == (2, 40000)
    counts = np.bincount(dec[0], minlength=const.m_levels)
    assert counts.min() > 0.8 * 40000 / const.m_levels
    assert counts.max() < 1.2 * 40000 / const.m_levels
    # replaying the rng replays the guesses
    again = attack_first_use(z1, 0.0, SNR, const, substream(1, 0))
    np.testing.assert_array_equal(dec, again)


def test_first_use_strong_eavesdropper_reads_bare_symbol():
    # clean opening use, g2 = 100: slicing is essentially error free
    const = build_constellation(2)
    g = 10.0
    rng = substream(2, 0)
    msg = draw_messages(rng, const, 5000)
    z1 = g * math.sqrt(SNR / 2.0) * const.center(msg) + cn_sample(rng, 1.0,
                                                                  5000)
    dec = attack_first_use(z1, g, SNR, const, rng)
    assert np.mean((dec == msg).all(axis=0)) > 0.95


def test_full_sequence_dither_off_beats_guessing():
    # countermeasure disabled: the fold ladder pulls the message rate four
    # orders of magnitude above the 2^-20 guessing floor, but stays far from
    # receiver fidelity because she reads feedback through the concurrent
    # forward symbol
    sched, const, msg, out = _eavesdropped_batch(20000, 11, 10, seed=3,
                                                 zero_dither=True)
    dec = attack_full_sequence(out.z_seq, EVE.g, EVE.g_fb, sched, const,
                               substream(3, 1))
    rec = np.mean((dec == msg).all(axis=0))
    assert rec >= 0.01
    # the legitimate link is unaffected by which dither was drawn
    assert out.error.mean() <= 2.0 * TAU


def test_full_sequence_dither_on_degenerates_to_guessing():
    sched, const, msg, out = _eavesdropped_batch(20000, 11, 10, seed=3)
    dec = attack_full_sequence(out.z_seq, EVE.g, EVE.g_fb, sched, const,
                               substream(3, 2))
    rec = np.mean((dec == msg).all(axis=0))
    assert rec <= 5e-4
    lsb = np.mean((dec[1] & 1) != (msg[1] & 1))
    assert abs(lsb - 0.5) < 0.02


def test_full_sequence_single_use_falls_back_to_first_use():
    sched = build_schedule(SNR, SNR_FB, TAU, 1, EVE, NOISE)
    const = build_constellation(2)
    rng = substream(4, 0)
    x = math.sqrt(SNR / 2.0) * const.center(draw_messages(rng, const, 1000))
    z = (EVE.g * x + cn_sample(rng, 1.0, 1000))[:, None, :]
    assert z.shape == (2, 1, 1000)
    a = attack_full_sequence(z, EVE.g, EVE.g_fb, sched, const,
                             substream(4, 1))
    b = attack_first_use(z[:, 0], EVE.g, sched.P, const, substream(4, 1))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------
# Exact posterior leakage
# ---------------------------------------------------------------------


def test_exact_posterior_mi_reference_point():
    mi = exact_posterior_mi(2, 2, 0.3, SNR, 1.0, substream(11, 0))
    assert abs(mi - 1.86) < 0.02
    # never above the eavesdropper channel capacity for the block
    assert mi <= eve_capacity_bits(0.3, SNR, 1.0)


def test_exact_posterior_mi_limits():
    assert exact_posterior_mi(0, 0, 0.3, SNR, 1.0, substream(12, 0)) == 0.0
    assert exact_posterior_mi(2, 2, 0.0, SNR, 1.0, substream(12, 0)) == 0.0
    # essentially noiseless: the whole payload leaks
    hi = exact_posterior_mi(2, 2, 1000.0, SNR, 1e-6, substream(12, 1),
                            n_mc=50000)
    assert hi > 3.99
    with pytest.raises(ValueError):
        exact_posterior_mi(7, 6, 0.3, SNR, 1.0, substream(12, 2))
    with pytest.raises(ValueError):
        exact_posterior_mi(2, 2, -0.1, SNR, 1.0, substream(12, 3))


def test_exact_posterior_mi_asymmetric_split_adds():
    rng_a = substream(13, 0)
    one_sided = exact_posterior_mi(3, 0, 0.5, SNR, 1.0, rng_a, n_mc=100000)
    assert 0.0 < one_sided < 3.0
    both = exact_posterior_mi(3, 3, 0.5, SNR, 1.0, substream(13, 1),
                              n_mc=100000)
    assert abs(both - 2.0 * one_sided) < 0.05

