"""Eavesdropper attacks and leakage accounting for the feedback code.

The eavesdropper sees every forward use through her own gain g and every
feedback use through g_fb, knows the full schedule, constellation, and both
gains, but never the shared dither. Two concrete attacks are implemented:

* first-use: the opening transmission is a bare PAM symbol, so she derotates
  it and slices. Her error is set by her own SNR and by the feedback symbol
  overlapping the same use.
* full-sequence: the feedback symbols encode the legitimate receiver's
  running estimate, folded onto [-d/2, d/2) by the dither. She isolates each
  feedback symbol, assumes the dither was zero, and unwraps the fold ladder
  against her first-use prior, rung by rung. Her estimate holds the R and I
  sub-channels as one (2, n) array, so a rung is one unwrap for both. With
  the dither actually off this beats guessing by orders of magnitude,
  though it stays far from receiver fidelity: she reads every feedback use
  through the concurrent forward symbol, and that self-interference blurs
  both her opening prior and the final rung. With the dither on, every rung
  lands at a uniformly distributed offset and the attack degenerates to
  guessing.

Leakage is reported two ways: the analytic bound the scenarios account
secrecy with (analysis.secrecy_level_bound) and, for small payloads, the
exact message posterior of a genie-aided first use.
"""

import math

import numpy as np

from .channel import derotate
from .codec import build_constellation

__all__ = [
    "attack_first_use",
    "attack_full_sequence",
    "exact_posterior_mi",
]


def _slice_first_use(z1, g, power):
    """(2, n) estimate of the R and I centers from the opening use."""
    return derotate(z1, g) / math.sqrt(power / 2.0)


def attack_first_use(z1, g, power, const, rng):
    """Derotate-and-slice on the (2, n) opening use. Returns (dec_r, dec_i),
    the rows of one (2, n) decision against const, the constellation both
    sub-channels share.

    g == 0 leaves the observation useless; the attack falls back to uniform
    guessing from rng, which is also its exact performance in that case.
    """
    if g == 0:
        return rng.integers(0, const.m_levels, size=z1.shape)
    return const.decode(_slice_first_use(z1, g, power))


def attack_full_sequence(z, g, g_fb, sched, const, rng):
    """Fold-ladder unwrap over all observed uses. Returns (dec_r, dec_i),
    the rows of one (2, n) decision against const.

    z is the tap's (2, n_t, n) record, one column per use (the feedback sent
    after use i shares column i-1, the last is forward-only). Each feedback
    symbol is treated as gamma_j*theta + V folded to [-d/2, d/2) with V
    assumed zero; the wrap count is chosen closest to the running estimate,
    seeded by the first-use slice. Falls back to the first-use attack when
    there is no feedback to exploit or no feedback path gain.
    """
    if sched.n_t == 1 or g_fb == 0:
        return attack_first_use(z[:, 0], g, sched.P, const, rng)
    th = (_slice_first_use(z[:, 0], g, sched.P) if g != 0
          else np.zeros(z[:, 0].shape))
    for j in range(1, sched.n_t):
        gam = sched.gamma[j - 1]
        base = derotate(z[:, j - 1], g_fb) / gam
        wrap = sched.d / gam
        th = base + np.rint((th - base) / wrap) * wrap
    return const.decode(th)


def exact_posterior_mi(bits_r, bits_i, g2, power, sigma_e2, rng, n_mc=200000):
    """Mutual information, in bits, between the message and a genie-aided
    first-use observation stripped of feedback interference.

    The two real sub-channels are independent, so the MI splits into two
    one-dimensional terms, each averaged by Monte Carlo over the exact
    posterior. Intended for small payloads (the posterior is a dense
    m-vector per sample); raises above 12 total bits.
    """
    if bits_r + bits_i > 12:
        raise ValueError("exact posterior limited to 12-bit payloads")
    if g2 < 0:
        raise ValueError("g2 must be >= 0")
    if g2 == 0:
        return 0.0
    total = 0.0
    noise_var = sigma_e2 / (2.0 * g2)
    for bits in (bits_r, bits_i):
        if bits == 0:
            continue
        m = 2 ** bits
        centers = math.sqrt(power / 2.0) * build_constellation(bits).center(
            np.arange(m))
        w = rng.integers(0, m, size=n_mc)
        y = centers[w] + rng.normal(scale=math.sqrt(noise_var), size=n_mc)
        ll = -((y[:, None] - centers[None, :]) ** 2) / (2.0 * noise_var)
        ll -= ll.max(axis=1, keepdims=True)
        post = np.exp(ll)
        post /= post.sum(axis=1, keepdims=True)
        ent = -(post * np.log2(post, where=post > 0,
                               out=np.zeros_like(post))).sum(axis=1)
        total += bits - float(ent.mean())
    return total

