"""Eavesdropper attack and leakage accounting for the feedback code.

The eavesdropper sees every forward use through her own gain g and every
feedback use through g_fb, knows the full schedule, constellation, and both
gains, but never the shared dither. Her one attack, attack_full_sequence,
opens with the first use, a bare PAM symbol that she derotates and slices,
and then unwraps the fold ladder of the feedback symbols against it, rung by
rung, assuming the dither was zero. With the dither actually off this beats
guessing by orders of magnitude, though it stays far from receiver
fidelity: she reads every feedback use through the concurrent forward
symbol, and that self-interference blurs both her opening slice and the
final rung. With the dither on, every rung lands at a uniformly distributed
offset and the attack degenerates to guessing.

Leakage is reported two ways: the analytic bound the scenarios account
secrecy with (analysis.secrecy_level_bound) and, for small payloads, the
exact message posterior of a genie-aided first use.
"""

import math

import numpy as np

from .channel import derotate
from .codec import build_constellation

__all__ = [
    "attack_full_sequence",
    "exact_posterior_mi",
]


def attack_full_sequence(z, g, g_fb, sched, const, rng):
    """Fold-ladder unwrap over all observed uses: the (2, n) decision, rows
    R and I, against const, which both sub-channels share.

    z is the tap's (2, n_t, n) record, one column per use (the feedback sent
    after use i shares column i-1, the last is forward-only). The ladder is
    seeded by the first-use slice, the opening use derotated by g and
    scaled to the constellation. Each feedback symbol is treated as
    gamma_j*theta + V folded to [-d/2, d/2) with V assumed zero; the wrap
    count is chosen closest to the running estimate. Without feedback to
    exploit (n_t == 1 or g_fb == 0) the ladder has no rungs and the decision
    is the first-use slice's. With g == 0 as well she heard nothing, and
    guesses uniformly from rng, which is also her exact performance then.
    """
    first = z[:, 0]
    rungs = range(1, sched.n_t) if g_fb != 0 else ()
    if g != 0:
        th = derotate(first, g) / math.sqrt(sched.P / 2.0)
    elif rungs:
        th = np.zeros(first.shape)
    else:
        return rng.integers(0, const.m_levels, size=first.shape)
    for j in rungs:
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

