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
  against her first-use prior, rung by rung. With the dither actually off
  this beats guessing by orders of magnitude, though it stays far from
  receiver fidelity: she reads every feedback use through the concurrent
  forward symbol, and that self-interference blurs both her opening prior
  and the final rung. With the dither on, every rung lands at a uniformly
  distributed offset and the attack degenerates to guessing, which is the
  property the accounting below quantifies.

Leakage is reported three ways: the analytic bound the scenarios account
secrecy with, a per-bit converse from observed bit error rates, and, for
small payloads, the exact message posterior of a genie-aided first use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import secrecy_level_bound
from .channel import derotate
from .codec import to_bits

__all__ = [
    "attack_first_use",
    "attack_full_sequence",
    "exact_posterior_mi",
    "EquivocationReport",
    "equivocation_report",
]


def _slice_first_use(z1, g, power, const_r, const_i):
    tr, ti = derotate(z1, g)
    scale = math.sqrt(power / 2.0)
    return tr / scale, ti / scale


def attack_first_use(z1, g, power, const_r, const_i, rng):
    """Derotate-and-slice on the opening use. Returns (dec_r, dec_i).

    g == 0 leaves the observation useless; the attack falls back to uniform
    guessing from rng, which is also its exact performance in that case.
    """
    z1 = np.asarray(z1)
    if g == 0:
        return (rng.integers(0, const_r.m_levels, size=z1.shape),
                rng.integers(0, const_i.m_levels, size=z1.shape))
    th_r, th_i = _slice_first_use(z1, g, power, const_r, const_i)
    return const_r.decode(th_r), const_i.decode(th_i)


def attack_full_sequence(z, g, g_fb, sched, const_r, const_i, rng):
    """Fold-ladder unwrap over all observed uses. Returns (dec_r, dec_i).

    z has one column per use (the feedback sent after use i shares column
    i-1, the last column is forward-only). Each feedback symbol is treated as
    gamma_j*theta + V folded to [-d/2, d/2) with V assumed zero; the wrap
    count is chosen closest to the running estimate, seeded by the first-use
    slice. Falls back to the first-use attack when there is no feedback to
    exploit or no feedback path gain.
    """
    z = np.atleast_2d(np.asarray(z))
    if sched.n_t == 1 or g_fb == 0:
        return attack_first_use(z[:, 0], g, sched.P, const_r, const_i, rng)
    if g != 0:
        th_r, th_i = _slice_first_use(z[:, 0], g, sched.P, const_r, const_i)
    else:
        th_r = np.zeros(z.shape[0])
        th_i = np.zeros(z.shape[0])
    for j in range(1, sched.n_t):
        gam = sched.gamma[j - 1]
        f_r, f_i = derotate(z[:, j - 1], g_fb)
        wrap = sched.d / gam
        base_r, base_i = f_r / gam, f_i / gam
        th_r = base_r + np.rint((th_r - base_r) / wrap) * wrap
        th_i = base_i + np.rint((th_i - base_i) / wrap) * wrap
    return const_r.decode(th_r), const_i.decode(th_i)


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
        centers = math.sqrt(power / 2.0) * (
            -math.sqrt(3.0) + (2.0 * np.arange(m) + 1.0) * math.sqrt(3.0) / m)
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


def _binary_entropy(p):
    p = min(max(p, 1e-12), 1.0 - 1e-12)
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class EquivocationReport:
    """What the eavesdropper actually got, against what theory allows her."""

    payload_bits: int
    recovery_rate: float
    bit_error_rates: np.ndarray
    leakage_budget: float
    leakage_fano: float
    delta_bound: float
    leakage_exact: float | None = None


def equivocation_report(msg_r, msg_i, att_r, att_i, const_r, const_i,
                        g2, power, sigma_e2, rng=None, n_mc=200000):
    """Score an attack transcript against the leakage budget.

    bit_error_rates is per position, sub-channel R MSB..LSB then I MSB..LSB.
    leakage_fano is the per-bit converse sum_j (1 - h2(p_j)): any decoder
    with those marginal bit error rates was fed at least that much mutual
    information, so it must sit under leakage_budget (the eavesdropper
    channel capacity for one block). leakage_exact is filled for payloads of
    at most 12 bits when an rng is supplied.
    """
    payload = const_r.bits + const_i.bits
    msg_r, msg_i = np.asarray(msg_r), np.asarray(msg_i)
    att_r, att_i = np.asarray(att_r), np.asarray(att_i)
    recovery = float(np.mean((msg_r == att_r) & (msg_i == att_i)))
    bers = []
    for msg, att, c in ((msg_r, att_r, const_r), (msg_i, att_i, const_i)):
        if c.bits == 0:
            continue
        diff = to_bits(msg, c.bits) != to_bits(att, c.bits)
        bers.extend(diff.mean(axis=0).tolist())
    bers = np.asarray(bers)
    budget = math.log2(1.0 + g2 * power / sigma_e2)
    fano = float(sum(1.0 - _binary_entropy(p) for p in bers))
    delta = secrecy_level_bound([payload], g2, power, sigma_e2)
    exact = None
    if rng is not None and payload <= 12:
        exact = exact_posterior_mi(const_r.bits, const_i.bits, g2, power,
                                   sigma_e2, rng, n_mc)
    return EquivocationReport(payload, recovery, bers, budget, fano, delta,
                              exact)
