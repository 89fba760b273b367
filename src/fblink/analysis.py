"""Closed-form calculators for the short-block feedback link.

The forward channel carries one PAM symbol per real sub-channel and then
n_t - 1 modulo-folded error refinements, so the achievable rate of a block is

    R = (1/n_t) * log2( (3*snr*|h|^2 / qinv(tau/8)^2) * (1 + snr*|h|^2/(psi1*psi2))^(n_t-1) )

with psi1 = 1 + L*|h|^2*snr / (|h_fb|^2*snr_fb), psi2 = (1 - L/(|h_fb|^2*snr_fb))^-1
and L = qinv(tau/(8*(n_t-1)))^2 / 3 the fold budget. The psi2 pole at
|h_fb|^2*snr_fb <= L is a feedback outage: the refinement loop cannot keep its
fold probability inside the budget at any power, so the block is infeasible
rather than erroneous. Everything here is base-2; rates are bits per channel
use, payloads are bits. Q^-1 is the standard library's normal quantile, so
the Python build sets the fold budgets' ulps.

achievable_rate and plan_blocklength also take the two gains as equal-length
1-D arrays, one entry per channel realization; their reports then carry a
leading realization axis, and the tau-only terms (q_inv(tau/8) and the fold
budgets) are computed once for all of them.

All functions are pure and safe to call from any thread.
"""

import math
import statistics
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "RateReport",
    "SigmaWindow",
    "q_inv",
    "aliasing_budget",
    "achievable_rate",
    "rate_distortion",
    "eve_capacity_bits",
    "secrecy_level_bound",
    "sigma2_window",
    "latency_seconds",
    "plan_blocklength",
]


# =====================================================================
# Gaussian tail
# =====================================================================

# Phi^-1 by Wichura's AS241 (Applied Statistics 37(3), 1988), which CPython
# evaluates in C to about 1e-16 relative
_PHI_INV = statistics.NormalDist().inv_cdf


def q_inv(p):
    """Inverse on (0, 1) of the standard normal's upper tail
    Q(x) = P(N(0,1) > x): Q^-1(p) = -Phi^-1(p).

    The standard library's normal quantile, statistics.NormalDist.inv_cdf,
    element by element and negated. Below about x = -6, Q saturates
    toward 1.0 in float64 and no inverse can recover x; callers never
    evaluate there, every use being an upper-tail probability of at most
    1/8. NaN is outside (0, 1) and raises too.
    """
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("q_inv requires 0 < p < 1")
    x = -np.fromiter(map(_PHI_INV, p.ravel().tolist()), float, p.size)
    return x.reshape(p.shape) if p.ndim else float(x[0])


# =====================================================================
# Rate of one feedback block
# =====================================================================


@dataclass(frozen=True)
class RateReport:
    """Rate and feasibility of one block at one channel realization.

    rate is bits per channel use (0.0 when infeasible); total_bits = n_t*rate
    is the block payload budget across both real sub-channels. outage_reason
    is None when feasible, else "feedback_outage" (psi2 pole),
    "alpha_underflow" (the error variance alpha before the block's last
    refinement underflows float64, so its feedback scaling gamma is not
    finite; about a thousand bits in one block), "rate_nonpositive" (log
    argument <= 1), or "no_feasible_blocklength" (planner exhausted its
    scan). build_schedule refuses the first two, at any feedback noise.

    achievable_rate over an array of n_t, or over arrays of gains, returns
    one report whose fields are arrays (outage_reason an object array):
    realizations on the leading axis, blocklengths on the last. `at` picks
    out the scalar report of one element.
    """

    n_t: int
    rate: float
    L: float
    psi1: float
    psi2: float
    feasible: bool
    outage_reason: str | None = None

    @property
    def total_bits(self) -> float:
        return self.n_t * self.rate

    def at(self, idx) -> "RateReport":
        """The report of element(s) idx of an array report; a scalar report
        when idx picks one element."""
        picked = [np.asarray(getattr(self, f.name))[idx] for f in fields(self)]
        if np.ndim(picked[0]):
            return RateReport(*picked)
        n_t, rate, L, psi1, psi2, feasible, reason = picked
        return RateReport(int(n_t), float(rate), float(L), float(psi1),
                          float(psi2), bool(feasible), reason)


_OUTAGE_REASONS = np.array([None, "feedback_outage", "alpha_underflow",
                            "rate_nonpositive"], dtype=object)


def _blocklengths(n_t, least):
    """n_t as a 1-D int64 array, plus whether it came in as a scalar."""
    n = np.asarray(n_t)
    if n.ndim > 1:
        raise ValueError("n_t must be a scalar or a 1-D array")
    scalar = n.ndim == 0
    n = np.atleast_1d(n).astype(np.int64)
    if n.size and n.min() < least:
        raise ValueError("n_t must be >= %d, got %d" % (least, n.min()))
    return n, scalar


def aliasing_budget(tau, n_t):
    """Fold budget L = qinv(tau/(8*(n_t-1)))^2 / 3.

    L is what the feedback power must dominate: the refinement signal
    gamma*eps + fb-noise has variance P_fb/(2L) by construction, so the fold
    z-score is sqrt(3L) and each step's fold probability stays within its
    share of tau. n_t may be a 1-D array (one q_inv call for all of it); the
    result then is an array too.
    """
    n, scalar = _blocklengths(n_t, 2)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    L = q_inv(tau / (8.0 * (n - 1))) ** 2 / 3.0
    return float(L[0]) if scalar else L


def _gain_arrays(gain_fwd, gain_fb):
    """The gains as equal-length 1-D float arrays, plus whether they came in
    as scalars."""
    gf = np.asarray(gain_fwd, dtype=float)
    gb = np.asarray(gain_fb, dtype=float)
    if gf.ndim > 1 or gf.shape != gb.shape:
        raise ValueError("gain_fwd and gain_fb must be scalars or 1-D arrays "
                         "of equal length")
    return np.atleast_1d(gf), np.atleast_1d(gb), gf.ndim == 0


def _validated(snr, snr_fb, gain_fwd, gain_fb, tau):
    if not (all(map(math.isfinite, (snr, snr_fb, tau)))
            and np.isfinite(gain_fwd).all() and np.isfinite(gain_fb).all()):
        raise ValueError("snr, snr_fb, gains and tau must be finite")
    if snr <= 0.0 or snr_fb <= 0.0:
        raise ValueError("snr and snr_fb must be positive")
    if (gain_fwd < 0.0).any() or (gain_fb < 0.0).any():
        raise ValueError("channel gains are squared magnitudes, >= 0")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")


def _feedback_loop(snr, snr_fb, gain_fwd, gain_fb, L):
    """(psi1, psi2, c, growth, outage) of the loop at fold budget(s) L > 0.

    c = 1 - L/(|h_fb|^2*snr_fb) = 1/psi2; growth = 1 + snr*|h|^2/(psi1*psi2)
    is the per-use variance contraction; outage marks the psi2 pole, where
    psi2 is inf and growth 1. The gains may be arrays that broadcast against
    L. Shared by achievable_rate and build_schedule.
    """
    L = np.asarray(L, dtype=float)
    fb_strength = gain_fb * snr_fb
    outage = fb_strength <= L
    # a subnormal fb_strength gives inf; a pole gives 1/0; a zero one is
    # no feedback at all, psi1 = inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        psi1 = np.where(fb_strength > 0,
                        1.0 + L * gain_fwd * snr / fb_strength, math.inf)
        c = 1.0 - L / fb_strength
        psi2 = np.where(outage, math.inf, 1.0 / c)
    growth = 1.0 + snr * gain_fwd / (psi1 * psi2)
    return psi1, psi2, c, growth, outage


def _refinement_variances(snr, snr_fb, gain_fwd, gain_fb, L, growth, steps):
    """(alpha, gamma2) of the refinement steps `steps`, step 0 being use 1.

    alpha = alpha1*growth^-step is the error variance after use step+1,
    alpha1 = 1/(|h|^2*snr); gamma2 = (snr_fb/(2L) - 1/(2|h_fb|^2))/alpha is
    the squared feedback scaling that would follow it at unit feedback
    noise, and sigma2*sqrt(gamma2) at noise sigma2^2, so a non-finite gamma2
    (alpha has underflowed float64) refuses a block at every noise.
    achievable_rate applies this one test at each block's last refinement
    step (gamma2 only grows with the step); build_schedule at every step.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        alpha = (1.0 / (gain_fwd * snr)) * growth ** -steps
        gamma2 = (snr_fb / (2.0 * L) - 1.0 / (2.0 * gain_fb)) / alpha
    return alpha, gamma2


def achievable_rate(snr, snr_fb, gain_fwd, gain_fb, tau, n_t) -> RateReport:
    """Rate report for an n_t-use block at fixed channel gains.

    Args:
        snr: forward transmit power over forward noise variance, P/sigma1^2.
        snr_fb: feedback power over feedback noise variance, P_fb/sigma2^2.
        gain_fwd: |h|^2 of the forward fading coefficient; or a 1-D array,
            one gain per channel realization.
        gain_fb: |h_fb|^2 of the feedback fading coefficient; a 1-D array
            of the same length when gain_fwd is one.
        tau: target block error probability.
        n_t: block length in channel uses, >= 1; or a 1-D integer array of
            them.

    A block is feasible when its rate is positive and finite and
    build_schedule builds it: no feedback outage, and no "alpha_underflow"
    (from n_t = 654 at unit gains and tau 1e-3).

    Array gains and an array n_t give fields of shape (R, len(n_t)); one of
    them an array gives that array's shape. Scalars run as one-element
    arrays, so every form shares one element-wise path: q_inv once for
    tau/8 and once (inside aliasing_budget) for every coded n_t, whatever
    the number of realizations. log2 of the uncoded term is a
    per-realization math.log2. n_t = 1 degenerates to uncoded PAM: no
    refinement product, no fold budget. The rate is summed in log space, so
    n_t in the hundreds stays finite.
    """
    gf, gb, scalar_gains = _gain_arrays(gain_fwd, gain_fb)
    _validated(snr, snr_fb, gf, gb, tau)
    n, scalar_n = _blocklengths(n_t, 1)
    qi8 = float(q_inv(tau / 8.0))
    base = 3.0 * snr * gf / (qi8 * qi8)
    log_base = np.array([math.log2(b) if b > 0 else -math.inf
                         for b in base.tolist()])

    coded = n >= 2
    uncoded = ~coded
    L = np.zeros(n.size)
    if coded.any():
        L[coded] = aliasing_budget(tau, n[coded])
    gain_fwd, gain_fb = gf[:, None], gb[:, None]
    psi1, psi2, _, growth, outage = _feedback_loop(snr, snr_fb, gain_fwd,
                                                   gain_fb, L)
    # n_t = 1 sends the PAM symbol alone: no loop, no fold budget; the
    # loop's values at its L = 0 are overwritten
    psi1[:, uncoded] = psi2[:, uncoded] = growth[:, uncoded] = 1.0
    outage[:, uncoded] = False
    _, gamma2 = _refinement_variances(snr, snr_fb, gain_fwd, gain_fb, L,
                                      growth, n - 2.0)
    underflow = coded & ~outage & ~np.isfinite(gamma2)
    # log2(arg) computed in log space: arg passes 2^1024 in blocks that
    # build, such as n_t = 339 at gains 10/2.25 and tau 1e-3 (1024.03 bits)
    total = log_base[:, None] + (n - 1) * np.log2(growth)
    # snr*|h|^2 past float64 range gives an inf or nan total: infeasible
    feasible = ~outage & ~underflow & (total > 0.0) & (total < math.inf)
    rate = np.where(feasible, total / n, 0.0)
    # codes into _OUTAGE_REASONS, so every report shares its four objects
    code = np.where(feasible, 0, 3)
    code[underflow] = 2
    code[outage] = 1
    reason = _OUTAGE_REASONS[code]
    rep = RateReport(np.broadcast_to(n, rate.shape), rate,
                     np.broadcast_to(L, rate.shape), psi1, psi2, feasible,
                     reason)
    if scalar_gains or scalar_n:
        rep = rep.at((0 if scalar_gains else slice(None),
                      0 if scalar_n else slice(None)))
    return rep


def plan_blocklength(payload_bits, snr, snr_fb, gain_fwd, gain_fb, tau,
                     n_max) -> RateReport:
    """Smallest n_t <= n_max whose block budget covers payload_bits.

    One achievable_rate call over n_t = 2..n_max, then the first index that
    is feasible and covers the payload: the rate is not monotone in n_t (L
    grows with n_t), so binary search has no footing. The returned report is
    that element of the array report, bit for bit. Returns an infeasible
    report with outage_reason "no_feasible_blocklength" when no n_t in the
    range qualifies. achievable_rate's verdict is build_schedule's, so
    every planned block builds. Array gains plan every realization in that
    one call and return a report of (R,) arrays.
    """
    if payload_bits < 1:
        raise ValueError("payload_bits must be >= 1")
    n_max = int(n_max)
    gf, gb, scalar = _gain_arrays(gain_fwd, gain_fb)
    rep = achievable_rate(snr, snr_fb, gf, gb, tau, np.arange(2, n_max + 1))
    hit = rep.feasible & (rep.total_bits >= payload_bits)
    found = hit.any(axis=1)
    plan = RateReport(np.full(gf.size, n_max), np.zeros(gf.size),
                      np.zeros(gf.size), np.full(gf.size, math.nan),
                      np.full(gf.size, math.nan), found,
                      np.full(gf.size, "no_feasible_blocklength",
                              dtype=object))
    rows = np.flatnonzero(found)
    if rows.size:
        first = rep.at((rows, hit[rows].argmax(axis=1)))
        for f in fields(plan):
            getattr(plan, f.name)[rows] = getattr(first, f.name)
    return plan.at(0) if scalar else plan


# =====================================================================
# Source, secrecy, privacy, latency
# =====================================================================


def rate_distortion(distortion, source_var):
    """Bits per coordinate to describe a Gaussian source at mean-square distortion."""
    if source_var <= 0.0:
        raise ValueError("source_var must be positive")
    if distortion < 0.0:
        raise ValueError("distortion must be >= 0")
    if distortion == 0.0:
        raise ValueError("zero distortion needs unbounded rate; not transmittable")
    if distortion >= source_var:
        return 0.0
    return 0.5 * math.log2(source_var / distortion)


def eve_capacity_bits(g2, power, sigma_e2):
    """Eavesdropper capacity log2(1 + |g|^2 * P / sigma_e^2) in bits: the most
    her observation of a round can absorb of its payload (Wyner 1975)."""
    if sigma_e2 <= 0.0 or power <= 0.0:
        raise ValueError("power and sigma_e2 must be positive")
    if g2 < 0.0:
        raise ValueError("g2 is a squared magnitude, >= 0")
    return math.log2(1.0 + g2 * power / sigma_e2)


def secrecy_level_bound(payload_bits, c_e_bits):
    """Lower bound on the eavesdropper's normalized equivocation of one round.

    Her channel absorbs at most c_e_bits of the round's payload, the
    eve_capacity_bits at her gain, so equivocation per payload bit is at
    least [1 - c_e_bits/payload]+; an infinite capacity leaves 0.0. A round
    with nothing to send leaves her nothing to learn: its level is 1.0. The
    weakest round bounds the scheme; the scenarios keep that running minimum.
    """
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    if not c_e_bits >= 0.0:
        raise ValueError("c_e_bits must be >= 0, not NaN")
    return max(0.0, 1.0 - c_e_bits / payload_bits) if payload_bits else 1.0


@dataclass(frozen=True)
class SigmaWindow:
    """Admissible perturbation-variance interval [lower, upper] per user."""

    lower: float
    upper: float

    @property
    def nonempty(self) -> bool:
        return self.lower <= self.upper

    def contains(self, sigma2: float) -> bool:
        return self.lower <= sigma2 <= self.upper


def sigma2_window(privacy_eps, utility_cap, n_users, s_total, sigma_w2_max) -> SigmaWindow:
    """Per-user noise variances that meet the privacy floor and utility ceiling.

    lower comes from forcing the per-coordinate mutual information
    0.5*log2(1 + s_total*sigma_w2/(K*sigma^2)) under privacy_eps at the worst
    round; upper is utility_cap/K so the aggregate perturbation power stays
    within the utility budget. An empty window is a report, not an error.
    """
    if min(privacy_eps, utility_cap, n_users, s_total, sigma_w2_max) <= 0:
        raise ValueError("all window inputs must be positive")
    lower = s_total * sigma_w2_max / (n_users * (2.0 ** (2.0 * privacy_eps) - 1.0))
    upper = utility_cap / n_users
    return SigmaWindow(lower, upper)


def latency_seconds(payload_bits, rate_bits_per_use, uses_per_second):
    """Transmission time of a payload at a given link rate and symbol rate."""
    if payload_bits < 0:
        raise ValueError("payload_bits must be >= 0")
    if uses_per_second <= 0:
        raise ValueError("uses_per_second must be positive")
    if payload_bits == 0:
        return 0.0
    if rate_bits_per_use <= 0.0:
        return math.inf  # infeasible sentinel, matches outage semantics
    return payload_bits / (rate_bits_per_use * uses_per_second)
