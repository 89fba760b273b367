"""Closed-form calculators for the short-block feedback link.

The forward channel carries one PAM symbol per real sub-channel and then
n_t - 1 modulo-folded error refinements, so the achievable rate of a block is

    R = (1/n_t) * log2( (3*snr*|h|^2 / qinv(tau/8)^2) * (1 + snr*|h|^2/(psi1*psi2))^(n_t-1) )

with psi1 = 1 + L*|h|^2*snr / (|h_fb|^2*snr_fb), psi2 = (1 - L/(|h_fb|^2*snr_fb))^-1
and L = qinv(tau/(8*(n_t-1)))^2 / 3 the fold budget. The psi2 pole at
|h_fb|^2*snr_fb <= L is a feedback outage: the refinement loop cannot keep its
fold probability inside the budget at any power, so the block is infeasible
rather than erroneous. Everything here is base-2; rates are bits per channel
use, payloads are bits.

All functions are pure and safe to call from any thread.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "RateReport",
    "SigmaWindow",
    "q_func",
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

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def q_func(x):
    """Upper tail of the standard normal, Q(x) = P(N(0,1) > x)."""
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)


def q_inv(p):
    """Inverse of q_func on (0, 1).

    Seeded by the scipy rational approximation of erfcinv, then polished with
    two Newton steps against our own q_func so the roundtrip q_inv(q_func(x))
    is self-consistent to better than 1e-9 relative for x in [-5, 8]. Below
    about -6, q_func saturates toward 1.0 in float64 and no inverse can
    recover x; callers never evaluate there, every use being an upper-tail
    probability of at most 1/8. The fold budget squares this value, so the
    polish is not decorative. NaN is outside (0, 1) and raises too.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("q_inv requires 0 < p < 1")
    x = _SQRT2 * special.erfcinv(2.0 * p)
    for _ in range(2):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        x = x + (q_func(x) - p) / pdf
    return x if x.ndim else float(x)


# =====================================================================
# Rate of one feedback block
# =====================================================================


@dataclass(frozen=True)
class RateReport:
    """Rate and feasibility of one block at one channel realization.

    rate is bits per channel use (0.0 when infeasible); total_bits = n_t*rate
    is the block payload budget across both real sub-channels. outage_reason
    is None when feasible, else "feedback_outage" (psi2 pole),
    "rate_nonpositive" (log argument <= 1), or "no_feasible_blocklength"
    (planner exhausted its scan).

    achievable_rate over an array of n_t returns one report whose fields are
    equal-length arrays (outage_reason an object array); `at` picks out the
    scalar report of one blocklength.
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

    def at(self, i) -> "RateReport":
        """Scalar report of element i of an array report."""
        return RateReport(int(self.n_t[i]), float(self.rate[i]),
                          float(self.L[i]), float(self.psi1[i]),
                          float(self.psi2[i]), bool(self.feasible[i]),
                          self.outage_reason[i])


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


def _validated(snr, snr_fb, gain_fwd, gain_fb, tau):
    if not all(map(math.isfinite, (snr, snr_fb, gain_fwd, gain_fb, tau))):
        raise ValueError("snr, snr_fb, gains and tau must be finite")
    if snr <= 0.0 or snr_fb <= 0.0:
        raise ValueError("snr and snr_fb must be positive")
    if gain_fwd < 0.0 or gain_fb < 0.0:
        raise ValueError("channel gains are squared magnitudes, >= 0")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")


def _feedback_loop(snr, snr_fb, gain_fwd, gain_fb, L):
    """(psi1, psi2, c, growth, outage) of the loop at fold budget(s) L > 0.

    c = 1 - L/(|h_fb|^2*snr_fb) = 1/psi2; growth = 1 + snr*|h|^2/(psi1*psi2)
    is the per-use variance contraction; outage marks the psi2 pole, where
    psi2 is inf and growth 1. Shared by achievable_rate and build_schedule.
    """
    L = np.asarray(L, dtype=float)
    fb_strength = gain_fb * snr_fb
    outage = fb_strength <= L
    # a subnormal fb_strength gives inf; a pole gives 1/0
    with np.errstate(over="ignore", divide="ignore"):
        psi1 = (1.0 + L * gain_fwd * snr / fb_strength
                if fb_strength > 0 else np.full(L.shape, math.inf))
        c = 1.0 - L / fb_strength
        psi2 = np.where(outage, math.inf, 1.0 / c)
    growth = 1.0 + snr * gain_fwd / (psi1 * psi2)
    return psi1, psi2, c, growth, outage


def achievable_rate(snr, snr_fb, gain_fwd, gain_fb, tau, n_t) -> RateReport:
    """Rate report for an n_t-use block at fixed channel gains.

    Args:
        snr: forward transmit power over forward noise variance, P/sigma1^2.
        snr_fb: feedback power over feedback noise variance, P_fb/sigma2^2.
        gain_fwd: |h|^2 of the forward fading coefficient.
        gain_fb: |h_fb|^2 of the feedback fading coefficient.
        tau: target block error probability.
        n_t: block length in channel uses, >= 1; or a 1-D integer array of
            them, which returns one report of equal-length arrays.

    n_t = 1 degenerates to uncoded PAM: no refinement product, no fold budget.
    A scalar n_t runs as a one-element array, so both forms share one
    element-wise path: q_inv once for tau/8 and once (inside aliasing_budget)
    for every coded n_t. The rate is summed in log space, so n_t in the
    hundreds stays finite.
    """
    _validated(snr, snr_fb, gain_fwd, gain_fb, tau)
    n, scalar = _blocklengths(n_t, 1)
    qi8 = float(q_inv(tau / 8.0))
    base = 3.0 * snr * gain_fwd / (qi8 * qi8)
    log_base = math.log2(base) if base > 0 else -math.inf

    coded = n >= 2
    L = np.zeros(n.size)
    psi1 = np.ones(n.size)
    psi2 = np.ones(n.size)
    growth = np.ones(n.size)
    outage = np.zeros(n.size, dtype=bool)
    if coded.any():
        L[coded] = aliasing_budget(tau, n[coded])
        psi1[coded], psi2[coded], _, growth[coded], outage[coded] = \
            _feedback_loop(snr, snr_fb, gain_fwd, gain_fb, L[coded])
    # log2(arg) computed in log space: arg overflows float64 near n_t ~ 550
    total = log_base + (n - 1) * np.log2(growth)
    # snr*|h|^2 past float64 range gives an inf or nan total: infeasible
    feasible = ~outage & (total > 0.0) & (total < math.inf)
    rate = np.where(feasible, total / n, 0.0)
    reason = np.where(outage, "feedback_outage",
                      np.where(feasible, None, "rate_nonpositive"))
    rep = RateReport(n, rate, L, psi1, psi2, feasible, reason)
    return rep.at(0) if scalar else rep


def plan_blocklength(payload_bits, snr, snr_fb, gain_fwd, gain_fb, tau,
                     n_max) -> RateReport:
    """Smallest n_t <= n_max whose block budget covers payload_bits.

    One achievable_rate call over n_t = 2..n_max, then the first index that
    is feasible and covers the payload: the rate is not monotone in n_t (L
    grows with n_t), so binary search has no footing. The returned report is
    that element of the array report, bit for bit. Returns an infeasible
    report with outage_reason "no_feasible_blocklength" when no n_t in the
    range qualifies.
    """
    if payload_bits < 1:
        raise ValueError("payload_bits must be >= 1")
    n_max = int(n_max)
    rep = achievable_rate(snr, snr_fb, gain_fwd, gain_fb, tau,
                          np.arange(2, n_max + 1))
    hit = rep.feasible & (rep.total_bits >= payload_bits)
    if hit.any():
        return rep.at(int(hit.argmax()))
    return RateReport(n_max, 0.0, 0.0, math.nan, math.nan, False,
                      "no_feasible_blocklength")


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


def secrecy_level_bound(payload_bits, g2, power, sigma_e2):
    """Lower bound on the eavesdropper's normalized equivocation of one round.

    Her channel absorbs at most eve_capacity_bits of the round's payload, so
    equivocation per payload bit is at least [1 - cap/payload]+. The weakest
    round bounds the scheme; the scenarios keep that running minimum.
    """
    if payload_bits <= 0:
        raise ValueError("secrecy level is defined for positive payloads only")
    cap = eve_capacity_bits(g2, power, sigma_e2)
    return max(0.0, 1.0 - cap / payload_bits)


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
