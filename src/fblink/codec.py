"""Modulo-folded feedback coding of short blocks over the duplex link.

One block carries a column of the (2, n) message array, one index per real
sub-channel, as PAM centers on [-sqrt(3), sqrt(3)]. Use 1 sends the centers
at power P/2 each. After every use the decoder feeds back its running estimate,
folded into [-d/2, d/2) and masked by a shared uniform dither; the encoder
recovers the estimation error through the same fold, rescales it to full
power, and sends it back. Each round trip contracts the error variance by the
factor (1 + snr*|h|^2/(psi1*psi2)), which is exactly what the rate formula in
`analysis` integrates over n_t uses; build_schedule takes that factor, the
feedback-outage verdict and c = 1/psi2 from the same `analysis` function the
rate formula uses, so the two cannot drift apart.

The schedule below is the whole contract between the parties. A Schedule
holds it with n_t, the fold budget L and the transmit powers P and P_fb,
and nothing else:

    alpha_i   error variance after use i, alpha_1 = 1/(|h|^2*snr)
    gamma_i   feedback scaling, gamma_i^2*alpha_i = P_fb/(2L) - sigma2^2/(2|h_fb|^2)
    lam       forward rescale sqrt(L*P/P_fb), makes E[x_i^2] = P/2 exactly
    beta_i    decoder's regression coefficient for use i
    d         fold width sqrt(6*P_fb), so the mask power d^2/12 = P_fb/2

The fold argument gamma_i*eps_i + fb-noise has variance P_fb/(2L) by the gamma
choice, putting the per-step fold ("aliasing") probability at its budgeted
share of tau. A fold is invisible in-protocol: the encoder refines a wrong
error, the block usually dies, and only the simulator-side transcript knows.

Both sub-channels carry half a block, so one constellation serves both.
Batch arrays are real and component first, blocks on the last axis:
messages and decisions (pair, block); dither (use, pair, block); noise, tap
and transcript (pair, use, block). A use reads and writes one (2, n) slab,
row 0 R and row 1 I, and the two sub-channels' state is one (2, n) array:
one fold per feedback direction, one alias test, one decode. The engine
allocates no complex array; it derotates a use's noise alone
(x + derotate(eta, h) is the projection of h*x + eta). draw_block_noise
draws the noise in its documented order and run_block_batch is a pure
function of those arrays, the one path through a block; a single block is
a batch of one.

Message indices are read from bits MSB first through to_bits/from_bits, the
one bit packer that the quantizer and the transport share; the transport
chooses the order in which a chunk's bits fill them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import NoiseSpec, Realization, cn_sample, derotate
from .analysis import _feedback_loop, _refinement_variances, aliasing_budget

__all__ = [
    "MAX_SUB_CHANNEL_BITS",
    "PamConstellation",
    "Schedule",
    "BatchResult",
    "build_constellation",
    "to_bits",
    "from_bits",
    "build_schedule",
    "modulo_d",
    "draw_block_noise",
    "run_block_batch",
]

_SQRT3 = math.sqrt(3.0)

# Interval decode needs the fold spacing to clear float64 rounding on
# magnitudes ~sqrt(3); 40 bits leaves four orders of margin.
MAX_SUB_CHANNEL_BITS = 40


# =====================================================================
# Constellation
# =====================================================================


@dataclass(frozen=True)
class PamConstellation:
    """2^bits equal sub-intervals of [-sqrt(3), sqrt(3)], message at each center.

    Centers are computed arithmetically; at 40 bits there are a trillion of
    them, so nothing here materializes the alphabet.
    """

    bits: int
    m_levels: int

    def center(self, idx):
        """Center of sub-interval idx, vectorized."""
        idx = np.asarray(idx, dtype=np.int64)
        return -_SQRT3 + (2.0 * idx + 1.0) * (_SQRT3 / self.m_levels)

    def decode(self, theta_hat):
        """Index of the sub-interval containing theta_hat, clamped at the
        edges before the int64 cast, so an infinite theta_hat has one too."""
        # one buffer, in place: the temporaries of a chained expression
        # here move the peak heap of a whole run by megabytes
        idx = np.array(theta_hat, dtype=float)
        idx += _SQRT3
        idx *= self.m_levels / (2.0 * _SQRT3)
        np.floor(idx, out=idx)
        np.clip(idx, 0, self.m_levels - 1, out=idx)
        return idx.astype(np.int64)[()]


def build_constellation(payload_bits_sub) -> PamConstellation:
    bits = int(payload_bits_sub)
    if bits < 0 or bits > MAX_SUB_CHANNEL_BITS:
        raise ValueError(
            "sub-channel payload must be 0..%d bits, got %r"
            % (MAX_SUB_CHANNEL_BITS, payload_bits_sub))
    return PamConstellation(bits, 1 << bits)


def to_bits(values, width):
    """(n,) non-negative integers to an (n, width) uint8 bit matrix, MSB first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)
    return ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def from_bits(bit_mat):
    """Inverse of to_bits: (n, width) bit matrix, MSB first, to (n,) uint64.

    A zero-width matrix gives zeros, the only index of a 1-point
    constellation.
    """
    bit_mat = np.asarray(bit_mat)
    shifts = np.arange(bit_mat.shape[1] - 1, -1, -1, dtype=np.uint64)
    return (bit_mat.astype(np.uint64) << shifts[None, :]).sum(axis=1)


# =====================================================================
# Parameter schedule
# =====================================================================


@dataclass(frozen=True)
class Schedule:
    """Per-block coefficient schedule at one channel realization.

    gamma and beta are indexed by refinement step: gamma[j] scales the
    feedback after use j+1, beta[j] is the decoder coefficient at use j+2.
    alpha[i] is the error variance after use i+1.
    """

    n_t: int
    L: float
    d: float
    lam: float
    gamma: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    P: float
    P_fb: float


def build_schedule(snr, snr_fb, tau, n_t, realization: Realization,
                   noise: NoiseSpec) -> Schedule:
    """Coefficients for an n_t-use block; raises if the realization is in outage.

    Callers are expected to have screened feasibility through
    analysis.achievable_rate, which reports the blocks refused here, at any
    noise, as "feedback_outage" or "alpha_underflow"; an infeasible schedule
    here is a programming error, hence ValueError rather than a flag.
    """
    n_t = int(n_t)
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    gain_fwd = realization.gain_fwd
    gain_fb = realization.gain_fb
    if gain_fwd <= 0.0:
        raise ValueError("schedule infeasible: zero forward gain")
    P = snr * noise.sigma1_2
    P_fb = snr_fb * noise.sigma2_2
    d = math.sqrt(6.0 * P_fb)
    alpha1 = 1.0 / (gain_fwd * snr)

    if n_t == 1:
        empty = np.empty(0)
        return Schedule(1, 0.0, d, 0.0, empty, empty, np.array([alpha1]),
                        P, P_fb)

    L = aliasing_budget(tau, n_t)
    _, _, c, growth, outage = _feedback_loop(snr, snr_fb, gain_fwd, gain_fb, L)
    if outage:
        raise ValueError(
            "schedule infeasible: feedback outage (|h_fb|^2*snr_fb = %.4g <= L = %.4g)"
            % (gain_fb * snr_fb, L))

    alpha, gamma2 = _refinement_variances(snr, snr_fb, gain_fwd, gain_fb, L,
                                          growth, np.arange(n_t, dtype=float))
    gamma2 = gamma2[:-1]
    if not np.isfinite(gamma2).all():
        raise ValueError("schedule infeasible: error variance alpha "
                         "underflows float64 at n_t = %d" % n_t)
    gamma = math.sqrt(noise.sigma2_2) * np.sqrt(gamma2)
    lam = math.sqrt(L * P / P_fb)
    # decoder regression coefficient, kept in its published form; it equals
    # the MMSE weight sqrt(2*P*c*alpha)/(P + sigma1^2/|h|^2) algebraically
    beta = (np.sqrt(2.0 * alpha[:-1]) / math.sqrt(noise.sigma1_2)) \
        * math.sqrt(snr * c) / (snr + 1.0 / gain_fwd)
    return Schedule(n_t, L, d, lam, gamma, beta, alpha, P, P_fb)


def modulo_d(x, d):
    """Fold x into the half-open interval [-d/2, d/2)."""
    x = np.asarray(x)
    # x - d*floor(x/d + 0.5) in one buffer; fresh temporaries cost more
    r = np.divide(x, d, out=np.empty(x.shape))
    r += 0.5
    np.floor(r, out=r)
    r *= d
    np.subtract(x, r, out=r)
    # x / d is rounded, so r can land a hair outside the interval
    # (x=2, d=0.8 gives -0.4000000000000004): fold such entries back
    half = d / 2
    if r.min(initial=0.0) < -half or r.max(initial=0.0) >= half:
        r = np.where(r < -half, r + d, np.where(r >= half, r - d, r))
    return r


# =====================================================================
# Block engine
# =====================================================================


@dataclass
class BatchResult:
    dec: np.ndarray                     # (2, n)
    error: np.ndarray
    alias_events: np.ndarray
    eps_hist: np.ndarray | None = None  # (2, n_t, n)
    x_seq: np.ndarray | None = None     # (2, n_t, n)
    x_fb_seq: np.ndarray | None = None  # (2, n_t-1, n)
    z_seq: np.ndarray | None = None     # (2, n_t, n)
    # row 0 of dec, read-only, for perfbench's block counter (tracing.py)
    dec_r = property(lambda self: self.dec[0])


def _noise_arrays(n, n_t, capture_eve=False):
    """Uninitialized arrays in the layout draw_block_noise fills: dither
    (n_t-1, 2, n), forward (2, n_t, n), feedback (2, n_t-1, n), and
    adversary (2, n_t, n) or None."""
    return (np.empty((n_t - 1, 2, n)), np.empty((2, n_t, n)),
            np.empty((2, n_t - 1, n)),
            np.empty((2, n_t, n)) if capture_eve else None)


def draw_block_noise(rng, n, n_t, noise: NoiseSpec, d, capture_eve=False,
                     out=None):
    """Draw everything a batch of n blocks consumes, in documented order.

    Order: dither (n_t-1, 2, n), forward noise (2, n_t, n), feedback noise
    (2, n_t-1, n), then adversary noise (2, n_t, n) only when capture_eve,
    each as one cn_sample. The fixed order lets a substream replay its batch.
    The arrays come from _noise_arrays(n, n_t, capture_eve), or are out, so
    that a caller can allocate them on one thread and fill them on another;
    either way they hold the same draws.

    The dither is uniform on [-d/2, d/2); row 0 of its middle axis masks the
    R sub-channel, row 1 the I. Encoder and decoder share it ahead of time
    and the adversary never sees it, which is the whole security story.
    """
    dither, eta_fwd, eta_fb, eta_eve = (
        _noise_arrays(n, n_t, capture_eve) if out is None else out)
    # rng.uniform(-d/2, d/2) in place: low + (high - low) * U[0, 1)
    half = d / 2.0
    rng.random(out=dither)
    dither *= 2.0 * half
    dither -= half
    cn_sample(rng, noise.sigma1_2, (n_t, n), out=eta_fwd)
    cn_sample(rng, noise.sigma2_2, (n_t - 1, n), out=eta_fb)
    if eta_eve is not None:
        cn_sample(rng, noise.sigma_e2, (n_t, n), out=eta_eve)
    return dither, eta_fwd, eta_fb, eta_eve


def run_block_batch(sched: Schedule, realization: Realization,
                    const: PamConstellation, msg, dither, eta_fwd, eta_fb,
                    *, eta_eve=None, record=False) -> BatchResult:
    """Run n blocks through the feedback loop with externally drawn noise.

    Pure function of its arrays: no RNG inside, so zero-noise limits and
    transcript replays are exact. msg is the (2, n) integer indices, rows R
    and I, inside const, which both sub-channels share (ValueError
    otherwise), and the decision dec comes back in its layout; the noise is
    laid out as draw_block_noise draws it, and eta_eve enables the adversary
    tap, z_seq. record=True keeps the transcript in the layout of the noise:
    errors and forward symbols (2, n_t, n), feedback symbols (2, n_t-1, n).
    """
    n_t = sched.n_t
    msg = np.asarray(msg, dtype=np.int64)
    if msg.ndim != 2 or len(msg) != 2:
        raise ValueError("msg must have shape (2, n), not %s" % (msg.shape,))
    if ((msg < 0) | (msg >= const.m_levels)).any():
        raise ValueError("message indices outside the constellation")
    n = msg.shape[1]
    theta = const.center(msg)
    sqrt_pr = math.sqrt(sched.P / 2.0)
    half_d = sched.d / 2.0

    alias = np.zeros((2, n), dtype=np.int64)
    eps_hist = x_seq = xfb_seq = None
    if record:
        eps_hist, x_seq, xfb_seq = (np.empty((2, uses, n))
                                    for uses in (n_t, n_t, n_t - 1))
    z_seq = np.empty((2, n_t, n)) if eta_eve is not None else None
    ge, gf = realization.g, realization.g_fb
    # c*p = c.real*p + [-c.imag, c.imag]*p[::-1] for a component-first pair p
    ge_i, gf_i = (np.array([[-c.imag], [c.imag]]) for c in (ge, gf))

    x = sqrt_pr * theta
    for i in range(n_t):
        yp = x + derotate(eta_fwd[:, i], realization.h)
        th = yp / sqrt_pr if i == 0 else th - sched.beta[i - 1] * yp
        eps = np.subtract(th, theta, out=eps_hist[:, i] if record else None)
        if record:
            x_seq[:, i] = x
        if i == n_t - 1:
            break

        g = sched.gamma[i]
        fold = modulo_d(g * th + dither[i], sched.d)
        if z_seq is not None:
            z_seq[:, i] = (ge.real * x + ge_i * x[::-1] + gf.real * fold
                           + gf_i * fold[::-1] + eta_eve[:, i])
        noise_fb = derotate(eta_fb[:, i], realization.h_fb)
        w = fold + noise_fb
        # simulator-side truth: fold events, counted per sub-channel
        arg = g * eps + noise_fb
        alias += (arg < -half_d) | (arg >= half_d)
        x = sched.lam * modulo_d(w - g * theta - dither[i], sched.d)
        if record:
            xfb_seq[:, i] = fold
    if z_seq is not None:
        z_seq[:, -1] = ge.real * x + ge_i * x[::-1] + eta_eve[:, -1]

    dec = const.decode(th)
    return BatchResult(dec, (dec != msg).any(axis=0),
                       alias.sum(axis=0), eps_hist, x_seq, xfb_seq, z_seq)
