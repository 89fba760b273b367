"""Dithered uniform quantization and payload chunking for gradient uploads.

A round's aggregate sits in coordinates modeled N(0, source_var) with
source_var = s_total*sigma_w2 + K*sigma2. The subtractive dither makes the
reconstruction error exactly uniform over one step regardless of the input, so
mean-square distortion is step^2/12 = D for every unclipped coordinate, with
no entropy coder in the loop. The price of fixed-width cells over a +-5 sigma
clip range is one to two bits per coordinate above the Gaussian
rate-distortion value; the accounting payload ceil(q*R(D)) used by the
rate/secrecy arithmetic is carried alongside the physical bit string, both
logged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import plan_blocklength, rate_distortion
from .codec import MAX_SUB_CHANNEL_BITS, from_bits, to_bits

__all__ = [
    "QuantizedPayload",
    "ChunkGroup",
    "quantize",
    "dequantize",
    "chunk",
    "MAX_CHUNK_BITS",
    "MAX_CELL_BITS",
]

# Two real sub-channels at their widest; a chunk never exceeds one block.
MAX_CHUNK_BITS = 2 * MAX_SUB_CHANNEL_BITS

# The cell indices k and the reconstruction k*step pass through float64,
# exact for integers below 2^53: at most this k_half keeps the 2*k_half + 1
# cells inside 53-bit indices.
_MAX_K_HALF = 2 ** 52 - 1

# The widest cell quantize emits: offsets 0..2*k_half take the bits of
# 2*k_half, so no round of n coordinates sends more than n*MAX_CELL_BITS.
MAX_CELL_BITS = (2 * _MAX_K_HALF).bit_length()


@dataclass
class QuantizedPayload:
    """Fixed-width cell indices for one round's coordinates.

    indices is the physical, invertible bit string (n_coords*width_bits, MSB
    first per coordinate); accounted_bits = ceil(n_coords*R(D)) is the payload
    length the rate and secrecy accounting budgets for. Both are real
    quantities of the same round and they intentionally differ; see the
    module docstring.
    """

    indices: np.ndarray
    n_coords: int
    width_bits: int
    k_half: int
    rate_bits_per_coord: float
    accounted_bits: int
    distortion: float

    @property
    def physical_bits(self) -> int:
        return self.n_coords * self.width_bits


def quantize(w, distortion, source_var, rng) -> QuantizedPayload:
    """Quantize a coordinate vector at target mean-square distortion.

    rng supplies the subtractive dither (one uniform per coordinate); encoder
    and decoder must derive it from the same substream. Cells are clipped to
    +-5*sqrt(source_var), so far-tail coordinates saturate instead of growing
    the index width.

    D >= source_var means the rate-distortion value is zero: nothing is
    transmitted and the reconstruction is the all-zero vector. A ratio
    source_var/D whose cell indices would pass 53 bits is an OverflowError.
    """
    w = np.asarray(w, dtype=float)
    if not 0.0 < source_var < math.inf:
        raise ValueError("source_var must be positive and finite")
    rate = rate_distortion(distortion, source_var)
    if rate == 0.0:
        return QuantizedPayload(np.empty(0, dtype=np.uint8), len(w), 0, 0,
                                0.0, 0, distortion)
    step = math.sqrt(12.0 * distortion)
    # clip at 5 sigma: the tail's squared-error contribution is ~2e-8 of
    # source_var, negligible against D even at source_var/D ~ 1e5, while a
    # 4 sigma clip already costs several percent of D at that ratio
    reach = 5.0 * math.sqrt(source_var) / step
    if not reach <= _MAX_K_HALF:
        raise OverflowError(
            "distortion %r at source_var %r needs %.3g cells on either side "
            "of zero, more than the %d that 53-bit cell indices hold"
            % (distortion, source_var, reach, _MAX_K_HALF))
    k_half = int(math.ceil(reach))
    # the bits of the top offset 2*k_half, counted exactly: a float log2
    # of the cell count rounds 2^49 + 1 cells to 49 bits
    width = (2 * k_half).bit_length()
    u = rng.uniform(-step / 2.0, step / 2.0, size=len(w))
    # clipped before the cast: a cell past the int64 range has no cast
    k = np.clip(np.rint((w + u) / step), -k_half, k_half).astype(np.int64)
    bits = to_bits(k + k_half, width).ravel()
    return QuantizedPayload(bits, len(w), width, k_half, rate,
                            int(math.ceil(len(w) * rate)), distortion)


def dequantize(payload: QuantizedPayload, rng) -> np.ndarray:
    """Rebuild coordinates from (possibly corrupted) cell index bits.

    rng must replay the dither substream quantize consumed. rng=None
    reconstructs with zero dither, which is all an observer without the
    shared stream can do; it costs up to step/2 extra error per coordinate.
    A flipped index bit lands in a different cell of the same coordinate and
    touches nothing else.
    """
    if payload.width_bits == 0:
        return np.zeros(payload.n_coords)
    bits = np.asarray(payload.indices)
    if len(bits) != payload.n_coords * payload.width_bits:
        raise ValueError("bit string length does not match coordinate count")
    step = math.sqrt(12.0 * payload.distortion)
    if rng is None:
        u = np.zeros(payload.n_coords)
    else:
        u = rng.uniform(-step / 2.0, step / 2.0, size=payload.n_coords)
    offset = from_bits(bits.reshape(payload.n_coords, payload.width_bits))
    k = offset.astype(np.int64) - payload.k_half
    # corrupted strings can exceed the cell range; saturate like the encoder
    np.clip(k, -payload.k_half, payload.k_half, out=k)
    return k * step - u


@dataclass(frozen=True)
class ChunkGroup:
    """count equal chunks of n_bits, the last zero-padded: one block batch."""

    count: int
    n_bits: int
    n_t: int
    tau_chunk: float


def chunk(total_bits, snr, snr_fb, gain_fwd, gain_fb, tau, n_max):
    """Slice a payload into block-sized chunks and plan their blocklength.

    ceil(total_bits/MAX_CHUNK_BITS) chunks of n_bits = min(MAX_CHUNK_BITS,
    total_bits rounded up to even, for the two real sub-channels), the last
    zero-padded, all at one plan. The block error budget is split evenly
    (tau' = tau/n_chunks) so the union over chunks keeps the round inside
    tau. A channel that carries a full chunk carries any shorter tail at
    the same blocklength, so the padding costs no feasibility.

    Returns [ChunkGroup], for an empty payload a batch of no blocks at the
    one-use schedule, or None when the chunk has no feasible blocklength at
    this realization (feedback outage, or no forward gain; the caller counts
    it).
    """
    if total_bits < 0:
        raise ValueError("total_bits must be >= 0")
    if total_bits == 0:
        return [ChunkGroup(0, 0, 1, tau)] if gain_fwd > 0 else None
    count = -(-total_bits // MAX_CHUNK_BITS)
    n_bits = min(MAX_CHUNK_BITS, total_bits + (total_bits & 1))
    rep = plan_blocklength(n_bits, snr, snr_fb, gain_fwd, gain_fb,
                           tau / count, n_max)
    if not rep.feasible:
        return None
    return [ChunkGroup(count, n_bits, rep.n_t, tau / count)]
