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
from .codec import from_bits, to_bits

__all__ = [
    "QuantizedPayload",
    "ChunkPlan",
    "quantize",
    "dequantize",
    "chunk",
    "MAX_CHUNK_BITS",
]

# Two real sub-channels at 40 bits each; a chunk never exceeds one block.
MAX_CHUNK_BITS = 80


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
    n_cells: int
    k_half: int
    rate_bits_per_coord: float
    accounted_bits: int
    distortion: float
    source_var: float

    @property
    def physical_bits(self) -> int:
        return self.n_coords * self.width_bits


def _cell_geometry(distortion, source_var):
    # clip at 5 sigma: the tail's squared-error contribution is ~2e-8 of
    # source_var, negligible against D even at source_var/D ~ 1e5, while a
    # 4 sigma clip already costs several percent of D at that ratio
    step = math.sqrt(12.0 * distortion)
    k_half = int(math.ceil(5.0 * math.sqrt(source_var) / step))
    n_cells = 2 * k_half + 1
    width = max(1, int(math.ceil(math.log2(n_cells))))
    return step, k_half, n_cells, width


def quantize(w, distortion, source_var, rng) -> QuantizedPayload:
    """Quantize a coordinate vector at target mean-square distortion.

    rng supplies the subtractive dither (one uniform per coordinate); encoder
    and decoder must derive it from the same substream. Cells are clipped to
    +-5*sqrt(source_var), so far-tail coordinates saturate instead of growing
    the index width.

    D >= source_var means the rate-distortion value is zero: nothing is
    transmitted and the reconstruction is the all-zero vector.
    """
    w = np.asarray(w, dtype=float)
    if source_var <= 0.0:
        raise ValueError("source_var must be positive")
    rate = rate_distortion(distortion, source_var)
    if rate == 0.0:
        return QuantizedPayload(np.empty(0, dtype=np.uint8), len(w), 0, 0, 0,
                                0.0, 0, distortion, source_var)
    step, k_half, n_cells, width = _cell_geometry(distortion, source_var)
    u = rng.uniform(-step / 2.0, step / 2.0, size=len(w))
    k = np.rint((w + u) / step).astype(np.int64)
    np.clip(k, -k_half, k_half, out=k)
    bits = to_bits(k + k_half, width).ravel()
    return QuantizedPayload(bits, len(w), width, n_cells, k_half, rate,
                            int(math.ceil(len(w) * rate)), distortion, source_var)


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
class ChunkPlan:
    """One block-sized slice of a round's bit string."""

    start: int
    n_bits: int
    n_t: int
    tau_chunk: float
    rate: float


def chunk(total_bits, snr, snr_fb, gain_fwd, gain_fb, tau, n_max,
          max_chunk_bits=MAX_CHUNK_BITS):
    """Slice a payload into block-sized chunks and plan each blocklength.

    All chunks carry max_chunk_bits except a shorter tail. The block error
    budget tau is split evenly (tau' = tau/n_chunks) so the union over chunks
    keeps the round inside tau. Blocklengths are planned for the chunk size
    rounded up to even: the message splits across two real sub-channels, and
    an even budget guarantees each sub-channel stays within its floor of the
    per-use rate.

    Returns a list of ChunkPlan, or None when any chunk has no feasible
    blocklength at this realization (feedback outage; the caller counts it).
    """
    if total_bits < 0:
        raise ValueError("total_bits must be >= 0")
    if not 2 <= max_chunk_bits <= MAX_CHUNK_BITS:
        raise ValueError("max_chunk_bits must be in [2, %d]" % MAX_CHUNK_BITS)
    if total_bits == 0:
        return []
    n_chunks = int(math.ceil(total_bits / max_chunk_bits))
    tau_chunk = tau / n_chunks
    plans = []
    start = 0
    by_size = {}  # every full-size chunk shares one blocklength plan
    for c in range(n_chunks):
        n_bits = min(max_chunk_bits, total_bits - start)
        rep = by_size.get(n_bits)
        if rep is None:
            even = n_bits + (n_bits & 1)
            rep = plan_blocklength(even, snr, snr_fb, gain_fwd, gain_fb,
                                   tau_chunk, n_max)
            by_size[n_bits] = rep
        if not rep.feasible:
            return None
        plans.append(ChunkPlan(start, n_bits, rep.n_t, tau_chunk, rep.rate))
        start += n_bits
    return plans
