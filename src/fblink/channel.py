"""Quasi-static fading duplex channel with an eavesdropper tap.

One realization fixes four complex coefficients for the duration of a round:
h (edge to cloud), h_fb (cloud to edge), and the eavesdropper's g (on forward
symbols) and g_fb (on feedback symbols). The adversary hears both directions
summed per channel use. Noise is circularly symmetric complex Gaussian, kept
component first as two real Gaussians of variance sigma2/2 each. The uses,
y = h*x + eta, y_fb = h_fb*x_fb + eta_fb and z = g*x + g_fb*x_fb + eta_e, are
applied a batch of blocks at a time by `codec.run_block_batch`.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Realization",
    "NoiseSpec",
    "sample_realization",
    "cn_sample",
    "derotate",
]


@dataclass(frozen=True)
class Realization:
    """One draw of the four fading coefficients, fixed within a round."""

    h: complex
    h_fb: complex
    g: complex
    g_fb: complex

    @property
    def gain_fwd(self) -> float:
        return abs(self.h) ** 2

    @property
    def gain_fb(self) -> float:
        return abs(self.h_fb) ** 2

    @property
    def gain_eve(self) -> float:
        return abs(self.g) ** 2


@dataclass(frozen=True)
class NoiseSpec:
    sigma1_2: float  # forward noise variance at the cloud
    sigma2_2: float  # feedback noise variance at the edge
    sigma_e2: float  # noise variance at the eavesdropper

    def __post_init__(self):
        if min(self.sigma1_2, self.sigma2_2, self.sigma_e2) <= 0.0:
            raise ValueError("noise variances must be positive")


def cn_sample(rng, var, size=None, out=None):
    """CN(0, var) noise, component first: (2,) + size floats, real parts then
    imaginary parts: two normal(0, sqrt(var/2), size) calls as one draw. out,
    a C-contiguous float array of that shape, is filled and returned instead
    of a fresh one, with the same draws."""
    z = rng.standard_normal((2, *np.atleast_1d(() if size is None else size)),
                            out=out)
    z *= np.sqrt(var / 2.0)
    return z


def sample_realization(rng) -> Realization:
    """Draw h, h_fb, g, g_fb i.i.d. CN(0,1), in that documented order: one
    cn_sample of 8 i.i.d. N(0, 1/2) draws, read in stream order as (re, im)."""
    draws = cn_sample(rng, 1.0, 4).reshape(4, 2).tolist()
    return Realization(*(complex(*p) for p in draws))


def derotate(y, coeff, out=None):
    """Project a received pair onto the transmit frame of a known coefficient.

    y is component first, shape (2,) + shape, and so is the result: the rows
    y'_R and y'_I of y*conj(coeff)/|coeff|^2, so that a transmitted x appears
    as x plus noise of variance sigma^2/(2*|coeff|^2) per real component.
    Linear, so the block engine derotates the noise alone: x + derotate(eta).
    out, a float array of y's shape that shares no memory with y, is filled
    and returned instead of a fresh one, with the same floats.
    """
    c2 = coeff.real * coeff.real + coeff.imag * coeff.imag
    if c2 == 0.0:
        raise ValueError("cannot derotate by a zero coefficient")
    a, b = coeff.real / c2, coeff.imag / c2
    # a*y + b*[y1, -y0], with b*(-y0) taken as (-b)*y0, which is exact
    col = np.array([b, -b]).reshape((2,) + (1,) * (np.ndim(y) - 1))
    out = np.multiply(y[::-1], col, out=out)
    out += a * y
    return out
