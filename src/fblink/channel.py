"""Quasi-static fading duplex channel with an eavesdropper tap.

One realization fixes four complex coefficients for the duration of a round:
h (edge to cloud), h_fb (cloud to edge), and the eavesdropper's g (on forward
symbols) and g_fb (on feedback symbols). The adversary hears both directions
summed per channel use. Noise is circularly symmetric complex Gaussian,
sampled as two real Gaussians of variance sigma2/2 each. The uses themselves,
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


def cn_sample(rng, var, size=None):
    """Circularly symmetric complex Gaussian, total variance var."""
    scale = np.sqrt(var / 2.0)
    re = rng.normal(0.0, scale, size)
    im = rng.normal(0.0, scale, size)
    return re + 1j * im


def sample_realization(rng) -> Realization:
    """Draw h, h_fb, g, g_fb i.i.d. CN(0,1), in that documented order."""
    draws = [complex(cn_sample(rng, 1.0)) for _ in range(4)]
    return Realization(*draws)


def derotate(y, coeff):
    """Project a received symbol onto the transmit frame of a known coefficient.

    Returns the real pair (y'_R, y'_I) of y*conj(coeff)/|coeff|^2, so that a
    transmitted x appears as x plus noise of variance sigma^2/(2*|coeff|^2)
    per real component.
    """
    c2 = coeff.real * coeff.real + coeff.imag * coeff.imag
    if c2 == 0.0:
        raise ValueError("cannot derotate by a zero coefficient")
    y = np.asarray(y)
    re = (coeff.real * y.real + coeff.imag * y.imag) / c2
    im = (coeff.real * y.imag - coeff.imag * y.real) / c2
    return re, im
