"""Shared fixtures: the canonical link config most tests evaluate at."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from fblink.channel import NoiseSpec, Realization, derotate
from fblink.codec import modulo_d
from fblink.source_coding import QuantizedPayload

# Forward 10 dB, feedback 15 dB over unit noise everywhere.
SNR = 10.0
SNR_FB = 10.0 ** 1.5
TAU = 1e-3


@pytest.fixture(scope="session", autouse=True)
def src_on_subprocess_path():
    """Python subprocesses that tests start import fblink from this checkout,
    as the tests themselves do through pytest's pythonpath setting."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture
def unit_realization():
    """All four coefficients pinned to 1: gains 1, no rotation."""
    return Realization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)


@pytest.fixture
def unit_noise():
    return NoiseSpec(1.0, 1.0, 1.0)


def draw_messages(rng, const, n):
    """A batch's (2, n) message indices inside const: n for R, then n for I,
    in two draws from rng."""
    return np.stack([rng.integers(0, const.m_levels, n) for _ in "RI"])


def bits_payload(bits):
    """A payload whose cells are the given bits: one-bit cells at unit step
    around k_half = 1, so dequantizing it without dither gives each bit less
    one."""
    return QuantizedPayload(bits, len(bits), 1, 1, 1.0, len(bits), 1.0 / 12.0)


def as_complex(pair):
    """Complex symbols from a component-first (2, ...) array."""
    return pair[0] + 1j * pair[1]


def assert_uses_replay(out, sched, real, theta, dither, eta_fwd, eta_fb):
    """A record=True transcript obeys every forward and feedback use.

    theta is the (2, n) message centers, rows R and I, and the noise is laid
    out as draw_block_noise draws it, like the transcript: column i of every
    (2, uses, n) array is use i. Each use is rebuilt here as a complex
    symbol through its coefficient. Forward use i refines the error by the
    derotated y_i = h*x_i + eta_fwd; feedback use i arrives as
    h_fb*x_fb_i + eta_fb, and the encoder's next symbol is that reply
    unmasked, folded and rescaled: x_{i+1} = lam*mod_d(w_i - gamma_i*theta -
    v_i) per sub-channel. The fold of use i is out of range when
    gamma_i*eps_i plus the derotated feedback noise leaves [-d/2, d/2);
    alias_events counts those per block, over both sub-channels.
    """
    tol = dict(rtol=1e-12, atol=1e-12)
    eps = out.eps_hist
    for i in range(sched.n_t):
        y = real.h * as_complex(out.x_seq[:, i]) + as_complex(eta_fwd[:, i])
        yp = derotate(np.array([y.real, y.imag]), real.h)
        want = (yp / math.sqrt(sched.P / 2.0) - theta if i == 0
                else eps[:, i - 1] - sched.beta[i - 1] * yp)
        np.testing.assert_allclose(eps[:, i], want, **tol)
    alias = np.zeros(theta.shape[1], dtype=np.int64)
    for i in range(sched.n_t - 1):
        y_fb = (real.h_fb * as_complex(out.x_fb_seq[:, i])
                + as_complex(eta_fb[:, i]))
        w = derotate(np.array([y_fb.real, y_fb.imag]), real.h_fb)
        et = modulo_d(w - sched.gamma[i] * theta - dither[i], sched.d)
        np.testing.assert_allclose(out.x_seq[:, i + 1], sched.lam * et,
                                   **tol)
        arg = sched.gamma[i] * eps[:, i] + derotate(eta_fb[:, i], real.h_fb)
        alias += ((arg < -sched.d / 2) | (arg >= sched.d / 2)).sum(axis=0)
    np.testing.assert_array_equal(out.alias_events, alias)
