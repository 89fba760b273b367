"""Shared fixtures: the canonical link config most tests evaluate at."""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from fblink.channel import NoiseSpec, Realization, derotate
from fblink.codec import modulo_d

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


def assert_uses_replay(out, sched, real, theta, dither, eta_fwd, eta_fb):
    """A record=True transcript obeys every forward and feedback use.

    theta is the (n, 2) message centers. Forward use i refines the error by
    the derotated y_i = h*x_i + eta_fwd; feedback use i arrives as
    h_fb*x_fb_i + eta_fb, and the encoder's next symbol is that reply
    unmasked, folded and rescaled: x_{i+1} = lam*mod_d(w_i - gamma_i*theta -
    v_i) per sub-channel. The fold of use i is out of range when
    gamma_i*eps_i plus the feedback noise w_i - x_fb_i leaves [-d/2, d/2);
    alias_events counts those per block, over both sub-channels.
    """
    tol = dict(rtol=1e-12, atol=1e-12)
    for i in range(sched.n_t):
        yp = np.stack(derotate(real.h * out.x_seq[:, i] + eta_fwd[:, i],
                               real.h), axis=-1)
        want = (yp / math.sqrt(sched.P / 2.0) - theta if i == 0
                else out.eps_hist[:, i - 1] - sched.beta[i - 1] * yp)
        np.testing.assert_allclose(out.eps_hist[:, i], want, **tol)
    alias = np.zeros(len(theta), dtype=np.int64)
    for i in range(sched.n_t - 1):
        xfb = out.x_fb_seq[:, i]
        w = np.stack(derotate(real.h_fb * xfb + eta_fb[:, i], real.h_fb),
                     axis=-1)
        et = modulo_d(w - sched.gamma[i] * theta - dither[:, i], sched.d)
        np.testing.assert_allclose(
            out.x_seq[:, i + 1], sched.lam * (et[:, 0] + 1j * et[:, 1]),
            **tol)
        arg = (sched.gamma[i] * out.eps_hist[:, i]
               + (w - np.stack([xfb.real, xfb.imag], axis=-1)))
        alias += ((arg < -sched.d / 2) | (arg >= sched.d / 2)).sum(axis=-1)
    np.testing.assert_array_equal(out.alias_events, alias)
