import numpy as np
import pytest

from fblink.channel import (NoiseSpec, Realization, cn_sample, derotate,
                            sample_realization)
from fblink.codec import (build_constellation, build_schedule,
                          draw_block_noise, run_block_batch)
from fblink.streams import substream

from conftest import SNR, SNR_FB, TAU


def test_realization_gains():
    r = Realization(3 + 4j, 1j, -2.0 + 0j, 0.5 + 0.5j)
    assert r.gain_fwd == 25.0
    assert r.gain_fb == 1.0
    assert r.gain_eve == 4.0


def test_noise_spec_rejects_nonpositive():
    for bad in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
        with pytest.raises(ValueError):
            NoiseSpec(*bad)


def test_cn_sample_component_variance():
    rng = substream(5, 1)
    z = cn_sample(rng, 2.0, 200000)
    assert abs(np.var(z.real) - 1.0) < 0.02
    assert abs(np.var(z.imag) - 1.0) < 0.02
    assert abs(np.mean(z.real)) < 0.01
    assert abs(np.cov(z.real, z.imag)[0, 1]) < 0.01


def test_cn_sample_scalar_and_shape():
    rng = substream(5, 2)
    assert np.shape(cn_sample(rng, 1.0)) == ()
    assert cn_sample(rng, 1.0, (3, 4)).shape == (3, 4)


def test_sample_realization_documented_draw_order():
    r = sample_realization(substream(9, 0))
    rng = substream(9, 0)
    expect = [complex(cn_sample(rng, 1.0)) for _ in range(4)]
    assert [r.h, r.h_fb, r.g, r.g_fb] == expect


def test_sample_realization_deterministic():
    a = sample_realization(substream(9, 3))
    b = sample_realization(substream(9, 3))
    assert a == b


def _recorded_uses(real, noise, n_t=4, n=128, seed=1):
    # the block engine applies every channel use; run it on drawn noise
    sched = build_schedule(SNR, SNR_FB, TAU, n_t, real, noise)
    const = build_constellation(2)
    rng = substream(seed, 0)
    mr = rng.integers(0, const.m_levels, n)
    mi = rng.integers(0, const.m_levels, n)
    dith, ef, eb, ee = draw_block_noise(substream(seed, 1), n, n_t, noise,
                                        sched.d, capture_eve=True)
    out = run_block_batch(sched, real, const, const, mr, mi, dith, ef, eb,
                          eta_eve=ee, record=True)
    return out, ef, eb, ee


def test_uses_are_replayable_linear_maps():
    real = Realization(0.7 - 1.2j, 0.4 + 0.9j, 0.3 + 0.0j, 1j)
    noise = NoiseSpec(2.0, 0.5, 1.5)
    out, ef, eb, ee = _recorded_uses(real, noise)
    tol = dict(rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.y_seq, real.h * out.x_seq + ef, **tol)
    np.testing.assert_allclose(out.y_fb_seq,
                               real.h_fb * out.x_fb_seq + eb, **tol)
    np.testing.assert_allclose(
        out.z_seq[:, :-1], real.g * out.x_seq[:, :-1]
        + real.g_fb * out.x_fb_seq + ee[:, :-1], **tol)
    again, _, _, _ = _recorded_uses(real, noise)
    for name in ("x_seq", "x_fb_seq", "y_seq", "y_fb_seq", "z_seq"):
        np.testing.assert_array_equal(getattr(again, name), getattr(out, name))


def test_eve_use_final_use_has_no_feedback_term():
    # the last forward use gets no feedback reply, so the eavesdropper's last
    # observation is g*x + eta_e whatever g_fb is; earlier ones move with g_fb
    noise = NoiseSpec(1.0, 1.0, 1.0)
    a, _, _, ee = _recorded_uses(Realization(1.0 + 0j, 1.0 + 0j, 2.0 + 0j,
                                             5.0 + 0j), noise, seed=5)
    b, _, _, _ = _recorded_uses(Realization(1.0 + 0j, 1.0 + 0j, 2.0 + 0j,
                                            -3.0j), noise, seed=5)
    np.testing.assert_array_equal(a.x_seq, b.x_seq)
    np.testing.assert_allclose(a.z_seq[:, -1], 2.0 * a.x_seq[:, -1]
                               + ee[:, -1], rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(a.z_seq[:, -1], b.z_seq[:, -1])
    assert np.all(a.z_seq[:, :-1] != b.z_seq[:, :-1])


def test_derotate_inverts_rotation():
    x = 0.8 - 0.3j
    for coeff in (1j, 2.0 + 0j, -0.7 + 1.9j):
        re, im = derotate(coeff * x, coeff)
        assert abs(re - x.real) < 1e-12
        assert abs(im - x.imag) < 1e-12


def test_derotate_noise_scaling():
    # derotating y = h*x + eta leaves x + eta/h: component variance
    # sigma^2 / (2*|h|^2)
    h = 1.0 + 2.0j
    eta = cn_sample(substream(2, 0), 4.0, 100000)
    re, im = derotate(eta, h)
    want = 4.0 / (2.0 * abs(h) ** 2)
    assert abs(np.var(re) / want - 1.0) < 0.03
    assert abs(np.var(im) / want - 1.0) < 0.03


def test_derotate_zero_coeff_rejected():
    with pytest.raises(ValueError):
        derotate(1.0 + 0j, 0j)
