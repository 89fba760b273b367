import copy
import math

import numpy as np
import pytest

from fblink.channel import (NoiseSpec, Realization, cn_sample, derotate,
                            sample_realization)
from fblink.codec import (build_constellation, build_schedule,
                          draw_block_noise, eve_observation, run_block_batch)
from fblink.streams import substream

from conftest import (SNR, SNR_FB, TAU, as_complex, assert_uses_replay,
                      draw_messages)


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
    re, im = cn_sample(rng, 2.0, 200000)
    assert abs(np.var(re) - 1.0) < 0.02
    assert abs(np.var(im) - 1.0) < 0.02
    assert abs(np.mean(re)) < 0.01
    assert abs(np.cov(re, im)[0, 1]) < 0.01


def test_cn_sample_scalar_and_shape():
    # component first: the real parts, then the imaginary parts, the same
    # numbers as one normal() call for each
    rng = substream(5, 2)
    assert cn_sample(rng, 1.0).shape == (2,)
    assert cn_sample(rng, 1.0, (3, 4)).shape == (2, 3, 4)
    z = cn_sample(substream(5, 3), 2.0, (3, 4))
    replay = substream(5, 3)
    np.testing.assert_array_equal(z[0], replay.normal(0.0, 1.0, (3, 4)))
    np.testing.assert_array_equal(z[1], replay.normal(0.0, 1.0, (3, 4)))
    assert z.dtype == np.float64


def test_sample_realization_documented_draw_order():
    # each coefficient is a real and then an imaginary draw of variance 1/2
    r = sample_realization(substream(9, 0))
    rng = substream(9, 0)
    s = math.sqrt(0.5)
    expect = [complex(rng.normal(0.0, s), rng.normal(0.0, s))
              for _ in range(4)]
    assert [r.h, r.h_fb, r.g, r.g_fb] == expect


def test_sample_realization_deterministic():
    a = sample_realization(substream(9, 3))
    b = sample_realization(substream(9, 3))
    assert a == b


def _recorded_uses(real, noise, n_t=4, n=128, seed=1):
    # the block engine applies every channel use; run it on drawn noise
    sched = build_schedule(SNR, SNR_FB, TAU, n_t, real, noise)
    const = build_constellation(2)
    msg = draw_messages(substream(seed, 0), const, n)
    rng = substream(seed, 1)
    dith, ef, eb = draw_block_noise(rng, n, n_t, noise, sched.d)
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, tap=True,
                          record=True)
    # her record: the tap plus her noise, the generator's next draw
    ee = cn_sample(copy.deepcopy(rng), noise.sigma_e2, (n_t, n))
    eve_observation(rng, out.z_seq, noise)
    return out, sched, const.center(msg), dith, ef, eb, ee


def test_uses_are_replayable_linear_maps():
    real = Realization(0.7 - 1.2j, 0.4 + 0.9j, 0.3 + 0.0j, 1j)
    noise = NoiseSpec(2.0, 0.5, 1.5)
    out, sched, theta, dith, ef, eb, ee = _recorded_uses(real, noise)
    assert_uses_replay(out, sched, real, theta, dith, ef, eb)
    assert out.z_seq.shape == (2, 4, 128)
    np.testing.assert_allclose(
        as_complex(out.z_seq[:, :-1]), real.g * as_complex(out.x_seq[:, :-1])
        + real.g_fb * as_complex(out.x_fb_seq) + as_complex(ee[:, :-1]),
        rtol=1e-12, atol=1e-12)
    again = _recorded_uses(real, noise)[0]
    for name in ("eps_hist", "x_seq", "x_fb_seq", "z_seq"):
        np.testing.assert_array_equal(getattr(again, name), getattr(out, name))


def test_eve_use_final_use_has_no_feedback_term():
    # the last forward use gets no feedback reply, so the eavesdropper's last
    # observation is g*x + eta_e whatever g_fb is; earlier ones move with g_fb
    noise = NoiseSpec(1.0, 1.0, 1.0)
    a, *_, ee = _recorded_uses(Realization(1.0 + 0j, 1.0 + 0j, 2.0 + 0j,
                                           5.0 + 0j), noise, seed=5)
    b = _recorded_uses(Realization(1.0 + 0j, 1.0 + 0j, 2.0 + 0j, -3.0j),
                       noise, seed=5)[0]
    np.testing.assert_array_equal(a.x_seq, b.x_seq)
    np.testing.assert_allclose(as_complex(a.z_seq[:, -1]),
                               2.0 * as_complex(a.x_seq[:, -1])
                               + as_complex(ee[:, -1]),
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(a.z_seq[:, -1], b.z_seq[:, -1])
    assert np.all(a.z_seq[:, :-1] != b.z_seq[:, :-1])


def test_derotate_inverts_rotation():
    x = 0.8 - 0.3j
    for coeff in (1j, 2.0 + 0j, -0.7 + 1.9j):
        y = coeff * x
        re, im = derotate(np.array([y.real, y.imag]), coeff)
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


@pytest.mark.parametrize("coeff", [0.9 - 0.4j, complex(-1.7, -0.0), -0.6j],
                         ids=["rotated", "real", "imaginary"])
def test_derotate_out_is_bitwise_the_allocating_form(coeff):
    # a*y + b*[y1, -y0], the expression before out existed, float for
    # float: signed zeros included, which a real or an imaginary
    # coefficient makes of one of its two products
    def reference(y, coeff):
        c2 = coeff.real * coeff.real + coeff.imag * coeff.imag
        a, b = coeff.real / c2, coeff.imag / c2
        return a * y + b * np.array([y[1], -y[0]])

    y = cn_sample(substream(3, 0), 2.0, (3, 40))
    y[:, 0, :4] = [[0.0, -0.0, 1.5, -0.0], [-0.0, 0.0, -0.0, 2.5]]
    for pair in (y, y[:, 1], y[:, 2, 7]):
        want = reference(pair, coeff)
        out = np.full(pair.shape, np.nan)
        assert derotate(pair, coeff, out=out) is out
        for got in (out, derotate(pair, coeff)):
            assert got.tobytes() == want.tobytes()


def test_derotate_zero_coeff_rejected():
    with pytest.raises(ValueError):
        derotate(np.array([1.0, 0.0]), 0j)
