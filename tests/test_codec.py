"""Feedback block engine: schedule algebra, fold behavior, Monte Carlo sanity.

Statistical assertions here run at 2e4 blocks with generous margins; the
tight large-sample versions live in the acceptance suite.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from fblink import codec, source_coding
from fblink.analysis import achievable_rate, plan_blocklength, q_inv
from fblink.channel import NoiseSpec, Realization, cn_sample
from fblink.codec import (build_constellation, build_schedule, from_bits,
                          modulo_d, run_block_batch, to_bits)
from fblink.streams import substream

from conftest import (SNR, SNR_FB, TAU, as_complex, assert_uses_replay,
                      draw_messages)


def make_schedule(n_t=10, real=None, noise=None, tau=TAU, snr=SNR,
                  snr_fb=SNR_FB):
    real = real or Realization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    noise = noise or NoiseSpec(1.0, 1.0, 1.0)
    return build_schedule(snr, snr_fb, tau, n_t, real, noise), real, noise


# ---------------------------------------------------------------------
# Constellation
# ---------------------------------------------------------------------


def test_constellation_small_centers():
    c = build_constellation(2)
    np.testing.assert_allclose(
        c.center(np.arange(c.m_levels)),
        [-3 / 4 * math.sqrt(3), -1 / 4 * math.sqrt(3),
         1 / 4 * math.sqrt(3), 3 / 4 * math.sqrt(3)], rtol=1e-12)


def test_zero_bit_constellation():
    c = build_constellation(0)
    assert c.m_levels == 1
    assert c.center(0) == 0.0
    assert c.decode(0.4) == 0


def test_constellation_bounds():
    with pytest.raises(ValueError):
        build_constellation(-1)
    with pytest.raises(ValueError):
        build_constellation(codec.MAX_SUB_CHANNEL_BITS + 1)


def test_wide_constellation_decode_roundtrip():
    c = build_constellation(40)
    idx = substream(3, 0).integers(0, c.m_levels, size=1000)
    np.testing.assert_array_equal(c.decode(c.center(idx)), idx)


def test_decode_clamps_out_of_range():
    c = build_constellation(3)
    assert c.decode(-5.0) == 0
    assert c.decode(5.0) == c.m_levels - 1
    # past int64 the clamp must come before the cast (pytest turns the
    # cast's RuntimeWarning into an error)
    for bits in (2, 40):
        c = build_constellation(bits)
        for x in (1e30, math.inf):
            assert c.decode(x) == c.m_levels - 1
            assert c.decode(-x) == 0
        np.testing.assert_array_equal(c.decode([3e7, 1e19, -1e30]),
                                      [c.m_levels - 1] * 2 + [0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=64),
       st.lists(st.lists(st.integers(min_value=0, max_value=1), min_size=64,
                         max_size=64), min_size=0, max_size=8))
def test_pack_unpack_roundtrip(width, rows):
    bits = np.array(rows, dtype=np.uint8).reshape(len(rows), 64)[:, :width]
    values = from_bits(bits)
    assert values.dtype == np.uint64
    # reference: each row read as a binary numeral
    assert values.tolist() == [int("".join(map(str, r[:width])) or "0", 2)
                               for r in rows]
    out = to_bits(values, width)
    assert out.dtype == np.uint8
    np.testing.assert_array_equal(out, bits)


def test_pack_is_msb_first():
    assert from_bits([[1, 0, 1], [0, 1, 1]]).tolist() == [5, 3]
    np.testing.assert_array_equal(to_bits([5, 3], 3), [[1, 0, 1], [0, 1, 1]])
    # zero width: the single index of a 1-point constellation
    assert from_bits(np.empty((2, 0), dtype=np.uint8)).tolist() == [0, 0]
    assert to_bits([0, 0], 0).shape == (2, 0)


# ---------------------------------------------------------------------
# Fold
# ---------------------------------------------------------------------


def test_modulo_half_open_interval():
    d = 4.0
    assert modulo_d(2.0, d) == -2.0   # right edge wraps
    assert modulo_d(-2.0, d) == -2.0  # left edge is included
    assert modulo_d(0.0, d) == 0.0
    assert modulo_d(1.9, d) == pytest.approx(1.9)
    np.testing.assert_allclose(modulo_d(np.array([4.0, -4.0, 5.0]), d),
                               [0.0, 0.0, 1.0], atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6),
       st.floats(min_value=0.5, max_value=50.0))
@example(x=2.0, d=0.8)   # x / d rounds up to 2.5: the fold lands below -d/2
def test_modulo_properties(x, d):
    out = float(modulo_d(x, d))
    assert -d / 2 <= out < d / 2
    k = (x - out) / d
    assert abs(k - round(k)) < 1e-6
    assert modulo_d(out, d) == out


def test_modulo_out_is_bitwise_the_allocating_form():
    # x = 2, d = 0.8 takes the fold-back branch: x / d rounds up to 2.5,
    # so the first pass lands at -0.4000000000000004, below -d/2. With out,
    # the branch fills out itself, and every float is the one that the
    # allocating form, and the expression it stands for, give
    d = 0.8
    x = np.concatenate([[2.0, -2.0, 0.4, -0.4, 0.0, -0.0, 14.8, -29.2],
                        substream(5, 0).uniform(-30.0, 30.0, 200)])

    def reference(x, d):
        r = x - d * np.floor(x / d + 0.5)
        return np.where(r < -d / 2, r + d,
                        np.where(r >= d / 2, r - d, r))

    assert 2.0 - d * math.floor(2.0 / d + 0.5) < -d / 2
    want = reference(x, d)
    assert want.min() >= -d / 2 and want.max() < d / 2
    out = np.full(x.shape, np.nan)
    assert modulo_d(x, d, out=out) is out
    for got in (out, modulo_d(x, d)):
        assert got.tobytes() == want.tobytes()
    # a strided column of a larger array, as the engine's transcript is
    grid = np.full((2, 3, len(x)), np.nan)
    modulo_d(x, d, out=grid[1, 2])
    assert grid[1, 2].tobytes() == want.tobytes()
    assert np.isnan(grid[:, :2]).all() and np.isnan(grid[0]).all()


def test_block_dither_shape_and_range():
    noise = NoiseSpec(1.0, 1.0, 1.0)
    v, _, _ = codec.draw_block_noise(substream(0, 0), 7, 10, noise, 8.0)
    assert v.shape == (9, 2, 7)
    assert np.all(v >= -4.0) and np.all(v < 4.0)
    # single-use blocks send no feedback and need no dither
    v1, _, _ = codec.draw_block_noise(substream(0, 0), 7, 1, noise, 8.0)
    assert v1.shape == (0, 2, 7)


def test_block_noise_draw_order():
    # replayed by hand from a fresh generator of the same seed: the uniform
    # dither, then the forward and feedback normals, each one draw in its
    # documented component-first shape, and the eavesdropper's normals as
    # the generator's next draw, added to a silent tap
    noise = NoiseSpec(1.0, 0.5, 1.5)
    n, n_t, d = 9, 4, 6.0
    rng = substream(4, 1)
    drawn = codec.draw_block_noise(rng, n, n_t, noise, d)
    drawn += (codec.eve_observation(rng, np.zeros((2, n_t, n)), noise),)
    replay = substream(4, 1)
    want = (replay.uniform(-d / 2.0, d / 2.0, size=(n_t - 1, 2, n)),
            replay.normal(0.0, math.sqrt(0.5), (2, n_t, n)),
            replay.normal(0.0, math.sqrt(0.25), (2, n_t - 1, n)),
            replay.normal(0.0, math.sqrt(0.75), (2, n_t, n)))
    for got, ref in zip(drawn, want):
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, ref)
        assert np.all(got != 0)
    # arrays handed in as out are filled with the same draws
    out = codec._noise_arrays(n, n_t)
    filled = codec.draw_block_noise(substream(4, 1), n, n_t, noise, d,
                                    out=out)
    assert all(a is b for a, b in zip(filled, out))
    for got, ref in zip(filled, want[:3]):
        np.testing.assert_array_equal(got, ref)


# ---------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------


def test_schedule_frozen_canonical():
    sched, _, _ = make_schedule(10)
    assert abs(sched.d - 13.774493) < 1e-5
    assert abs(sched.lam - 1.360670) < 1e-5
    assert abs(sched.gamma[0] - 4.691083) < 1e-5
    assert abs(sched.beta[0] - 0.116055) < 1e-5
    assert sched.alpha[0] == pytest.approx(0.1, rel=1e-12)
    assert sched.alpha[-1] == pytest.approx(5.284698938135337e-07, rel=1e-8)


def test_schedule_alpha_follows_growth_factor():
    sched, _, _ = make_schedule(10)
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, TAU, 10)
    growth = 1.0 + SNR / (rep.psi1 * rep.psi2)
    np.testing.assert_allclose(sched.alpha[:-1] / sched.alpha[1:],
                               growth, rtol=1e-12)


def test_schedule_fold_width_carries_mask_power():
    sched, _, _ = make_schedule(5)
    assert sched.d ** 2 / 12.0 == pytest.approx(sched.P_fb / 2.0, rel=1e-12)


def test_schedule_gamma_saturates_feedback_budget():
    # gamma^2*alpha + sigma2^2/(2*gain_fb) = P_fb/(2L) by construction, at
    # unit feedback noise and off it
    for noise in (NoiseSpec(1.0, 1.0, 1.0), NoiseSpec(1.0, 0.5, 1.5)):
        sched, real, _ = make_schedule(10, noise=noise)
        lhs = sched.gamma ** 2 * sched.alpha[:-1] \
            + noise.sigma2_2 / (2.0 * real.gain_fb)
        np.testing.assert_allclose(lhs, sched.P_fb / (2.0 * sched.L),
                                   rtol=1e-12)


def test_schedule_beta_equals_mmse_weight():
    # published form vs the regression-derived weight
    for n_t in (2, 5, 10, 20):
        sched, real, noise = make_schedule(n_t)
        c = 1.0 - sched.L / (real.gain_fb * SNR_FB)
        mmse = np.sqrt(2.0 * sched.P * c * sched.alpha[:-1]) \
            / (sched.P + noise.sigma1_2 / real.gain_fwd)
        np.testing.assert_allclose(sched.beta, mmse, rtol=1e-12)


def test_schedule_threshold_identity():
    # sqrt(3)/M = qinv(tau/8)*sqrt(alpha_N) with M the continuous PAM size
    sched, _, _ = make_schedule(10)
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, TAU, 10)
    m_cont = 2.0 ** (rep.total_bits / 2.0)
    lhs = math.sqrt(3.0) / m_cont
    rhs = float(q_inv(TAU / 8.0)) * math.sqrt(sched.alpha[-1])
    assert abs(lhs - rhs) / rhs < 1e-9


def test_schedule_single_use():
    sched, _, _ = make_schedule(1)
    assert sched.gamma.size == 0 and sched.beta.size == 0
    assert sched.alpha[0] == pytest.approx(1.0 / SNR, rel=1e-12)


def test_schedule_outage_raises():
    real = Realization(1.0 + 0j, 0.1 + 0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(ValueError, match="outage"):
        build_schedule(SNR, SNR_FB, TAU, 10, real, NoiseSpec(1.0, 1.0, 1.0))


@given(st.floats(min_value=0.03, max_value=2.0),
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=1e-6, max_value=0.9),
       st.integers(min_value=2, max_value=256))
# a 1088-bit block by the closed form, whose alpha underflows
@example(2.0, 2.0, 0.9, 256)
@settings(max_examples=200, deadline=None)
def test_schedule_takes_its_loop_from_the_rate_formula(amp_fwd, amp_fb, tau,
                                                       n_t):
    # the schedule and the rate formula share one outage verdict, one L and
    # one per-use growth, bit for bit
    real = Realization(complex(amp_fwd), complex(amp_fb), 1.0 + 0j, 1.0 + 0j)
    rep = achievable_rate(SNR, SNR_FB, real.gain_fwd, real.gain_fb, tau, n_t)
    noise = NoiseSpec(1.0, 1.0, 1.0)
    if rep.outage_reason == "feedback_outage":
        with pytest.raises(ValueError, match="outage"):
            build_schedule(SNR, SNR_FB, tau, n_t, real, noise)
        return
    growth = 1.0 + SNR * real.gain_fwd / (rep.psi1 * rep.psi2)
    alpha1 = 1.0 / (real.gain_fwd * SNR)
    alpha = alpha1 * growth ** -np.arange(n_t, dtype=float)
    # gamma^2 = fb_signal_var / alpha, infinite once alpha underflows
    fb_signal_var = SNR_FB / (2.0 * rep.L) - 1.0 / (2.0 * real.gain_fb)
    with np.errstate(divide="ignore", over="ignore"):
        gamma2 = fb_signal_var / alpha[:-1]
    if not np.isfinite(gamma2).all():
        assert rep.outage_reason == "alpha_underflow"
        with pytest.raises(ValueError, match="underflows"):
            build_schedule(SNR, SNR_FB, tau, n_t, real, noise)
        return
    sched = build_schedule(SNR, SNR_FB, tau, n_t, real, noise)
    assert sched.L == rep.L
    np.testing.assert_array_equal(sched.alpha, alpha)
    np.testing.assert_array_equal(sched.gamma, np.sqrt(gamma2))


AMP = st.floats(min_value=0.03, max_value=2.0)
FB_NOISE = [1e-3, 1.0, 1e3, 1e6]


@given(AMP, st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=1e-6, max_value=0.9),
       st.integers(min_value=2, max_value=700), st.sampled_from(FB_NOISE))
# gains 4 and 4: n_t = 241 is the last block that builds, 242 the first
# whose alpha underflows, at every feedback noise
@example(2.0, 2.0, 0.9, 241, 1e-3)
@example(2.0, 2.0, 0.9, 241, 1.0)
@example(2.0, 2.0, 0.9, 241, 1e3)
@example(2.0, 2.0, 0.9, 241, 1e6)
@example(2.0, 2.0, 0.9, 242, 1e-3)
@example(2.0, 2.0, 0.9, 242, 1.0)
@example(2.0, 2.0, 0.9, 242, 1e3)
@example(2.0, 2.0, 0.9, 242, 1e6)
@example(1.0, 1.0, 1e-3, 700, 1.0)  # the frozen n_t = 700, alpha underflows
@settings(max_examples=200, deadline=None)
def test_rate_verdict_agrees_with_schedule(amp_fwd, amp_fb, tau, n_t,
                                           sigma2_2):
    # build_schedule refuses a block exactly when achievable_rate reports
    # it in outage or with alpha underflowing, whatever the feedback noise
    real = Realization(complex(amp_fwd), complex(amp_fb), 1.0 + 0j, 1.0 + 0j)
    rep = achievable_rate(SNR, SNR_FB, real.gain_fwd, real.gain_fb, tau, n_t)
    noise = NoiseSpec(1.0, sigma2_2, 1.0)
    refusal = {"feedback_outage": "outage",
               "alpha_underflow": "underflows"}.get(rep.outage_reason)
    if refusal:
        assert not rep.feasible and rep.rate == 0.0
        with pytest.raises(ValueError, match=refusal):
            build_schedule(SNR, SNR_FB, tau, n_t, real, noise)
        return
    sched = build_schedule(SNR, SNR_FB, tau, n_t, real, noise)
    assert np.isfinite(sched.gamma).all() and (sched.alpha > 0).all()


@given(st.integers(min_value=1, max_value=3000), AMP,
       st.floats(min_value=0.0, max_value=2.0),
       st.floats(min_value=1e-6, max_value=0.9),
       st.integers(min_value=2, max_value=700))
@settings(max_examples=60, deadline=None)
def test_plan_returns_only_blocks_that_build(payload, amp_fwd, amp_fb, tau,
                                            n_max):
    real = Realization(complex(amp_fwd), complex(amp_fb), 1.0 + 0j, 1.0 + 0j)
    plan = plan_blocklength(payload, SNR, SNR_FB, real.gain_fwd,
                            real.gain_fb, tau, n_max)
    if plan.feasible:
        assert plan.total_bits >= payload
        build_schedule(SNR, SNR_FB, tau, plan.n_t, real, NoiseSpec(1.0, 1.0,
                                                                   1.0))


def test_plan_skips_blocks_whose_alpha_underflows():
    # gains 4 and 4 at tau 0.9: n_t = 241 carries 1026.5 bits and builds;
    # n_t = 242 would carry 1030.6 bits by the closed form, but its alpha
    # underflows, and so does every longer block's
    rep = achievable_rate(SNR, SNR_FB, 4.0, 4.0, 0.9, 242)
    assert rep.outage_reason == "alpha_underflow"
    plan = plan_blocklength(1026, SNR, SNR_FB, 4.0, 4.0, 0.9, 256)
    assert plan.feasible and plan.n_t == 241
    plan = plan_blocklength(1030, SNR, SNR_FB, 4.0, 4.0, 0.9, 256)
    assert not plan.feasible
    assert plan.outage_reason == "no_feasible_blocklength"


def test_schedule_zero_forward_gain_raises():
    real = Realization(0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(ValueError):
        build_schedule(SNR, SNR_FB, TAU, 10, real, NoiseSpec(1.0, 1.0, 1.0))


def test_schedule_needs_one_use():
    with pytest.raises(ValueError, match="n_t must be >= 1"):
        make_schedule(0)


# ---------------------------------------------------------------------
# Block engine
# ---------------------------------------------------------------------


def _run(sched, real, noise, n, seed, const, tap=False, record=False):
    msg = draw_messages(substream(seed, 0), const, n)
    dith, ef, eb = codec.draw_block_noise(substream(seed, 1), n, sched.n_t,
                                          noise, sched.d)
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, tap=tap,
                          record=record)
    return msg, out


def test_zero_noise_decodes_exactly():
    sched, real, noise = make_schedule(5)
    const = build_constellation(4)
    n = 64
    msg = (np.arange(n) * [[1], [7]]) % const.m_levels
    dith = np.zeros((4, 2, n))
    ef = np.zeros((2, 5, n))
    eb = np.zeros((2, 4, n))
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, record=True)
    assert not out.error.any()
    assert not out.alias_events.any()
    np.testing.assert_allclose(out.eps_hist, 0.0, atol=1e-10)


def test_pure_function_replays_exactly():
    sched, real, noise = make_schedule(5)
    const = build_constellation(4)
    _, out1 = _run(sched, real, noise, 500, 42, const, record=True)
    _, out2 = _run(sched, real, noise, 500, 42, const, record=True)
    np.testing.assert_array_equal(out1.dec, out2.dec)
    np.testing.assert_array_equal(out1.x_seq, out2.x_seq)
    np.testing.assert_array_equal(out1.eps_hist, out2.eps_hist)


def test_error_rate_and_variance_recursion_sanity():
    sched, real, noise = make_schedule(10)
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, TAU, 10)
    const = build_constellation(int(rep.total_bits // 2))
    _, out = _run(sched, real, noise, 20000, 7, const, record=True)
    assert out.error.mean() <= 2.0 * TAU
    clean = out.alias_events == 0
    var_r = (out.eps_hist[0][:, clean] ** 2).mean(axis=1)
    np.testing.assert_allclose(var_r, sched.alpha, rtol=0.10)


# Fading draws whose 80-bit chunk at tau = 1e-3 plans n_t from 40 to 250,
# where the learning scenarios send most of their rounds: (gain_fwd,
# gain_fb, planned n_t).
OPERATING_CHANNELS = [(0.041, 0.883, 250), (0.032, 1.975, 246),
                      (4.503, 0.516, 68), (4.472, 0.922, 40)]


@pytest.mark.parametrize("gain_fwd,gain_fb,n_t", OPERATING_CHANNELS)
def test_planned_chunk_meets_tau_where_the_system_operates(gain_fwd, gain_fb,
                                                           n_t):
    rot = cmath.exp(0.7j)
    real = Realization(math.sqrt(gain_fwd) * rot, math.sqrt(gain_fb) / rot,
                       0.3 + 0.2j, -0.5 + 1.0j)
    noise = NoiseSpec(1.0, 1.0, 1.0)
    (grp,) = source_coding.chunk(source_coding.MAX_CHUNK_BITS, SNR, SNR_FB,
                                 real.gain_fwd, real.gain_fb, TAU, 256)
    assert (grp.count, grp.n_t) == (1, n_t)
    sched = build_schedule(SNR, SNR_FB, grp.tau_chunk, n_t, real, noise)
    const = build_constellation(grp.n_bits // 2)
    n_blocks, batch = 20000, 2500  # batches bound the transcript's memory
    errors = clean = 0
    eps2 = np.zeros(n_t)
    for b in range(n_blocks // batch):
        rng = substream(900 + n_t, b)
        msg = draw_messages(rng, const, batch)
        dith, ef, eb = codec.draw_block_noise(rng, batch, n_t, noise,
                                                 sched.d)
        out = run_block_batch(sched, real, const, msg, dith, ef, eb,
                              record=True)
        errors += int(out.error.sum())
        mask = out.alias_events == 0
        eps2 += (out.eps_hist[:, :, mask] ** 2).sum(axis=(0, 2))
        clean += int(mask.sum())
    # one-sided: an error count this high has probability 1e-3 at rate tau
    assert errors <= stats.binom.ppf(0.999, n_blocks, TAU), errors
    # c02's check on both sub-channels of the aliasing-free blocks
    dev = np.abs(eps2 / (2 * clean) / sched.alpha - 1.0)
    assert dev.max() <= 0.05, dev.max()


def test_forward_and_feedback_power_normalized():
    sched, real, noise = make_schedule(10)
    const = build_constellation(9)
    _, out = _run(sched, real, noise, 20000, 11, const, record=True)
    p_fwd = float(np.mean(np.abs(as_complex(out.x_seq)) ** 2))
    p_fb = float(np.mean(np.abs(as_complex(out.x_fb_seq)) ** 2))
    assert abs(p_fwd / sched.P - 1.0) < 0.02
    assert abs(p_fb / sched.P_fb - 1.0) < 0.02


def test_eve_tap_layout():
    # every use is the recorded symbol through its coefficient plus the drawn
    # noise: y = h*x + eta_fwd and y_fb = h_fb*x_fb + eta_fb replay the
    # recorded errors and encoder symbols, and column i-1 of the tap carries
    # forward use i plus the feedback reply to it, without her noise; the
    # final column is forward-only. Her record adds her noise, the
    # generator's next draw, last: bit for bit the tap plus that draw.
    real = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)
    noise = NoiseSpec(1.0, 0.5, 1.5)
    sched, _, _ = make_schedule(3, real=real, noise=noise)
    const = build_constellation(2)
    n = 256
    msg = draw_messages(substream(4, 0), const, n)
    rng = substream(4, 1)
    dith, ef, eb = codec.draw_block_noise(rng, n, 3, noise, sched.d)
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, tap=True,
                          record=True)
    assert_uses_replay(out, sched, real, const.center(msg), dith, ef, eb)
    assert out.z_seq.shape == (2, 3, n)
    z = as_complex(out.z_seq)
    tol = dict(rtol=1e-12, atol=1e-12)
    for i in range(2):
        np.testing.assert_allclose(
            z[i], real.g * as_complex(out.x_seq[:, i])
            + real.g_fb * as_complex(out.x_fb_seq[:, i]), **tol)
    np.testing.assert_allclose(
        z[-1], real.g * as_complex(out.x_seq[:, -1]), **tol)
    tap = out.z_seq.copy()
    replay = substream(4, 1)
    codec.draw_block_noise(replay, n, 3, noise, sched.d)
    ee = cn_sample(replay, noise.sigma_e2, (3, n))
    observed = codec.eve_observation(rng, out.z_seq, noise)
    assert observed is out.z_seq
    np.testing.assert_array_equal(observed, tap + ee)


def test_rotated_coefficients_are_transparent():
    # the decoder projects through known coefficients, so a pure phase
    # rotation must not change decisions given identical noise draws
    noise = NoiseSpec(1.0, 1.0, 1.0)
    ph = np.exp(1j * 0.7)
    r1 = Realization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    r2 = Realization(ph, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    s1 = build_schedule(SNR, SNR_FB, TAU, 5, r1, noise)
    s2 = build_schedule(SNR, SNR_FB, TAU, 5, r2, noise)
    const = build_constellation(4)
    msg = draw_messages(substream(21, 0), const, 200)
    dith, ef, eb = codec.draw_block_noise(substream(21, 1), 200, 5, noise,
                                             s1.d)
    # rotate the forward noise with the channel so the projected noise matches
    ef2 = as_complex(ef) * ph
    o1 = run_block_batch(s1, r1, const, msg, dith, ef, eb)
    o2 = run_block_batch(s2, r2, const, msg, dith,
                         np.array([ef2.real, ef2.imag]), eb)
    np.testing.assert_array_equal(o1.dec, o2.dec)


def test_alias_events_replay_when_blocks_fold():
    # a loose tau folds often: every per-block count, on both sub-channels,
    # follows from the recorded transcript
    real = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)
    sched, _, noise = make_schedule(10, real=real, tau=0.9)
    const = build_constellation(4)
    msg = draw_messages(substream(8, 0), const, 500)
    dith, ef, eb = codec.draw_block_noise(substream(8, 1), 500, 10, noise,
                                             sched.d)
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, record=True)
    assert out.alias_events.max() >= 2
    assert_uses_replay(out, sched, real, const.center(msg), dith, ef, eb)


def test_single_block_transcript():
    # a single block is a batch of one; record=True keeps its transcript
    sched, real, noise = make_schedule(5)
    const = build_constellation(4)
    dith, ef, eb = codec.draw_block_noise(substream(3, 1), 1, 5, noise,
                                          sched.d)
    out = run_block_batch(sched, real, const, [[3], [9]], dith, ef, eb,
                          tap=True, record=True)
    assert out.x_seq.shape == (2, 5, 1) and out.x_fb_seq.shape == (2, 4, 1)
    assert out.z_seq.shape == (2, 5, 1)
    assert out.eps_hist.shape == (2, 5, 1)
    assert_uses_replay(out, sched, real, const.center([[3], [9]]), dith, ef,
                       eb)
    # at tau=1e-3 this seeded block decodes correctly
    assert out.dec.tolist() == [[3], [9]]
    assert not out.error[0] and out.alias_events[0] == 0


def test_run_block_batch_validates_message():
    sched, real, noise = make_schedule(5)
    const = build_constellation(4)
    dith, ef, eb = codec.draw_block_noise(substream(3, 1), 3, 5, noise,
                                             sched.d)
    for bad_r, bad_i in ((16, 0), (0, 16), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside the constellation"):
            run_block_batch(sched, real, const,
                            [[0, 5, bad_r], [15, 2, bad_i]], dith, ef, eb)
    # one array of exactly two rows, R and I
    for bad in ([0, 5, 15], [[0, 5, 15]], [[0, 5, 15]] * 3,
                [[[0, 5, 15]]] * 2):
        with pytest.raises(ValueError, match=r"shape \(2, n\)"):
            run_block_batch(sched, real, const, bad, dith, ef, eb)
    msg = [[0, 5, 15], [15, 2, 0]]
    out = run_block_batch(sched, real, const, msg, dith, ef, eb)
    assert out.dec.shape == (2, 3)
    # perfbench's block counter reads row 0 as dec_r, which is read-only
    np.testing.assert_array_equal(out.dec_r, out.dec[0])
    with pytest.raises(AttributeError):
        out.dec_r = out.dec[1]
    # the tap and the record flag are keyword-only
    with pytest.raises(TypeError):
        run_block_batch(sched, real, const, msg, dith, ef, eb, True)


def test_single_use_block_with_tap_and_transcript():
    # n_t = 1: no dither, no feedback noise, an empty feedback transcript,
    # and the tap's only use is the bare forward symbol g*x, to which her
    # record adds eta_e
    real = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)
    sched, _, noise = make_schedule(1, real=real)
    const = build_constellation(3)
    rng = substream(6, 1)
    dith, ef, eb = codec.draw_block_noise(rng, 50, 1, noise, sched.d)
    assert dith.shape == (0, 2, 50) and eb.shape == (2, 0, 50)
    msg = (np.arange(50) * [[1], [3]]) % const.m_levels
    out = run_block_batch(sched, real, const, msg, dith, ef, eb, tap=True,
                          record=True)
    assert out.x_fb_seq.shape == (2, 0, 50)
    assert out.x_seq.shape == out.eps_hist.shape == (2, 1, 50)
    assert out.z_seq.shape == (2, 1, 50)
    signal = real.g * as_complex(out.x_seq[:, -1])
    np.testing.assert_allclose(as_complex(out.z_seq[:, -1]), signal,
                               rtol=1e-12, atol=1e-12)
    replay = substream(6, 1)
    codec.draw_block_noise(replay, 50, 1, noise, sched.d)
    ee = cn_sample(replay, noise.sigma_e2, (1, 50))
    np.testing.assert_allclose(
        as_complex(codec.eve_observation(rng, out.z_seq, noise)[:, -1]),
        signal + as_complex(ee[:, -1]), rtol=1e-12, atol=1e-12)
    assert_uses_replay(out, sched, real, const.center(msg), dith, ef, eb)
    assert not out.alias_events.any()


def test_record_transcript_is_real_and_component_first():
    # the transcript has the layout of the noise it replays: float64,
    # (pair, use, block), each a buffer of its own and not a transposed view
    sched, real, noise = make_schedule(4)
    _, out = _run(sched, real, noise, 7, 12, build_constellation(3),
                  tap=True, record=True)
    for name, shape in (("eps_hist", (2, 4, 7)), ("x_seq", (2, 4, 7)),
                        ("z_seq", (2, 4, 7)), ("x_fb_seq", (2, 3, 7))):
        arr = getattr(out, name)
        assert arr.dtype == np.float64 and arr.shape == shape, name
        assert arr.flags.c_contiguous and arr.base is None, name


@pytest.mark.parametrize("bits", [codec.MAX_SUB_CHANNEL_BITS, 0])
def test_shared_constellation_at_its_width_limits(bits):
    # one constellation on both sub-channels, 40 bits wide or a single
    # point: at zero noise every index, the edge ones included, decodes
    # exactly on both
    sched, real, _ = make_schedule(5)
    const = build_constellation(bits)
    n = 64
    msg = draw_messages(substream(10, 0), const, n)
    msg[0, :2] = msg[1, 2:4] = 0, const.m_levels - 1
    out = run_block_batch(sched, real, const, msg, np.zeros((4, 2, n)),
                          np.zeros((2, 5, n)), np.zeros((2, 4, n)),
                          record=True)
    np.testing.assert_array_equal(out.dec, msg)
    assert not out.error.any() and not out.alias_events.any()
    np.testing.assert_allclose(out.eps_hist, 0.0, atol=1e-10)
