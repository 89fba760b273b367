"""Closed-form layer: frozen reference values plus structural properties.

The frozen constants were produced by an independent implementation (Q by
adaptive quadrature, its inverse by bisection, the rate formula typed from
scratch) and are pinned here to 9-10 significant digits.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblink import analysis
from fblink.analysis import (RateReport, achievable_rate, aliasing_budget,
                             eve_capacity_bits, latency_seconds,
                             plan_blocklength, q_func, q_inv,
                             rate_distortion, secrecy_level_bound,
                             sigma2_window)

SNR = 10.0
SNR_FB = 10.0 ** 1.5


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------

QINV_FROZEN = [
    (0.05, 1.6448536270),
    (1.25e-4, 3.662259930846405),
    (3.125e-5, 4.003167571428888),
    (1e-3 / 72.0, 4.1909590653),
    (1e-3 / 152.0, 4.3574626435),
    (1.25e-7, 5.1577013134),
]


@pytest.mark.parametrize("p,expected", QINV_FROZEN)
def test_q_inv_frozen(p, expected):
    assert rel(q_inv(p), expected) < 1e-9


def test_q_func_half_at_zero():
    assert q_func(0.0) == 0.5


def test_q_func_vectorized():
    x = np.array([-1.0, 0.0, 2.0])
    out = q_func(x)
    assert out.shape == (3,)
    assert np.all(np.diff(out) < 0)


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.1, 1.1, math.nan, np.array([0.05, math.nan])):
        with pytest.raises(ValueError):
            q_inv(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_rejects_non_finite_inputs(bad):
    args = [SNR, SNR_FB, 1.0, 1.0, 1e-3]
    for pos in range(len(args)):
        with pytest.raises(ValueError, match="finite"):
            achievable_rate(*args[:pos], bad, *args[pos + 1:], 10)
    with pytest.raises(ValueError):
        plan_blocklength(30, SNR, SNR_FB, bad, 1.0, 1e-3, 64)


def test_q_inv_vector_input():
    p = np.array([0.05, 1.25e-4])
    out = q_inv(p)
    assert rel(out[0], QINV_FROZEN[0][1]) < 1e-9
    assert rel(out[1], QINV_FROZEN[1][1]) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-5.0, max_value=8.0))
def test_q_roundtrip(x):
    # below x ~ -6 the forward map saturates toward p = 1.0 in float64 and
    # the roundtrip is unrecoverable; no caller evaluates there
    back = q_inv(float(q_func(x)))
    assert abs(back - x) <= 1e-9 * max(1.0, abs(x))


def test_q_roundtrip_deep_upper_tail():
    for x in (6.0, 7.0, 7.5):
        assert abs(q_inv(float(q_func(x))) - x) <= 1e-12


# ---------------------------------------------------------------------
# Fold budget
# ---------------------------------------------------------------------


def test_aliasing_budget_frozen():
    # 1e-8: the reference values come from quadrature + bisection, whose
    # deep-tail agreement with erfc-based evaluation bottoms out around 1e-9
    assert rel(aliasing_budget(1e-3, 10), 5.854712628914441) < 1e-8
    assert rel(aliasing_budget(1e-3, 5), 5.341783535) < 1e-8
    assert rel(aliasing_budget(1e-6, 2), 8.8672942794) < 1e-8
    assert rel(aliasing_budget(1e-6, 20), 10.769291888755603) < 1e-8


def test_aliasing_budget_grows_with_blocklength():
    ls = [aliasing_budget(1e-3, n) for n in range(2, 30)]
    assert all(b > a for a, b in zip(ls, ls[1:]))
    # the array form is the same values from one q_inv call
    assert aliasing_budget(1e-3, np.arange(2, 30)).tolist() == ls


def test_aliasing_budget_validation():
    with pytest.raises(ValueError):
        aliasing_budget(1e-3, 1)
    with pytest.raises(ValueError):
        aliasing_budget(1e-3, np.array([2, 1, 3]))
    with pytest.raises(ValueError):
        aliasing_budget(0.0, 5)
    with pytest.raises(ValueError):
        aliasing_budget(1.0, 5)


# ---------------------------------------------------------------------
# Achievable rate
# ---------------------------------------------------------------------


def test_rate_frozen_canonical_config():
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, 10)
    assert rep.feasible and rep.outage_reason is None
    assert rel(rep.rate, 1.8691169497656688) < 1e-8
    assert rel(rep.total_bits, 18.691169497656688) < 1e-8
    assert rel(rep.L, 5.854712628914441) < 1e-8
    assert rel(rep.psi1, 2.851422695312182) < 1e-8
    assert rel(rep.psi2, 1.2272080911899885) < 1e-8


@pytest.mark.parametrize("n_t,rate,total", [
    (2, 1.67478445, None),
    (5, 1.858079393, 9.290396964),
    (20, 1.838151664, 36.76303328),
])
def test_rate_frozen_blocklengths(n_t, rate, total):
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, n_t)
    assert rel(rep.rate, rate) < 1e-8
    if total is not None:
        assert rel(rep.total_bits, total) < 1e-8


# The formula of the analysis module docstring evaluated in 50-digit mpmath
# arithmetic at the float inputs (q_inv by findroot on erfc/2, seeded and
# cross-checked by erfinv), rounded to 19 digits. Up to n_t = 20 they pin the
# values above a thousand times tighter (the 1e-8 values themselves are off
# by up to 1e-9); past n_t = 40 the rate rests on the log-space growth term,
# which the values above never reach.
MP_FROZEN = {  # (tau, n_t): (rate, L)
    (1e-3, 2): (1.674784449741763116, 4.470715933795196781),
    (1e-3, 5): (1.858079392823747774, 5.341783535037528408),
    (1e-3, 10): (1.869116949757843015, 5.854712628946192283),
    (1e-3, 20): (1.838151664035590213, 6.329160229940992378),
    (1e-6, 10): (1.251321487885470511, 10.28562160144312545),
    (1e-6, 20): (1.262775987983439962, 10.76929187664811837),
    (1e-3, 41): (1.787775126977049554, 6.803357210261102184),
    (1e-3, 64): (1.752663660658410146, 7.093373714472656283),
    (1e-3, 128): (1.696090819894720296, 7.541846550884025632),
    (1e-3, 256): (1.639416341253097310, 7.988750545055570056),
    (1e-3, 700): (1.559228038741380507, 8.636770047178619910),
}


def check_mp_frozen(tau, n_t):
    rate, L = MP_FROZEN[(tau, n_t)]
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, tau, n_t)
    assert rep.feasible
    assert rel(rep.rate, rate) <= 1e-12
    assert rel(rep.L, L) <= 1e-12
    arr = achievable_rate(SNR, SNR_FB, 1.0, 1.0, tau, np.array([n_t]))
    assert rel(arr.rate[0], rate) <= 1e-12


@pytest.mark.parametrize("tau,n_t", [k for k in MP_FROZEN if k[1] <= 20])
def test_rate_frozen_short_blocklengths_tight(tau, n_t):
    check_mp_frozen(tau, n_t)


@pytest.mark.parametrize("n_t", [n for _, n in MP_FROZEN if n > 40])
def test_rate_frozen_long_blocklengths(n_t):
    check_mp_frozen(1e-3, n_t)


def test_rate_frozen_tight_target():
    assert rel(achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-6, 10).rate,
               1.251321487) < 1e-8
    rep20 = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-6, 20)
    assert rel(rep20.rate, 1.2627759867588797) < 1e-8
    assert rel(rep20.total_bits, 25.255519735177593) < 1e-8


def test_rate_single_use_degenerate():
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, 1)
    assert rep.n_t == 1 and rep.feasible
    assert rel(rep.rate, 1.161422214) < 1e-8
    assert rep.L == 0.0


def test_single_use_infeasible_at_low_snr():
    rep = achievable_rate(1e-3, SNR_FB, 1.0, 1.0, 1e-3, 1)
    assert not rep.feasible and rep.outage_reason == "rate_nonpositive"
    assert rep.rate == 0.0


def test_feedback_outage():
    # |h_fb|^2 * snr_fb <= L kills the refinement loop
    L = aliasing_budget(1e-3, 10)
    gain_fb = (L / SNR_FB) * 0.99
    rep = achievable_rate(SNR, SNR_FB, 1.0, gain_fb, 1e-3, 10)
    assert not rep.feasible
    assert rep.outage_reason == "feedback_outage"
    assert rep.rate == 0.0 and math.isinf(rep.psi2)


def test_outage_boundary_is_infeasible():
    L = aliasing_budget(1e-3, 10)
    rep = achievable_rate(SNR, SNR_FB, 1.0, L / SNR_FB, 1e-3, 10)
    assert not rep.feasible
    # exactly at the psi2 pole, |h_fb|^2*snr_fb == L
    rep = achievable_rate(SNR, 1.0, 1.0, L, 1e-3, 10)
    assert rep.outage_reason == "feedback_outage"
    assert rep.rate == 0.0 and math.isinf(rep.psi2)


def test_rate_overflowing_forward_snr_is_infeasible():
    # snr*|h|^2 overflows float64: numpy may warn, but no rate, coded or
    # not, is reported
    with np.errstate(over="ignore", invalid="ignore"):
        rep = achievable_rate(1e200, SNR_FB, 1e200, 1.0, 1e-3,
                              np.arange(1, 4))
    assert not rep.feasible.any()
    assert (rep.rate == 0.0).all()


def test_rate_monotone_in_forward_gain():
    gains = np.linspace(0.1, 3.0, 12)
    rates = [achievable_rate(SNR, SNR_FB, g, 1.0, 1e-3, 10).rate
             for g in gains]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_monotone_in_error_target():
    taus = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2]
    rates = [achievable_rate(SNR, SNR_FB, 1.0, 1.0, t, 10).rate
             for t in taus]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_rate_large_blocklength_no_overflow():
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, 700)
    assert rep.feasible and np.isfinite(rep.total_bits)
    reps = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, np.arange(650, 710))
    assert reps.feasible.all() and np.isfinite(reps.total_bits).all()


def test_rate_array_form_fields():
    rep = achievable_rate(SNR, 0.1, 1.0, 1.0, 1e-3, np.arange(1, 6))
    for field in (rep.n_t, rep.rate, rep.L, rep.psi1, rep.psi2,
                  rep.feasible, rep.outage_reason, rep.total_bits):
        assert field.shape == (5,)
    assert rep.outage_reason.dtype == object
    # n_t = 1 is uncoded PAM; every coded length is in feedback outage
    assert rep.outage_reason[0] is None and rep.feasible[0]
    assert list(rep.outage_reason[1:]) == ["feedback_outage"] * 4
    assert rep.at(0) == achievable_rate(SNR, 0.1, 1.0, 1.0, 1e-3, 1)


def close(a, b):
    """Equal, or within 1e-12 relative; inf and nan match themselves."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= 1e-12 * abs(b)


GAIN = st.floats(min_value=0.0, max_value=4.0)
TAU = st.floats(min_value=1e-6, max_value=1e-2)
N_MAX = st.integers(min_value=1, max_value=256)


@settings(max_examples=60, deadline=None)
@given(GAIN, GAIN, TAU, N_MAX)
@example(1.0, 0.0, 1e-3, 40)    # gain_fb = 0: outage at every coded length
@example(0.0, 1.0, 1e-3, 40)    # gain_fwd = 0: nothing is ever feasible
def test_rate_array_matches_scalar_calls(gain_fwd, gain_fb, tau, n_max):
    n = np.arange(1, n_max + 1)
    rep = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau, n)
    for i, n_t in enumerate(n):
        one = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau, int(n_t))
        assert isinstance(one.n_t, int) and isinstance(one.rate, float)
        assert one.n_t == rep.n_t[i]
        assert one.feasible == rep.feasible[i]
        assert one.outage_reason == rep.outage_reason[i]
        for field in ("rate", "L", "psi1", "psi2"):
            assert close(getattr(rep, field)[i], getattr(one, field))


def test_rate_validation():
    with pytest.raises(ValueError):
        achievable_rate(-1.0, SNR_FB, 1.0, 1.0, 1e-3, 10)
    with pytest.raises(ValueError):
        achievable_rate(SNR, SNR_FB, -0.5, 1.0, 1e-3, 10)
    with pytest.raises(ValueError):
        achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, 0)


# ---------------------------------------------------------------------
# Blocklength planning
# ---------------------------------------------------------------------


def test_plan_frozen():
    assert plan_blocklength(30, SNR, SNR_FB, 1.0, 1.0, 1e-3, 256).n_t == 17
    assert plan_blocklength(80, SNR, SNR_FB, 1.0, 1.0, 1e-3, 256).n_t == 45


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=1000), GAIN, GAIN, TAU, N_MAX,
       st.integers(min_value=1, max_value=40))
@example(30, 1.0, 0.0, 1e-3, 256, 24)     # outage at every blocklength
@example(10**6, 1.0, 1.0, 1e-3, 256, 24)  # payload beyond every budget
@example(30, 1.0, 1.0, 1e-3, 1, 24)       # empty search range
def test_plan_matches_exhaustive_scan(payload, gain_fwd, gain_fb, tau, n_max,
                                     n_scan):
    got = plan_blocklength(payload, SNR, SNR_FB, gain_fwd, gain_fb, tau,
                           n_max)
    want = None
    for n_t in range(2, n_max + 1):
        rep = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau, n_t)
        if rep.feasible and rep.total_bits >= payload:
            want = rep
            break
    if want is None:
        assert not got.feasible and got.rate == 0.0 and got.n_t == n_max
        assert got.outage_reason == "no_feasible_blocklength"
        return
    assert got.feasible and got.outage_reason is None
    assert got.n_t == want.n_t and got.total_bits >= payload
    for field in ("rate", "L", "psi1", "psi2"):
        assert close(getattr(got, field), getattr(want, field))
    # the rates.csv scan writes the array form over 1..n_scan; where the
    # plan falls inside it, the two rates print the same string
    scan = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau,
                           np.arange(1, n_scan + 1))
    if got.n_t <= n_scan:
        assert repr(float(scan.rate[got.n_t - 1])) == repr(got.rate)
        assert scan.at(got.n_t - 1) == got


def test_plan_exhausted():
    rep = plan_blocklength(1000, SNR, SNR_FB, 1.0, 1.0, 1e-3, 8)
    assert not rep.feasible
    assert rep.outage_reason == "no_feasible_blocklength"


def test_plan_validation():
    with pytest.raises(ValueError):
        plan_blocklength(0, SNR, SNR_FB, 1.0, 1.0, 1e-3, 64)


# ---------------------------------------------------------------------
# Source rate, secrecy, privacy window, latency
# ---------------------------------------------------------------------


def test_rate_distortion_frozen():
    assert rel(rate_distortion(1e-4, 1.0), 6.64385619) < 1e-8


def test_rate_distortion_zero_above_source_var():
    assert rate_distortion(2.0, 1.0) == 0.0
    assert rate_distortion(1.0, 1.0) == 0.0


def test_rate_distortion_validation():
    with pytest.raises(ValueError):
        rate_distortion(0.0, 1.0)
    with pytest.raises(ValueError):
        rate_distortion(1e-4, 0.0)
    with pytest.raises(ValueError):
        rate_distortion(-1e-4, 1.0)


def test_secrecy_level_frozen():
    # cap = log2(11) = 3.4594316186
    assert rel(eve_capacity_bits(1.0, 10.0, 1.0), 3.4594316186) < 1e-9
    assert rel(secrecy_level_bound(40.0, 1.0, 10.0, 1.0),
               1.0 - 3.4594316186 / 40.0) < 1e-9
    # 20-bit payload against a 2-bit capacity: level 0.9 exactly
    assert abs(secrecy_level_bound(20.0, 0.3, 10.0, 1.0) - 0.9) < 1e-12


def test_secrecy_level_clamped_at_zero():
    assert secrecy_level_bound(1.0, 1.0, 10.0, 1.0) == 0.0


def test_secrecy_level_validation():
    with pytest.raises(ValueError):
        secrecy_level_bound(0.0, 1.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_level_bound(10.0, -1.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        secrecy_level_bound(10.0, 1.0, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.5, max_value=500.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_secrecy_level_in_unit_interval(payload, g2):
    # the bound reads the eavesdropper's capacity from eve_capacity_bits
    lvl = secrecy_level_bound(payload, g2, 10.0, 1.0)
    assert 0.0 <= lvl <= 1.0
    assert lvl == max(0.0, 1.0 - eve_capacity_bits(g2, 10.0, 1.0) / payload)


def test_sigma2_window_frozen():
    win = sigma2_window(0.1, 5.0, 10, 1000, 7e-4)
    assert rel(win.lower, 0.4707516771) < 1e-9
    assert win.upper == 0.5
    assert win.nonempty
    assert win.contains(0.5) and win.contains(0.48)
    assert not win.contains(0.4) and not win.contains(0.51)


def test_sigma2_window_empty_is_reported_not_raised():
    win = sigma2_window(0.1, 5.0, 10, 1000, 1e-2)
    assert not win.nonempty


def test_sigma2_window_validation():
    with pytest.raises(ValueError):
        sigma2_window(0.0, 5.0, 10, 1000, 7e-4)
    with pytest.raises(ValueError):
        sigma2_window(0.1, 5.0, 10, 1000, 0.0)


def test_latency():
    assert latency_seconds(30, 1.5, 1e6) == 30 / 1.5e6
    assert latency_seconds(0, 1.5, 1e6) == 0.0
    assert math.isinf(latency_seconds(30, 0.0, 1e6))
    with pytest.raises(ValueError):
        latency_seconds(-1, 1.5, 1e6)
    with pytest.raises(ValueError):
        latency_seconds(30, 1.5, 0.0)


def test_rate_report_total_bits_property():
    rep = RateReport(10, 1.5, 0.0, 1.0, 1.0, True)
    assert rep.total_bits == 15.0
