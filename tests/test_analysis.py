"""Closed-form layer: frozen reference values plus structural properties.

The frozen constants were produced by an independent implementation (Q by
adaptive quadrature, its inverse by bisection, the rate formula typed from
scratch) and are pinned here to 9-10 significant digits.
"""

import itertools
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from fblink import analysis
from fblink.analysis import (RateReport, achievable_rate, aliasing_budget,
                             eve_capacity_bits, latency_seconds,
                             plan_blocklength, q_inv, rate_distortion,
                             secrecy_level_bound, sigma2_window)
from fblink.channel import sample_realization
from fblink.streams import DOMAIN_REALIZATION, substream

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


def test_q_inv_is_the_standard_library_quantile():
    # bit for bit, element by element, in every shape
    phi_inv = statistics.NormalDist().inv_cdf
    for p in (0.05, 1.25e-7, 0.5, 0.97, 1e-300):
        got = q_inv(p)
        assert type(got) is float and got == -phi_inv(p)
    p = np.logspace(-300.0, math.log10(0.999), 2001).reshape(3, 667)
    got = q_inv(p)
    assert got.shape == p.shape
    want = [-phi_inv(x) for x in p.ravel().tolist()]
    assert got.ravel().tolist() == want


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


def q_scipy(x):
    """Q(x) = erfc(x/sqrt(2))/2 by scipy, the forward map of q_inv."""
    return float(special.erfc(x / math.sqrt(2.0))) / 2.0


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-5.0, max_value=8.0))
def test_q_roundtrip(x):
    # below x ~ -6 the forward map saturates toward p = 1.0 in float64 and
    # the roundtrip is unrecoverable; no caller evaluates there
    back = q_inv(q_scipy(x))
    assert abs(back - x) <= 1e-9 * max(1.0, abs(x))


def test_q_roundtrip_deep_upper_tail():
    for x in (6.0, 7.0, 7.5):
        assert abs(q_inv(q_scipy(x)) - x) <= 1e-12


def test_q_inv_matches_scipy_erfcinv():
    # one array spans all three branches of AS241; near p = 1 the inverse
    # is ill-conditioned and the roundtrip tests above cover it
    p = np.logspace(-300.0, math.log10(0.49), 3001)
    want = math.sqrt(2.0) * special.erfcinv(2.0 * p)
    assert np.max(np.abs(q_inv(p) - want) / want) < 1e-14
    # x crosses 0 here, so the error is absolute
    p = np.linspace(0.49, 0.51, 2001)
    want = math.sqrt(2.0) * special.erfcinv(2.0 * p)
    assert np.max(np.abs(q_inv(p) - want)) < 1e-15


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
# which the values above never reach. At n_t = 700 the error variance alpha
# underflows float64, so the block is refused and only L is pinned; its
# closed-form rate, about 1091 bits over 700 uses, is reported as 0.0.
MP_FROZEN = {  # (tau, n_t): (rate, L); rate None where alpha underflows
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
    (1e-3, 700): (None, 8.636770047178619910),
}


def check_mp_frozen(tau, n_t, rate, L, gains=(1.0, 1.0)):
    rep = achievable_rate(SNR, SNR_FB, *gains, tau, n_t)
    arr = achievable_rate(SNR, SNR_FB, *gains, tau, np.array([n_t]))
    assert rel(rep.L, L) <= 1e-12
    if rate is None:
        assert rep.outage_reason == "alpha_underflow"
        assert rep.rate == 0.0 and arr.rate[0] == 0.0
        return
    assert rep.feasible
    assert rel(rep.rate, rate) <= 1e-12
    assert rel(arr.rate[0], rate) <= 1e-12


@pytest.mark.parametrize("tau,n_t", [k for k in MP_FROZEN if k[1] <= 20])
def test_rate_frozen_short_blocklengths_tight(tau, n_t):
    check_mp_frozen(tau, n_t, *MP_FROZEN[(tau, n_t)])


@pytest.mark.parametrize("n_t", [n for _, n in MP_FROZEN if n > 40])
def test_rate_frozen_long_blocklengths(n_t):
    check_mp_frozen(1e-3, n_t, *MP_FROZEN[(1e-3, n_t)])


def test_rate_frozen_past_float64_log_argument():
    # gains 10 and 2.25: n_t = 339 builds and carries 1024.03 bits, so the
    # log argument 2^1024.03 overflows float64 and only the log-space sum
    # gives the rate; pinned by the method of MP_FROZEN
    check_mp_frozen(1e-3, 339, 3.020749769628136503, 8.169658380779178910,
                    gains=(10.0, 2.25))


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


# 8*Q(sqrt(3)): from here down q = Q^-1(tau/8) >= sqrt(3), so the uncoded
# term 3*snr*|h|^2/q^2 is at most snr*|h|^2 and the rate stays below capacity
TAU_CAPACITY_CEILING = 8.0 * statistics.NormalDist().cdf(-math.sqrt(3.0))


@pytest.mark.parametrize("snr", [1.0, SNR, 1000.0])
@pytest.mark.parametrize("tau", [1e-9, 1e-3, 0.05, 0.3,
                                 TAU_CAPACITY_CEILING])
def test_rate_stays_below_capacity(snr, tau):
    # n*R = log2(3*rho/q^2) + (n-1)*log2(growth) with growth <= 1 + rho, so
    # R < log2(1 + rho) at every blocklength, over fixed gains (rows of a
    # grid) and drawn ones
    grid = np.geomspace(1e-2, 1e2, 9)
    fixed = np.array(list(itertools.product(grid, grid))).T
    drawn = np.array([(r.gain_fwd, r.gain_fb) for r in (
        sample_realization(substream(2026, DOMAIN_REALIZATION, i))
        for i in range(100))]).T
    n_t = np.arange(1, 257)
    for gain_fwd, gain_fb in (fixed, drawn):
        rep = achievable_rate(snr, SNR_FB, gain_fwd, gain_fb, tau, n_t)
        capacity = np.log2(1.0 + snr * gain_fwd)[:, None]
        assert rep.feasible.any()
        assert (rep.rate < capacity)[rep.feasible].all()


def test_rate_large_blocklength_no_overflow():
    # at unit gains alpha underflows float64 from n_t = 654 on: those blocks
    # are refused, quietly (pytest turns a RuntimeWarning into an error)
    reps = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, np.arange(650, 711))
    assert reps.feasible[:4].all() and np.isfinite(reps.total_bits[:4]).all()
    assert (reps.outage_reason[4:] == "alpha_underflow").all()
    assert (reps.rate[4:] == 0.0).all()
    rep = achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, 700)
    assert rep.outage_reason == "alpha_underflow" and rep.rate == 0.0


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
    with pytest.raises(ValueError, match="scalar or a 1-D array"):
        achievable_rate(SNR, SNR_FB, 1.0, 1.0, 1e-3, np.full((2, 2), 10))
    # refused before the fold budget, which checks tau for n_t >= 2 only
    for tau in (0.0, 1.0):
        for n_t in (1, 10):
            with pytest.raises(ValueError, match=r"tau must be in \(0, 1\)"):
                achievable_rate(SNR, SNR_FB, 1.0, 1.0, tau, n_t)


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
# Array gains: many channel realizations in one call
# ---------------------------------------------------------------------


def assert_same_bits(got, want):
    """Every field equal, floats bit for bit (NaN, inf and -0.0 included)."""
    for f in ("n_t", "rate", "L", "psi1", "psi2", "feasible",
              "outage_reason", "total_bits"):
        a, b = np.asarray(getattr(got, f)), np.asarray(getattr(want, f))
        assert a.shape == b.shape and a.dtype == b.dtype, f
        if a.dtype == np.float64:
            assert a.tobytes() == b.tobytes(), f
        else:
            assert a.tolist() == b.tolist(), f


# zero gains, a feedback gain in outage at every coded length, subnormal ones
GAIN_ENTRY = st.one_of(st.floats(min_value=0.0, max_value=4.0),
                       st.sampled_from([0.0, 0.05, 1e-310, 5e-324]))
EDGE_PAIRS = [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1.0, 0.05),
              (1.0, 5e-324), (2.0, 1e-310), (4.0, 4.0)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(GAIN_ENTRY, GAIN_ENTRY), min_size=1, max_size=6),
       TAU, st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=400), N_MAX)
@example(EDGE_PAIRS, 1e-3, 24, 30, 256)
@example(EDGE_PAIRS, 0.9, 1, 1000, 256)
def test_array_gains_match_scalar_calls(pairs, tau, n_scan, payload, n_max):
    # the scan starts at n_t = 1, the uncoded block
    gain_fwd = np.array([g for g, _ in pairs])
    gain_fb = np.array([g for _, g in pairs])
    scan = np.arange(1, n_scan + 1)
    rep = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau, scan)
    one = achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, tau, n_scan)
    plan = plan_blocklength(payload, SNR, SNR_FB, gain_fwd, gain_fb, tau,
                            n_max)
    assert rep.rate.shape == (len(pairs), n_scan)
    assert one.rate.shape == plan.rate.shape == (len(pairs),)
    for r, (g, g_fb) in enumerate(pairs):
        assert_same_bits(rep.at(r), achievable_rate(SNR, SNR_FB, g, g_fb, tau,
                                                    scan))
        assert_same_bits(one.at(r), achievable_rate(SNR, SNR_FB, g, g_fb, tau,
                                                    n_scan))
        assert_same_bits(plan.at(r), plan_blocklength(payload, SNR, SNR_FB, g,
                                                      g_fb, tau, n_max))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("which", ["gain_fwd", "gain_fb"])
def test_array_gains_reject_bad_entries(bad, position, which):
    gains = {"gain_fwd": np.array([1.0, 0.5, 2.0]),
             "gain_fb": np.array([1.0, 0.5, 2.0])}
    gains[which][position] = bad
    with pytest.raises(ValueError):
        achievable_rate(SNR, SNR_FB, tau=1e-3, n_t=np.arange(1, 5), **gains)
    with pytest.raises(ValueError):
        plan_blocklength(30, SNR, SNR_FB, tau=1e-3, n_max=64, **gains)


def test_array_gains_shape_mismatch_rejected():
    for gain_fwd, gain_fb in ((np.ones(3), np.ones(2)), (1.0, np.ones(2)),
                              (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="equal length"):
            achievable_rate(SNR, SNR_FB, gain_fwd, gain_fb, 1e-3, 10)


def test_tau_terms_once_per_call_whatever_the_realizations(monkeypatch):
    # q_inv(tau/8) and the fold budgets of an n_t array depend on tau alone:
    # one q_inv call each, for one realization or a thousand
    calls = []

    def counted(p):
        calls.append(np.shape(p))
        return q_inv(p)

    monkeypatch.setattr(analysis, "q_inv", counted)
    for r in (1, 1000):
        calls.clear()
        gains = np.linspace(0.0, 3.0, r)
        plan_blocklength(30, SNR, SNR_FB, gains, gains[::-1], 1e-3, 256)
        assert calls == [(), (255,)]


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
    assert rel(secrecy_level_bound(40.0, eve_capacity_bits(1.0, 10.0, 1.0)),
               1.0 - 3.4594316186 / 40.0) < 1e-9
    # 20-bit payload against a 2-bit capacity: level 0.9 exactly
    assert abs(secrecy_level_bound(20.0, eve_capacity_bits(0.3, 10.0, 1.0))
               - 0.9) < 1e-12


def test_secrecy_level_clamped_at_zero():
    assert secrecy_level_bound(1.0, eve_capacity_bits(1.0, 10.0, 1.0)) == 0.0


def test_secrecy_level_validation():
    # a round with nothing to send leaves her nothing to learn, even at an
    # infinite capacity, which leaves nothing of a payload
    assert secrecy_level_bound(0, eve_capacity_bits(1.0, 10.0, 1.0)) == 1.0
    inf_cap = eve_capacity_bits(1e308, 10.0, 1e-320)
    assert inf_cap == math.inf
    assert secrecy_level_bound(0.0, inf_cap) == 1.0
    assert secrecy_level_bound(10.0, inf_cap) == 0.0
    with pytest.raises(ValueError):
        secrecy_level_bound(-1, eve_capacity_bits(1.0, 10.0, 1.0))
    for c_e in (-1.0, math.nan):
        for payload in (0, 10.0):
            with pytest.raises(ValueError):
                secrecy_level_bound(payload, c_e)
    # the capacity refuses a negative g2 and a non-positive power or
    # sigma_e2
    for args in ((-1.0, 10.0, 1.0), (1.0, 0.0, 1.0), (1.0, 10.0, 0.0)):
        with pytest.raises(ValueError):
            eve_capacity_bits(*args)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.5, max_value=500.0),
       st.floats(min_value=0.0, max_value=5.0))
def test_secrecy_level_in_unit_interval(payload, g2):
    c_e = eve_capacity_bits(g2, 10.0, 1.0)
    lvl = secrecy_level_bound(payload, c_e)
    assert 0.0 <= lvl <= 1.0
    assert lvl == max(0.0, 1.0 - c_e / payload)


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
