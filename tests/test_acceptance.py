"""Shipping contract for the package, one test per numbered claim.

Every test prints a single line with the measured quantities next to the
tolerance it was held to, so a bare ``pytest tests/test_acceptance.py -v -s``
reads as the release checklist:

 1. block error rate at tau = 1e-3 sits in [tau/100, tau] for n_t in
    {5, 10, 20} at the scheduled rate, >= 1e5 blocks, single-threaded
 2. per-use estimation error variance tracks the scheduled recursion
    within 5% over 1e5 aliasing-free blocks
 3. decision threshold identity sqrt(3)/M = Qinv(tau/8)*sqrt(alpha_last)
    to 1e-6 on a 100-point feasible parameter grid
 4. feedback signal carries P_fb/2 per real dimension within 2% and its
    distribution is message-independent (KS < 0.02 at 1e5 samples)
 5. the secrecy level bound from a 30-round desk-scale run is
    nonincreasing on a 5-round moving average; exact-posterior leakage
    at 4-bit payloads stays within 0.05 bits of the analytic budget
 6. at >= 20-bit payloads and eavesdropper SNR <= 3, message recovery
    <= 10*2^(2-20) and low-order bit error 0.5 +- 0.01 over 1e6 blocks
 7. coded federated training lands within 2 points of the uncoded
    baseline after 30 rounds, same seed; the eavesdropper's shadow
    model stays at or below 15% accuracy
 8. privacy/utility window upper bound is exactly 0.5 at the reference
    configuration; sweep verdicts match an independent re-evaluation
 9. quantizer distortion <= 1.05*D at D = 1e-4 on unit-variance sources
10. rerunning any scenario with the same config and seed reproduces
    byte-identical CSVs, including through the CLI in fresh processes
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy import stats

from fblink import analysis
from fblink.adversary import attack_full_sequence, exact_posterior_mi
from fblink.channel import NoiseSpec, Realization
from fblink.codec import (build_constellation, build_schedule,
                          draw_block_noise, eve_observation, run_block_batch)
from fblink.expcli import parse_config, run_scenario
from fblink.source_coding import dequantize, quantize
from fblink.streams import substream

from conftest import SNR, SNR_FB, TAU, draw_messages

UNIT = Realization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
NOISE = NoiseSpec(1.0, 1.0, 1.0)


def _scheduled_code(n_t, snr=SNR, snr_fb=SNR_FB, tau=TAU):
    rep = analysis.achievable_rate(snr, snr_fb, 1.0, 1.0, tau, n_t)
    assert rep.feasible
    sched = build_schedule(snr, snr_fb, tau, n_t, UNIT, NOISE)
    const = build_constellation(int(rep.total_bits // 2))
    return rep, sched, const


def _run_blocks(sched, const, n_blocks, seed, batch=20000):
    errs = 0
    eps2_r = np.zeros(sched.n_t)
    clean = done = b_idx = 0
    while done < n_blocks:
        n = min(batch, n_blocks - done)
        rng = substream(seed, b_idx)
        msg = draw_messages(rng, const, n)
        dith, ef, eb = draw_block_noise(rng, n, sched.n_t, NOISE, sched.d)
        out = run_block_batch(sched, UNIT, const, msg, dith, ef, eb,
                              record=True)
        errs += int(out.error.sum())
        mask = out.alias_events == 0
        eps2_r += (out.eps_hist[0][:, mask] ** 2).sum(axis=1)
        clean += int(mask.sum())
        done += n
        b_idx += 1
    return errs / n_blocks, eps2_r / clean, clean


def test_c01_block_error_rate_at_scheduled_rate():
    n_blocks = 100_000
    t0 = time.monotonic()
    measured = []
    for n_t in (5, 10, 20):
        _, sched, const = _scheduled_code(n_t)
        err, _, _ = _run_blocks(sched, const, n_blocks, seed=101 + n_t)
        assert err <= TAU, f"n_t={n_t}: error rate {err} above tau"
        assert err >= TAU / 100.0, f"n_t={n_t}: error rate {err} vacuous"
        measured.append((n_t, err))
    wall = time.monotonic() - t0
    assert wall < 300.0
    print("PASS C1: " + ", ".join(
        f"n_t={n_t} err={e:.2e}" for n_t, e in measured)
        + f" in [{TAU / 100:.0e}, {TAU:.0e}], {n_blocks} blocks, "
          f"wall {wall:.1f}s < 300s")


def test_c02_error_variance_tracks_schedule():
    n_t = 10
    _, sched, const = _scheduled_code(n_t)
    _, var_r, clean = _run_blocks(sched, const, 100_000, seed=202)
    dev = np.abs(var_r / sched.alpha - 1.0)
    assert dev.max() <= 0.05, f"worst per-use deviation {dev.max():.4f}"
    print(f"PASS C2: Var(eps_R,i) within {dev.max() * 100:.2f}% of schedule "
          f"for all i <= {n_t} (tolerance 5%), {clean} aliasing-free blocks")


def test_c03_threshold_identity_on_grid():
    worst = 0.0
    points = 0
    for tau in (1e-2, 1e-3, 1e-4, 1e-5):
        for snr in (5.0, 10.0, 31.62, 100.0, 316.0):
            for n_t in (5, 8, 10, 15, 20):
                rep = analysis.achievable_rate(snr, 10.0 * snr, 1.0, 1.0,
                                               tau, n_t)
                if not rep.feasible:
                    continue
                sched = build_schedule(snr, 10.0 * snr, tau, n_t, UNIT, NOISE)
                lhs = math.sqrt(3.0) / 2.0 ** (rep.total_bits / 2.0)
                rhs = analysis.q_inv(tau / 8.0) * math.sqrt(sched.alpha[-1])
                worst = max(worst, abs(lhs / rhs - 1.0))
                points += 1
    assert points >= 100
    assert worst <= 1e-6
    print(f"PASS C3: sqrt(3)/M = Qinv(tau/8)*sqrt(alpha_last) to "
          f"{worst:.2e} rel (tolerance 1e-6) on {points} feasible configs")


def test_c04_feedback_power_and_masking():
    _, sched, const = _scheduled_code(10)
    pops = []
    power_devs = []
    for tag, pair in enumerate([(0, 0), (const.m_levels - 1,
                                         const.m_levels // 3)]):
        n = 12_000  # n*(n_t-1) = 108k feedback uses per message
        rng = substream(404 + tag, 0)
        dith, ef, eb = draw_block_noise(rng, n, 10, NOISE, sched.d)
        out = run_block_batch(sched, UNIT, const,
                              np.repeat(np.array(pair)[:, None], n, axis=1),
                              dith, ef, eb, record=True)
        for part in out.x_fb_seq:
            power_devs.append(abs(np.mean(part ** 2) / (sched.P_fb / 2.0)
                                  - 1.0))
        # the R sub-channel's first 100k feedback symbols, block by block
        pops.append(out.x_fb_seq[0].T.ravel()[:100_000])
    ks = stats.ks_2samp(pops[0], pops[1]).statistic
    assert max(power_devs) <= 0.02
    assert ks < 0.02
    print(f"PASS C4: E[Xfb^2] = P_fb/2 within {max(power_devs) * 100:.2f}% "
          f"(tolerance 2%); KS between two fixed-message populations "
          f"{ks:.4f} < 0.02 at 1e5 samples")


def test_c05_secrecy_level_over_training(tmp_path):
    man = run_scenario(parse_config(), "secrecy_level_vs_round",
                       str(tmp_path))
    assert man["files"]["secrecy_level_vs_round.csv"]["rows"] == 30
    import csv
    with open(tmp_path / "secrecy_level_vs_round.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    delta = np.array([float(r["delta_running_min"]) for r in rows])
    ma = np.convolve(delta, np.ones(5) / 5.0, mode="valid")
    assert np.all(np.diff(ma) <= 1e-15), "smoothed secrecy bound rose"
    budget_devs = []
    for i, (g2, p, se2) in enumerate([(0.3, 10.0, 1.0), (3.0, 10.0, 1.0),
                                      (0.05, 10.0, 1.0)]):
        mi = exact_posterior_mi(2, 2, g2, p, se2, substream(505, i))
        budget = math.log2(1.0 + g2 * p / se2)
        assert mi <= budget + 0.05
        budget_devs.append(budget + 0.05 - mi)
    print(f"PASS C5: 5-round moving average of the secrecy bound "
          f"nonincreasing over 30 rounds ({ma[0]:.6f} -> {ma[-1]:.6f}); "
          f"4-bit exact-posterior leakage under budget+0.05 with "
          f"{min(budget_devs):.3f} bits to spare")


def test_c06_eavesdropper_chance_level_at_scale():
    g2 = 0.3
    assert g2 * SNR / 1.0 <= 3.0
    eve = Realization(1.0 + 0j, 1.0 + 0j, math.sqrt(g2) + 0j, 1.0 + 0j)
    n_t = analysis.plan_blocklength(20, SNR, SNR_FB, 1.0, 1.0, TAU, 256).n_t
    sched = build_schedule(SNR, SNR_FB, TAU, n_t, eve, NOISE)
    const = build_constellation(10)  # 10 + 10 = 20-bit payload
    n_blocks = 1_000_000
    hits = lsb_err = 0
    t0 = time.monotonic()
    for b_idx in range(10):
        n = n_blocks // 10
        rng = substream(606, b_idx)
        msg = draw_messages(rng, const, n)
        dith, ef, eb = draw_block_noise(rng, n, n_t, NOISE, sched.d)
        out = run_block_batch(sched, eve, const, msg, dith, ef, eb, tap=True)
        dec = attack_full_sequence(eve_observation(rng, out.z_seq, NOISE),
                                   eve.g, eve.g_fb, sched, const,
                                   substream(607, b_idx))
        hits += int((dec == msg).all(axis=0).sum())
        lsb_err += int(np.sum((dec[1] & 1) != (msg[1] & 1)))
    recovery = hits / n_blocks
    lsb = lsb_err / n_blocks
    bound = 10.0 * 2.0 ** (2 - 20)
    assert recovery <= bound
    assert abs(lsb - 0.5) <= 0.01
    print(f"PASS C6: 20-bit recovery {recovery:.2e} <= {bound:.2e}, "
          f"low-order bit error {lsb:.4f} = 0.5 +- 0.01, "
          f"{n_blocks} blocks in {time.monotonic() - t0:.1f}s")


def test_c07_learning_equivalence_and_eve_model(tmp_path):
    t0 = time.monotonic()
    run_scenario(parse_config(), "learning_curves", str(tmp_path))
    wall = time.monotonic() - t0
    import csv
    with open(tmp_path / "learning_curves.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    final = {r["variant"]: r for r in rows if int(r["round"]) == 29}
    base = float(final["baseline"]["test_accuracy"])
    coded = float(final["coded"]["test_accuracy"])
    eve = float(final["coded"]["eve_accuracy"])
    chunk_errors = sum(int(r["chunk_errors"]) for r in rows
                       if r["variant"] == "coded")
    assert abs(coded - base) <= 0.02, f"gap {abs(coded - base):.4f}"
    assert eve <= 0.15
    assert wall < 600.0
    print(f"PASS C7: coded {coded:.3f} vs baseline {base:.3f} "
          f"(gap {abs(coded - base) * 100:.2f}pp <= 2pp) after 30 rounds; "
          f"eavesdropper model {eve:.3f} <= 0.15; "
          f"{chunk_errors} chunk errors; wall {wall:.0f}s < 600s")


def test_c08_privacy_utility_window(tmp_path):
    cfg = parse_config()
    win = analysis.sigma2_window(0.1, 5.0, cfg.n_users, cfg.s_total,
                                 cfg.sigma_w2_max)
    assert win.upper == 0.5  # exactly: utility cap 5 over 10 users
    run_scenario(cfg, "privacy_utility_sweep", str(tmp_path))
    import csv
    with open(tmp_path / "privacy_utility_sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    # independent re-evaluation of both cutoffs from the constraint
    # definitions: per-coordinate leakage at most eps and aggregate noise
    # power at most the utility cap
    lower_ind = (cfg.s_total * cfg.sigma_w2_max
                 / (cfg.n_users * (2.0 ** (2.0 * 0.1) - 1.0)))
    upper_ind = 5.0 / cfg.n_users
    agree = 0
    for r in rows:
        assert abs(float(r["window_lower"]) - lower_ind) <= 1e-12 * lower_ind
        assert float(r["window_upper"]) == upper_ind
        s2 = float(r["sigma2"])
        assert int(r["in_window"]) == int(lower_ind <= s2 <= upper_ind)
        agree += 1
    print(f"PASS C8: window upper exactly 0.5; lower matches independent "
          f"re-evaluation to 1e-12; {agree}/{len(rows)} grid verdicts agree")


def test_c09_quantizer_distortion_contract():
    d_target = 1e-4
    n = 100_000
    worst = 0.0
    sources = [
        ("gauss-a", substream(909, 0).normal(size=n)),
        ("gauss-b", substream(909, 1).normal(size=n)),
        ("uniform", substream(909, 2).uniform(-math.sqrt(3.0),
                                              math.sqrt(3.0), size=n)),
    ]
    for i, (name, w) in enumerate(sources):
        pay = quantize(w, d_target, 1.0, substream(909, 3, i))
        w_hat = dequantize(pay, substream(909, 3, i))  # replayed dither
        mse = float(np.mean((w - w_hat) ** 2))
        worst = max(worst, mse / d_target)
        assert mse <= 1.05 * d_target, f"{name}: mse {mse:.3e}"
    print(f"PASS C9: quantizer distortion <= {worst:.4f}*D "
          f"(contract 1.05*D) at D=1e-4, {n} unit-variance coordinates")


def test_c10_byte_identical_reruns(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(
        {"n_blocks": 20000, "fixed_gains": 1, "n_t": 5, "seed": 31}))
    jobs = [("codec_validation", str(cfg_file)),
            ("privacy_utility_sweep", None)]
    compared = []
    for scenario, cfg_path in jobs:
        outs = []
        for run_i in (0, 1):
            out = tmp_path / f"{scenario}-{run_i}"
            cmd = [sys.executable, "-m", "fblink.expcli", "run",
                   "--scenario", scenario, "--out", str(out)]
            if cfg_path:
                cmd += ["--config", cfg_path]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        man = [json.loads((o / "manifest.json").read_text()) for o in outs]
        assert man[0]["files"] == man[1]["files"]
        for name in man[0]["files"]:
            a = (outs[0] / name).read_bytes()
            b = (outs[1] / name).read_bytes()
            assert a == b, f"{scenario}/{name} differs between reruns"
            compared.append(name)
    print(f"PASS C10: byte-identical CSVs across fresh-process reruns "
          f"({', '.join(sorted(set(compared)))})")
