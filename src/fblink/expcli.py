"""Experiment scenarios and the command line front end.

Each scenario turns a SystemConfig into one or more CSV tables plus a JSON
manifest carrying the config echo, the seed, and a sha256 of every table.
Scenario cells are int, float or str only, and the csv module writes floats
with repr(), so equal runs produce byte-identical files; the manifest's
wall_time_s is the one deliberately non-reproducible field and stays out of
the hashes.

Realizations are independent tasks on substreams keyed by task index. With
FBLINK_WORKERS > 1 they run in a process pool of at most os.cpu_count()
workers, with at most two tasks per worker submitted ahead of the one being
written. Tables are streamed: every file is opened before the first task
runs, and each task's rows are appended in task order as they arrive, with
the same bytes fed to a running sha256. Memory therefore stays flat in the
realization count, and the worker count never changes the bytes. The tables
are written under a ".part" suffix and renamed when the run succeeds; a run
that raises removes them, so it leaves no partial tables and no manifest.
An unusable output directory and a non-integer FBLINK_WORKERS are
configuration errors.

Exit codes: 0 success, 1 configuration error, 2 a scenario found the
configured system infeasible at runtime.
"""

import argparse
import collections
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__, adversary, analysis, codec, datasets, hfl, mlp, \
    source_coding
from .channel import NoiseSpec, Realization, sample_realization
from .streams import (DOMAIN_ATTACK, DOMAIN_BLOCKS, DOMAIN_MESSAGES,
                      DOMAIN_REALIZATION, substream)

__all__ = [
    "SystemConfig",
    "ConfigError",
    "InfeasibleError",
    "parse_config",
    "coded_transmitter",
    "run_scenario",
    "SCENARIO_NAMES",
    "main",
]


class ConfigError(ValueError):
    """Bad key, value, or file; maps to exit code 1."""


class InfeasibleError(RuntimeError):
    """The configured system cannot run (e.g. persistent feedback outage);
    maps to exit code 2."""


# =====================================================================
# Configuration
# =====================================================================


@dataclass(frozen=True)
class SystemConfig:
    """Flat experiment configuration; every field is a valid JSON config key.

    Link defaults put the forward channel at 10 dB and the feedback at 15 dB
    over unit noise. Learning defaults are desk scale: a 1000-sample training
    subset, 10 users, 30 rounds, and a one-hidden-layer 784-20-10 model.
    """

    seed: int = 2026
    realizations: int = 1
    # link
    snr_db: float = 10.0
    snr_fb_db: float = 15.0
    sigma1_2: float = 1.0
    sigma2_2: float = 1.0
    sigma_e2: float = 1.0
    tau: float = 1e-3
    n_t: int = 10
    n_max: int = 256
    uses_per_second: float = 1e6
    fixed_gains: int = 0
    # scenario sizes
    n_blocks: int = 100000
    payload_bits: int = 30
    n_t_max_scan: int = 24
    sweep_points: int = 13
    max_redraws: int = 1000
    # source coding and privacy
    distortion: float = 1e-4
    privacy_eps: float = 0.1
    utility_cap: float = 5.0
    sigma2: float = 0.5
    sigma_w2_max: float = 5e-4
    # learning
    n_users: int = 10
    n_train: int = 1000
    n_test: int = 1000
    n_rounds: int = 30
    n_hidden: int = 20
    lr: float = 1.0
    reg: float = 5e-5
    data_dir: str = ""

    @property
    def snr(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def snr_fb(self) -> float:
        return 10.0 ** (self.snr_fb_db / 10.0)

    @property
    def power(self) -> float:
        return self.snr * self.sigma1_2

    @property
    def s_total(self) -> int:
        """Samples actually used: equal shards, remainder dropped."""
        return (self.n_train // self.n_users) * self.n_users

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(self.sigma1_2, self.sigma2_2, self.sigma_e2)

    def mlp_spec(self) -> mlp.MlpSpec:
        return mlp.MlpSpec(784, self.n_hidden, 10)


def _validate(cfg: SystemConfig) -> SystemConfig:
    try:
        snr_ok = all(0.0 < s < math.inf for s in (cfg.snr, cfg.snr_fb))
    except OverflowError:
        snr_ok = False
    checks = [
        (snr_ok, "snr_db and snr_fb_db must give a finite positive linear "
                 "SNR"),
        (cfg.seed >= 0, "seed must be >= 0"),
        (cfg.realizations >= 1, "realizations must be >= 1"),
        (cfg.sigma1_2 > 0 and cfg.sigma2_2 > 0 and cfg.sigma_e2 > 0,
         "noise variances must be positive"),
        (0.0 < cfg.tau < 1.0, "tau must be in (0, 1)"),
        (cfg.n_t >= 1, "n_t must be >= 1"),
        (cfg.n_max >= 2, "n_max must be >= 2"),
        (cfg.uses_per_second > 0, "uses_per_second must be positive"),
        (cfg.n_blocks >= 1, "n_blocks must be >= 1"),
        (cfg.payload_bits >= 1, "payload_bits must be >= 1"),
        (cfg.n_t_max_scan >= 1, "n_t_max_scan must be >= 1"),
        (cfg.sweep_points >= 2, "sweep_points must be >= 2"),
        (cfg.max_redraws >= 1, "max_redraws must be >= 1"),
        (cfg.distortion > 0, "distortion must be positive"),
        (cfg.privacy_eps > 0, "privacy_eps must be positive"),
        (cfg.utility_cap > 0, "utility_cap must be positive"),
        (cfg.sigma2 >= 0, "sigma2 must be >= 0"),
        (cfg.sigma_w2_max > 0, "sigma_w2_max must be positive"),
        (cfg.n_users >= 1, "n_users must be >= 1"),
        (cfg.n_train >= cfg.n_users, "n_train must be >= n_users"),
        (cfg.n_test >= 1, "n_test must be >= 1"),
        (cfg.n_rounds >= 1, "n_rounds must be >= 1"),
        (cfg.n_hidden >= 1, "n_hidden must be >= 1"),
        (cfg.lr > 0, "lr must be positive"),
        (cfg.reg >= 0, "reg must be >= 0"),
        (cfg.fixed_gains in (0, 1), "fixed_gains must be 0 or 1"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(msg)
    return cfg


def parse_config(path=None, **overrides) -> SystemConfig:
    """Config from an optional flat JSON file plus keyword overrides.

    Precedence: overrides (CLI flags) > file > defaults. Unknown keys are an
    error naming the valid ones, so typos fail loudly instead of silently
    running the defaults.
    """
    valid = {f.name: f.type for f in fields(SystemConfig)}
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError("cannot read config %r: %s" % (path, e))
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ConfigError("unknown config keys %s; valid keys: %s"
                          % (unknown, sorted(valid)))
    coerced = {}
    for k, v in data.items():
        want = valid[k]
        try:
            if want is int:
                if isinstance(v, bool) or (isinstance(v, float)
                                           and v != int(v)):
                    raise ValueError("not an integer")
                coerced[k] = int(v)
            elif want is float:
                if isinstance(v, bool):
                    raise ValueError("not a number")
                coerced[k] = float(v)
                if not math.isfinite(coerced[k]):
                    raise ValueError("not finite")
            else:
                coerced[k] = str(v)
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError("bad value for %s: %r (%s)" % (k, v, e))
    return _validate(SystemConfig(**coerced))


# =====================================================================
# Payload transport over the duplex link
# =====================================================================


def _pack_group(bits_mat):
    """(n, b) bit matrix to the index pair (w_r, w_i, b_r, b_i).

    The R sub-channel takes the first ceil(b/2) bits of each row, the extra
    bit of an odd payload riding on R; each half packs MSB first.
    """
    b_r = (bits_mat.shape[1] + 1) // 2
    return (codec.from_bits(bits_mat[:, :b_r]),
            codec.from_bits(bits_mat[:, b_r:]), b_r, bits_mat.shape[1] - b_r)


def _unpack_group(w_r, w_i, b_r, b_i):
    """Inverse of _pack_group: the (n, b_r + b_i) bit matrix."""
    return np.hstack([codec.to_bits(w_r, b_r), codec.to_bits(w_i, b_i)])


def _send_bits(bit_string, groups, realization, cfg, noise, rng_key,
               capture_eve):
    """Push a chunked bit string through the link, one block batch per
    ChunkGroup; returns (decoded bits, eavesdropper bits or None,
    diagnostics)."""
    seed, r_idx, round_idx = rng_key
    dec = np.empty_like(bit_string)
    eve = np.empty_like(bit_string) if capture_eve else None
    chunk_errors = 0
    for g_idx, grp in enumerate(groups):
        span = slice(grp.start, grp.start + grp.count * grp.n_bits)
        w_r, w_i, b_r, b_i = _pack_group(
            bit_string[span].reshape(grp.count, grp.n_bits))
        cr = codec.build_constellation(b_r)
        ci = codec.build_constellation(b_i)
        sched = codec.build_schedule(cfg.snr, cfg.snr_fb, grp.tau_chunk,
                                     grp.n_t, realization, noise)
        block_rng = substream(seed, DOMAIN_BLOCKS, r_idx, round_idx, g_idx)
        dith, ef, eb, ee = codec.draw_block_noise(
            block_rng, grp.count, grp.n_t, noise, sched.d, capture_eve)
        out = codec.run_block_batch(sched, realization, cr, ci, w_r, w_i,
                                    dith, ef, eb, eta_eve=ee)
        chunk_errors += int(out.error.sum())
        dec[span] = _unpack_group(out.dec_r, out.dec_i, b_r, b_i).ravel()
        if capture_eve:
            att_rng = substream(seed, DOMAIN_ATTACK, r_idx, round_idx, g_idx)
            att_r, att_i = adversary.attack_full_sequence(
                out.z_seq, realization.g, realization.g_fb, sched, cr, ci,
                att_rng)
            eve[span] = _unpack_group(att_r, att_i, b_r, b_i).ravel()
    return dec, eve, {"n_chunks": sum(grp.count for grp in groups),
                      "chunk_errors": chunk_errors,
                      "n_t_max": max(grp.n_t for grp in groups)}


def coded_transmitter(cfg: SystemConfig, r_idx, fixed_realization=None,
                      capture_eve=False):
    """Build the transmit_fn used by hfl.train for the coded pipeline.

    transmit(agg, round_idx, source_var) quantizes the aggregate at the
    configured distortion and the source_var hfl.train hands it, slices the
    physical bit string into feasible chunks, runs every chunk through the
    feedback code at the round's channel, reassembles, and dequantizes
    through the replayed dither stream. The channel is redrawn each round
    unless fixed_realization pins it; rounds in outage are redrawn up to
    max_redraws, and the count is reported.
    """
    noise = cfg.noise_spec()

    def transmit(agg, round_idx, source_var):
        dither_key = (cfg.seed, DOMAIN_MESSAGES, r_idx, round_idx)
        payload = source_coding.quantize(agg, cfg.distortion, source_var,
                                         substream(*dither_key))
        stats = {"accounted_bits": payload.accounted_bits,
                 "physical_bits": payload.physical_bits,
                 "rate_per_coord": payload.rate_bits_per_coord}
        if payload.physical_bits == 0:
            stats.update(redraws=0, n_chunks=0, chunk_errors=0, n_t_max=0,
                         gain_fwd=0.0, gain_eve=0.0, c_e=0.0, delta_round=1.0)
            zero = np.zeros(payload.n_coords)
            return zero, (zero.copy() if capture_eve else None), stats

        if fixed_realization is not None:
            candidates = [fixed_realization]
        else:
            candidates = (sample_realization(substream(
                cfg.seed, DOMAIN_REALIZATION, r_idx, round_idx, attempt))
                for attempt in range(cfg.max_redraws))
        redraws = 0
        for real in candidates:
            groups = source_coding.chunk(payload.physical_bits, cfg.snr,
                                         cfg.snr_fb, real.gain_fwd,
                                         real.gain_fb, cfg.tau, cfg.n_max)
            if groups is not None:
                break
            redraws += 1
        else:
            if fixed_realization is not None:
                raise InfeasibleError(
                    "pinned channel cannot carry a %d-bit round"
                    % payload.physical_bits)
            raise InfeasibleError(
                "no feasible channel in %d draws for round %d"
                % (cfg.max_redraws, round_idx))

        dec_bits, eve_bits, link = _send_bits(
            payload.indices, groups, real, cfg, noise,
            (cfg.seed, r_idx, round_idx), capture_eve)
        decoded = source_coding.dequantize(
            replace(payload, indices=dec_bits), substream(*dither_key))
        eve_agg = None
        if capture_eve:
            eve_agg = source_coding.dequantize(
                replace(payload, indices=eve_bits), None)

        c_e = analysis.eve_capacity_bits(real.gain_eve, cfg.power,
                                         cfg.sigma_e2)
        delta = analysis.secrecy_level_bound(
            payload.accounted_bits, real.gain_eve, cfg.power, cfg.sigma_e2)
        stats.update(link, redraws=redraws, gain_fwd=real.gain_fwd,
                     gain_eve=real.gain_eve, c_e=c_e, delta_round=delta)
        return decoded, eve_agg, stats

    return transmit


# =====================================================================
# Scenarios
# =====================================================================

_RATES_HEADER = ("realization", "n_t", "gain_fwd", "gain_fb", "feasible",
                 "outage_reason", "rate_bits_per_use", "total_bits", "L",
                 "psi1", "psi2")
_PLANS_HEADER = ("realization", "payload_bits", "n_t", "rate_bits_per_use",
                 "total_bits", "latency_s", "feasible")


def _scn_rate_vs_blocklength(cfg, r_idx):
    rng = substream(cfg.seed, DOMAIN_REALIZATION, r_idx)
    real = sample_realization(rng)
    rep = analysis.achievable_rate(cfg.snr, cfg.snr_fb, real.gain_fwd,
                                   real.gain_fb, cfg.tau,
                                   np.arange(1, cfg.n_t_max_scan + 1))
    rates = [(r_idx, n_t, real.gain_fwd, real.gain_fb, ok, reason or "",
              rate, bits, L, psi1, psi2)
             for n_t, ok, reason, rate, bits, L, psi1, psi2 in zip(
                 rep.n_t.tolist(), rep.feasible.astype(int).tolist(),
                 rep.outage_reason.tolist(), rep.rate.tolist(),
                 rep.total_bits.tolist(), rep.L.tolist(), rep.psi1.tolist(),
                 rep.psi2.tolist())]
    plan = analysis.plan_blocklength(cfg.payload_bits, cfg.snr, cfg.snr_fb,
                                     real.gain_fwd, real.gain_fb, cfg.tau,
                                     cfg.n_max)
    lat = analysis.latency_seconds(cfg.payload_bits, plan.rate,
                                   cfg.uses_per_second)
    plans = [(r_idx, cfg.payload_bits, plan.n_t, plan.rate, plan.total_bits,
              lat, int(plan.feasible))]
    return {"rates.csv": rates, "plans.csv": plans}


_CODEC_HEADER = ("realization", "n_t", "bits_per_sub", "n_blocks",
                 "err_rate", "alias_rate", "power_fwd_ratio",
                 "power_fb_ratio", "max_var_dev", "feasible",
                 "outage_reason")


def _scn_codec_validation(cfg, r_idx):
    if cfg.fixed_gains:
        real = Realization(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    else:
        real = sample_realization(substream(cfg.seed, DOMAIN_REALIZATION,
                                            r_idx))
    rep = analysis.achievable_rate(cfg.snr, cfg.snr_fb, real.gain_fwd,
                                   real.gain_fb, cfg.tau, cfg.n_t)
    bits_sub = int(rep.total_bits // 2)
    if not rep.feasible or bits_sub < 1 \
            or bits_sub > codec.MAX_SUB_CHANNEL_BITS:
        # past float64 resolution the interval decode is meaningless
        reason = rep.outage_reason or ("rate_too_low" if bits_sub < 1
                                       else "exceeds_sub_channel_bits")
        return {"codec_validation.csv": [
            (r_idx, cfg.n_t, 0, 0, "", "", "", "", "", 0, reason)]}
    noise = cfg.noise_spec()
    sched = codec.build_schedule(cfg.snr, cfg.snr_fb, cfg.tau, cfg.n_t, real,
                                 noise)
    const = codec.build_constellation(bits_sub)
    msg_rng = substream(cfg.seed, DOMAIN_MESSAGES, r_idx)
    errs = clean = done = batch_idx = 0
    pow_fwd = pow_fb = 0.0
    eps2 = np.zeros(cfg.n_t)
    while done < cfg.n_blocks:
        n = min(20000, cfg.n_blocks - done)
        mr = msg_rng.integers(0, const.m_levels, n)
        mi = msg_rng.integers(0, const.m_levels, n)
        brng = substream(cfg.seed, DOMAIN_BLOCKS, r_idx, batch_idx)
        dith, ef, eb, _ = codec.draw_block_noise(brng, n, cfg.n_t, noise,
                                                 sched.d)
        out = codec.run_block_batch(sched, real, const, const, mr, mi, dith,
                                    ef, eb, record=True)
        errs += int(out.error.sum())
        pow_fwd += float((np.abs(out.x_seq) ** 2).sum())
        pow_fb += float((np.abs(out.x_fb_seq) ** 2).sum())
        mask = out.alias_events == 0
        eps2 += ((out.eps_hist ** 2).sum(axis=2) * mask[:, None]).sum(axis=0)
        clean += int(mask.sum())
        done += n
        batch_idx += 1
    # every block aliased leaves no clean error sample: an empty cell
    var_dev = (float(np.abs(eps2 / (2.0 * clean) / sched.alpha - 1.0).max())
               if clean else "")
    row = (r_idx, cfg.n_t, bits_sub, cfg.n_blocks,
           errs / cfg.n_blocks, (cfg.n_blocks - clean) / cfg.n_blocks,
           pow_fwd / (cfg.n_blocks * cfg.n_t * sched.P),
           pow_fb / (cfg.n_blocks * (cfg.n_t - 1) * sched.P_fb)
           if cfg.n_t > 1 else 1.0,
           var_dev, 1, "")
    return {"codec_validation.csv": [row]}


_SECRECY_HEADER = ("realization", "round", "sigma_w2_hat", "source_var",
                   "rate_per_coord", "accounted_bits", "physical_bits",
                   "c_e_bits", "delta_round", "delta_running_min",
                   "mi_per_coord", "utility_noise", "n_chunks",
                   "chunk_errors", "redraws_to_feasible")


def _feasible_realization(cfg, r_idx):
    """Rejection-sample a channel that can carry desk-scale rounds.

    Probed against an 80-bit chunk at the smallest per-chunk budget a round
    of this size can reach; a channel passing the probe passes every round.
    """
    worst_chunks = max(1, math.ceil(
        mlp.n_params(cfg.mlp_spec()) * 24 / source_coding.MAX_CHUNK_BITS))
    for attempt in range(cfg.max_redraws):
        real = sample_realization(substream(cfg.seed, DOMAIN_REALIZATION,
                                            r_idx, attempt))
        probe = analysis.plan_blocklength(
            source_coding.MAX_CHUNK_BITS, cfg.snr, cfg.snr_fb, real.gain_fwd,
            real.gain_fb, cfg.tau / worst_chunks, cfg.n_max)
        if probe.feasible:
            return real, attempt
    raise InfeasibleError("no feasible channel in %d draws" % cfg.max_redraws)


def _load_learning_data(cfg):
    """The learning data; a data_dir that cannot be read, or whose IDX
    files are malformed or too short, is a ConfigError."""
    try:
        return datasets.load_dataset(cfg.data_dir or None, cfg.n_train,
                                     cfg.n_test, cfg.seed)
    except (OSError, ValueError) as e:
        raise ConfigError("cannot load data_dir %r: %s" % (cfg.data_dir, e))


def _scn_secrecy_level_vs_round(cfg, r_idx):
    x_tr, y_tr, x_te, y_te = _load_learning_data(cfg)
    real, redraws = _feasible_realization(cfg, r_idx)
    fn = coded_transmitter(cfg, r_idx, fixed_realization=real)
    res = hfl.train(x_tr, y_tr, x_te, y_te, cfg.mlp_spec(), cfg.n_users,
                    cfg.n_rounds, cfg.lr, cfg.reg, cfg.sigma2, cfg.seed,
                    transmit_fn=fn, tag=r_idx)
    rows = []
    running = math.inf
    for rec in res.rounds:
        s = rec.stats
        running = min(running, s["delta_round"])
        rows.append((r_idx, rec.round_index, rec.sigma_w2_hat,
                     rec.source_var, s["rate_per_coord"],
                     s["accounted_bits"], s["physical_bits"], s["c_e"],
                     s["delta_round"], running, rec.mi_per_coord,
                     rec.utility_noise, s["n_chunks"], s["chunk_errors"],
                     redraws if rec.round_index == 0 else 0))
    return {"secrecy_level_vs_round.csv": rows}


_LEARNING_HEADER = ("realization", "variant", "round", "test_accuracy",
                    "train_loss", "sigma_w2_hat", "source_var",
                    "mi_per_coord", "utility_noise", "accounted_bits",
                    "physical_bits", "n_chunks", "chunk_errors", "redraws",
                    "delta_round", "eve_accuracy")


def _scn_learning_curves(cfg, r_idx):
    x_tr, y_tr, x_te, y_te = _load_learning_data(cfg)
    spec = cfg.mlp_spec()
    base = hfl.train(x_tr, y_tr, x_te, y_te, spec, cfg.n_users, cfg.n_rounds,
                     cfg.lr, cfg.reg, cfg.sigma2, cfg.seed, transmit_fn=None,
                     tag=r_idx)
    fn = coded_transmitter(cfg, r_idx, capture_eve=True)
    coded = hfl.train(x_tr, y_tr, x_te, y_te, spec, cfg.n_users,
                      cfg.n_rounds, cfg.lr, cfg.reg, cfg.sigma2, cfg.seed,
                      transmit_fn=fn, tag=r_idx)
    rows = []
    for rec in base.rounds:
        rows.append((r_idx, "baseline", rec.round_index, rec.test_accuracy,
                     rec.train_loss, rec.sigma_w2_hat, rec.source_var,
                     rec.mi_per_coord, rec.utility_noise,
                     "", "", "", "", "", "", ""))
    for rec in coded.rounds:
        s = rec.stats
        rows.append((r_idx, "coded", rec.round_index, rec.test_accuracy,
                     rec.train_loss, rec.sigma_w2_hat, rec.source_var,
                     rec.mi_per_coord, rec.utility_noise,
                     s["accounted_bits"], s["physical_bits"], s["n_chunks"],
                     s["chunk_errors"], s["redraws"], s["delta_round"],
                     coded.eve_accuracy[rec.round_index]))
    return {"learning_curves.csv": rows}


_SWEEP_HEADER = ("grid_index", "sigma2", "window_lower", "window_upper",
                 "window_nonempty", "in_window", "mi_per_coord",
                 "utility_noise")


def _scn_privacy_utility_sweep(cfg, r_idx):
    win = analysis.sigma2_window(cfg.privacy_eps, cfg.utility_cap,
                                 cfg.n_users, cfg.s_total, cfg.sigma_w2_max)
    lo = min(win.lower, win.upper) / 4.0
    hi = max(win.lower, win.upper) * 4.0
    grid = np.geomspace(lo, hi, cfg.sweep_points)
    rows = []
    for j, s2 in enumerate(grid):
        s2 = float(s2)
        rows.append((j, s2, win.lower, win.upper, int(win.nonempty),
                     int(win.contains(s2)),
                     hfl.privacy_mi_per_coord(cfg.sigma_w2_max, cfg.s_total,
                                              cfg.n_users, s2),
                     cfg.n_users * s2))
    return {"privacy_utility_sweep.csv": rows}


SCENARIOS = {
    "rate_vs_blocklength": (_scn_rate_vs_blocklength,
                            {"rates.csv": _RATES_HEADER,
                             "plans.csv": _PLANS_HEADER}),
    "codec_validation": (_scn_codec_validation,
                         {"codec_validation.csv": _CODEC_HEADER}),
    "secrecy_level_vs_round": (_scn_secrecy_level_vs_round,
                               {"secrecy_level_vs_round.csv":
                                _SECRECY_HEADER}),
    "learning_curves": (_scn_learning_curves,
                        {"learning_curves.csv": _LEARNING_HEADER}),
    "privacy_utility_sweep": (_scn_privacy_utility_sweep,
                              {"privacy_utility_sweep.csv": _SWEEP_HEADER}),
}

SCENARIO_NAMES = tuple(sorted(SCENARIOS))

# the sweep is a pure function of the config, one task regardless of
# realizations; everything else fans out per realization
_SINGLE_TASK = {"privacy_utility_sweep"}


def _run_task(packed):
    scenario, cfg, r_idx = packed
    fn, _ = SCENARIOS[scenario]
    return fn(cfg, r_idx)


def _worker_count(env, cpu_count):
    """Worker processes for the realization fan-out: FBLINK_WORKERS from env
    (default 1), at least 1 and at most cpu_count."""
    raw = env.get("FBLINK_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError("FBLINK_WORKERS must be an integer, got %r" % raw)
    return max(1, min(workers, cpu_count or 1))


def _ordered(pool, tasks, window):
    """Results of _run_task over tasks, yielded in task order, with at most
    window futures submitted to pool and not yet yielded.

    Futures still pending when the consumer stops early are cancelled.
    """
    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == window:
                yield pending.popleft().result()
            pending.append(pool.submit(_run_task, task))
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _task_results(scenario, cfg, n_tasks, workers):
    """Each task's tables in task order: in this process for one worker,
    else through a process pool holding at most two tasks per worker."""
    tasks = ((scenario, cfg, r) for r in range(n_tasks))
    if workers == 1:
        yield from map(_run_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from _ordered(pool, tasks, 2 * workers)


def _open_tables(out_dir, names):
    """Create out_dir and open one binary ".part" file per table name. An
    unusable out_dir is a ConfigError, raised before any task runs."""
    files = {}
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name in names:
            files[name] = open(os.path.join(out_dir, name + ".part"), "wb")
    except OSError as e:
        _discard(files)
        raise ConfigError("cannot write tables under %r: %s" % (out_dir, e))
    return files


def _discard(files):
    """Close and remove the partial tables of a failed run; a table that
    cannot be flushed (a full disk) is removed all the same."""
    for f in files.values():
        with contextlib.suppress(OSError):
            f.close()
        with contextlib.suppress(OSError):
            os.remove(f.name)


def _write_csv(f, digest, rows):
    """Append rows to the binary file f with one csv writerows call and feed
    the same bytes to the running sha256 digest."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    data = buf.getvalue().encode("utf-8")
    f.write(data)
    digest.update(data)


def run_scenario(cfg: SystemConfig, scenario, out_dir):
    """Execute one scenario and write its CSVs and manifest under out_dir.

    Rows are streamed to disk in task order as tasks finish, so memory does
    not grow with the realization count. A run that raises leaves no table
    of its own and no manifest behind.
    """
    if scenario not in SCENARIOS:
        raise ConfigError("unknown scenario %r; choose from %s"
                          % (scenario, list(SCENARIO_NAMES)))
    _, file_headers = SCENARIOS[scenario]
    t0 = time.monotonic()
    n_tasks = 1 if scenario in _SINGLE_TASK else cfg.realizations
    workers = min(_worker_count(os.environ, os.cpu_count()), n_tasks)
    files = _open_tables(out_dir, file_headers)
    digests = {name: hashlib.sha256() for name in files}
    n_rows = dict.fromkeys(files, 0)
    try:
        for name, header in file_headers.items():
            _write_csv(files[name], digests[name], [header])
        with contextlib.closing(_task_results(scenario, cfg, n_tasks,
                                              workers)) as results:
            for tables in results:
                for name, rows in tables.items():
                    _write_csv(files[name], digests[name], rows)
                    n_rows[name] += len(rows)
        for name, f in files.items():
            f.close()
            os.replace(f.name, os.path.join(out_dir, name))
    except BaseException:
        _discard(files)
        raise

    manifest = {
        "format_version": 1,
        "package_version": __version__,
        "scenario": scenario,
        "seed": cfg.seed,
        "realizations": cfg.realizations,
        "config": asdict(cfg),
        "files": {name: {"sha256": digests[name].hexdigest(),
                         "rows": n_rows[name]} for name in files},
        "wall_time_s": time.monotonic() - t0,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


# =====================================================================
# Entry point
# =====================================================================


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fblink",
        description="Link-level experiments for feedback-coded private "
                    "gradient uploads.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one scenario and write CSVs")
    run.add_argument("--config", default=None,
                     help="flat JSON config file (defaults apply otherwise)")
    run.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    run.add_argument("--seed", type=int, default=None,
                     help="overrides the config seed")
    run.add_argument("--realizations", type=int, default=None,
                     help="overrides the config realization count")
    run.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, seed=args.seed,
                           realizations=args.realizations)
        manifest = run_scenario(cfg, args.scenario, args.out)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1
    except InfeasibleError as e:
        print("infeasible: %s" % e, file=sys.stderr)
        return 2
    for name, info in sorted(manifest["files"].items()):
        print("%s: %d rows, sha256 %s" % (name, info["rows"],
                                          info["sha256"][:16]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
