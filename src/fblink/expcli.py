"""Experiment scenarios and the command line front end.

Each scenario turns a SystemConfig into one or more CSV tables plus a JSON
manifest carrying the config echo, the seed, and a sha256 of every table.
Scenario cells are int, float or str only, and _csv_bytes, the one
formatter, writes each as str() gives it (a float's shortest repr) with
csv's minimal quoting, so equal runs produce byte-identical files; the
manifest's wall_time_s is the one deliberately non-reproducible field and
stays out of the hashes. Its environment object names what else the bytes
depend on: the Python version and implementation (whose statistics module
sets the normal quantile), numpy and its BLAS build, the live OpenBLAS
thread count and core (the MLP scenarios' products round by them), the C
library (whose log2 sets the rates, the eavesdropper's capacity and the
rate-distortion bits) and the substreams' bit generator.

Realizations are independent, each on substreams keyed by its own index.
_task_args maps them to tasks: a rate_vs_blocklength task is a range of
consecutive realizations, planned in one array call and sized by a fixed
element budget over n_max + n_t_max_scan; the sweep is one task; every
other scenario runs one realization per task. A task formats its rows as
CSV bytes itself. With FBLINK_WORKERS > 1 tasks run in a process pool of
at most os.cpu_count() workers, with at most two tasks per worker submitted
ahead of the one being written. Tables are streamed: every file is opened
before the first task runs, and each task's bytes are appended in task
order as they arrive and fed to a running sha256. Memory therefore stays
flat in the realization count, and neither the worker count nor the task
size changes the bytes. Two scenarios run one helper thread beside a task
where it finds an idle CPU (_helper_cpu_free): the tasks run in this
process (one worker) and os.cpu_count() is at least 2. codec_validation
draws the noise of its next block batch on it while the engine runs the
current batch; numpy's noise fills release the GIL. learning_curves trains
its error-free baseline on it while the calling thread trains the coded
run, and only where the live OpenBLAS thread count is 1, since more BLAS
threads already keep every CPU busy. Pool workers, 1-CPU hosts and
learning tasks on a multi-threaded or unknown BLAS do the same work inline,
so busy threads never outnumber the CPUs. Each batch and each run keeps its
own substreams, so the bytes are the same either way; the helper costs
some CPU time and a few MiB of peak memory (its buffers and its glibc
arena). The manifest records the worker count. The tables are written
under a ".part" suffix and renamed when the run succeeds; a run that
raises removes them, so it leaves no partial tables and no manifest.
An unusable output directory and a non-integer FBLINK_WORKERS are
configuration errors.

Exit codes: 0 success, 1 configuration error, 2 a scenario found the
configured system infeasible at runtime.
"""

import argparse
import collections
import contextlib
import functools
import hashlib
import json
import math
import os
import platform
import sys
import threading
import time
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


# The planner splits tau into shares tau/(8*n_chunks*(n_t - 1)) before
# inverting the Gaussian tail; from this floor every share stays a normal
# float for any divisor below 1e100, where a tau near the subnormal range
# would underflow to 0 and leave q_inv nothing to invert.
_TAU_MIN = 1e-200

# The block engine scales its forward symbols by lam = sqrt(L*P/P_fb), to
# squares of at most 1.5*L*P, and draws its dither over the fold width
# sqrt(6*P_fb). The fold budget L stays below 400 for every tau share down
# to 1e-260, which a tau of at least _TAU_MIN keeps while
# 8*n_chunks*(n_t - 1) is below 1e60; so under this bound on P, P_fb and
# P/P_fb every symbol and its square stay finite. At P = 1.7e308 lam was
# inf and NaN estimates reached the decoder.
_POWER_MAX = 1e302

# A feasible plan carries payload_bits >= 1 in n_t <= n_max uses, so its rate
# is at least 1/n_max and its latency payload_bits/(rate*uses_per_second) at
# most n_max/uses_per_second. From this floor the product stays a normal
# float for any n_max below 1e100 and the latency finite below 1e108, far
# above any n_max whose planner arrays fit in memory; near the subnormal
# range the product underflowed to 0 (a ZeroDivisionError) or the latency
# of a feasible plan overflowed to inf, the infeasible sentinel.
_UPS_MIN = 1e-200


def _validate(cfg: SystemConfig) -> SystemConfig:
    try:
        snr_ok = all(0.0 < s < math.inf for s in (cfg.snr, cfg.snr_fb))
        p, p_fb = cfg.power, cfg.snr_fb * cfg.sigma2_2
    except OverflowError:
        snr_ok, p, p_fb = False, math.inf, math.inf
    # a non-positive P_fb fails the SNR or the noise check below
    ratio = p / p_fb if p_fb > 0 else 0.0
    # the privacy floor divides by 2^(2*privacy_eps) - 1
    try:
        eps_gain = 2.0 ** (2.0 * cfg.privacy_eps) - 1.0
    except OverflowError:
        eps_gain = math.inf
    checks = [
        (snr_ok, "snr_db and snr_fb_db must give a finite positive linear "
                 "SNR"),
        (p <= _POWER_MAX, "the power snr*sigma1_2 must be at most %g"
                          % _POWER_MAX),
        (p_fb <= _POWER_MAX, "the feedback power snr_fb*sigma2_2 must be at "
                             "most %g" % _POWER_MAX),
        (ratio <= _POWER_MAX, "the power ratio snr*sigma1_2 / "
                              "(snr_fb*sigma2_2) must be at most %g"
                              % _POWER_MAX),
        (cfg.seed >= 0, "seed must be >= 0"),
        (cfg.realizations >= 1, "realizations must be >= 1"),
        (cfg.sigma1_2 > 0 and cfg.sigma2_2 > 0 and cfg.sigma_e2 > 0,
         "noise variances must be positive"),
        (_TAU_MIN <= cfg.tau < 1.0, "tau must be in [%g, 1)" % _TAU_MIN),
        (cfg.n_t >= 1, "n_t must be >= 1"),
        (cfg.n_max >= 2, "n_max must be >= 2"),
        (cfg.uses_per_second >= _UPS_MIN, "uses_per_second must be at "
                                          "least %g" % _UPS_MIN),
        (cfg.n_blocks >= 1, "n_blocks must be >= 1"),
        (cfg.payload_bits >= 1, "payload_bits must be >= 1"),
        (cfg.n_t_max_scan >= 1, "n_t_max_scan must be >= 1"),
        (cfg.sweep_points >= 2, "sweep_points must be >= 2"),
        (cfg.max_redraws >= 1, "max_redraws must be >= 1"),
        (cfg.distortion > 0, "distortion must be positive"),
        (cfg.privacy_eps > 0, "privacy_eps must be positive"),
        (0 < eps_gain < math.inf,
         "privacy_eps must be at least about 1e-16 and below 512, so that "
         "2^(2*privacy_eps) - 1 is positive and finite"),
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


def _bit_order(half, exposed):
    """Positions of a half-chunk's bits in the order they fill its index,
    MSB first: the last `exposed` bits, last first, then the others.

    The first use sends each index as a bare PAM point, which exposes about
    C_e/2 of its leading bits. Given ceil(C_e/2) here, this order fills them
    with the trailing bits of the half, low bits of a quantized coordinate,
    where MSB-first packing would hand the eavesdropper the first
    coordinate's sign and top bits. The paper bounds how much she learns
    per block, not which bits; the mapping is a choice outside it.
    """
    k = min(exposed, half)
    return np.concatenate([np.arange(half - 1, half - 1 - k, -1),
                           np.arange(half - k)])


def _pack_group(bits_mat, order):
    """(n, 2h) bit matrix to (2, n) indices: row 0 (R) from the first h bits
    of each row and row 1 (I) from the last h, each in the h-bit order."""
    return np.stack([codec.from_bits(bits_mat[:, order]),
                     codec.from_bits(bits_mat[:, len(order) + order])])


def _unpack_group(w, order):
    """Inverse of _pack_group: the (n, 2h) bit matrix of (2, n) indices."""
    inv = np.argsort(order)
    return np.hstack([codec.to_bits(row, len(order))[:, inv] for row in w])


def _feasible_channel(cfg, n_bits, key, pinned=None, where=""):
    """(realization, chunk groups, failed candidates) of the first channel
    whose source_coding.chunk plan carries n_bits: pinned alone, else draws
    at (DOMAIN_REALIZATION, *key, attempt) for up to max_redraws attempts.
    None feasible is an InfeasibleError; where ends the text for draws."""
    if pinned is not None:
        candidates = [pinned]
    else:
        candidates = (sample_realization(substream(
            cfg.seed, DOMAIN_REALIZATION, *key, attempt))
            for attempt in range(cfg.max_redraws))
    for failed, real in enumerate(candidates):
        groups = source_coding.chunk(n_bits, cfg.snr, cfg.snr_fb,
                                     real.gain_fwd, real.gain_fb, cfg.tau,
                                     cfg.n_max)
        if groups is not None:
            return real, groups, failed
    if pinned is not None:
        raise InfeasibleError("pinned channel cannot carry a %d-bit round"
                              % n_bits)
    raise InfeasibleError("no feasible channel in %d draws%s"
                          % (cfg.max_redraws, where))


def _send_bits(bit_string, grp, realization, cfg, noise, rng_key,
               capture_eve):
    """Send a bit string as one block batch of the ChunkGroup grp: zero-pad
    it to grp.count chunks of grp.n_bits, pack it in the _bit_order of the
    eavesdropper's capacity C_e at this realization, and slice the padding
    off. Returns (decoded bits, eavesdropper bits or None, diagnostics with
    that C_e)."""
    seed, r_idx, round_idx = rng_key
    n = len(bit_string)
    c_e = analysis.eve_capacity_bits(realization.gain_eve, cfg.power,
                                     cfg.sigma_e2)
    half = grp.n_bits // 2
    # capped first: C_e is inf at a subnormal sigma_e2
    order = _bit_order(half, math.ceil(min(c_e / 2.0, half)))
    msg = _pack_group(np.pad(bit_string, (0, grp.count * grp.n_bits - n))
                      .reshape(grp.count, grp.n_bits), order)
    const = codec.build_constellation(len(order))
    sched = codec.build_schedule(cfg.snr, cfg.snr_fb, grp.tau_chunk, grp.n_t,
                                 realization, noise)
    # batch index 0 keeps the streams, and so the bytes, of rounds whose
    # payload already filled whole chunks before the tail was padded in
    path = (r_idx, round_idx, 0)
    dith, ef, eb, ee = codec.draw_block_noise(
        substream(seed, DOMAIN_BLOCKS, *path), grp.count, grp.n_t, noise,
        sched.d, capture_eve)
    out = codec.run_block_batch(sched, realization, const, msg, dith, ef, eb,
                                eta_eve=ee)
    dec = _unpack_group(out.dec, order).ravel()[:n]
    eve = None
    if capture_eve:
        eve = _unpack_group(adversary.attack_full_sequence(
            out.z_seq, realization.g, realization.g_fb, sched, const,
            substream(seed, DOMAIN_ATTACK, *path)), order).ravel()[:n]
    return dec, eve, {"n_chunks": grp.count,
                      "chunk_errors": int(out.error.sum()),
                      "n_t_max": grp.n_t, "c_e": c_e}


def coded_transmitter(cfg: SystemConfig, r_idx, fixed_realization=None,
                      capture_eve=False):
    """Build the transmit_fn used by hfl.train for the coded pipeline.

    transmit(agg, round_idx, source_var) quantizes the aggregate at the
    configured distortion and the source_var hfl.train hands it, plans the
    physical bit string as equal chunks at the round's channel, sends them
    through the feedback code as one block batch, and dequantizes through
    the replayed dither stream. The channel is redrawn each round
    unless fixed_realization pins it; rounds in outage are redrawn up to
    max_redraws, and the count is reported. A round with nothing to send
    takes the first candidate and reports its gains and C_e.
    """
    noise = cfg.noise_spec()

    def transmit(agg, round_idx, source_var):
        dither_key = (cfg.seed, DOMAIN_MESSAGES, r_idx, round_idx)
        try:
            payload = source_coding.quantize(agg, cfg.distortion, source_var,
                                             substream(*dither_key))
        except OverflowError as e:
            raise ConfigError("round %d: %s; raise distortion or lower "
                              "sigma2" % (round_idx, e))
        stats = {"accounted_bits": payload.accounted_bits,
                 "physical_bits": payload.physical_bits,
                 "rate_per_coord": payload.rate_bits_per_coord}
        real, groups, redraws = _feasible_channel(
            cfg, payload.physical_bits, (r_idx, round_idx), fixed_realization,
            " for round %d" % round_idx)
        if groups:
            dec_bits, eve_bits, link = _send_bits(
                payload.indices, groups[0], real, cfg, noise,
                (cfg.seed, r_idx, round_idx), capture_eve)
        else:
            # a zero-rate round sends nothing over the channel it drew
            dec_bits = eve_bits = payload.indices
            link = {"n_chunks": 0, "chunk_errors": 0, "n_t_max": 0,
                    "c_e": analysis.eve_capacity_bits(
                        real.gain_eve, cfg.power, cfg.sigma_e2)}
        decoded = source_coding.dequantize(
            replace(payload, indices=dec_bits), substream(*dither_key))
        eve_agg = None
        if capture_eve:
            eve_agg = source_coding.dequantize(
                replace(payload, indices=eve_bits), None)

        delta = (analysis.secrecy_level_bound(payload.accounted_bits,
                                              real.gain_eve, cfg.power,
                                              cfg.sigma_e2)
                 if payload.accounted_bits else 1.0)
        stats.update(link, redraws=redraws, gain_fwd=real.gain_fwd,
                     gain_eve=real.gain_eve, delta_round=delta)
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


def _scn_rate_vs_blocklength(cfg, reals):
    """Rows of the realizations in the range reals: one array call each for
    the scan and for the plans of all of them, each on its own draw."""
    draws = [sample_realization(substream(cfg.seed, DOMAIN_REALIZATION, r))
             for r in reals]
    gain_fwd = np.array([real.gain_fwd for real in draws])
    gain_fb = np.array([real.gain_fb for real in draws])
    rep = analysis.achievable_rate(cfg.snr, cfg.snr_fb, gain_fwd, gain_fb,
                                   cfg.tau,
                                   np.arange(1, cfg.n_t_max_scan + 1))
    per_real = cfg.n_t_max_scan
    rates = list(zip(
        np.repeat(reals, per_real).tolist(), rep.n_t.ravel().tolist(),
        np.repeat(gain_fwd, per_real).tolist(),
        np.repeat(gain_fb, per_real).tolist(),
        rep.feasible.ravel().astype(int).tolist(),
        [reason or "" for reason in rep.outage_reason.ravel().tolist()],
        rep.rate.ravel().tolist(), rep.total_bits.ravel().tolist(),
        rep.L.ravel().tolist(), rep.psi1.ravel().tolist(),
        rep.psi2.ravel().tolist()))
    plan = analysis.plan_blocklength(cfg.payload_bits, cfg.snr, cfg.snr_fb,
                                     gain_fwd, gain_fb, cfg.tau, cfg.n_max)
    plans = [(r_idx, cfg.payload_bits, n_t, rate, bits,
              analysis.latency_seconds(cfg.payload_bits, rate,
                                       cfg.uses_per_second), ok)
             for r_idx, n_t, rate, bits, ok in zip(
                 reals, plan.n_t.tolist(), plan.rate.tolist(),
                 plan.total_bits.tolist(), plan.feasible.astype(int).tolist())]
    return {"rates.csv": rates, "plans.csv": plans}


_CODEC_HEADER = ("realization", "n_t", "bits_per_sub", "n_blocks",
                 "err_rate", "alias_rate", "power_fwd_ratio",
                 "power_fb_ratio", "max_var_dev", "feasible",
                 "outage_reason")


# blocks per engine call of codec_validation; each batch draws its noise
# from its own substream, so the batches' bytes do not depend on the thread
# that draws them
_CODEC_BATCH = 20000


@contextlib.contextmanager
def _on_helper(fn):
    """Run fn() on a helper thread alongside the body of the with
    statement; None runs nothing. The helper is joined even when the body
    raises, and what fn raised is raised after the body, unchanged."""
    if fn is None:
        yield
        return
    raised = []

    def run():
        try:
            fn()
        except BaseException as e:
            raised.append(e)

    helper = threading.Thread(target=run, name="fblink-helper")
    helper.start()
    try:
        yield
    finally:
        helper.join()
    if raised:
        raise raised[0]


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
    # the power sums below add 2*n_t*n_blocks squared symbols, each at most
    # 1.5*max(L, 1)*P forward and 1.5*P_fb back
    if not math.isfinite(3.0 * cfg.n_blocks * cfg.n_t * max(sched.L, 1.0)
                         * max(sched.P, sched.P_fb)):
        raise ConfigError("n_blocks * n_t * power overflows the power sums; "
                          "lower n_blocks, sigma1_2 or sigma2_2")
    const = codec.build_constellation(bits_sub)
    msg_rng = substream(cfg.seed, DOMAIN_MESSAGES, r_idx)
    n_batches = -(-cfg.n_blocks // _CODEC_BATCH)

    def size(k):
        return min(_CODEC_BATCH, cfg.n_blocks - k * _CODEC_BATCH)

    def draw(k, out=None):
        return codec.draw_block_noise(
            substream(cfg.seed, DOMAIN_BLOCKS, r_idx, k), size(k), cfg.n_t,
            noise, sched.d, out=out)

    # numpy's noise fills release the GIL, so a helper thread draws batch
    # k+1 while this one runs batch k where a CPU is idle
    threaded = _helper_cpu_free("codec_validation", cfg)
    errs = clean = 0
    pow_fwd = pow_fb = 0.0
    eps2 = np.zeros(cfg.n_t)
    ahead = None
    for k in range(n_batches):
        n = size(k)
        # R's indices, then I's: two draws, as the stream was always read
        msg = np.stack([msg_rng.integers(0, const.m_levels, n) for _ in "RI"])
        dith, ef, eb, _ = ahead if ahead is not None else draw(k)
        # allocated on this thread: glibc serves a helper's allocations from
        # a heap arena of its own, which costs CPU time and RSS
        ahead = (codec._noise_arrays(size(k + 1), cfg.n_t)
                 if threaded and k + 1 < n_batches else None)
        with _on_helper(None if ahead is None
                        else functools.partial(draw, k + 1, ahead)):
            # the last batch's transcript is dropped only when this call
            # returns: freed earlier, glibc trims the heap top and the
            # engine faults it back in
            out = codec.run_block_batch(sched, real, const, msg, dith, ef,
                                        eb, record=True)
            errs += int(out.error.sum())
            pow_fwd += float(np.square(out.x_seq).sum())
            pow_fb += float(np.square(out.x_fb_seq).sum())
            mask = out.alias_events == 0
            eps2 += (np.square(out.eps_hist).sum(axis=0) * mask).sum(axis=1)
            clean += int(mask.sum())
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


def _load_learning_data(cfg):
    """The learning data; a data_dir that cannot be read, or whose IDX
    files are malformed or too short, is a ConfigError."""
    try:
        return datasets.load_dataset(cfg.data_dir or None, cfg.n_train,
                                     cfg.n_test, cfg.seed)
    except (OSError, ValueError) as e:
        raise ConfigError("cannot load data_dir %r: %s" % (cfg.data_dir, e))


def _train(cfg, data, r_idx, transmit_fn=None):
    """hfl.train of the configured model on data, the four arrays of
    _load_learning_data, for realization r_idx; a round whose model math
    faults or whose aggregate is not finite is a ConfigError."""
    x_tr, y_tr, x_te, y_te = data
    try:
        return hfl.train(x_tr, y_tr, x_te, y_te, cfg.mlp_spec(), cfg.n_users,
                         cfg.n_rounds, cfg.lr, cfg.reg, cfg.sigma2, cfg.seed,
                         transmit_fn=transmit_fn, tag=r_idx)
    except FloatingPointError as e:
        raise ConfigError("%s; lower lr, reg or sigma2" % e)


def _scn_secrecy_level_vs_round(cfg, r_idx):
    data = _load_learning_data(cfg)
    # the widest round this model can send is 24 bits per parameter, so a
    # channel that carries it carries every round
    real, _, redraws = _feasible_channel(
        cfg, mlp.n_params(cfg.mlp_spec()) * 24, (r_idx,))
    res = _train(cfg, data, r_idx,
                 coded_transmitter(cfg, r_idx, fixed_realization=real))
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
    data = _load_learning_data(cfg)
    base = []

    def train_baseline():
        base.append(_train(cfg, data, r_idx))

    # the two runs share only the read-only data, so where a CPU is idle the
    # error-free baseline trains on a helper thread beside the coded run
    threaded = _helper_cpu_free("learning_curves", cfg)
    if not threaded:
        train_baseline()
    with _on_helper(train_baseline if threaded else None):
        coded = _train(cfg, data, r_idx,
                       coded_transmitter(cfg, r_idx, capture_eve=True))
    rows = []
    for rec in base[0].rounds:
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
    # the grid is geometric, from a quarter of the lower window bound to
    # four times the upper, so both ends must be positive finite floats, and
    # so must the utility noise n_users*sigma2 at its upper end
    for key, bound in (("utility_cap", win.upper),
                       ("sigma_w2_max with privacy_eps", win.lower)):
        if not (bound / 4.0 > 0.0 and bound * 4.0 * cfg.n_users < math.inf):
            raise ConfigError("%s puts a window bound at %r; the sweep grid "
                              "needs a quarter of it and n_users times four "
                              "times it to be positive and finite"
                              % (key, bound))
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

# A rate_vs_blocklength task plans a range of realizations in one array
# call of (n_max + n_t_max_scan) elements each; it holds as many as fit in
# this many elements, at least one. A large n_max then shrinks the task
# rather than growing its arrays.
_PLANNER_TASK_ELEMENTS = 8192


def _task_args(scenario, cfg):
    """(number of tasks, what each task is handed in task order, drawn
    lazily); the one place that maps realizations to tasks.

    rate_vs_blocklength takes a range of consecutive realizations; the
    sweep, a pure function of the config, is one task whatever realizations
    says; every other scenario takes one realization index per task.
    """
    if scenario == "rate_vs_blocklength":
        per_task = max(1, _PLANNER_TASK_ELEMENTS
                       // (cfg.n_max + cfg.n_t_max_scan))
        firsts = range(0, cfg.realizations, per_task)
        return len(firsts), (range(first, min(first + per_task,
                                              cfg.realizations))
                             for first in firsts)
    if scenario == "privacy_utility_sweep":
        return 1, [0]
    return cfg.realizations, range(cfg.realizations)


def _run_task(packed):
    """One task's tables, each as its row count and its CSV bytes: the rows
    are formatted where they were computed, in the worker of a pool."""
    scenario, cfg, arg = packed
    fn, _ = SCENARIOS[scenario]
    return {name: (len(rows), _csv_bytes(rows))
            for name, rows in fn(cfg, arg).items()}


def _worker_count(env, cpu_count):
    """Worker processes for the realization fan-out: FBLINK_WORKERS from env
    (default 1), at least 1 and at most cpu_count."""
    raw = env.get("FBLINK_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigError("FBLINK_WORKERS must be an integer, got %r" % raw)
    return max(1, min(workers, cpu_count or 1))


def _workers(scenario, cfg):
    """Processes that run the tasks of scenario: FBLINK_WORKERS clamped to
    the CPU count and to the task count."""
    return min(_worker_count(os.environ, os.cpu_count()),
               _task_args(scenario, cfg)[0])


@functools.cache
def _openblas():
    """(get_num_threads, get_corename or None) of the OpenBLAS that numpy
    calls, resolved through numpy's own linalg extension, whose dependencies
    name numpy's BLAS even where another library (scipy's) has loaded an
    OpenBLAS of its own; None where it exports none (another BLAS). Looked
    up once per process."""
    # imported on the first reading, not with the module
    import ctypes
    from numpy.linalg import _umath_linalg
    try:
        handle = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    # scipy-openblas's symbols, then those of plain 64- and 32-bit builds
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                           ("openblas", "")):
        threads = getattr(handle, "%s_get_num_threads%s" % (prefix, suffix),
                          None)
        if threads is None:
            continue
        core = getattr(handle, "%s_get_corename%s" % (prefix, suffix), None)
        threads.restype, threads.argtypes = ctypes.c_int, []
        if core is not None:
            core.restype, core.argtypes = ctypes.c_char_p, []
        return threads, core
    return None


def _blas_runtime():
    """The live OpenBLAS thread count and core name, each None where no
    OpenBLAS handle is found."""
    fns = _openblas()
    if fns is None:
        return {"threads": None, "core": None}
    threads, core = fns
    return {"threads": threads(),
            "core": core().decode() if core is not None else None}


def _helper_cpu_free(scenario, cfg):
    """Whether a task of scenario may run one helper thread beside itself,
    which it does only where that thread finds an idle CPU: the tasks run in
    this process (a pool already keeps its CPUs busy) on at least 2 CPUs.
    learning_curves's helper trains a model whose matrix products OpenBLAS
    spreads over all of its threads, so that scenario also needs a live
    OpenBLAS thread count of 1; an unknown count trains inline."""
    if _workers(scenario, cfg) != 1 or (os.cpu_count() or 1) < 2:
        return False
    return (scenario != "learning_curves"
            or _blas_runtime()["threads"] == 1)


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


def _task_results(scenario, cfg, task_args, workers):
    """Each task's tables in task order: in this process for one worker,
    else through a process pool holding at most two tasks per worker."""
    tasks = ((scenario, cfg, arg) for arg in task_args)
    if workers == 1:
        yield from map(_run_task, tasks)
    else:
        # imported here: a one-worker run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor
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


def _csv_bytes(rows):
    """Equal-length rows as the UTF-8 bytes that
    csv.writer(lineterminator="\n").writerows(rows) writes: each cell as
    str() gives it, a text holding ',', '"' or a newline quoted with its '"'
    doubled, and a one-cell row of empty text as "". Ragged rows are a
    ValueError.

    A float's repr is the costly part and columns repeat floats (a draw's
    gains down its scan, L per n_t), so each column formats a nonzero float
    of exact type float once per distinct value; 0.0 and -0.0, or 1 and
    1.0, would share a memo key.
    """
    if not rows:
        return b""
    width = len(rows[0])
    if set(map(len, rows)) != {width}:
        raise ValueError("CSV rows differ in length: %s"
                         % sorted(set(map(len, rows))))
    columns = []
    for cells in zip(*rows):
        memo = {}
        texts = []
        for v in cells:
            if type(v) is float and v:
                s = memo.get(v)
                if s is None:
                    s = memo[v] = repr(v)
            else:
                s = str(v)
                if "," in s or '"' in s or "\n" in s:
                    s = '"%s"' % s.replace('"', '""')
            texts.append(s)
        columns.append(texts)
    if width == 1:
        columns[0] = [s or '""' for s in columns[0]]
    lines = map(",".join, zip(*columns)) if width else [""] * len(rows)
    return ("\n".join(lines) + "\n").encode("utf-8")


def _write_csv(f, digest, data):
    """Append CSV bytes to the binary file f and feed them to the running
    sha256 digest."""
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
    _, task_args = _task_args(scenario, cfg)
    workers = _workers(scenario, cfg)
    files = _open_tables(out_dir, file_headers)
    digests = {name: hashlib.sha256() for name in files}
    n_rows = dict.fromkeys(files, 0)
    try:
        for name, header in file_headers.items():
            _write_csv(files[name], digests[name], _csv_bytes([header]))
        with contextlib.closing(_task_results(scenario, cfg, task_args,
                                              workers)) as results:
            for tables in results:
                for name, (rows, data) in tables.items():
                    _write_csv(files[name], digests[name], data)
                    n_rows[name] += rows
                # hold no task's bytes while the next task runs
                tables = data = None
        for name, f in files.items():
            f.close()
            os.replace(f.name, os.path.join(out_dir, name))
    except BaseException:
        _discard(files)
        raise

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
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
        # what the bytes depend on besides the config
        "environment": {
            "python": platform.python_version(),
            "python_implementation": platform.python_implementation(),
            "numpy": np.__version__,
            # numpy's BLAS build, None where its build record has no entry,
            # and the live OpenBLAS thread count and core, None where no
            # OpenBLAS handle is found
            "blas": dict({k: blas.get(k) for k in (
                "name", "version", "openblas configuration")},
                **_blas_runtime()),
            "libc": " ".join(platform.libc_ver()).strip(),
            "bit_generator": type(substream(0).bit_generator).__name__,
            # processes that ran the tasks, after clamping
            "workers": workers,
        },
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
