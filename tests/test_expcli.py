import collections
import csv
import io
import itertools
import json
import math
import os
import platform
import re
import statistics
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblink import adversary, analysis, codec, expcli, hfl, mlp, source_coding
from fblink.channel import Realization, sample_realization
from fblink.expcli import (SCENARIOS, ConfigError, InfeasibleError,
                           SystemConfig, _POWER_MAX, _TAU_MIN, _Helper,
                           _bit_order, _csv_bytes, _ordered, _pack_group,
                           _send_bits, _task_args, _unpack_group, _workers,
                           coded_transmitter, main, parse_config,
                           run_scenario)
from fblink.streams import DOMAIN_BLOCKS, DOMAIN_REALIZATION, substream

from conftest import as_complex, bits_payload
from test_datasets import write_idx_pair


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


# ---------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------


def test_defaults_need_no_file():
    cfg = parse_config()
    assert cfg == SystemConfig()
    assert cfg.seed == 2026
    assert cfg.snr == pytest.approx(10.0)
    assert cfg.snr_fb == pytest.approx(10.0 ** 1.5)
    assert cfg.s_total == cfg.n_train - cfg.n_train % cfg.n_users


def test_override_beats_file_beats_default(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"seed": 7, "tau": 0.01}))
    cfg = parse_config(str(p), seed=9)
    assert cfg.seed == 9          # CLI override
    assert cfg.tau == 0.01        # file
    assert cfg.snr_db == 10.0     # default
    # None-valued overrides stand for absent CLI flags
    assert parse_config(str(p), seed=None).seed == 7


def test_unknown_key_fails_loudly(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"taus": 0.01}))
    with pytest.raises(ConfigError, match="unknown config keys.*taus"):
        parse_config(str(p))


def test_bad_values_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(None, n_t=2.5)
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(None, n_t=True)
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(None, tau="not a number")
    # integral floats are accepted as ints (JSON has one number type)
    assert parse_config(None, n_t=4.0).n_t == 4


def test_config_file_problems(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "missing.json"))
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config(str(p))
    q = tmp_path / "broken.json"
    q.write_text("{")
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(q))


def test_semantic_validation():
    # a SystemConfig built directly or by dataclasses.replace is refused
    # as parse_config refuses it, with the same message; n_users=0 once
    # divided by zero in the sweep, tau=0.5 ran past the rate formula's
    # bound, and realizations=0 wrote an empty table
    cases = [({"tau": 2.0}, "tau"), ({"realizations": 0}, "realizations"),
             ({"n_train": 5, "n_users": 10}, "n_train"),
             ({"tau": 0.5}, "tau"), ({"n_users": 0}, "n_users"),
             ({"sigma1_2": 1e308}, "sigma1_2"),
             ({"n_hidden": 2**31}, "n_hidden"),
             ({"fixed_gains": 2}, "fixed_gains"),
             ({"lr": math.inf}, "lr"), ({"snr_db": math.nan}, "snr_db"),
             ({"n_t": 2.5}, "n_t"), ({"n_t": True}, "n_t"),
             ({"tau": True}, "tau")]
    for kw, key in cases:
        messages = []
        for build in (lambda: parse_config(None, **kw),
                      lambda: SystemConfig(**kw),
                      lambda: replace(parse_config(), **kw)):
            with pytest.raises(ConfigError, match=r"\b%s\b" % key) as info:
                build()
            messages.append(str(info.value))
        assert len(set(messages)) == 1, messages
    # parse_config coerces JSON's one number type to the field's; built
    # directly, a value of another type is refused
    assert parse_config(None, snr_db=10, n_t=4.0) == SystemConfig(n_t=4)
    for key, value, kind in (("snr_db", 10, "a float"),
                             ("n_t", 4.0, "an integer"),
                             ("data_dir", None, "a string")):
        with pytest.raises(ConfigError, match=r"^bad value for %s: %r \(not "
                                              r"%s\)$" % (key, value, kind)):
            SystemConfig(**{key: value})


# ---------------------------------------------------------------------
# Vectorized bit packing
# ---------------------------------------------------------------------


def test_pack_group_matches_scalar_packer():
    # reference: a half's last `exposed` bits, last first, then its
    # leading bits in order, read as one binary numeral MSB first
    def scalar(bits, exposed):
        k = min(exposed, len(bits))
        lead = list(bits[len(bits) - k:][::-1]) + list(bits[:len(bits) - k])
        return int("".join(map(str, lead)), 2)

    rng = substream(21, 0)
    for n_bits, exposed in itertools.product((2, 8, 20, 42, 80),
                                             (0, 1, 2, 5, 40)):
        mat = rng.integers(0, 2, size=(20, n_bits), dtype=np.uint8)
        half = n_bits // 2
        w = _pack_group(mat, _bit_order(half, exposed))
        assert w.shape == (2, len(mat))
        for row in range(len(mat)):
            assert int(w[0, row]) == scalar(mat[row, :half], exposed)
            assert int(w[1, row]) == scalar(mat[row, half:], exposed)


def test_pack_group_exposes_trailing_bits():
    # an index off by one flips its least significant bit, which carries a
    # leading bit of the half only when every bit is exposed
    mat = np.zeros((1, 80), dtype=np.uint8)
    for exposed, lsb in ((2, 37), (40, 0)):
        order = _bit_order(40, exposed)
        w = _pack_group(mat, order)
        w[0] ^= 1
        assert np.flatnonzero(_unpack_group(w, order)).tolist() == [lsb]
    mat[0, [38, 39]] = 1  # the trailing bits lead the index
    assert int(_pack_group(mat, _bit_order(40, 2))[0, 0]) == 3 << 38


def test_pack_group_roundtrip():
    rng = substream(21, 1)
    for n_bits, exposed in itertools.product((2, 34, 80), (0, 3, 40)):
        mat = rng.integers(0, 2, size=(200, n_bits), dtype=np.uint8)
        order = _bit_order(n_bits // 2, exposed)
        np.testing.assert_array_equal(
            _unpack_group(_pack_group(mat, order), order), mat)


# ---------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------

# a rotated channel that carries full chunks at the default config
ROTATED = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)


@pytest.mark.parametrize("n_bits", [0, 1, 79, 80, 81, 239, 400])
def test_send_bits_roundtrip(n_bits):
    cfg = SystemConfig()
    bits = substream(31, n_bits).integers(0, 2, n_bits, dtype=np.uint8)
    (grp,) = source_coding.chunk(n_bits, cfg.snr, cfg.snr_fb,
                                 ROTATED.gain_fwd, ROTATED.gain_fb, cfg.tau,
                                 cfg.n_max)
    jobs, on_eve = eve_jobs()
    dec, link = _send_bits(bits_payload(bits), grp, ROTATED,
                           replace(cfg, seed=7), 0, 0, on_eve)
    # the round hands her one job, which ends in her aggregate: each bit
    # she decided, less one
    (job,) = jobs
    eve = job()
    assert link["n_chunks"] == math.ceil(n_bits / source_coding.MAX_CHUNK_BITS)
    assert link["n_t_max"] == grp.n_t
    assert dec.shape == eve.shape == bits.shape
    assert dec.dtype == np.uint8
    assert set(np.unique(eve)) <= {-1.0, 0.0}
    # at tau = 1e-3 every chunk of this seed decodes
    assert link["chunk_errors"] == 0
    np.testing.assert_array_equal(dec, bits)


def test_send_bits_at_an_infinite_eve_capacity():
    # C_e = log2(1 + |g|^2*P/sigma_e2) is inf at a subnormal sigma_e2; at
    # most a half-chunk can be exposed, so the round is sent as at any
    # C_e >= 80
    bits = substream(31, 160).integers(0, 2, 160, dtype=np.uint8)
    cfg = SystemConfig()
    (grp,) = source_coding.chunk(160, cfg.snr, cfg.snr_fb, ROTATED.gain_fwd,
                                 ROTATED.gain_fb, cfg.tau, cfg.n_max)
    sent = []
    for sigma_e2 in (1e-320, 1e-30):
        sent.append(_send_bits(bits_payload(bits), grp, ROTATED,
                               SystemConfig(seed=7, sigma_e2=sigma_e2), 0, 0))
    (dec, link), (dec_finite, link_finite) = sent
    assert link["c_e"] == math.inf and link_finite["c_e"] > 80
    np.testing.assert_array_equal(dec, bits)
    np.testing.assert_array_equal(dec, dec_finite)


def _transmit_round(transmit, cfg):
    agg = substream(32, 0).normal(size=200)
    source_var = cfg.s_total * cfg.sigma_w2_max + cfg.n_users * cfg.sigma2
    return transmit(agg, 0, source_var)


def eve_jobs():
    """(the eavesdropper's jobs, in round order, and the on_eve hook of
    coded_transmitter that collects them)."""
    jobs = []
    return jobs, lambda t, job: jobs.append(job)


def assert_round_on(stats, real, cfg):
    """The round's c_e and delta_round, the secrecy columns of its tables,
    are those of real's eavesdropper gain."""
    assert stats["c_e"] == analysis.eve_capacity_bits(
        real.gain_eve, cfg.power, cfg.sigma_e2)
    assert stats["delta_round"] == analysis.secrecy_level_bound(
        stats["accounted_bits"], stats["c_e"])


def test_pinned_channel_in_outage_is_infeasible():
    cfg = SystemConfig(seed=5)
    outage = Realization(1.0 + 0j, 0.01 + 0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(InfeasibleError, match="pinned channel"):
        _transmit_round(coded_transmitter(cfg, 0, outage), cfg)
    _, stats = _transmit_round(coded_transmitter(cfg, 0, ROTATED), cfg)
    assert stats["redraws"] == 0
    assert_round_on(stats, ROTATED, cfg)


def test_round_secrecy_stats_are_the_analysis_bound(monkeypatch):
    # the round's c_e and delta_round are the analysis helpers at its
    # channel, and the round computes its C_e once, for both
    cfg = SystemConfig(seed=5)
    original = analysis.eve_capacity_bits
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(analysis, "eve_capacity_bits", counted)
    _, stats = _transmit_round(coded_transmitter(cfg, 0, ROTATED), cfg)
    monkeypatch.undo()
    assert calls == [(ROTATED.gain_eve, cfg.power, cfg.sigma_e2)]
    assert_round_on(stats, ROTATED, cfg)
    assert 0.0 < stats["delta_round"] < 1.0


def test_round_is_one_block_batch(monkeypatch):
    # 203 ten-bit coordinates: 25 full chunks and a 30-bit tail, padded
    # into the same batch as the full chunks
    calls = collections.Counter()
    for mod, name in ((source_coding, "chunk"), (codec, "build_schedule"),
                      (codec, "draw_block_noise"), (codec, "run_block_batch"),
                      (adversary, "attack_full_sequence")):
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    cfg = SystemConfig(seed=5)
    source_var = cfg.s_total * cfg.sigma_w2_max + cfg.n_users * cfg.sigma2
    agg = substream(32, 0).normal(size=203)
    jobs, on_eve = eve_jobs()
    _, stats = coded_transmitter(cfg, 0, ROTATED, on_eve=on_eve)(
        agg, 0, source_var)
    # her attack waits for her job, which the round hands over unrun
    assert "attack_full_sequence" not in calls
    (job,) = jobs
    eve = job()
    assert stats["physical_bits"] % source_coding.MAX_CHUNK_BITS
    assert stats["n_chunks"] == math.ceil(stats["physical_bits"]
                                          / source_coding.MAX_CHUNK_BITS)
    assert eve.shape == agg.shape
    assert set(calls.values()) == {1} and len(calls) == 5, calls


def test_tapped_round_takes_one_substream(monkeypatch):
    # the link's noise, her receiver noise and her attack all read the
    # round's one block substream
    bits = substream(31, 160).integers(0, 2, 160, dtype=np.uint8)
    cfg = SystemConfig(seed=7)
    (grp,) = source_coding.chunk(160, cfg.snr, cfg.snr_fb, ROTATED.gain_fwd,
                                 ROTATED.gain_fb, cfg.tau, cfg.n_max)
    made = []

    def counted(*key):
        made.append(key)
        return substream(*key)

    monkeypatch.setattr(expcli, "substream", counted)
    jobs, on_eve = eve_jobs()
    _send_bits(bits_payload(bits), grp, ROTATED, cfg, 3, 4, on_eve)
    (job,) = jobs
    job()
    assert made == [(7, DOMAIN_BLOCKS, 3, 4, 0)]


@pytest.mark.parametrize("seed", [3, 10, 11, 13, 18])
def test_eavesdropper_model_stays_near_chance(seed):
    # c07's 0.15 bound at seeds beyond the acceptance run: the coded half of
    # learning_curves, realization 0. Packed MSB first, the bits the first
    # use exposes trained her model to 0.2-0.25 at some of these seeds.
    cfg = parse_config(None, seed=seed)
    x_tr, y_tr, x_te, y_te = expcli._load_learning_data(cfg)
    shadow = hfl.CloudModel(x_te, y_te, cfg.mlp_spec(), cfg.lr, cfg.s_total,
                            cfg.seed)
    eve_accuracy = []

    def on_eve(t, job):
        eve_accuracy.append(shadow.step(t, job()))

    for _ in hfl.train(x_tr, y_tr, x_te, y_te, cfg.mlp_spec(), cfg.n_users,
                       cfg.n_rounds, cfg.lr, cfg.reg, cfg.sigma2, cfg.seed,
                       transmit_fn=coded_transmitter(cfg, 0, on_eve=on_eve),
                       tag=0):
        pass
    assert len(eve_accuracy) == cfg.n_rounds
    assert eve_accuracy[-1] <= 0.15, eve_accuracy[-1]


def test_zero_rate_round_reports_its_channel(monkeypatch):
    # a distortion above the source variance sends no bits, but the round
    # still draws, or is pinned to, a channel, and reports its C_e;
    # it takes the one send path as a batch of no blocks
    sends = []

    def spy(payload, grp, *args):
        sends.append(grp)
        return _send_bits(payload, grp, *args)

    monkeypatch.setattr(expcli, "_send_bits", spy)
    cfg = SystemConfig(seed=5, distortion=100.0)
    drawn = sample_realization(substream(cfg.seed, DOMAIN_REALIZATION, 0, 0,
                                         0))
    for pinned, real in ((ROTATED, ROTATED), (None, drawn)):
        jobs, on_eve = eve_jobs()
        agg, stats = _transmit_round(
            coded_transmitter(cfg, 0, pinned, on_eve=on_eve), cfg)
        assert sends.pop() == source_coding.ChunkGroup(0, 0, 1, cfg.tau)
        # n_t_max is the plan's blocklength, which no block used
        assert stats["n_t_max"] == 1
        # she still gets a job, and it gives her an all-zero aggregate
        (job,) = jobs
        eve = job()
        assert eve.shape == agg.shape
        assert stats["physical_bits"] == stats["accounted_bits"] == 0
        assert_round_on(stats, real, cfg)
        assert stats["c_e"] > 0.0
        assert stats["delta_round"] == 1.0 and stats["redraws"] == 0
        assert stats["n_chunks"] == stats["chunk_errors"] == 0
        assert not agg.any() and not eve.any()


def test_zero_rate_round_needs_forward_gain():
    # a channel without forward gain builds no schedule, not even for a
    # batch of no blocks: pinned, it is infeasible for an empty round too
    cfg = SystemConfig(seed=5, distortion=100.0)
    dead = Realization(0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(InfeasibleError, match="cannot carry a 0-bit round"):
        _transmit_round(coded_transmitter(cfg, 0, dead), cfg)


def test_redraws_count_failed_candidates(monkeypatch):
    cfg = SystemConfig(seed=5)
    outage = Realization(1.0 + 0j, 0.01 + 0j, 1.0 + 0j, 1.0 + 0j)
    draws = iter([outage, outage, ROTATED])
    monkeypatch.setattr(expcli, "sample_realization",
                        lambda rng: next(draws))
    _, stats = _transmit_round(coded_transmitter(cfg, 0), cfg)
    assert stats["redraws"] == 2
    assert_round_on(stats, ROTATED, cfg)
    draws = iter([outage] * 3)
    with pytest.raises(InfeasibleError, match="no feasible channel in 3"):
        _transmit_round(coded_transmitter(replace(cfg, max_redraws=3), 0),
                        cfg)


def csv_writer_bytes(rows):
    """The oracle: what the csv module writes for rows."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


_CELLS = st.one_of(
    st.integers(min_value=-2 ** 70, max_value=2 ** 70),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, 1, 1.0, True, math.nan, math.inf, -math.inf,
                     5e-324, -2.5e-310, 1e16, 1e-5]),
    st.text(st.sampled_from(list('a1.,"\n\r -')), max_size=5),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))


@st.composite
def _tables(draw):
    """Equal-length rows whose columns each draw from a few cells, so that
    values repeat down a column as they do in the scenarios."""
    width = draw(st.integers(min_value=0, max_value=4))
    pools = [draw(st.lists(_CELLS, min_size=1, max_size=4))
             for _ in range(width)]
    n_rows = draw(st.integers(min_value=0, max_value=6))
    return [tuple(draw(st.sampled_from(pool)) for pool in pools)
            for _ in range(n_rows)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_tables())
@example([])
@example([("",)])
@example([("",), ("",), ("x",)])
@example([("", "")])
@example([(0.0,), (-0.0,), (1,), (1.0,), (True,), (-0.0,), (0.0,)])
@example([(math.nan, "a,b"), (math.nan, 'q"x'), (np.float64(-0.0), "l\nm"),
          (np.float64(2.5), "r\rs"), (2.5, "")])
def test_csv_bytes_are_the_csv_modules(rows):
    assert _csv_bytes(rows) == csv_writer_bytes(rows)


def test_csv_bytes_refuse_ragged_rows():
    with pytest.raises(ValueError, match="length"):
        _csv_bytes([(1, 2.5), (1,)])
    with pytest.raises(ValueError, match="length"):
        _csv_bytes([(1,), (1, 2.5), (3,)])


@pytest.mark.parametrize("resize", [lambda row: row + ("extra",),
                                    lambda row: row[:-1]],
                         ids=["wider", "narrower"])
def test_rows_are_held_to_their_header_width(tmp_path, monkeypatch, resize):
    # a sweep whose every row is one cell wider, or narrower, than its
    # 8-column header wrote its 13 rows under that header and exited 0
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    fn, headers = SCENARIOS["privacy_utility_sweep"]

    def resized(cfg, arg, helper):
        return {name: [resize(row) for row in rows]
                for name, rows in fn(cfg, arg, helper).items()}

    monkeypatch.setitem(SCENARIOS, "privacy_utility_sweep",
                        (resized, headers))
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="table of 8 columns"):
        run_scenario(parse_config(), "privacy_utility_sweep", str(out))
    assert list(out.iterdir()) == []


def test_scenario_cells_are_int_float_or_str():
    # _csv_bytes writes exactly these three types as intended, floats by
    # their shortest repr and each table as the csv module would, headers
    # included; a bool would print as True and a numpy scalar by its own
    # str, outside the memo
    small = dict(n_blocks=2000, n_rounds=2, n_train=100, n_test=50,
                 n_t_max_scan=4, sweep_points=3, realizations=3)
    runs = [(name, parse_config(None, **small)) for name in SCENARIOS]
    # the infeasible codec_validation row has empty cells, and the outage
    # rows of a faint feedback link hold inf
    runs += [("codec_validation", parse_config(None, snr_db=-20.0, **small)),
             ("rate_vs_blocklength", parse_config(None, snr_fb_db=-10.0,
                                                  **small))]
    seen = set()
    for name, cfg in runs:
        fn, headers = SCENARIOS[name]
        for header in headers.values():
            assert _csv_bytes([header]) == csv_writer_bytes([header])
        for arg in _task_args(name, cfg)[1]:
            with _Helper(False) as helper:
                tables = fn(cfg, arg, helper)
            assert set(tables) == set(headers)
            for table, rows in tables.items():
                assert rows
                for row in rows:
                    assert len(row) == len(headers[table])
                    bad = [(col, type(v))
                           for col, v in zip(headers[table], row)
                           if type(v) not in (int, float, str)]
                    assert not bad, (name, table, bad)
                assert _csv_bytes(rows) == csv_writer_bytes(rows), (name, arg)
                seen.update(v for row in rows for v in row
                            if v == "" or v == math.inf)
    assert seen == {"", math.inf}
    (row,) = SCENARIOS["codec_validation"][0](
        runs[-2][1], 0, _Helper(False))["codec_validation.csv"]
    assert row[-2] == 0 and row[-1]


# ---------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------


def test_unknown_scenario(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenario(parse_config(), "nope", str(tmp_path))


def test_sweep_scenario_contents_and_rerun_identity(tmp_path):
    cfg = parse_config(None, sweep_points=9)
    man = run_scenario(cfg, "privacy_utility_sweep", str(tmp_path / "a"))
    assert man["files"]["privacy_utility_sweep.csv"]["rows"] == 9
    rows = read_csv(tmp_path / "a" / "privacy_utility_sweep.csv")
    assert len(rows) == 9
    for row in rows:
        s2 = float(row["sigma2"])
        lo, hi = float(row["window_lower"]), float(row["window_upper"])
        assert int(row["in_window"]) == int(lo <= s2 <= hi)
        assert float(row["utility_noise"]) == pytest.approx(cfg.n_users * s2)
    mi = [float(r["mi_per_coord"]) for r in rows]
    assert all(b < a for a, b in zip(mi, mi[1:]))  # grid is increasing sigma2

    run_scenario(cfg, "privacy_utility_sweep", str(tmp_path / "b"))
    a = (tmp_path / "a" / "privacy_utility_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "privacy_utility_sweep.csv").read_bytes()
    assert a == b
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert (man_b["files"]["privacy_utility_sweep.csv"]["sha256"]
            == man["files"]["privacy_utility_sweep.csv"]["sha256"])


def test_worker_count_does_not_change_output(tmp_path, monkeypatch):
    # two CPUs whatever the host has, so that FBLINK_WORKERS=2 runs a pool
    # and a one-worker codec_validation draws its noise on a helper thread
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    # at least five tasks of many realizations each overrun the pool's
    # window of 2 per worker
    cfg = parse_config(None, realizations=160, n_t_max_scan=6,
                       payload_bits=10)
    tasks = list(_task_args("rate_vs_blocklength", cfg)[1])
    assert len(tasks) >= 5 and all(len(t) > 1 for t in tasks)
    # three batches of blocks, the last one short: the helper thread's
    # draws (one worker) against the pool workers' inline ones
    codec_cfg = parse_config(None, realizations=2, n_blocks=45000)
    pool = {}
    for scenario, cfg, names in (
            ("rate_vs_blocklength", cfg, ("rates.csv", "plans.csv")),
            ("codec_validation", codec_cfg, ("codec_validation.csv",))):
        runs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("FBLINK_WORKERS", workers)
            out = tmp_path / scenario / workers
            runs[workers] = run_scenario(cfg, scenario, str(out))
            assert runs[workers]["environment"]["workers"] == int(workers)
        for name in names:
            assert ((tmp_path / scenario / "1" / name).read_bytes()
                    == (tmp_path / scenario / "2" / name).read_bytes())
        assert runs["1"]["files"] == runs["2"]["files"]
        pool.update(runs["2"]["files"])
    assert pool["plans.csv"]["rows"] == 160
    assert pool["codec_validation.csv"]["rows"] == 2
    rows = read_csv(tmp_path / "rate_vs_blocklength" / "2" / "rates.csv")
    assert len(rows) == 160 * 6
    assert [int(r["realization"]) for r in rows] == sorted(
        int(r["realization"]) for r in rows)


class StubFuture:
    def __init__(self, pool, task):
        self.pool, self.task, self.cancelled = pool, task, False

    def result(self):
        self.pool.outstanding -= 1
        return ("done", self.task)

    def cancel(self):
        self.cancelled = True
        return True


class StubPool:
    """Executor stand-in whose futures resolve when read; it tracks the
    futures submitted and not yet read."""

    def __init__(self):
        self.futures = []
        self.outstanding = self.most = 0

    def submit(self, fn, task):
        assert fn is expcli._run_task
        self.futures.append(StubFuture(self, task))
        self.outstanding += 1
        self.most = max(self.most, self.outstanding)
        return self.futures[-1]


def test_ordered_window_with_stub_pool():
    for window in (1, 2, 4):
        pool = StubPool()
        assert (list(_ordered(pool, iter(range(10)), window))
                == [("done", t) for t in range(10)])
        assert pool.most == window and pool.outstanding == 0
    # an endless task stream is drawn lazily; stopping early cancels the
    # futures still pending
    pool = StubPool()
    results = _ordered(pool, itertools.count(), 3)
    assert [next(results) for _ in range(5)] == [("done", t)
                                                 for t in range(5)]
    assert pool.most == 3 and len(pool.futures) == 7
    results.close()
    assert [f.task for f in pool.futures if f.cancelled] == [5, 6]


def test_failed_run_leaves_no_partial_tables(tmp_path, monkeypatch):
    # the third task raises inside its range of realizations, after two
    # tasks' rows were streamed; the tables of an earlier run in the same
    # directory survive untouched
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    cfg = parse_config(None, realizations=100, n_t_max_scan=3)
    tasks = list(_task_args("rate_vs_blocklength", cfg)[1])
    assert len(tasks) >= 3 and len(tasks[2]) > 2
    failing = tasks[2][1]
    out = tmp_path / "out"
    run_scenario(cfg, "rate_vs_blocklength", str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "plans.csv", "rates.csv"]
    fn, headers = SCENARIOS["rate_vs_blocklength"]
    seen = []

    def third_task_fails(cfg, reals, helper):
        seen.append(reals)
        if failing in reals:
            raise InfeasibleError("realization %d" % failing)
        return fn(cfg, reals, helper)

    monkeypatch.setitem(SCENARIOS, "rate_vs_blocklength",
                        (third_task_fails, headers))
    with pytest.raises(InfeasibleError, match="realization %d" % failing):
        run_scenario(replace(cfg, seed=7), "rate_vs_blocklength", str(out))
    assert seen == tasks[:3]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_failed_manifest_write_keeps_the_earlier_run(tmp_path,
                                                      monkeypatch):
    # the disk fills while the manifest is written, after every table
    # was: the earlier run's table and manifest keep their bytes, and no
    # ".part" file is left
    out = tmp_path / "out"
    run_scenario(parse_config(), "privacy_utility_sweep", str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "privacy_utility_sweep.csv"]

    written = []

    class DiskFull:
        # the manifest's ".part" file, on a disk that fills while its
        # bytes are written
        def __init__(self, f):
            self._f, self.name = f, f.name

        def write(self, data):
            written.append(data)
            self._f.write(data[:12])
            raise OSError(28, "No space left on device")

        def close(self):
            self._f.close()

    open_tables = expcli._open_tables

    def manifest_on_a_full_disk(out_dir, names):
        files = open_tables(out_dir, names)
        files["manifest.json"] = DiskFull(files["manifest.json"])
        return files

    monkeypatch.setattr(expcli, "_open_tables", manifest_on_a_full_disk)
    with pytest.raises(OSError, match="No space left"):
        run_scenario(parse_config(None, sweep_points=4),
                     "privacy_utility_sweep", str(out))
    assert len(written) == 1 and written[0].startswith(b"{\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_manifest_records_environment(tmp_path):
    cfg = parse_config(None, realizations=2, n_t_max_scan=3)
    man = run_scenario(cfg, "rate_vs_blocklength", str(tmp_path))
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert env == man["environment"]
    assert env["bit_generator"] == "SFC64"
    assert env["numpy"] == np.__version__
    # the C library's log2 sets the rates; scipy is not a dependency
    assert env["libc"] == " ".join(platform.libc_ver()).strip()
    assert "scipy" not in env and env["python"]
    # the normal quantile is the interpreter's statistics module
    assert env["python_implementation"] == platform.python_implementation()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    live = expcli._blas_runtime()
    assert env["blas"] == dict({k: blas.get(k) for k in (
        "name", "version", "openblas configuration")}, **live)
    # the live OpenBLAS, read through its library handle, or None for both
    # where there is none
    if live["threads"] is None:
        assert live["core"] is None
        pytest.skip("numpy loaded no OpenBLAS with a thread count")
    assert live["threads"] >= 1 and live["core"]
    code = ("import json, fblink.expcli\n"
            "print(json.dumps(fblink.expcli._blas_runtime()))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"threads": 1, "core": live["core"]}


def test_blas_runtime_reads_numpys_openblas_beside_scipys():
    # scipy loads an OpenBLAS of its own; given another thread count through
    # its own symbol, it must not be the one the manifest reads
    code = (
        "import ctypes, json, scipy.linalg, fblink.expcli\n"
        "from scipy.linalg import _fblas\n"
        "scipy_blas = ctypes.CDLL(_fblas.__file__)\n"
        "set_threads = getattr(scipy_blas, 'scipy_openblas_set_num_threads',"
        " None)\n"
        "if set_threads is not None:\n"
        "    set_threads(2)\n"
        "    scipy_threads = scipy_blas.scipy_openblas_get_num_threads()\n"
        "else:\n"
        "    scipy_threads = None\n"
        "print(json.dumps([scipy_threads,"
        " fblink.expcli._blas_runtime()['threads']]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ,
                                              OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    scipy_threads, threads = json.loads(proc.stdout)
    if scipy_threads is None or threads is None:
        pytest.skip("numpy or scipy loaded no scipy-openblas")
    assert (scipy_threads, threads) == (2, 1)


def test_manifest_records_the_clamped_worker_count(tmp_path, monkeypatch):
    # the processes that ran the tasks: FBLINK_WORKERS clamped to the CPU
    # count and the task count, and the helper thread that count decides,
    # also where one task clamps two workers to this process; the files do
    # not depend on either
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    cfg = parse_config(None, n_blocks=200)
    seen = {}
    for env, real, want in (("1", 3, 1), ("2", 3, 2), ("8", 3, 2),
                            ("2", 1, 1)):
        monkeypatch.setenv("FBLINK_WORKERS", env)
        out = tmp_path / ("%s-%d" % (env, real))
        man = run_scenario(replace(cfg, realizations=real),
                           "codec_validation", str(out))
        on_disk = json.loads((out / "manifest.json").read_text())
        assert man["environment"]["workers"] == want
        assert on_disk["environment"]["workers"] == want
        assert on_disk["environment"]["helper_thread"] is (want == 1)
        seen.setdefault(real, []).append(man["files"])
    assert all(files == runs[0] for runs in seen.values() for files in runs)


def test_manifest_records_the_helper_thread(tmp_path, monkeypatch):
    # beside the worker count: whether the helper work ran on a helper
    # thread, which it does on 2 CPUs, for the scenarios that have any; the
    # files do not depend on it
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    cfg = parse_config(None, n_blocks=25000, n_t_max_scan=3,
                       **SMALL_LEARNING)
    pinnable = expcli._openblas() is not None
    for scenario, helped in (("codec_validation", True),
                             ("learning_curves", pinnable),
                             ("rate_vs_blocklength", False)):
        files = []
        for cpus in (1, 2):
            monkeypatch.setattr(expcli, "_cpus", lambda: cpus)
            out = tmp_path / ("%s-%d" % (scenario, cpus))
            man = run_scenario(cfg, scenario, str(out))
            on_disk = json.loads((out / "manifest.json").read_text())
            want = helped and cpus == 2
            assert man["environment"]["helper_thread"] is want
            assert on_disk["environment"]["helper_thread"] is want
            files.append(man["files"])
        assert files[0] == files[1]


class Boom(Exception):
    pass


@pytest.mark.parametrize("target", ["draw_block_noise", "run_block_batch"])
def test_codec_validation_failure_mid_loop_leaves_no_thread(tmp_path,
                                                           monkeypatch,
                                                           target):
    # batch 1 of three fails: its noise fill on the helper thread, or the
    # engine on this thread while the helper fills batch 2. The run raises
    # that error, joins the helper, and leaves no table and no manifest.
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    original = getattr(codec, target)
    error = Boom("batch 1")
    threads = []

    def fails_at_batch_1(*args, **kwargs):
        threads.append(threading.current_thread())
        if len(threads) == 2:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(codec, target, fails_at_batch_1)
    before = threading.active_count()
    out = tmp_path / "out"
    with pytest.raises(Boom) as info:
        run_scenario(parse_config(None, fixed_gains=1, n_blocks=45000),
                     "codec_validation", str(out))
    assert info.value is error
    assert threading.active_count() == before
    assert list(out.iterdir()) == []
    # batch 0 is drawn before the loop; the loop's draws run on the helper
    on_helper = [t is not threading.main_thread() for t in threads]
    assert on_helper == ([False, True] if target == "draw_block_noise"
                         else [False, False])


@pytest.mark.parametrize("overrides,sizes", [
    # n_t 10: batches of 10000 blocks (100000 block-uses), the last short
    ({"n_blocks": 45000}, [10000] * 4 + [5000]),
    # n_t 1, capped by blocks (at 20 dB, where it carries 2 bits a
    # sub-channel; at 10 dB its rate is too low)
    ({"n_t": 1, "snr_db": 20, "n_blocks": 45000}, [20000, 20000, 5000]),
    # n_t 40, capped by block-uses
    ({"n_t": 40, "n_blocks": 6000}, [2500, 2500, 1000]),
    # a last batch of one block
    ({"n_blocks": 20001}, [10000, 10000, 1]),
    # an exact multiple of the batch, so no short batch
    ({"n_blocks": 30000}, [10000] * 3),
], ids=["short_last", "n_t_1", "n_t_40", "one_block_last", "exact_multiple"])
def test_codec_validation_helper_and_inline_draws_agree(monkeypatch,
                                                        overrides, sizes):
    # a helper without a thread draws every batch on the calling thread; one
    # with a thread draws every batch but the first on it. With the
    # interpreter switching threads every microsecond, an engine that read
    # a batch before its fill ended would change the row.
    cfg = parse_config(None, fixed_gains=1, **overrides)
    original = codec.draw_block_noise
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threaded in (False, True):
            threads, drawn = [], []

            def recorded(*args, **kwargs):
                threads.append(threading.current_thread())
                drawn.append(args[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(codec, "draw_block_noise", recorded)
            with _Helper(threaded) as helper:
                rows[threaded] = SCENARIOS["codec_validation"][0](cfg, 0,
                                                                  helper)
            assert drawn == sizes
            assert [t is threading.main_thread() for t in threads] == (
                [True] + [not threaded] * (len(sizes) - 1))
    finally:
        sys.setswitchinterval(interval)
    assert rows[False] == rows[True]


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("n_blocks", [40000, 45000])
def test_codec_validation_noise_sets_are_allocated_per_batch(
        monkeypatch, threaded, n_blocks):
    # batches of 10000 blocks at n_t 10, the last of 5000 at 45000 blocks:
    # every batch gets a set of noise arrays of its own size, allocated on
    # the calling thread, where the helper only fills it, and only once the
    # set of the batch before the last one is freed, so that at most two
    # sets are alive at a time
    cfg = parse_config(None, fixed_gains=1, n_blocks=n_blocks)
    original = codec._noise_arrays
    caller = threading.get_ident()
    calls, alive = [], []

    def spied(n, n_t):
        # a set is alive while any of its three arrays is
        live = sum(any(ref() is not None for ref in refs) for refs in alive)
        arrays = original(n, n_t)
        calls.append((n, n_t, threading.get_ident(), 1 + live))
        alive.append([weakref.ref(a) for a in arrays])
        return arrays

    monkeypatch.setattr(codec, "_noise_arrays", spied)
    with _Helper(threaded) as helper:
        SCENARIOS["codec_validation"][0](cfg, 0, helper)
    sizes = [min(10000, n_blocks - first)
             for first in range(0, n_blocks, 10000)]
    assert [n for n, _, _, _ in calls] == sizes
    assert {n_t for _, n_t, _, _ in calls} == {10}
    assert {thread for _, _, thread, _ in calls} == {caller}
    assert max(live for _, _, _, live in calls) == 2


# the learning helper needs an OpenBLAS thread count that a task can pin
needs_openblas = pytest.mark.skipif(
    expcli._openblas() is None,
    reason="numpy has no OpenBLAS thread count to pin")


def test_helper_cpu_free_conditions(monkeypatch):
    # the whole truth table: a helper thread only for the two scenarios
    # with helper work, run by one worker on at least 2 CPUs, and for the
    # learning helper, which trains a model, only on an OpenBLAS whose
    # thread count a task can pin. The worker count is the one given:
    # FBLINK_WORKERS, here not even an integer, is not read again
    monkeypatch.setenv("FBLINK_WORKERS", "many")
    handle = object()
    for scenario, workers, cpus, pinnable in itertools.product(
            SCENARIOS, (1, 2), (1, 2, 3), (False, True)):
        monkeypatch.setattr(expcli, "_cpus", lambda: cpus)
        monkeypatch.setattr(expcli, "_openblas",
                            lambda: handle if pinnable else None)
        want = (workers == 1 and cpus >= 2
                and (scenario == "codec_validation"
                     or (scenario == "learning_curves" and pinnable)))
        assert expcli._helper_cpu_free(scenario, workers) is want, (
            scenario, workers, cpus, pinnable)


def test_cpus_follow_the_affinity_mask(tmp_path, monkeypatch):
    # a process held to one CPU of a larger host runs no helper thread and
    # no second worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert expcli._cpus() == 1
    cfg = parse_config(None, realizations=2, n_blocks=200)
    assert not expcli._helper_cpu_free("codec_validation", 1)
    assert not expcli._helper_cpu_free("learning_curves", 1)
    monkeypatch.setenv("FBLINK_WORKERS", "2")
    man = run_scenario(cfg, "codec_validation", str(tmp_path))
    assert man["environment"]["workers"] == 1


def test_cpus_without_an_affinity_mask(monkeypatch):
    # a platform without sched_getaffinity counts the host's CPUs, and one
    # where even that is unknown counts one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert expcli._cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert expcli._cpus() == 1


@pytest.fixture
def fresh_openblas():
    """_openblas resolved anew in the test and again after it, so that a
    fake ctypes.CDLL neither reads nor leaves a cached handle."""
    expcli._openblas.cache_clear()
    yield
    expcli._openblas.cache_clear()


def unloadable(path, *args, **kwargs):
    raise OSError("%s: cannot open shared object file" % path)


def test_openblas_none_without_a_library_or_thread_symbols(monkeypatch,
                                                           fresh_openblas):
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert expcli._openblas() is None
    # a library that exports a thread count to read but none to set, under
    # every prefix, is not an OpenBLAS that a task can pin
    expcli._openblas.cache_clear()
    getter = {"%s_get_num_threads%s" % pair: lambda: 4 for pair in (
        ("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", ""))}
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda path: type("Lib", (), getter)())
    assert expcli._openblas() is None


def test_one_blas_thread_without_a_handle(monkeypatch):
    monkeypatch.setattr(expcli, "_openblas", lambda: None)
    ran = []
    with expcli._one_blas_thread():
        ran.append(True)
    assert ran == [True]
    with pytest.raises(Boom):
        with expcli._one_blas_thread():
            raise Boom()
    assert expcli._blas_runtime() == {"threads": None, "core": None}


@needs_openblas
def test_learning_curves_without_an_openblas_handle(tmp_path, monkeypatch,
                                                    fresh_openblas):
    # numpy on another BLAS: no thread count to pin, so no helper thread
    # for the learning jobs and no live BLAS in the manifest, and the same
    # bytes as a run on numpy's OpenBLAS. Unpinned, this OpenBLAS would run
    # its default thread count, whose products round differently, so it is
    # held to one thread from outside, as a single-threaded BLAS runs
    import ctypes
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    cfg = parse_config(None, realizations=1, n_rounds=2, n_train=200,
                       n_test=100)
    run_scenario(cfg, "learning_curves", str(tmp_path / "normal"))
    get, put, _ = expcli._openblas()
    before = get()
    put(1)
    try:
        with monkeypatch.context() as m:
            m.setattr(ctypes, "CDLL", unloadable)
            expcli._openblas.cache_clear()
            env = run_scenario(cfg, "learning_curves",
                               str(tmp_path / "bare"))["environment"]
            expcli._openblas.cache_clear()
    finally:
        put(before)
    assert env["helper_thread"] is False
    assert env["blas"]["threads"] is None and env["blas"]["core"] is None
    assert ((tmp_path / "bare" / "learning_curves.csv").read_bytes()
            == (tmp_path / "normal" / "learning_curves.csv").read_bytes())


# two realizations of a few rounds on a small sample
SMALL_LEARNING = dict(realizations=2, n_rounds=3, n_train=200, n_test=100)


def test_learning_scenarios_run_one_loop(tmp_path, monkeypatch):
    # every learning run is one hfl.train, the span that the benchmark's
    # coded_fl workload requires: learning_curves runs the baseline and the
    # coded run per realization, secrecy_level_vs_round the coded run alone
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    calls = collections.Counter()
    original = hfl.train

    def train(*args, transmit_fn=None, **kwargs):
        calls["baseline" if transmit_fn is None else "coded"] += 1
        return original(*args, transmit_fn=transmit_fn, **kwargs)

    monkeypatch.setattr(hfl, "train", train)
    cfg = parse_config(None, **SMALL_LEARNING)
    run_scenario(cfg, "learning_curves", str(tmp_path / "curves"))
    assert calls == {"baseline": 2, "coded": 2}
    calls.clear()
    run_scenario(cfg, "secrecy_level_vs_round", str(tmp_path / "secrecy"))
    assert calls == {"coded": 2}


def record_rounds(monkeypatch, fail=None, error=None):
    """Record (kind, thread) of every baseline and coded round as it ends and
    of every attack of the eavesdropper; the kind named by fail raises
    error in its round 1 instead, recorded as that round starts. Each coded
    record also notes how many baseline rounds had ended by then."""
    original_rounds = hfl.train
    original_attack = adversary.attack_full_sequence
    runs = []

    def record(kind, failing=False):
        runs.append((kind, threading.current_thread()))
        if failing:
            raise error

    def rounds(*args, transmit_fn=None, **kwargs):
        kind = "baseline" if transmit_fn is None else "coded"
        for t, step in enumerate(original_rounds(
                *args, transmit_fn=transmit_fn, **kwargs)):
            record(kind)
            if kind == "coded":
                runs[-1] += (sum(k == "baseline" for k, *_ in runs),)
            yield step
            if kind == fail and t == 0:
                record(kind, failing=True)

    def attack(*args, **kwargs):
        if fail == "eve" and sum(k == "eve" for k, *_ in runs) == 1:
            record("eve", failing=True)
        out = original_attack(*args, **kwargs)
        record("eve")
        return out

    monkeypatch.setattr(hfl, "train", rounds)
    monkeypatch.setattr(adversary, "attack_full_sequence", attack)
    return runs


@needs_openblas
def test_learning_curves_helper_and_inline_agree(tmp_path, monkeypatch):
    # the baseline's rounds and the eavesdropper's run on the task's one
    # helper thread only on 2 CPUs with one worker; one CPU and a pool run
    # them inline. The interpreter switches threads every 10 microseconds,
    # so runs that shared any state would change the rows.
    cfg = parse_config(None, **SMALL_LEARNING)
    data = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for case, cpus, workers in (("helper", 2, "1"), ("one_cpu", 1, "1"),
                                    ("pool", 2, "2")):
            monkeypatch.setattr(expcli, "_cpus", lambda: cpus)
            monkeypatch.setenv("FBLINK_WORKERS", workers)
            runs = record_rounds(monkeypatch)
            before = threading.active_count()
            man = run_scenario(cfg, "learning_curves", str(tmp_path / case))
            assert threading.active_count() == before
            assert man["environment"]["workers"] == int(workers)
            assert man["environment"]["helper_thread"] is (case == "helper")
            data[case] = (tmp_path / case / "learning_curves.csv").read_bytes()
            if case == "pool":  # the pool trains in its own processes
                assert runs == []
                continue
            main_thread = threading.main_thread()
            # the coded run hands over round t's job, and ends round t, only
            # once round t-1's has ended: at most one round in flight.
            # Inline, round t's job runs within coded round t
            coded = [r for r in runs if r[0] == "coded"]
            ahead = {done - i for i, (_, _, done) in enumerate(coded)}
            assert ahead <= ({0, 1} if case == "helper" else {1})
            assert all(t is main_thread for _, t, _ in coded)
            helpers = {t for k, t, *_ in runs if k != "coded"}
            if case == "helper":
                # one helper thread per task, for the baseline and for her
                assert len(helpers) == 2 and main_thread not in helpers
                assert {t.name for t in helpers} == {"fblink-helper_0"}
            else:
                assert helpers == {main_thread}
                # inline, round t's job runs at once, where coded round t
                # hands it over, so both end before that coded round does
                assert [k for k, *_ in runs] == [
                    "baseline", "eve", "coded"] * 6
            assert sorted(k for k, *_ in runs) == (
                ["baseline"] * 6 + ["coded"] * 6 + ["eve"] * 6)
    finally:
        sys.setswitchinterval(interval)
    assert len(set(data.values())) == 1
    assert data["helper"].count(b"\n") == 1 + 2 * 2 * 3


@needs_openblas
@pytest.mark.parametrize("fail", ["baseline", "coded", "eve"])
def test_learning_curves_failure_leaves_no_thread(tmp_path, monkeypatch,
                                                  fail):
    # round 1 fails: the baseline's on the helper, the coded run's on this
    # thread while the helper runs round 0's job, or the eavesdropper's
    # attack on the helper. The run raises that error unchanged, joins the
    # helper, and leaves no table and no manifest.
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    error = Boom(fail)
    runs = record_rounds(monkeypatch, fail, error)
    before = threading.active_count()
    out = tmp_path / "out"
    with pytest.raises(Boom) as info:
        run_scenario(parse_config(None, **SMALL_LEARNING), "learning_curves",
                     str(out))
    assert info.value is error
    assert threading.active_count() == before
    assert list(out.iterdir()) == []
    # the failing kind got to its round 1 and no further, and the coded run
    # to the hand-over that joined the failed job; realization 1 never
    # started
    assert all((t is threading.main_thread()) == (k == "coded")
               for k, t, *_ in runs)
    assert collections.Counter(k for k, *_ in runs) == {
        "baseline": {"baseline": 2, "coded": 1, "eve": 2}[fail],
        "coded": 2, "eve": {"baseline": 1, "coded": 1, "eve": 2}[fail]}


@pytest.mark.parametrize("cpus", [pytest.param(2, marks=needs_openblas), 1])
def test_diverging_learning_curves_stop_within_two_rounds(tmp_path, capsys,
                                                          monkeypatch, cpus):
    # round 0's step at lr 1e300 throws the model far off, and the loss
    # after it overflows. Each variant stops there, in round 0: the coded
    # run hands the baseline its round 0 before its own step fails, and the
    # baseline runs it on the helper (2 CPUs) or at once, where it is
    # handed over (1 CPU), failing first.
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    monkeypatch.setattr(expcli, "_cpus", lambda: cpus)
    original_rounds, original_grad = hfl.train, mlp.loss_and_grad
    variant_of = {}
    calls = collections.Counter()

    def train(*args, transmit_fn=None, **kwargs):
        variant = "baseline" if transmit_fn is None else "coded"
        steps = original_rounds(*args, transmit_fn=transmit_fn, **kwargs)
        while True:
            # each step counts under its own variant, on whichever thread
            variant_of[threading.get_ident()] = variant
            step = next(steps, None)
            if step is None:
                return
            yield step

    def loss_and_grad(*args):
        calls[variant_of[threading.get_ident()]] += 1
        return original_grad(*args)

    monkeypatch.setattr(hfl, "train", train)
    monkeypatch.setattr(mlp, "loss_and_grad", loss_and_grad)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lr": 1e300, "n_rounds": 30}))
    code = main(["run", "--scenario", "learning_curves", "--config", str(p),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: round 0's model math failed")
    assert all(re.search(r"\b%s\b" % key, err)
               for key in ("lr", "reg", "sigma2"))
    assert list((tmp_path / "out").iterdir()) == []
    n_users = parse_config().n_users
    assert calls == {"baseline": n_users, "coded": n_users}


def test_mlp_bytes_do_not_move_with_blas_threads_or_workers(tmp_path):
    # every task pins numpy's OpenBLAS to one thread, so fresh processes
    # started on one and two BLAS threads, and on two workers, write the
    # same MLP tables, whatever core the kernels were chosen for
    code = ("import sys\n"
            "from fblink.expcli import parse_config, run_scenario\n"
            "cfg = parse_config(None, **%r)\n"
            "for scenario in ('learning_curves', 'secrecy_level_vs_round'):\n"
            "    run_scenario(cfg, scenario, sys.argv[1])\n" % SMALL_LEARNING)
    tables = {}
    for threads, workers in (("1", "1"), ("2", "1"), ("2", "2")):
        out = tmp_path / (threads + workers)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(out)], capture_output=True,
            text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                FBLINK_WORKERS=workers))
        assert proc.returncode == 0, proc.stderr
        tables[threads, workers] = [(out / name).read_bytes() for name in (
            "learning_curves.csv", "secrecy_level_vs_round.csv")]
    assert tables["1", "1"] == tables["2", "1"] == tables["2", "2"]


@needs_openblas
def test_tasks_run_on_one_blas_thread_and_restore_the_count(tmp_path,
                                                            monkeypatch):
    # a task runs on one OpenBLAS thread, and the count set before the run
    # is back after it, also when the task raises
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    get, put, _ = expcli._openblas()
    fn, headers = SCENARIOS["privacy_utility_sweep"]
    seen = []
    before = get()
    put(2)
    try:
        for error in (None, Boom("task")):
            def task(cfg, arg, helper, error=error):
                seen.append(get())
                if error is not None:
                    raise error
                return fn(cfg, arg, helper)

            monkeypatch.setitem(SCENARIOS, "privacy_utility_sweep",
                                (task, headers))
            out = str(tmp_path / ("ok" if error is None else "raises"))
            if error is None:
                run_scenario(parse_config(), "privacy_utility_sweep", out)
            else:
                with pytest.raises(Boom) as info:
                    run_scenario(parse_config(), "privacy_utility_sweep", out)
                assert info.value is error
            assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1]


def test_cli_import_leaves_scipy_and_the_pool_unloaded():
    # a one-worker run needs neither; FBLINK_WORKERS=2 tests load the pool
    code = ("import sys, fblink.expcli\n"
            "fblink.expcli.parse_config()\n"
            "print([m for m in ('scipy', 'concurrent.futures.process')"
            " if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("overrides", [
    {}, {"realizations": 1}, {"n_max": 5000}, {"n_t_max_scan": 300},
    {"n_max": 2, "n_t_max_scan": 1}])
def test_planner_tasks_are_ranges_within_the_element_budget(overrides):
    # consecutive ranges in order, covering every realization once; a large
    # n_max shrinks the task instead of growing its arrays
    cfg = parse_config(None, **{"realizations": 1000, **overrides})
    n_tasks, tasks = _task_args("rate_vs_blocklength", cfg)
    tasks = list(tasks)
    assert len(tasks) == n_tasks
    assert [r for t in tasks for r in t] == list(range(cfg.realizations))
    per_real = cfg.n_max + cfg.n_t_max_scan
    per_task = expcli._PLANNER_TASK_ELEMENTS // per_real
    assert all(len(t) == per_task for t in tasks[:-1])
    assert all(len(t) * per_real <= expcli._PLANNER_TASK_ELEMENTS
               for t in tasks)
    if not overrides:
        assert 20 <= per_task <= 40
    if cfg.n_max == 5000:
        assert per_task == 1


def test_task_args_of_the_other_scenarios():
    cfg = parse_config(None, realizations=3)
    n_tasks, tasks = _task_args("privacy_utility_sweep", cfg)
    assert (n_tasks, list(tasks)) == (1, [0])
    for name in ("codec_validation", "secrecy_level_vs_round",
                 "learning_curves"):
        n_tasks, tasks = _task_args(name, cfg)
        assert (n_tasks, list(tasks)) == (3, [0, 1, 2])


def test_planner_memory_is_flat_in_realizations(tmp_path, monkeypatch):
    # the traced peak of four tasks' worth of realizations stays within 10%
    # of one task's, since rows are streamed; at n_max 5000 a task holds
    # one realization, and the element budget keeps its peak under the
    # default task's
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    default = parse_config(None, realizations=1000)
    wide = replace(default, n_max=5000)

    def peak(cfg, tasks):
        per_task = len(next(_task_args("rate_vs_blocklength", cfg)[1]))
        out = str(tmp_path / ("%d-%d" % (cfg.n_max, tasks)))
        tracemalloc.start()
        try:
            run_scenario(replace(cfg, realizations=tasks * per_task),
                         "rate_vs_blocklength", out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # warm up first-call allocations and the interpreter's free lists
    for cfg in (default, wide):
        peak(cfg, 4)
    one = peak(default, 1)
    assert peak(default, 4) <= 1.1 * one
    wide_one = peak(wide, 1)
    assert peak(wide, 4) <= 1.1 * wide_one and wide_one <= 1.1 * one


def test_codec_validation_memory_is_flat_in_n_t():
    # a batch holds at most _CODEC_BATCH_USES block-uses, so the traced
    # peak of the scenario body at n_t 40 stays near its peak at n_t 5,
    # where the batch is still capped by _CODEC_BATCH blocks
    def peak(n_t):
        cfg = parse_config(None, fixed_gains=1, n_t=n_t, n_blocks=60000)
        tracemalloc.start()
        try:
            SCENARIOS["codec_validation"][0](cfg, 0, _Helper(False))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) <= 1.25 * peak(5)


def test_worker_count_parsing_and_clamp(monkeypatch):
    # FBLINK_WORKERS clamped to [1, CPUs] and to the task count
    cfg = parse_config(None, realizations=3)
    for env, cpus, want in ((None, 8, 1), ("2", 8, 2), ("64", 2, 2),
                            ("0", 8, 1), ("-3", 8, 1), ("64", 8, 3)):
        if env is None:
            monkeypatch.delenv("FBLINK_WORKERS", raising=False)
        else:
            monkeypatch.setenv("FBLINK_WORKERS", env)
        monkeypatch.setattr(expcli, "_cpus", lambda: cpus)
        assert _workers("codec_validation", cfg) == want
    for bad in ("two", "", "1.5"):
        monkeypatch.setenv("FBLINK_WORKERS", bad)
        with pytest.raises(ConfigError, match="FBLINK_WORKERS"):
            _workers("codec_validation", cfg)


def test_plans_are_first_hits_of_their_rate_scan(tmp_path):
    # every feasible plan inside the scan is the scan's first n_t >= 2 that
    # covers the payload, with the same rate string; any other plan has no
    # such n_t in the scan
    cfg = parse_config(None, realizations=50)
    run_scenario(cfg, "rate_vs_blocklength", str(tmp_path))
    rates = read_csv(tmp_path / "rates.csv")
    plans = read_csv(tmp_path / "plans.csv")
    assert len(plans) == 50 and len(rates) == 50 * cfg.n_t_max_scan
    kinds = set()
    for p in plans:
        scan = [r for r in rates if r["realization"] == p["realization"]]
        hit = next((r for r in scan if int(r["n_t"]) >= 2
                    and r["feasible"] == "1"
                    and float(r["total_bits"]) >= cfg.payload_bits), None)
        inside = p["feasible"] == "1" and int(p["n_t"]) <= cfg.n_t_max_scan
        kinds.add((p["feasible"], inside))
        if inside:
            assert hit is not None and hit["n_t"] == p["n_t"]
            assert hit["rate_bits_per_use"] == p["rate_bits_per_use"]
            assert hit["total_bits"] == p["total_bits"]
        else:
            assert hit is None
    # the seed covers all three cases: hit inside the scan, hit past its
    # end, no feasible blocklength at all
    assert kinds == {("1", True), ("1", False), ("0", False)}


def test_codec_validation_quick_run(tmp_path):
    cfg = parse_config(None, n_blocks=2000, fixed_gains=1, n_t=5)
    run_scenario(cfg, "codec_validation", str(tmp_path))
    (row,) = read_csv(tmp_path / "codec_validation.csv")
    assert int(row["feasible"]) == 1
    assert int(row["n_blocks"]) == 2000
    assert int(row["bits_per_sub"]) >= 4
    assert float(row["err_rate"]) <= 5.0 * cfg.tau
    assert float(row["alias_rate"]) <= 0.01
    assert abs(float(row["power_fwd_ratio"]) - 1.0) < 0.05
    assert abs(float(row["power_fb_ratio"]) - 1.0) < 0.05
    assert float(row["max_var_dev"]) < 0.25


def test_codec_validation_power_is_complex_symbol_power(tmp_path,
                                                       monkeypatch):
    # the power ratios, summed over real components, equal |x|^2 of the
    # complex symbols the scenario sent, over two batches of blocks
    outs = []

    def recorded(*args, _fn=codec.run_block_batch, **kwargs):
        outs.append(_fn(*args, **kwargs))
        return outs[-1]
    monkeypatch.setattr(codec, "run_block_batch", recorded)
    cfg = parse_config(None, n_blocks=20500, fixed_gains=1, n_t=5)
    run_scenario(cfg, "codec_validation", str(tmp_path))
    (row,) = read_csv(tmp_path / "codec_validation.csv")
    assert len(outs) == 2
    sched = codec.build_schedule(cfg.snr, cfg.snr_fb, cfg.tau, cfg.n_t,
                                 Realization(1.0, 1.0, 1.0, 1.0),
                                 cfg.noise_spec())
    for key, name, uses, power in (
            ("power_fwd_ratio", "x_seq", cfg.n_t, sched.P),
            ("power_fb_ratio", "x_fb_seq", cfg.n_t - 1, sched.P_fb)):
        total = sum(float((np.abs(as_complex(getattr(out, name))) ** 2).sum())
                    for out in outs)
        assert float(row[key]) == pytest.approx(
            total / (cfg.n_blocks * uses * power), rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_codec_validation_every_block_aliasing(tmp_path):
    # a loose tau, near the 8*Q(sqrt(3)) ceiling, folds every block: no
    # clean block is left to estimate the error variance from, so that cell
    # stays empty
    cfg = parse_config(None, fixed_gains=1, n_t=10, tau=0.33, n_blocks=1,
                       seed=0)
    run_scenario(cfg, "codec_validation", str(tmp_path))
    (row,) = read_csv(tmp_path / "codec_validation.csv")
    assert int(row["feasible"]) == 1
    assert float(row["alias_rate"]) == 1.0
    assert row["max_var_dev"] == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_t,feasible", [(46, 1), (47, 0), (80, 0),
                                          (800, 0)])
def test_codec_validation_sub_channel_limit(tmp_path, n_t, feasible):
    # 46 uses carry 40 bits per sub-channel at the defaults; past that the
    # interval decode is below float64 resolution, so no block is run. At
    # 800 uses alpha underflows float64 first, which build_schedule refuses
    cfg = parse_config(None, fixed_gains=1, n_t=n_t, n_blocks=200)
    run_scenario(cfg, "codec_validation", str(tmp_path))
    (row,) = read_csv(tmp_path / "codec_validation.csv")
    assert int(row["feasible"]) == feasible
    if feasible:
        assert int(row["bits_per_sub"]) == codec.MAX_SUB_CHANNEL_BITS
        assert row["outage_reason"] == ""
    else:
        assert row["outage_reason"] == ("alpha_underflow" if n_t == 800
                                        else "exceeds_sub_channel_bits")
        assert [row[k] for k in ("bits_per_sub", "n_blocks")] == ["0", "0"]
        assert all(row[k] == "" for k in (
            "err_rate", "alias_rate", "power_fwd_ratio", "power_fb_ratio",
            "max_var_dev"))


@pytest.mark.parametrize("scenario", ["learning_curves",
                                      "secrecy_level_vs_round"])
def test_huge_feedback_noise_plans_only_blocks_that_build(tmp_path,
                                                          scenario):
    # at sigma2_2 = 1e300 the chunk plans must already refuse the blocks whose
    # alpha underflows, and the eavesdropper's unwrap decodes estimates far
    # outside the constellation; pytest turns a RuntimeWarning into an error
    cfg = parse_config(None, sigma2_2=1e300, n_rounds=2)
    run_scenario(cfg, scenario, str(tmp_path))
    (name,) = SCENARIOS[scenario][1]
    assert {r["round"] for r in read_csv(tmp_path / name)} == {"0", "1"}


def test_secrecy_running_min_tracks_round_bound(tmp_path):
    cfg = parse_config(None, n_rounds=5)
    run_scenario(cfg, "secrecy_level_vs_round", str(tmp_path))
    rows = read_csv(tmp_path / "secrecy_level_vs_round.csv")
    assert len(rows) == 5
    deltas = [float(r["delta_round"]) for r in rows]
    assert all(0.0 <= d <= 1.0 for d in deltas)
    for t, r in enumerate(rows):
        assert float(r["delta_running_min"]) == min(deltas[:t + 1])


# ---------------------------------------------------------------------
# Entry point exit codes
# ---------------------------------------------------------------------


def test_cli_success_path(tmp_path, capsys):
    code = main(["run", "--scenario", "privacy_utility_sweep",
                 "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "privacy_utility_sweep.csv" in out
    assert (tmp_path / "manifest.json").exists()
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["seed"] == 3


def test_cli_config_error_is_exit_1(tmp_path, capsys, monkeypatch):
    code = main(["run", "--scenario", "privacy_utility_sweep",
                 "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    monkeypatch.setenv("FBLINK_WORKERS", "two")
    code = main(["run", "--scenario", "privacy_utility_sweep",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "FBLINK_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code", [
    (["run", "--scenario", "nope", "--out", "d"], 1),
    (["run", "--scenario", "privacy_utility_sweep", "--seed", "abc",
      "--out", "d"], 1),
    ([], 1),
    (["--help"], 0),
])
def test_cli_usage_error_is_exit_1(tmp_path, capsys, monkeypatch, argv,
                                   code):
    # argparse's own exit code 2 would read as an infeasible system
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage: fblink" in out) if code == 0 else ("error:" in err)
    assert not (tmp_path / "d").exists()


def test_cli_infeasible_is_exit_2(tmp_path, capsys, monkeypatch):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_max": 2, "max_redraws": 5, "n_train": 50,
                             "n_test": 10, "n_rounds": 1}))
    code = main(["run", "--scenario", "secrecy_level_vs_round",
                 "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*.csv")) == []
    # the same from the process pool, with tasks still in flight
    monkeypatch.setenv("FBLINK_WORKERS", "2")
    code = main(["run", "--scenario", "secrecy_level_vs_round",
                 "--config", str(p), "--realizations", "3",
                 "--out", str(tmp_path / "pool")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
    assert list((tmp_path / "pool").iterdir()) == []


def test_cli_secrecy_screens_the_widest_cell(tmp_path, capsys):
    # a distortion of 1e-20 sends 36-bit cells, wider than the 24 bits per
    # parameter the pinned channel was once screened for, which pinned a
    # draw that cannot carry this round; screened at MAX_CELL_BITS per
    # parameter, the pinned channel carries every round
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_max": 32, "distortion": 1e-20, "seed": 9,
                             "n_rounds": 1, "n_train": 100, "n_test": 50}))
    code = main(["run", "--scenario", "secrecy_level_vs_round", "--config",
                 str(p), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    (row,) = read_csv(tmp_path / "out" / "secrecy_level_vs_round.csv")
    n_params = mlp.n_params(parse_config(str(p)).mlp_spec())
    assert int(row["physical_bits"]) > 24 * n_params


def assert_cli_config_error(tmp_path, capsys, scenario, config, key):
    """The one body of the config-error CLI cases: scenario run on config, a
    dict or the JSON text of the file, exits 1 with a "config error: " line
    that names key as a word and no traceback. Nothing is left under --out:
    no table, ".part" file or manifest, and no --out at all where
    parse_config itself rejects the file."""
    p = tmp_path / "cfg.json"
    p.write_text(config if isinstance(config, str) else json.dumps(config))
    out = tmp_path / "out"
    code = main(["run", "--scenario", scenario, "--config", str(p),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ") and "Traceback" not in err
    assert re.search(r"\b%s\b" % key, err), err
    try:
        parse_config(str(p))
    except ConfigError:
        assert not out.exists()
    else:
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("text,key", [
    ('{"n_t_max_scan": 1e400}', "n_t_max_scan"),
    ('{"snr_db": "nan"}', "snr_db"),
    ('{"sigma2": Infinity}', "sigma2"),
    ('{"snr_db": 1e6}', "snr_db"),
    ('{"snr_fb_db": -1e6}', "snr_fb_db"),
    ('{"snr_db": true}', "snr_db"),
    ('{"tau": false}', "tau"),
    # above 8*Q(sqrt(3)) the rate formula passes capacity
    ('{"tau": 0.5}', "tau"),
    ('{"payload_bits": 0}', "payload_bits"),
    ('{"sigma1_2": 1e308}', "sigma1_2"),
    ('{"sigma2_2": 1e308}', "sigma2_2"),
    # rate * uses_per_second underflowed to 0 in analysis.latency_seconds
    ('{"uses_per_second": 5e-324, "realizations": 3}', "uses_per_second"),
    # a feasible plan's latency overflowed to inf, the infeasible sentinel
    ('{"uses_per_second": 1e-310, "realizations": 3}', "uses_per_second"),
    # rate * uses_per_second overflowed to inf: a feasible plan's latency 0.0
    ('{"uses_per_second": 1e308, "snr_db": 60, "snr_fb_db": 80,'
     ' "realizations": 3}', "uses_per_second"),
])
def test_cli_bad_value_is_exit_1(tmp_path, capsys, text, key):
    assert_cli_config_error(tmp_path, capsys, "rate_vs_blocklength", text,
                            key)


@pytest.mark.parametrize("scenario,tau", [
    ("rate_vs_blocklength", 5e-324), ("learning_curves", 1e-321)])
def test_cli_underflowing_tau_is_exit_1(tmp_path, scenario, tau):
    # tau/8, or a chunk's share tau/n_chunks of it, would round to 0 before
    # q_inv sees it
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"tau": tau}))
    proc = subprocess.run([sys.executable, "-m", "fblink.expcli", "run",
                           "--scenario", scenario, "--config", str(p),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error: tau")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario,config,key", [
    # P = 1.7e308 made lam inf and sent NaN estimates to the decoder
    ("secrecy_level_vs_round", {"sigma1_2": 1.7e307, "n_rounds": 1},
     "sigma1_2"),
    # the feedback power sums overflowed in the reduce
    ("codec_validation", {"sigma2_2": 9e305, "realizations": 2}, "sigma2_2"),
    # lam^2 = L*P/P_fb overflowed
    ("secrecy_level_vs_round", {"sigma1_2": 1e10, "sigma2_2": 1e-300,
                                "n_rounds": 1}, "sigma2_2"),
    # every power within bounds, but n_blocks * n_t * P is not
    ("codec_validation", {"sigma1_2": 1e301, "fixed_gains": 1,
                          "n_blocks": 200000}, "n_blocks"),
])
def test_cli_near_limit_power_is_exit_1(tmp_path, capsys, scenario, config,
                                        key):
    assert_cli_config_error(tmp_path, capsys, scenario, config, key)


@pytest.mark.parametrize("config,key", [
    # 2^(2*privacy_eps) - 1 is 0, and the privacy floor divided by it
    ({"privacy_eps": 1e-300}, "privacy_eps"),
    # utility_cap / n_users underflows to 0, the sweep grid's lower end
    ({"utility_cap": 5e-324}, "utility_cap"),
    # 2^(2*privacy_eps) overflows
    ({"privacy_eps": 600}, "privacy_eps"),
    # the privacy floor overflows, and the grid's upper end with it
    ({"sigma_w2_max": 1e308}, "sigma_w2_max"),
    # the utility noise n_users*sigma2 at the grid's upper end overflowed
    ({"utility_cap": 1e308}, "utility_cap"),
])
def test_cli_sweep_window_limits_are_exit_1(tmp_path, capsys, config, key):
    assert_cli_config_error(tmp_path, capsys, "privacy_utility_sweep", config,
                            key)


@pytest.mark.parametrize("scenario,config,key", [
    # a 500-bit cell index overflowed int64 in source_coding.quantize
    ("secrecy_level_vs_round", {"sigma2": 1e300, "n_rounds": 1}, "sigma2"),
    ("secrecy_level_vs_round", {"distortion": 1e-300, "n_rounds": 1},
     "distortion"),
    # the model diverged in round 0's step and its NaN variance reached the
    # quantizer in round 1; round 0's loss now faults first
    ("learning_curves", {"lr": 1e300, "n_rounds": 2}, "lr"),
])
def test_cli_quantizer_limits_are_exit_1(tmp_path, capsys, scenario, config,
                                         key):
    assert_cli_config_error(tmp_path, capsys, scenario, config, key)


@pytest.mark.parametrize("scenario", ["learning_curves",
                                      "secrecy_level_vs_round"])
@pytest.mark.parametrize("config,key", [
    # one round at lr 1e300 exited 0 with NaN train_loss cells, after
    # overflow and invalid-value warnings from mlp
    ({"lr": 1e300, "n_rounds": 1}, "lr"),
    # hfl.estimate_sigma_w2 overflowed, and the message named lr and sigma2
    ({"reg": 1e300, "n_rounds": 1}, "reg"),
    # a matmul overflowed before the quantizer's config error
    ({"sigma2": 1.7e307, "n_rounds": 1}, "sigma2"),
])
def test_cli_diverging_model_is_exit_1(tmp_path, capsys, scenario, config,
                                       key):
    assert_cli_config_error(tmp_path, capsys, scenario, config, key)


def test_cli_diverging_model_on_two_workers_is_exit_1(tmp_path, capfd,
                                                      monkeypatch):
    # two realizations on two workers: the model fault is mapped inside a
    # pool worker, and its ConfigError reaches main pickled. capfd also
    # reads what the workers write to stderr.
    monkeypatch.setenv("FBLINK_WORKERS", "2")
    monkeypatch.setattr(expcli, "_cpus", lambda: 2)
    config = {"lr": 1e300, "n_rounds": 1, "realizations": 2, "n_train": 200,
              "n_test": 100}
    assert _workers("learning_curves", parse_config(None, **config)) == 2
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["run", "--scenario", "learning_curves", "--config", str(p),
                 "--out", str(out)])
    err = capfd.readouterr().err
    assert code == 1
    assert err.startswith("config error: round 0's model math failed"), err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("scenario,config,key", [
    # len(range) overflowed in _task_args
    ("rate_vs_blocklength", {"realizations": 10**30}, "realizations"),
    # numpy refused the planner's arrays as too big
    ("rate_vs_blocklength", {"n_max": 10**30}, "n_max"),
    ("rate_vs_blocklength", {"n_max": 2**62}, "n_max"),
    ("rate_vs_blocklength", {"n_t_max_scan": 2**62}, "n_t_max_scan"),
    ("privacy_utility_sweep", {"sweep_points": 2**62}, "sweep_points"),
    # the planner could not convert n_t to a C long
    ("codec_validation", {"n_t": 10**23}, "n_t"),
    # the model's dimensions overflowed
    ("learning_curves", {"n_hidden": 10**20}, "n_hidden"),
    ("secrecy_level_vs_round", {"n_hidden": 2**62}, "n_hidden"),
])
def test_cli_huge_integer_is_exit_1(tmp_path, capsys, scenario, config, key):
    assert_cli_config_error(tmp_path, capsys, scenario, config, key)


def test_integer_keys_stop_at_2_31_less_1():
    # every integer key but seed, whatever the other keys say; a seed of
    # any size seeds a SeedSequence
    keys = [f.name for f in fields(SystemConfig)
            if f.type is int and f.name != "seed"]
    assert len(keys) == 14
    for key in keys:
        with pytest.raises(ConfigError,
                           match="^%s must be at most 2147483647$" % key):
            parse_config(None, **{key: 2**31})
    assert parse_config(None, realizations=2**31 - 1).realizations == 2**31 - 1
    assert parse_config(None, seed=10**40).seed == 10**40


def test_power_bound():
    # snr is 10 at the defaults
    assert parse_config(None, sigma1_2=_POWER_MAX / 20).power <= _POWER_MAX
    with pytest.raises(ConfigError, match="sigma1_2"):
        parse_config(None, sigma1_2=_POWER_MAX / 5)


def test_tau_floor():
    assert parse_config(None, tau=_TAU_MIN).tau == _TAU_MIN
    with pytest.raises(ConfigError, match="tau"):
        parse_config(None, tau=_TAU_MIN / 2)


def test_tau_ceiling():
    # 8*Q(sqrt(3)) is admitted, the next float above it refused
    bound = 8.0 * statistics.NormalDist().cdf(-math.sqrt(3.0))
    assert parse_config(None, tau=bound).tau == bound
    with pytest.raises(ConfigError, match=r"^tau .*8\*Q\(sqrt\(3\)\)"):
        parse_config(None, tau=math.nextafter(bound, 1.0))


@pytest.mark.parametrize("defect,message", [
    ("magic", "magic"), ("truncated", "truncated"), ("short", "n_train"),
    ("missing", "not found"), ("partial", "t10k-labels-idx1-ubyte"),
    ("pixels", "16 pixels; the model takes 784"),
    ("labels", "labels outside [0, 10)")])
def test_cli_bad_data_dir_is_exit_1(tmp_path, capsys, defect, message):
    # 100 rows under the default n_train of 1000 would train on 100 while
    # the quantizer is sized for 1000; a missing directory, or one holding
    # three of the four files, would run the synthetic mixture instead;
    # 4x4 images or a label of 12 would fault in the model's math
    rng = np.random.default_rng(0)
    side = 4 if defect == "pixels" else 28
    imgs = rng.integers(0, 256, size=(100, side, side), dtype=np.uint8)
    labs = rng.integers(0, 10, size=100, dtype=np.uint8)
    if defect == "labels":
        labs[:] = 12
    data = tmp_path / "data"
    data.mkdir()
    write_idx_pair(data, "train", imgs, labs)
    write_idx_pair(data, "t10k", imgs, labs)
    images = data / "train-images-idx3-ubyte"
    if defect == "magic":
        images.write_bytes(struct.pack(">I", 1234) + images.read_bytes()[4:])
    elif defect == "truncated":
        images.write_bytes(images.read_bytes()[:-1])
    elif defect == "partial":
        (data / "t10k-labels-idx1-ubyte").unlink()
    elif defect == "missing":
        data = tmp_path / "no-such-dir"
    cfg = {"data_dir": str(data), "n_rounds": 1}
    if defect != "short":
        cfg.update(n_train=50, n_test=50)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["run", "--scenario", "secrecy_level_vs_round", "--config",
                 str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert list((tmp_path / "out").glob("*.csv")) == []


@pytest.mark.skipif(resource is None, reason="no resource module")
def test_cli_out_of_memory_is_exit_1(tmp_path):
    # one realization at n_max 1e8 asks for arrays of 763 MiB each; a child
    # capped at about 2.4 GiB of address space cannot allocate them. The
    # cap is set in the child before it starts: without it the same config
    # would ask the host for several GiB. One BLAS thread keeps OpenBLAS's
    # own buffers small on a host of many CPUs.
    def cap_address_space():
        limit = 2500000 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_max": 100000000, "realizations": 1}))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fblink", "run", "--scenario",
         "rate_vs_blocklength", "--config", str(p), "--out", str(out)],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: the configured sizes need "
                                  "more memory")
    # numpy names the size it could not allocate
    assert re.search(r"\d[\d.]* [KMG]iB", proc.stderr)
    assert "Traceback" not in proc.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("under", [False, True])
def test_cli_unusable_out_is_exit_1_before_any_task(tmp_path, capsys,
                                                    monkeypatch, under):
    # --out naming an existing file, or a path under one
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    out = blocker / "out" if under else blocker

    def no_task(packed):
        raise AssertionError("a task ran before the output was opened")

    monkeypatch.setattr(expcli, "_run_task", no_task)
    code = main(["run", "--scenario", "rate_vs_blocklength",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "cannot write tables" in err
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("held", ["plans.csv", "manifest.json.part",
                                  "manifest.json"])
def test_cli_name_held_by_a_directory_is_exit_1_before_any_task(
        tmp_path, capsys, monkeypatch, held):
    # os.replace cannot put a file where a directory is. A directory at
    # plans.csv let a rerun run every task and rename its rates.csv in
    # beside the earlier manifest; one at manifest.json.part failed only
    # once every task had run; both ended in a traceback
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    out = tmp_path / "out"
    argv = ["run", "--scenario", "rate_vs_blocklength", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    path = out / held
    if path.exists():
        path.unlink()
    path.mkdir()
    (path / "keep").write_text("keep")
    before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
    fn, headers = SCENARIOS["rate_vs_blocklength"]
    calls = []

    def counted(cfg, reals, helper):
        calls.append(reals)
        return fn(cfg, reals, helper)

    monkeypatch.setitem(SCENARIOS, "rate_vs_blocklength", (counted, headers))
    code = main(argv + ["--seed", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: cannot write tables")
    assert held in err and "Traceback" not in err
    assert calls == []
    assert {p.name: p.read_bytes() for p in out.iterdir()
            if p.is_file()} == before
    assert sorted(p.name for p in out.iterdir()) == sorted([*before, held])
    assert (path / "keep").read_text() == "keep"


def test_cli_full_disk_while_rows_stream_is_exit_1(tmp_path, capsys,
                                                   monkeypatch):
    # the disk fills on the first row written after the two headers: one
    # stderr line and exit 1, where main once ended in a traceback, and the
    # earlier run's files keep their bytes
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    out = tmp_path / "out"
    argv = ["run", "--scenario", "rate_vs_blocklength", "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    write_csv = expcli._write_csv
    writes = []

    def disk_fills(f, digest, data):
        writes.append(data)
        if len(writes) > 2:
            raise OSError(28, "No space left on device")
        write_csv(f, digest, data)

    monkeypatch.setattr(expcli, "_write_csv", disk_fills)
    code = main(argv + ["--seed", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("os error: ") and "No space left on device" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert len(writes) == 3
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
