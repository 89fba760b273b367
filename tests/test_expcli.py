import csv
import itertools
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from fblink import analysis, codec, expcli, source_coding
from fblink.channel import Realization
from fblink.expcli import (SCENARIOS, ConfigError, InfeasibleError,
                           SystemConfig, _ordered, _pack_group, _send_bits,
                           _unpack_group, _worker_count, coded_transmitter,
                           main, parse_config, run_scenario)
from fblink.streams import substream

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
    with pytest.raises(ConfigError, match="tau"):
        parse_config(None, tau=2.0)
    with pytest.raises(ConfigError, match="realizations"):
        parse_config(None, realizations=0)
    with pytest.raises(ConfigError, match="n_train"):
        parse_config(None, n_train=5, n_users=10)


# ---------------------------------------------------------------------
# Vectorized bit packing
# ---------------------------------------------------------------------


def test_pack_group_matches_scalar_packer():
    # reference: each half of a row read as a binary numeral, MSB first,
    # with the extra bit of an odd row on R
    def scalar(bits):
        return int("".join(map(str, bits)) or "0", 2)

    rng = substream(21, 0)
    for n_bits in (1, 2, 3, 8, 20, 41, 80):
        mat = rng.integers(0, 2, size=(50, n_bits), dtype=np.uint8)
        w_r, w_i, b_r, b_i = _pack_group(mat)
        assert (b_r, b_i) == ((n_bits + 1) // 2, n_bits // 2)
        for row in range(len(mat)):
            assert int(w_r[row]) == scalar(mat[row, :b_r])
            assert int(w_i[row]) == scalar(mat[row, b_r:])


def test_pack_group_roundtrip():
    rng = substream(21, 1)
    for n_bits in (1, 33, 80):
        mat = rng.integers(0, 2, size=(200, n_bits), dtype=np.uint8)
        w_r, w_i, b_r, b_i = _pack_group(mat)
        np.testing.assert_array_equal(_unpack_group(w_r, w_i, b_r, b_i), mat)


# ---------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------

# a rotated channel that carries full chunks at the default config
ROTATED = Realization(0.9 - 0.4j, 1.1 + 0.3j, 0.3 + 0.2j, -0.5 + 1.0j)


@pytest.mark.parametrize("n_bits", [1, 79, 80, 81, 239, 400])
def test_send_bits_roundtrip(n_bits):
    cfg = SystemConfig()
    bits = substream(31, n_bits).integers(0, 2, n_bits, dtype=np.uint8)
    groups = source_coding.chunk(n_bits, cfg.snr, cfg.snr_fb,
                                 ROTATED.gain_fwd, ROTATED.gain_fb, cfg.tau,
                                 cfg.n_max)
    dec, eve, link = _send_bits(bits, groups, ROTATED, cfg, cfg.noise_spec(),
                                (7, 0, 0), capture_eve=True)
    assert link["n_chunks"] == math.ceil(n_bits / source_coding.MAX_CHUNK_BITS)
    assert link["n_t_max"] == max(g.n_t for g in groups)
    assert dec.shape == eve.shape == bits.shape
    assert dec.dtype == eve.dtype == np.uint8
    assert set(np.unique(eve)) <= {0, 1}
    # at tau = 1e-3 every chunk of this seed decodes
    assert link["chunk_errors"] == 0
    np.testing.assert_array_equal(dec, bits)


def _transmit_round(transmit, cfg):
    agg = substream(32, 0).normal(size=200)
    source_var = cfg.s_total * cfg.sigma_w2_max + cfg.n_users * cfg.sigma2
    return transmit(agg, 0, source_var)


def test_pinned_channel_in_outage_is_infeasible():
    cfg = SystemConfig(seed=5)
    outage = Realization(1.0 + 0j, 0.01 + 0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(InfeasibleError, match="pinned channel"):
        _transmit_round(coded_transmitter(cfg, 0, outage), cfg)
    _, _, stats = _transmit_round(coded_transmitter(cfg, 0, ROTATED), cfg)
    assert stats["redraws"] == 0 and stats["gain_fwd"] == ROTATED.gain_fwd


def test_round_secrecy_stats_are_the_analysis_bound():
    # the round's c_e and delta_round are the analysis helpers at its channel
    cfg = SystemConfig(seed=5)
    _, _, stats = _transmit_round(coded_transmitter(cfg, 0, ROTATED), cfg)
    assert stats["gain_eve"] == ROTATED.gain_eve
    assert stats["c_e"] == analysis.eve_capacity_bits(
        ROTATED.gain_eve, cfg.power, cfg.sigma_e2)
    assert stats["delta_round"] == analysis.secrecy_level_bound(
        stats["accounted_bits"], ROTATED.gain_eve, cfg.power, cfg.sigma_e2)
    assert 0.0 < stats["delta_round"] < 1.0


def test_redraws_count_failed_candidates(monkeypatch):
    cfg = SystemConfig(seed=5)
    outage = Realization(1.0 + 0j, 0.01 + 0j, 1.0 + 0j, 1.0 + 0j)
    draws = iter([outage, outage, ROTATED])
    monkeypatch.setattr(expcli, "sample_realization",
                        lambda rng: next(draws))
    _, _, stats = _transmit_round(coded_transmitter(cfg, 0), cfg)
    assert stats["redraws"] == 2 and stats["gain_fwd"] == ROTATED.gain_fwd
    draws = iter([outage] * 3)
    with pytest.raises(InfeasibleError, match="no feasible channel in 3"):
        _transmit_round(coded_transmitter(replace(cfg, max_redraws=3), 0),
                        cfg)


def test_scenario_cells_are_int_float_or_str():
    # the csv module writes exactly these three types as intended, floats by
    # repr; a bool would print as True and a numpy float as np.float64(...)
    small = dict(n_blocks=2000, n_rounds=2, n_train=100, n_test=50,
                 n_t_max_scan=4, sweep_points=3)
    runs = [(name, parse_config(None, **small)) for name in SCENARIOS]
    # the infeasible codec_validation row has its own cells
    runs.append(("codec_validation",
                 parse_config(None, snr_db=-20.0, **small)))
    for name, cfg in runs:
        fn, headers = SCENARIOS[name]
        tables = fn(cfg, 0)
        assert set(tables) == set(headers)
        for table, rows in tables.items():
            assert rows
            for row in rows:
                assert len(row) == len(headers[table])
                bad = [(col, type(v)) for col, v in zip(headers[table], row)
                       if type(v) not in (int, float, str)]
                assert not bad, (name, table, bad)
    (row,) = SCENARIOS["codec_validation"][0](runs[-1][1], 0)[
        "codec_validation.csv"]
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
    # 9 tasks overrun the pool's window of 2 per worker
    cfg = parse_config(None, realizations=9, n_t_max_scan=6, payload_bits=10)
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    serial = run_scenario(cfg, "rate_vs_blocklength", str(tmp_path / "serial"))
    monkeypatch.setenv("FBLINK_WORKERS", "2")
    pool = run_scenario(cfg, "rate_vs_blocklength", str(tmp_path / "pool"))
    for name in ("rates.csv", "plans.csv"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "pool" / name).read_bytes())
    assert serial["files"] == pool["files"]
    assert pool["files"]["plans.csv"]["rows"] == 9
    rows = read_csv(tmp_path / "pool" / "rates.csv")
    assert len(rows) == 9 * 6
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
    # the third task raises after two tasks' rows were streamed; the tables
    # of an earlier run in the same directory survive untouched
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    cfg = parse_config(None, realizations=4, n_t_max_scan=3)
    out = tmp_path / "out"
    run_scenario(cfg, "rate_vs_blocklength", str(out))
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["manifest.json", "plans.csv", "rates.csv"]
    fn, headers = SCENARIOS["rate_vs_blocklength"]

    def third_task_fails(cfg, r_idx):
        if r_idx == 2:
            raise InfeasibleError("task 2")
        return fn(cfg, r_idx)

    monkeypatch.setitem(SCENARIOS, "rate_vs_blocklength",
                        (third_task_fails, headers))
    with pytest.raises(InfeasibleError, match="task 2"):
        run_scenario(replace(cfg, seed=7), "rate_vs_blocklength", str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_worker_count_parsing_and_clamp():
    assert _worker_count({}, 8) == 1
    assert _worker_count({"FBLINK_WORKERS": "2"}, 8) == 2
    assert _worker_count({"FBLINK_WORKERS": "64"}, 2) == 2
    assert _worker_count({"FBLINK_WORKERS": "0"}, 8) == 1
    assert _worker_count({"FBLINK_WORKERS": "-3"}, 8) == 1
    assert _worker_count({"FBLINK_WORKERS": "4"}, None) == 1
    for bad in ("two", "", "1.5"):
        with pytest.raises(ConfigError, match="FBLINK_WORKERS"):
            _worker_count({"FBLINK_WORKERS": bad}, 8)


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


@pytest.mark.filterwarnings("error")
def test_codec_validation_every_block_aliasing(tmp_path):
    # a loose tau folds every block: no clean block is left to estimate the
    # error variance from, so that cell stays empty
    cfg = parse_config(None, fixed_gains=1, n_t=10, tau=0.9, n_blocks=1,
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
    # interval decode is below float64 resolution, so no block is run
    cfg = parse_config(None, fixed_gains=1, n_t=n_t, n_blocks=200)
    run_scenario(cfg, "codec_validation", str(tmp_path))
    (row,) = read_csv(tmp_path / "codec_validation.csv")
    assert int(row["feasible"]) == feasible
    if feasible:
        assert int(row["bits_per_sub"]) == codec.MAX_SUB_CHANNEL_BITS
        assert row["outage_reason"] == ""
    else:
        assert row["outage_reason"] == "exceeds_sub_channel_bits"
        assert [row[k] for k in ("bits_per_sub", "n_blocks")] == ["0", "0"]
        assert all(row[k] == "" for k in (
            "err_rate", "alias_rate", "power_fwd_ratio", "power_fb_ratio",
            "max_var_dev"))


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


@pytest.mark.parametrize("text,key", [
    ('{"n_t_max_scan": 1e400}', "n_t_max_scan"),
    ('{"snr_db": "nan"}', "snr_db"),
    ('{"sigma2": Infinity}', "sigma2"),
    ('{"snr_db": 1e6}', "snr_db"),
    ('{"snr_fb_db": -1e6}', "snr_fb_db"),
    ('{"snr_db": true}', "snr_db"),
    ('{"tau": false}', "tau"),
    ('{"payload_bits": 0}', "payload_bits"),
])
def test_cli_bad_value_is_exit_1(tmp_path, capsys, text, key):
    p = tmp_path / "cfg.json"
    p.write_text(text)
    code = main(["run", "--scenario", "rate_vs_blocklength", "--config",
                 str(p), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("defect,message", [
    ("magic", "magic"), ("truncated", "truncated"), ("short", "n_train"),
    ("missing", "not found"), ("partial", "t10k-labels-idx1-ubyte")])
def test_cli_bad_data_dir_is_exit_1(tmp_path, capsys, defect, message):
    # 100 rows under the default n_train of 1000 would train on 100 while
    # the quantizer is sized for 1000; a missing directory, or one holding
    # three of the four files, would run the synthetic mixture instead
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(100, 28, 28), dtype=np.uint8)
    labs = rng.integers(0, 10, size=100, dtype=np.uint8)
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
