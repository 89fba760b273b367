import csv
import json
import math

import numpy as np
import pytest

from fblink.codec import pack_message
from fblink.expcli import (ConfigError, SystemConfig, _fmt, _pack_group,
                           _unpack_group, _worker_count, main, parse_config,
                           run_scenario)
from fblink.streams import substream


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
    rng = substream(21, 0)
    for n_bits in (1, 2, 3, 8, 20, 41):
        mat = rng.integers(0, 2, size=(50, n_bits), dtype=np.uint8)
        w_r, w_i, b_r, b_i = _pack_group(mat)
        for row in range(len(mat)):
            sr, si, sbr, sbi = pack_message(mat[row])
            assert (int(w_r[row]), int(w_i[row])) == (sr, si)
            assert (b_r, b_i) == (sbr, sbi)


def test_pack_group_roundtrip():
    rng = substream(21, 1)
    mat = rng.integers(0, 2, size=(200, 33), dtype=np.uint8)
    w_r, w_i, b_r, b_i = _pack_group(mat)
    np.testing.assert_array_equal(_unpack_group(w_r, w_i, b_r, b_i), mat)


def test_fmt_csv_cell_types():
    assert _fmt(True) == 1
    assert _fmt(np.bool_(False)) == 0
    assert _fmt(np.int64(3)) == 3
    assert _fmt(0.1) == repr(0.1)
    assert _fmt("text") == "text"


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
    cfg = parse_config(None, realizations=3, n_t_max_scan=6, payload_bits=10)
    monkeypatch.setenv("FBLINK_WORKERS", "1")
    run_scenario(cfg, "rate_vs_blocklength", str(tmp_path / "serial"))
    monkeypatch.setenv("FBLINK_WORKERS", "3")
    run_scenario(cfg, "rate_vs_blocklength", str(tmp_path / "pool"))
    for name in ("rates.csv", "plans.csv"):
        assert ((tmp_path / "serial" / name).read_bytes()
                == (tmp_path / "pool" / name).read_bytes())
    rows = read_csv(tmp_path / "pool" / "rates.csv")
    assert len(rows) == 3 * 6
    assert [int(r["realization"]) for r in rows] == sorted(
        int(r["realization"]) for r in rows)


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


def test_cli_infeasible_is_exit_2(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_max": 2, "max_redraws": 5, "n_train": 50,
                             "n_test": 10, "n_rounds": 1}))
    code = main(["run", "--scenario", "secrecy_level_vs_round",
                 "--config", str(p), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "infeasible" in capsys.readouterr().err
