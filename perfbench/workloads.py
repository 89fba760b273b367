"""The pinned benchmark workloads and the output checks that decide whether a
call of `run_scenario` failed.

Every workload is one fblink scenario plus config overrides; the seed is the
only other input and is written into the config by run.py. Each workload also
names the spans a traced run of it must record, so a tracer that missed a
lookup site fails loudly instead of reporting zeros.

The checks read only the CSV bytes the scenario wrote. They come from the
acceptance claims in tests/test_acceptance.py (c01, c02, c04, c07) and from
the planner's documented first-hit search. Each returns (problems, notes):
a problem fails the call, a note is only reported. The one note is c07's
eavesdropper bound away from the run the acceptance test asserts it on
(seed 2026, 30 rounds, realization 0): there it is counted, elsewhere it is
reported, because at this package version it is exceeded at most other
seeds (0.23 at seed 3, 0.32 at seed 7).
"""

import csv
import io
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    config: dict
    quick_config: dict
    check: object
    required_spans: tuple
    calibration: tuple


def _rows(files, name):
    return list(csv.DictReader(io.StringIO(files[name].decode("utf-8"))))


def check_planner_scan(cfg, files):
    """Every feasible plan is the first n_t >= 2 of its rates.csv scan whose
    total_bits covers the payload, whenever that n_t lies inside the scan;
    an infeasible plan has no such n_t in the scan at all."""
    problems = []
    rates = _rows(files, "rates.csv")
    plans = _rows(files, "plans.csv")
    n_real, n_scan = cfg["realizations"], cfg["n_t_max_scan"]
    if len(plans) != n_real or len(rates) != n_real * n_scan:
        return ["row counts: %d plans, %d rates for %d realizations"
                % (len(plans), len(rates), n_real)], []
    by_real = {}
    for r in rates:
        by_real.setdefault(r["realization"], []).append(r)
    payload = cfg["payload_bits"]
    for p in plans:
        hit = next((r for r in by_real[p["realization"]]
                    if int(r["n_t"]) >= 2 and r["feasible"] == "1"
                    and float(r["total_bits"]) >= payload), None)
        n_t = int(p["n_t"])
        if p["feasible"] == "1" and n_t <= n_scan:
            ok = hit is not None and int(hit["n_t"]) == n_t \
                and hit["rate_bits_per_use"] == p["rate_bits_per_use"]
        else:
            ok = hit is None
        if not ok:
            problems.append("realization %s: plan n_t=%s feasible=%s, scan "
                            "first hit %s" % (p["realization"], p["n_t"],
                                              p["feasible"],
                                              hit and hit["n_t"]))
    return problems[:5], []


def check_codec_mc(cfg, files):
    """c01: error rate in [tau/100, tau]; c02: variance deviation <= 5%;
    c04: forward and feedback power ratios within 2% of 1."""
    problems = []
    tau = cfg["tau"]
    rows = _rows(files, "codec_validation.csv")
    if len(rows) != cfg["realizations"]:
        return ["%d rows for %d realizations" % (len(rows),
                                                 cfg["realizations"])], []
    for r in rows:
        tag = "realization %s" % r["realization"]
        if r["feasible"] != "1":
            problems.append("%s: infeasible (%s)" % (tag, r["outage_reason"]))
            continue
        err = float(r["err_rate"])
        if not tau / 100.0 <= err <= tau:
            problems.append("%s: err_rate %r outside [tau/100, tau]"
                            % (tag, err))
        if float(r["max_var_dev"]) > 0.05:
            problems.append("%s: max_var_dev %s > 0.05"
                            % (tag, r["max_var_dev"]))
        for key in ("power_fwd_ratio", "power_fb_ratio"):
            if abs(float(r[key]) - 1.0) > 0.02:
                problems.append("%s: %s %s not within 2%% of 1"
                                % (tag, key, r[key]))
    return problems, []


# The learning_curves run of tests/test_acceptance.py: default config,
# whose realization 0 is the same run in any config with more realizations.
C07_EVE_RUN = {"seed": 2026, "n_rounds": 30, "realization": "0"}


def check_coded_fl(cfg, files):
    """c07: final coded accuracy within 0.02 of the baseline for every
    realization; eavesdropper model accuracy at most 0.15, counted on the
    acceptance run and a note on every other realization."""
    problems, notes = [], []
    last = cfg["n_rounds"] - 1
    final = {}
    for r in _rows(files, "learning_curves.csv"):
        if int(r["round"]) == last:
            final[(r["realization"], r["variant"])] = r
    reals = sorted({k[0] for k in final}, key=int)
    if len(reals) != cfg["realizations"]:
        return ["final rounds for %d of %d realizations"
                % (len(reals), cfg["realizations"])], []
    for real in reals:
        base = float(final[(real, "baseline")]["test_accuracy"])
        coded = float(final[(real, "coded")]["test_accuracy"])
        eve = float(final[(real, "coded")]["eve_accuracy"])
        if abs(coded - base) > 0.02:
            problems.append("realization %s: coded %.4f vs baseline %.4f"
                            % (real, coded, base))
        if eve > 0.15:
            counted = cfg["seed"] == C07_EVE_RUN["seed"] \
                and cfg["n_rounds"] == C07_EVE_RUN["n_rounds"] \
                and real == C07_EVE_RUN["realization"]
            (problems if counted else notes).append(
                "realization %s: eve accuracy %.4f > 0.15 (c07)" % (real, eve))
    return problems, notes


WORKLOADS = {w.name: w for w in (
    Workload(
        name="planner_scan",
        why="scalar closed-form planner: a 24-point rate scan plus a "
            "first-hit blocklength search per channel draw, many to n_max",
        scenario="rate_vs_blocklength",
        config={"realizations": 1000},
        quick_config={"realizations": 20},
        check=check_planner_scan,
        required_spans=(
            "analysis.q_inv", "analysis.achievable_rate",
            "analysis.aliasing_budget", "analysis.plan_blocklength",
            "analysis.latency_seconds", "channel.sample_realization",
            "channel.cn_sample", "streams.substream", "expcli.run_scenario",
            "expcli._scn_rate_vs_blocklength", "expcli._write_csv"),
        calibration=("python",),
    ),
    Workload(
        name="codec_mc",
        why="block engine on the record path and the noise draws at n_t=10 "
            "over a pinned unit channel; one planner call",
        scenario="codec_validation",
        config={"fixed_gains": 1, "n_t": 10, "n_blocks": 1000000},
        quick_config={"fixed_gains": 1, "n_t": 10, "n_blocks": 100000},
        check=check_codec_mc,
        required_spans=(
            "analysis.achievable_rate", "analysis.q_inv",
            "codec.build_schedule", "codec.build_constellation",
            "codec.draw_block_noise", "codec.run_block_batch",
            "codec.modulo_d", "channel.cn_sample", "channel.derotate",
            "streams.substream", "expcli.run_scenario",
            "expcli._scn_codec_validation", "expcli._write_csv"),
        calibration=("numpy",),
    ),
    Workload(
        name="coded_fl",
        why="federated training over the coded link with the eavesdropper "
            "tap: every layer, fresh channel and chunk plans each round",
        scenario="learning_curves",
        config={"realizations": 3},
        quick_config={"realizations": 1, "n_rounds": 10},
        check=check_coded_fl,
        required_spans=(
            "datasets.load_dataset", "datasets.synthetic_digits",
            "hfl.train", "hfl.local_gradient", "hfl.add_ldp_noise",
            "mlp.loss_and_grad", "mlp.accuracy", "source_coding.quantize",
            "source_coding.dequantize", "source_coding.chunk",
            "analysis.plan_blocklength", "analysis.achievable_rate",
            "analysis.q_inv", "analysis.secrecy_level_bound",
            "channel.sample_realization", "channel.cn_sample",
            "channel.derotate", "codec.build_schedule",
            "codec.draw_block_noise", "codec.run_block_batch",
            "adversary.attack_full_sequence", "streams.substream",
            "expcli.coded_transmitter", "expcli.transmit",
            "expcli._send_bits", "expcli._pack_group", "expcli._unpack_group",
            "expcli.run_scenario", "expcli._scn_learning_curves",
            "expcli._write_csv"),
        calibration=(),
    ),
)}
