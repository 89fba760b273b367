"""A generated sweep over the config surface: every scenario, every
SystemConfig field, extreme values, tiny sizes.

Each run ends in one of three ways: it succeeds with every float cell
finite outside the sentinel columns, or it raises ConfigError or
InfeasibleError. pytest turns a RuntimeWarning into an error, so a run
that warns on its way to any of these fails too.
"""

import csv
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fblink.expcli import (SCENARIO_NAMES, ConfigError, InfeasibleError,
                           SystemConfig, parse_config, run_scenario)

# the columns whose inf is a documented sentinel (README)
SENTINELS = {"psi1", "psi2", "latency_s", "c_e_bits", "mi_per_coord"}

# sizes that keep one run to milliseconds; rate_vs_blocklength needs a
# feasible plan among its realizations for the uses_per_second faults
TINY = {
    "rate_vs_blocklength": {"realizations": 3, "n_t_max_scan": 6},
    "codec_validation": {"n_blocks": 300},
    "secrecy_level_vs_round": {"n_train": 60, "n_test": 20, "n_users": 3,
                               "n_rounds": 2, "n_hidden": 3},
    "learning_curves": {"n_train": 60, "n_test": 20, "n_users": 3,
                        "n_rounds": 2, "n_hidden": 3},
    "privacy_utility_sweep": {"sweep_points": 4},
}

EXTREMES = {
    float: [-1.0, 0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-16, 0.5, 1.0,
            30.0, 300.0, -300.0, 3080.0, -3070.0, 1e10, 1e300, 1.7e307,
            1e308],
    int: [-1, 0, 1, 2, 3, 5],
    str: ["", "no-such-data-dir"],
}
FIELDS = {f.name: f.type for f in fields(SystemConfig)}


def overrides():
    """One to three fields, each set to an extreme of its type."""
    keys = st.lists(st.sampled_from(sorted(FIELDS)), min_size=1, max_size=3,
                    unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries(
        {k: st.sampled_from(EXTREMES[FIELDS[k]]) for k in ks}))


def non_finite_cells(out_dir):
    """(table, column, cell) of every non-finite float outside the
    sentinel columns."""
    bad = []
    for table in sorted(Path(out_dir).glob("*.csv")):
        with open(table, newline="") as f:
            for row in csv.DictReader(f):
                for col, cell in row.items():
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # text and empty cells
                    if not math.isfinite(value) and col not in SENTINELS:
                        bad.append((table.name, col, cell))
    return bad


@settings(max_examples=600, deadline=None, derandomize=True)
@given(scenario=st.sampled_from(SCENARIO_NAMES), config=overrides())
# the repros that the sweep was written for
@example(scenario="learning_curves", config={"lr": 1e300, "n_rounds": 1})
@example(scenario="secrecy_level_vs_round", config={"reg": 1e300})
@example(scenario="learning_curves", config={"sigma2": 1.7e307})
@example(scenario="rate_vs_blocklength", config={"uses_per_second": 5e-324})
@example(scenario="rate_vs_blocklength", config={"uses_per_second": 1e-310})
# psi1 is inf in outage rows at a subnormal feedback SNR
@example(scenario="rate_vs_blocklength",
         config={"snr_fb_db": -3070.0, "sigma1_2": 1e-10})
def test_every_config_ends_cleanly(scenario, config):
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as out:
        # in this process: a pool per example would cost more than the run
        mp.setenv("FBLINK_WORKERS", "1")
        try:
            run_scenario(parse_config(None, **dict(TINY[scenario], **config)),
                         scenario, out)
        except (ConfigError, InfeasibleError):
            return
        assert non_finite_cells(out) == []
