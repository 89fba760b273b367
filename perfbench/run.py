"""fblink benchmark: three pinned scenario workloads, timed end to end with
tracing off, plus a separate traced run that breaks each workload down by
layer.

    python3 perfbench/run.py --workload planner_scan --seed 2026 --trace 0
    python3 perfbench/run.py --workload all   # every workload, both modes
    python3 perfbench/run.py --quick          # tiny sizes; checks every
                                              # declared metric and unit

Run it from anywhere; it locates the repository as the parent of its own
directory and imports fblink from ``src/`` there, never from an installed
copy. Each run starts fresh single-process interpreters with
``FBLINK_WORKERS=1`` and one BLAS thread: several that only import
``fblink.expcli`` and parse the config (``setup_s`` is their median), then
one that calls ``run_scenario`` until ``--seconds`` is used up (see
worker.py). ``wall_norm_s`` and ``cpu_norm_s`` are medians over the run's
calls, each call scaled to a reference host speed by the workload's
calibration kernels timed around it (calibration.py); the raw medians are
printed and recorded beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (tracing.py). A
call fails if it raises, fails its output checks (workloads.py), or writes
CSV bytes that differ from another call at the same seed. The full record of
a run, with the environment block, every call and every CSV sha256, goes to
``.perfbench_out/results/``.

Exit codes: 0 when the workload ran (``correct`` says whether its outputs
passed), 1 when a workload process crashed or ``--quick`` found a failed
call or a missing metric, 2 when the fblink sources are not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("cpu_norm_s", "s"),
              ("peak_rss_mb", "MiB"))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """A workload process could not run; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env["FBLINK_WORKERS"] = "1"
    # One BLAS thread: the calls then do not wait on a second core that the
    # host may be lending to someone else, and the CSV bytes (which depend on
    # the BLAS thread count) are the same on every machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _worker_cmd(wl, cfg_path, *extra):
    return [sys.executable, WORKER, "--root", ROOT, "--workload", wl,
            "--config", cfg_path, *extra]


def _setup_sample(wl, cfg_path, env):
    """Seconds from starting a fresh interpreter until it has imported
    fblink.expcli and parsed the config."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_worker_cmd(wl, cfg_path, "--setup-only"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up sample of %s timed out" % wl)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("set-up sample of %s failed:\n%s" % (wl, err))
    return t1 - t0


def _baseline_hashes(wl, seed):
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
            base = json.load(f)
    except (OSError, ValueError):
        return None
    return base.get("csv_sha256", {}).get(wl, {}).get(str(seed))


def run_workload(wl, seed, seconds, trace, quick):
    """One run of one workload; returns the full record of it."""
    started = time.perf_counter()
    w = WORKLOADS[wl]
    tag = "%s-seed%d%s" % (wl, seed, "-quick" if quick else "")
    work = os.path.join(OUT, tag)
    os.makedirs(work, exist_ok=True)
    cfg_path = os.path.join(work, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as f:
        json.dump(dict(w.quick_config if quick else w.config, seed=seed), f,
                  sort_keys=True)
    env = _child_env()

    setups = [_setup_sample(wl, cfg_path, env)
              for _ in range(1 if quick else SETUP_SAMPLES)]

    limit = max(10.0, RUN_LIMIT_S - (time.perf_counter() - started))
    cmd = _worker_cmd(wl, cfg_path, "--out",
                      os.path.join(work, "trace%d" % trace),
                      "--seconds", repr(float(seconds)),
                      "--trace", str(trace))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish within %.0f s" % (wl, limit))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s exited %d:\n%s" % (wl, proc.returncode,
                                                proc.stderr))
    rec = json.loads(lines[-1])
    calls = rec["calls"]
    untraced = [c for c in calls if c["mode"] == "untraced"]
    failed = sum(not c["ok"] for c in calls)
    if trace:
        metrics = {name: {"value": rec["per_layer"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER} \
            if rec["per_layer"] else {}
        if metrics:
            metrics["fail_ratio"] = {"value": failed / len(calls),
                                     "unit": "ratio"}
    else:
        scales = [calibration.scale(w.calibration, c["cal_s"])
                  for c in untraced]
        values = {
            "setup_s": statistics.median(setups),
            "wall_norm_s": statistics.median(
                c["wall_s"] * k for c, k in zip(untraced, scales)),
            "cpu_norm_s": statistics.median(
                c["cpu_s"] * k for c, k in zip(untraced, scales)),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        rec["raw"] = {
            "wall_s": statistics.median(c["wall_s"] for c in untraced),
            "cpu_s": statistics.median(c["cpu_s"] for c in untraced),
            "cal_s": statistics.median(c["cal_s"] for c in untraced)}
    base = None if quick else _baseline_hashes(wl, seed)
    rec.update(
        seed=seed, seconds=seconds, quick=quick, setup_samples_s=setups,
        wall_samples=len(untraced), metrics=metrics,
        result={"correct": failed == 0 and bool(metrics),
                "attempted": len(calls), "failed": failed,
                "metrics": metrics},
        csv_vs_baseline="not recorded" if base is None
        else ("same" if base == rec["sha256"] else "changed"))
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", "%s-trace%d.json" % (tag, trace)),
              "w", encoding="utf-8") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
    return rec


def _report(rec):
    """Human-readable lines; the machine-readable result comes last."""
    res = rec["result"]
    print("== %s (%s) seed %d trace %d: %d calls, %d failed, fail_ratio %.3f"
          % (rec["workload"], rec["scenario"], rec["seed"], rec["trace"],
             res["attempted"], res["failed"],
             res["failed"] / max(res["attempted"], 1)))
    for c in rec["calls"]:
        for p in c["problems"]:
            print("   FAIL (%s call): %s" % (c["mode"], p))
        for n in c["notes"]:
            print("   note (%s call, not counted): %s" % (c["mode"], n))
    for name, m in list(res["metrics"].items()) + [
            (name, {"value": v, "unit": "s"})
            for name, v in rec.get("raw", {}).items()]:
        note = " (median of %d calls)" % rec["wall_samples"] \
            if name.startswith(("wall_", "cpu_", "cal_")) else ""
        print("   %-44s %14.6g %s%s" % (name, m["value"], m["unit"], note))
    print("   csv sha256: %s (against baseline.json: %s)"
          % (json.dumps(rec["sha256"]), rec["csv_vs_baseline"]))
    print("   env: %s" % json.dumps(rec["env"], sort_keys=True))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def run_all(seed, seconds, quick):
    """Every workload in both modes; metric names get a workload prefix."""
    recs = [run_workload(wl, seed, seconds, trace, quick)
            for wl in WORKLOADS for trace in (0, 1)]
    problems = []
    if quick:
        e2e, per_layer = _declared()
        for rec in recs:
            want = per_layer if rec["trace"] else e2e
            got = {n: m["unit"] for n, m in rec["metrics"].items()}
            if got != want:
                problems.append("%s trace %d: metrics %s, declared %s"
                                % (rec["workload"], rec["trace"],
                                   sorted(set(got) ^ set(want)) or got, want))
    for rec in recs:
        _report(rec)
    for p in problems:
        print("METRIC MISMATCH: %s" % p)
    metrics = {"%s.%s" % (r["workload"], n): m
               for r in recs for n, m in r["metrics"].items()}
    result = {"correct": all(r["result"]["correct"] for r in recs)
              and not problems,
              "attempted": sum(r["result"]["attempted"] for r in recs),
              "failed": sum(r["result"]["failed"] for r in recs),
              "metrics": metrics}
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                   default=None)
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="all workloads at tiny sizes, fewest calls, both "
                        "modes; checks every declared metric and unit")
    args = p.parse_args(argv)
    if not args.quick and args.workload is None:
        p.error("--workload is required without --quick")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "fblink", "expcli.py")):
        print("fblink sources not found under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    try:
        if args.quick or args.workload == "all":
            result = run_all(args.seed, 0.0 if args.quick else args.seconds,
                             args.quick)
        else:
            rec = run_workload(args.workload, args.seed, args.seconds,
                               args.trace, False)
            _report(rec)
            result = rec["result"]
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 1 if args.quick and not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
