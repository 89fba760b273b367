"""Run one benchmark workload inside this fresh interpreter.

run.py starts this script once per set-up sample (``--setup-only``: import
``fblink.expcli``, parse the config, print ``ready``) and once per run. A run
calls ``expcli.run_scenario`` repeatedly until the next call would end after
``--seconds``, checks every call's outputs, and prints one JSON object as
its last line of output. With ``--trace 1`` the calls follow the order
untraced, traced, traced, untraced (repeated), so the tracing overhead is
measured against untraced calls made in the same process. Without tracing,
the workload's calibration kernels (calibration.py) run before the first
call and after every call, so each call has the host's speed on both sides
of it. The peak RSS is
read as soon as the first call returns, before any output check runs, so it
is the program's own high-water mark and not the checker's.
"""

import argparse
import json
import os
import sys
import time


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_fblink(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from fblink import expcli
    if not os.path.abspath(expcli.__file__).startswith(
            os.path.abspath(src) + os.sep):
        raise ImportError("fblink imported from %s, not from %s"
                          % (expcli.__file__, src))
    return expcli


def _blas_info():
    """BLAS build from numpy's config and the live OpenBLAS thread count."""
    import ctypes
    import numpy as np
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["build"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, AttributeError):
        info["build"] = "unknown"
    info["threads"] = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line and ".so" in line})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _source_digest(root):
    import hashlib
    h = hashlib.sha256()
    src = os.path.join(root, "src", "fblink")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _git_commit(root):
    import subprocess
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, cfg_dict):
    import platform
    import numpy as np
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "FBLINK_WORKERS": os.environ.get("FBLINK_WORKERS"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "seed": cfg_dict["seed"],
        "config": cfg_dict,
    }


def _read_outputs(out_dir, manifest):
    """CSV bytes by file name; a manifest hash that disagrees with the bytes
    on disk is a problem."""
    import hashlib
    files, problems = {}, []
    for name, info in manifest["files"].items():
        with open(os.path.join(out_dir, name), "rb") as f:
            files[name] = f.read()
        if hashlib.sha256(files[name]).hexdigest() != info["sha256"]:
            problems.append("%s: manifest sha256 differs from bytes" % name)
    return files, problems


def main(argv=None):
    args = _args(argv)
    expcli = _import_fblink(args.root)
    cfg = expcli.parse_config(args.config)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    import hashlib
    import resource
    from dataclasses import asdict

    import calibration
    import tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    cfg_dict = asdict(cfg)
    modules = {layer: sys.modules["fblink." + layer]
               for layer in tracing.LAYERS}
    tracer = tracing.Tracer() if args.trace else None

    def mode_of(i):
        if not args.trace:
            return "untraced"
        return "traced" if i % 4 in (1, 2) else "untraced"

    def enough(calls):
        modes = [c["mode"] for c in calls]
        if args.trace:
            return modes.count("untraced") >= 1 and modes.count("traced") >= 2
        return len(calls) >= 2

    calls = []
    first_hashes = {}
    peak_rss_mb = None
    start = time.perf_counter()
    cal_before = cal_after = 0.0
    if not args.trace:
        cal_before = calibration.measure(wl.calibration)
    while True:
        mode = mode_of(len(calls))
        if enough(calls):
            same = [c["wall_s"] for c in calls if c["mode"] == mode]
            guess = (same[-1] if same else calls[-1]["wall_s"]) + cal_before
            if time.perf_counter() - start + guess > args.seconds:
                break
        rec = {"mode": mode, "problems": [], "notes": []}
        if tracer is not None:
            tracer.reset()
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            if mode == "traced":
                with tracing.Patched(tracer, modules):
                    manifest = expcli.run_scenario(cfg, wl.scenario, args.out)
            else:
                manifest = expcli.run_scenario(cfg, wl.scenario, args.out)
        except Exception as e:  # a failed call is counted, the run goes on
            rec["problems"].append("raised %s: %s" % (type(e).__name__, e))
            manifest = None
        t1 = time.perf_counter()
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if peak_rss_mb is None:
            peak_rss_mb = r1.ru_maxrss / 1024.0
        rec["wall_s"] = t1 - t0
        rec["cpu_s"] = (r1.ru_utime - r0.ru_utime) \
            + (r1.ru_stime - r0.ru_stime)
        if not args.trace:
            cal_after = calibration.measure(wl.calibration)
            rec["cal_s"] = (cal_before + cal_after) / 2.0
            cal_before = cal_after
        if manifest is not None:
            files, problems = _read_outputs(args.out, manifest)
            rec["problems"] += problems
            problems, rec["notes"] = wl.check(cfg_dict, files)
            rec["problems"] += problems
            rec["sha256"] = {n: hashlib.sha256(b).hexdigest()
                             for n, b in sorted(files.items())}
            rec["csv_bytes"] = sum(len(b) for b in files.values())
            first_hashes = first_hashes or rec["sha256"]
            if rec["sha256"] != first_hashes:
                rec["problems"].append("CSV bytes differ from the first "
                                       "call at the same seed")
            if mode == "traced":
                summary = tracer.summary()
                missing = [s for s in wl.required_spans
                           if summary["funcs"].get(s, {}).get("calls", 0) == 0]
                if missing:
                    rec["problems"].append("spans with zero calls: %s"
                                           % missing)
                rec["layer"] = tracing.per_layer_values(summary,
                                                        rec["csv_bytes"])
        rec["ok"] = not rec["problems"]
        calls.append(rec)

    result = {
        "workload": wl.name,
        "scenario": wl.scenario,
        "trace": args.trace,
        "calls": calls,
        "sha256": first_hashes,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(args.root, cfg_dict),
    }
    if args.trace:
        result["per_layer"] = _per_layer(calls)
    print(json.dumps(result))
    return 0


def _per_layer(calls):
    """Median of each time over the traced calls; exact values taken from
    the first traced call after checking that every traced call repeats
    them; the overhead ratio from traced against untraced medians."""
    from statistics import median

    import tracing
    traced = [c for c in calls if c["mode"] == "traced" and "layer" in c]
    untraced = [c["wall_s"] for c in calls if c["mode"] == "untraced"]
    if not traced:
        return None
    out = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        values = [c["layer"][name] for c in traced]
        if unit in tracing.EXACT_UNITS:
            if any(v != values[0] for v in values):
                for c in traced:
                    c["problems"].append("%s differs across traced calls: %s"
                                         % (name, values))
                    c["ok"] = False
            out[name] = values[0]
        else:
            out[name] = median(values)
    out["trace.overhead_ratio"] = (
        median([c["wall_s"] for c in traced]) / median(untraced) - 1.0
        if untraced else 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
