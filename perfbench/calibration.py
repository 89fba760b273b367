"""Fixed kernels that measure how fast the host runs at the moment.

On a shared host the speed of both vCPUs drifts together, by up to 2x over
tens of seconds, and a run of the benchmark sees whichever phase it lands
in. worker.py therefore times a workload's kernels before its first call
and after every call, and run.py scales each call's wall and CPU time by
``ref_s / (mean of the two kernel times around the call)``. The kernels are
the benchmark's own fixed code: a change to fblink moves the scaled time as
much as the raw one, while a slower host slows the kernel and the call
alike and cancels out. Each workload uses the kernel closest to its own
work: scalar Python math for the planner, numpy vector work for the block
engine. Federated training uses none: its 15-s calls agree within a few
percent inside a run, and on the same 20 runs the two kernels together
widened its quartile spread (0.121 and 0.206 scaled, 0.106 and 0.143 raw),
because a 0.5-s kernel catches more of the host's second-to-second jitter
than a 15-s call does.
"""

import math
import time

import numpy as np


def python_kernel():
    x = 0.0
    for i in range(1, 400001):
        x += math.sqrt(i) * math.log(i + 1.0) + math.erfc(i * 1e-6)
    return x


def numpy_kernel():
    rng = np.random.default_rng(7)
    s = 0.0
    for _ in range(20):
        a = rng.standard_normal(250_000)
        s += float(np.mod(a * 3.7, 2.0).sum())
    return s


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}

# About the median seconds each kernel took on the host the first baseline
# was recorded on (Intel Xeon, Sapphire Rapids, 2 vCPU under KVM). Scaled
# times are seconds on a host that runs the kernels this fast.
REF_S = {"python": 0.20, "numpy": 0.30}


def measure(names):
    """Seconds the named kernels take, run back to back."""
    t0 = time.perf_counter()
    for name in names:
        KERNELS[name]()
    return time.perf_counter() - t0


def scale(names, cal_s):
    """Factor that takes a time measured between kernel runs averaging
    cal_s seconds to the reference host; 1 for a workload without kernels."""
    return sum(REF_S[name] for name in names) / cal_s if names else 1.0
