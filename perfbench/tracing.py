"""Span tracer that wraps fblink's functions from outside the package.

Every module-level function of every layer module, public or private, is
replaced at every module attribute that refers to it by a wrapper that
records one span: name, start, end and parent. Patching by identity across
all modules catches the names a caller imported directly
(``codec.cn_sample``, ``source_coding.plan_blocklength``, ``substream`` in
``expcli``, ``hfl`` and ``datasets``), not only the attribute of the defining
module. Two lookups go through something other than a module attribute and
are patched as well: the scenario bodies ``expcli.run_scenario`` reaches
through the ``expcli.SCENARIOS`` dict, and the ``transmit`` closure that
``expcli.coded_transmitter`` returns and ``hfl.train`` calls, which is traced
as ``expcli.transmit``. Spans live in flat arrays until the traced call ends;
then `summary` turns them into per-function and per-layer time, self time
and exact counts.

A handful of wrappers also count work from the arguments or the result:
blocks, uses, noise samples, alias events, block errors, quantized
coordinates, chunks and infeasible chunk plans.
"""

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("analysis", "channel", "codec", "source_coding", "adversary", "mlp",
          "hfl", "datasets", "streams", "expcli")

# Lookup sites that import a function by name from another module;
# Patched.__enter__ asserts each one was patched.
CROSS_MODULE_SITES = (
    ("codec", "cn_sample"), ("codec", "aliasing_budget"),
    ("codec", "derotate"), ("source_coding", "plan_blocklength"),
    ("adversary", "derotate"), ("expcli", "substream"),
    ("expcli", "sample_realization"), ("hfl", "substream"),
    ("datasets", "substream"))

# Helpers called once per value (a CSV cell, a scalar rate evaluation); a
# span each would cost more than the work it measures, so their time stays
# in the caller's self time.
UNTRACED = ("expcli._fmt", "analysis._validated")

# Wrappers that also wrap the function their traced call returns.
RESULT_SPANS = {"expcli.coded_transmitter": "expcli.transmit"}

_MARK = "__perfbench_traced__"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _n_items(size):
    if size is None:
        return 1
    return int(np.prod(size))


def _count_cn_sample(counts, args, kwargs, result, dur):
    counts["channel.cn_sample.samples"] += _n_items(
        _arg(args, kwargs, 2, "size"))


def _count_draw_block_noise(counts, args, kwargs, result, dur):
    counts["codec.draw_block_noise.blocks"] += int(_arg(args, kwargs, 1, "n"))


def _count_run_block_batch(counts, args, kwargs, result, dur):
    blocks = len(result.dec_r)
    uses = blocks * _arg(args, kwargs, 0, "sched").n_t
    if _arg(args, kwargs, 9, "eta_eve") is not None:
        kind = "eve"
    elif _arg(args, kwargs, 10, "record", False):
        kind = "record"
    else:
        kind = None
    counts["codec.run_block_batch.blocks"] += blocks
    counts["codec.run_block_batch.uses"] += uses
    if kind:
        counts["codec.run_block_batch.%s.uses" % kind] += uses
        counts["codec.run_block_batch.%s.ns" % kind] += int(dur * 1e9)
    counts["codec.alias_events"] += int(result.alias_events.sum())
    counts["codec.block_errors"] += int(result.error.sum())


def _count_quantize(counts, args, kwargs, result, dur):
    counts["source_coding.quantize.coords"] += result.n_coords


def _count_chunk(counts, args, kwargs, result, dur):
    if result is None:
        counts["source_coding.chunk.infeasible"] += 1
    else:
        counts["source_coding.chunks"] += len(result)


def _count_attack(counts, args, kwargs, result, dur):
    counts["adversary.attack_full_sequence.blocks"] += len(result[0])


HOOKS = {
    "channel.cn_sample": _count_cn_sample,
    "codec.draw_block_noise": _count_draw_block_noise,
    "codec.run_block_batch": _count_run_block_batch,
    "source_coding.quantize": _count_quantize,
    "source_coding.chunk": _count_chunk,
    "adversary.attack_full_sequence": _count_attack,
}

# Counts that must repeat exactly at a fixed seed. The ".ns" entries written
# by _count_run_block_batch are times and are kept out of this set.
EXACT_COUNTS = (
    "channel.cn_sample.samples", "codec.draw_block_noise.blocks",
    "codec.run_block_batch.blocks", "codec.run_block_batch.uses",
    "codec.alias_events", "codec.block_errors",
    "source_coding.quantize.coords", "source_coding.chunk.infeasible",
    "source_coding.chunks", "adversary.attack_full_sequence.blocks")


# Per-layer metrics: name and unit. Times are seconds per traced call of
# run_scenario; "count" values are integers that repeat exactly at a seed.
PER_LAYER = (
    ("analysis.q_inv.calls", "count"), ("analysis.q_inv.s", "s"),
    ("analysis.achievable_rate.calls", "count"),
    ("analysis.achievable_rate.self_s", "s"),
    ("analysis.plan_blocklength.calls", "count"),
    ("analysis.plan_blocklength.s", "s"),
    ("analysis.plan_blocklength.evals_per_plan", "evals/plan"),
    ("channel.cn_sample.samples", "count"), ("channel.cn_sample.s", "s"),
    ("channel.sample_realization.calls", "count"),
    ("codec.draw_block_noise.blocks", "count"),
    ("codec.draw_block_noise.s", "s"),
    ("codec.run_block_batch.blocks", "count"),
    ("codec.run_block_batch.uses", "count"),
    ("codec.run_block_batch.s", "s"),
    ("codec.run_block_batch.record.ns_per_use", "ns"),
    ("codec.run_block_batch.eve.ns_per_use", "ns"),
    ("codec.alias_events", "count"), ("codec.block_errors", "count"),
    ("codec.build_schedule.calls", "count"),
    ("source_coding.quantize.coords", "count"),
    ("source_coding.quantize.s", "s"), ("source_coding.dequantize.s", "s"),
    ("source_coding.chunk.calls", "count"), ("source_coding.chunk.s", "s"),
    ("source_coding.chunk.infeasible", "count"),
    ("source_coding.chunks", "count"),
    ("adversary.attack_full_sequence.blocks", "count"),
    ("adversary.attack_full_sequence.s", "s"),
    ("mlp.loss_and_grad.calls", "count"), ("mlp.loss_and_grad.s", "s"),
    ("mlp.accuracy.s", "s"),
    ("hfl.train.self_s", "s"), ("hfl.add_ldp_noise.s", "s"),
    ("datasets.load_dataset.s", "s"),
    ("streams.substream.calls", "count"), ("streams.substream.s", "s"),
    ("expcli.run_scenario.self_s", "s"), ("expcli.scenario.self_s", "s"),
    ("expcli._write_csv.s", "s"), ("expcli.transmit.self_s", "s"),
    ("expcli._send_bits.self_s", "s"), ("expcli.csv_bytes", "bytes"),
) + tuple(("layer.%s.%s" % (layer, field), "s")
          for layer in LAYERS for field in ("busy_s", "self_s")) + (
    ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
)

# Units whose values derive from integers only and must repeat exactly.
EXACT_UNITS = ("count", "bytes", "evals/plan")


def per_layer_values(summary, csv_bytes):
    """Map one traced call's summary onto the PER_LAYER names, except
    trace.overhead_ratio, which needs untraced calls too."""
    counts = summary["counts"]
    funcs = summary["funcs"]
    out = {}
    for name, _ in PER_LAYER:
        head, field = name.rsplit(".", 1)
        if name in EXACT_COUNTS:
            out[name] = counts.get(name, 0)
        elif head.startswith("layer."):
            out[name] = summary["layers"][head[len("layer."):]][field]
        elif field in ("calls", "s", "self_s"):
            out[name] = funcs.get(head, {}).get(field, 0)
    plans = out["analysis.plan_blocklength.calls"]
    out["analysis.plan_blocklength.evals_per_plan"] = \
        summary["evals_in_plans"] / plans if plans else 0.0
    for kind in ("record", "eve"):
        uses = counts.get("codec.run_block_batch.%s.uses" % kind, 0)
        out["codec.run_block_batch.%s.ns_per_use" % kind] = \
            counts["codec.run_block_batch.%s.ns" % kind] / uses if uses \
            else 0.0
    out["expcli.scenario.self_s"] = sum(
        f["self_s"] for name, f in funcs.items()
        if name.startswith("expcli._scn_"))
    out["expcli.csv_bytes"] = csv_bytes
    out["trace.spans"] = summary["spans"]
    return out


class Tracer:
    """Records spans of wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self.counts = Counter()

    def wrap(self, name, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        hook = HOOKS.get(name)
        result_span = RESULT_SPANS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            stack = tracer._stack
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_end.append(0.0)
            stack.append(idx)
            t0 = time.perf_counter()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.span_end[idx] = t1
                stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result, t1 - t0)
            if result_span is not None:
                result = tracer.wrap(result_span, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def summary(self):
        """Per-span-name calls, inclusive and self seconds; per-layer busy
        and self seconds; how many achievable_rate spans ran directly inside
        plan_blocklength."""
        n = len(self.span_name)
        names = np.asarray(self.span_name)
        parent = np.asarray(self.span_parent)
        dur = np.asarray(self.span_end) - np.asarray(self.span_start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=n)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        layer_of = np.array([LAYERS.index(s.split(".")[0]) for s in self.names]
                            or [0], dtype=np.int64)
        span_layer = layer_of[names]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)],
                                -1)
        entry = parent_layer != span_layer
        busy = np.bincount(span_layer[entry], weights=dur[entry],
                           minlength=len(LAYERS))
        layer_self = np.bincount(span_layer, weights=self_time,
                                 minlength=len(LAYERS))
        funcs = {name: {"calls": int(calls[i]), "s": float(total[i]),
                        "self_s": float(own[i])}
                 for i, name in enumerate(self.names)}
        layers = {layer: {"busy_s": float(busy[i]),
                          "self_s": float(layer_self[i])}
                  for i, layer in enumerate(LAYERS)}
        evals_in_plans = 0
        if "analysis.achievable_rate" in self._ids \
                and "analysis.plan_blocklength" in self._ids:
            is_rate = names == self._ids["analysis.achievable_rate"]
            in_plan = np.zeros(n, dtype=bool)
            in_plan[has_parent] = names[parent[has_parent]] \
                == self._ids["analysis.plan_blocklength"]
            evals_in_plans = int((is_rate & in_plan).sum())
        return {"spans": n, "funcs": funcs, "layers": layers,
                "evals_in_plans": evals_in_plans,
                "counts": dict(self.counts)}


def _own_functions(layer, module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and "%s.%s" % (layer, name) not in UNTRACED}


class Patched:
    """Context manager: wraps every layer function at every lookup site on
    entry and puts every original back on exit."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules  # layer name -> module object
        self._undo = []

    def __enter__(self):
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in _own_functions(layer, mod).items():
                wrappers[fn] = self.tracer.wrap("%s.%s" % (layer, name), fn)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((vars(mod), name, obj))
                    setattr(mod, name, wrappers[obj])
        scenarios = self.modules["expcli"].SCENARIOS
        for name, (fn, headers) in list(scenarios.items()):
            self._undo.append((scenarios, name, (fn, headers)))
            scenarios[name] = (wrappers[fn], headers)
        missed = [site for site in CROSS_MODULE_SITES
                  if not getattr(getattr(self.modules[site[0]], site[1]),
                                 _MARK, False)]
        if missed:
            self.__exit__(None, None, None)
            raise RuntimeError("lookup sites left unpatched: %s" % missed)
        return self

    def __exit__(self, *exc):
        for namespace, name, obj in reversed(self._undo):
            namespace[name] = obj
        self._undo = []
        leftover = ["%s.%s" % (mod.__name__, name)
                    for mod in self.modules.values()
                    for name, obj in vars(mod).items()
                    if getattr(obj, _MARK, False)]
        leftover += ["expcli.SCENARIOS[%r]" % name for name, (fn, _)
                     in self.modules["expcli"].SCENARIOS.items()
                     if getattr(fn, _MARK, False)]
        if leftover:
            raise RuntimeError("wrappers left after restore: %s" % leftover)
        return False
