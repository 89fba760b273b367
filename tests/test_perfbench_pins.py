"""What the benchmark harness pins of fblink's layout.

perfbench/ wraps fblink's functions by name from outside the package, so a
function that moves or is renamed shows up there only as failed traced
calls. These tests load perfbench/workloads.py and perfbench/tracing.py by
path, change neither, and hold fblink to the names and shapes they read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from fblink import codec, expcli, source_coding

from conftest import SNR, SNR_FB, TAU

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load("workloads").WORKLOADS
TRACING = load("tracing")


def own_function(layer, name):
    """The function fblink.<layer> defines under name, or None."""
    module = importlib.import_module("fblink." + layer)
    fn = getattr(module, name, None)
    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
        return fn
    return None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_required_spans_name_fblink_functions(workload):
    # a span that a result wrapper records is checked through the function
    # whose call returns it
    result_spans = {span: wrapper
                    for wrapper, span in TRACING.RESULT_SPANS.items()}
    missing = []
    for span in WORKLOADS[workload].required_spans:
        layer, name = span.split(".", 1)
        assert layer in TRACING.LAYERS, span
        if span not in result_spans and own_function(layer, name) is None:
            missing.append(span)
    assert missing == []


def test_transmit_is_what_coded_transmitter_returns():
    assert TRACING.RESULT_SPANS == {"expcli.coded_transmitter":
                                    "expcli.transmit"}
    transmit = expcli.coded_transmitter(expcli.parse_config(), 0)
    assert inspect.isfunction(transmit)
    assert transmit.__qualname__ == "coded_transmitter.<locals>.transmit"


def test_cross_module_sites_and_hooks_resolve_to_functions():
    for layer, name in TRACING.CROSS_MODULE_SITES:
        module = importlib.import_module("fblink." + layer)
        assert inspect.isfunction(getattr(module, name, None)), (layer, name)
    for span in TRACING.HOOKS:
        assert own_function(*span.split(".", 1)) is not None, span


def test_scenarios_are_pairs_of_an_expcli_body_and_headers():
    for name, entry in expcli.SCENARIOS.items():
        assert isinstance(entry, tuple) and len(entry) == 2, name
        fn, headers = entry
        assert own_function("expcli", fn.__name__) is fn, name
        assert headers and all(isinstance(h, tuple)
                               for h in headers.values()), name


def test_shapes_the_counters_read():
    # the chunk counter takes len() of chunk's result, or None in outage
    for bits in (0, 100):
        groups = source_coding.chunk(bits, SNR, SNR_FB, 1.0, 1.0, TAU, 256)
        assert isinstance(groups, list) and len(groups) == 1
        assert isinstance(groups[0], source_coding.ChunkGroup)
    assert source_coding.chunk(100, SNR, SNR_FB, 0.0, 1.0, TAU, 256) is None
    # the block counter takes len() of a batch's dec_r
    n = 3
    out = codec.BatchResult(dec=np.zeros((2, n), dtype=np.int64),
                            error=np.zeros(n, dtype=bool),
                            alias_events=np.zeros(n, dtype=np.int64))
    assert len(out.dec_r) == n
