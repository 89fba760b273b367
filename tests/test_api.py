"""Public surface: every module's __all__ names real attributes, once each."""

import importlib
import pkgutil

import pytest

import fblink

# __main__ runs the CLI on import; streams exports its constants without an
# __all__
MODULES = sorted(m.name for m in pkgutil.iter_modules(fblink.__path__)
                 if m.name not in ("__main__", "streams"))


def test_every_layer_module_is_covered():
    assert MODULES == ["adversary", "analysis", "channel", "codec",
                       "datasets", "expcli", "hfl", "mlp", "source_coding"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_duplicates(name):
    mod = importlib.import_module("fblink." + name)
    exported = mod.__all__
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(mod, n)]
    assert missing == []
