"""Export lists: every advertised name resolves to an attribute."""

import importlib
import pkgutil

import pytest

import kphall

# __main__ runs the CLI on import and exports nothing.
MODULES = ["kphall"] + [
    f"kphall.{info.name}"
    for info in pkgutil.iter_modules(kphall.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
