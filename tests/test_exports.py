"""Export lists: every advertised name resolves to an attribute."""

import importlib
import pkgutil
import sys

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


def test_package_exports_are_pinned():
    # A name leaves the public API only on purpose: update this list with it.
    assert kphall.__all__ == [
        "CampaignConfig",
        "GeneratorParams",
        "KPartiteHypergraph",
        "KphallError",
        "Matching",
        "alpha_prime",
        "analysis_jsonable",
        "analyze_instance",
        "analyze_matching",
        "build_hypergraph",
        "duality_report",
        "enumerate_perfect_matchings",
        "fixture",
        "gen_planted_unique",
        "gen_random",
        "neighborhood",
        "parse_instance",
        "prefix_hall_verdict",
        "run_campaign",
        "serialize_instance",
    ]


# The package resolves its exports lazily (PEP 562); these pin that the lazy
# names are the very objects their submodules define.


@pytest.mark.parametrize("name", kphall.__all__)
def test_package_export_is_the_submodule_object(name):
    module = importlib.import_module(f"kphall.{kphall._EXPORTS[name]}")
    assert getattr(kphall, name) is getattr(module, name)


def test_dir_lists_every_export():
    assert set(kphall.__all__) <= set(dir(kphall))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from kphall import *", namespace)
    assert {n: namespace[n] for n in kphall.__all__} == {
        n: getattr(kphall, n) for n in kphall.__all__
    }


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kphall.no_such_name
    assert not hasattr(kphall, "no_such_name")


def test_submodule_import_through_the_package():
    from kphall import analysis

    assert analysis is sys.modules["kphall.analysis"]
    assert analysis.REPORT_VERSION == "1"
