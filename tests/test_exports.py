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
