"""Hall-type matching analysis for k-uniform k-partite hypergraphs.

Decide and construct maximum-size matchings through the prefix-matching
criterion: enumerate perfect matchings of the subhypergraph generated on
the first k-1 parts, test the neighborhood (Hall) condition on each, and
extend into the full hypergraph via a system of distinct representatives.
Exact exponential solvers for the maximum matching and minimum vertex
cover serve as desk-scale oracles, and seeded generators plus a property
campaign keep every claim machine-checkable.

Importing the package loads none of its modules.  Each name in ``__all__``
is imported from its defining module on first use (PEP 562), so
``from kphall import parse_instance`` loads ``instance_io`` and
``hypergraph`` only, and ``from kphall import analysis`` still yields the
submodule.  The ``kphall`` commands load likewise: ``validate`` the parser
alone, ``extend`` no exact solver, and only ``generate`` and ``verify``
the generator (the ``kphall.cli`` docstring lists each command's modules).
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "CampaignConfig": "campaign",
    "GeneratorParams": "generate",
    "KPartiteHypergraph": "hypergraph",
    "KphallError": "errors",
    "Matching": "hypergraph",
    "alpha_prime": "exact",
    "analysis_jsonable": "analysis",
    "analyze_instance": "analysis",
    "analyze_matching": "matching",
    "build_hypergraph": "hypergraph",
    "duality_report": "exact",
    "enumerate_perfect_matchings": "matching",
    "fixture": "instance_io",
    "gen_planted_unique": "generate",
    "gen_random": "generate",
    "neighborhood": "hypergraph",
    "parse_instance": "instance_io",
    "prefix_hall_verdict": "matching",
    "run_campaign": "campaign",
    "serialize_instance": "instance_io",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
