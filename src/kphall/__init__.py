"""Hall-type matching analysis for k-uniform k-partite hypergraphs.

Decide and construct maximum-size matchings through the prefix-matching
criterion: enumerate perfect matchings of the subhypergraph generated on
the first k-1 parts, test the neighborhood (Hall) condition on each, and
extend into the full hypergraph via a system of distinct representatives.
Exact exponential solvers for the maximum matching and minimum vertex
cover serve as desk-scale oracles, and seeded generators plus a property
campaign keep every claim machine-checkable.
"""

from .analysis import analysis_jsonable, analyze_instance
from .campaign import CampaignConfig, run_campaign
from .errors import KphallError
from .exact import alpha_prime, duality_report
from .generate import GeneratorParams, gen_planted_unique, gen_random
from .hypergraph import KPartiteHypergraph, build_hypergraph, neighborhood
from .instance_io import fixture, parse_instance, serialize_instance
from .matching import (
    Matching,
    analyze_matching,
    enumerate_perfect_matchings,
    prefix_hall_verdict,
)

__version__ = "0.1.0"

__all__ = [
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
