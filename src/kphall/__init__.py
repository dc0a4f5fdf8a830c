"""Hall-type matching analysis for k-uniform k-partite hypergraphs.

Decide and construct maximum-size matchings through the prefix-matching
criterion: enumerate perfect matchings of the subhypergraph generated on
the first k-1 parts, test the neighborhood (Hall) condition on each, and
extend into the full hypergraph via a system of distinct representatives.
Exact exponential solvers for the maximum matching and minimum vertex
cover serve as desk-scale oracles, and seeded generators plus a property
campaign keep every claim machine-checkable.
"""

from .analysis import AnalysisReport, analysis_jsonable, analyze_instance
from .campaign import CampaignConfig, CampaignReport, run_campaign
from .errors import (
    DuplicateLabelError,
    EmptySubsetError,
    IsolatedVertexError,
    KphallError,
    NotPartiteError,
    NotPerfectPrefixMatchingError,
    NotUniformError,
    ParseError,
    RetryExhaustedError,
    SamePartError,
    SchemaError,
    TooLargeError,
    UnknownFixtureError,
    ValidationError,
    WrongArityError,
)
from .exact import DualityReport, alpha_prime, beta, duality_report
from .generate import GeneratorParams, gen_planted_unique, gen_random
from .hypergraph import (
    GeneratedSubhypergraph,
    KPartiteHypergraph,
    SubmaximalEdge,
    Vertex,
    build_hypergraph,
    generated_subhypergraph,
    neighborhood,
    neighborhood_of_set,
    prefix_subhypergraph,
    rotate_parts,
    submaximal_edges,
)
from .instance_io import (
    FIXTURE_NAMES,
    fixture,
    parse_instance,
    serialize_instance,
)
from .matching import (
    HallReport,
    HallVerdict,
    INCONCLUSIVE,
    MATCHING_EXISTS,
    Matching,
    NO_MATCHING,
    SdrInstance,
    enumerate_perfect_matchings,
    extend_matching,
    hall_deficiency,
    hall_subset_oracle,
    max_bipartite_matching,
    prefix_hall_verdict,
    sdr_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "CampaignConfig",
    "CampaignReport",
    "DualityReport",
    "DuplicateLabelError",
    "EmptySubsetError",
    "FIXTURE_NAMES",
    "GeneratedSubhypergraph",
    "GeneratorParams",
    "HallReport",
    "HallVerdict",
    "INCONCLUSIVE",
    "IsolatedVertexError",
    "KPartiteHypergraph",
    "KphallError",
    "MATCHING_EXISTS",
    "Matching",
    "NO_MATCHING",
    "NotPartiteError",
    "NotPerfectPrefixMatchingError",
    "NotUniformError",
    "ParseError",
    "RetryExhaustedError",
    "SamePartError",
    "SchemaError",
    "SdrInstance",
    "SubmaximalEdge",
    "TooLargeError",
    "UnknownFixtureError",
    "ValidationError",
    "Vertex",
    "WrongArityError",
    "alpha_prime",
    "analysis_jsonable",
    "analyze_instance",
    "beta",
    "build_hypergraph",
    "duality_report",
    "enumerate_perfect_matchings",
    "extend_matching",
    "fixture",
    "gen_planted_unique",
    "gen_random",
    "generated_subhypergraph",
    "hall_deficiency",
    "hall_subset_oracle",
    "max_bipartite_matching",
    "neighborhood",
    "neighborhood_of_set",
    "parse_instance",
    "prefix_hall_verdict",
    "prefix_subhypergraph",
    "rotate_parts",
    "run_campaign",
    "sdr_instance",
    "serialize_instance",
    "submaximal_edges",
]
