"""Full-instance analysis and stable JSON rendering.

`analyze_instance` bundles the prefix-matching verdict with the exact
matching/cover duality numbers.  The JSON shape is versioned and the key
order is fixed, so identical inputs render byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from .hypergraph import KPartiteHypergraph, Matching, neighborhood_of_set
from .instance_io import REPORT_VERSION
from .matching import HallVerdict, MatchingAnalysis, prefix_hall_verdict

if TYPE_CHECKING:
    from .exact import DualityReport

__all__ = [
    "REPORT_VERSION",
    "AnalysisReport",
    "analyze_instance",
    "analysis_jsonable",
    "verdict_jsonable",
    "edge_labels",
    "matching_labels",
]

@dataclass(frozen=True)
class AnalysisReport:
    hypergraph: KPartiteHypergraph
    verdict: HallVerdict
    duality: DualityReport


def analyze_instance(
    h: KPartiteHypergraph, *, force: bool = False, limit: int = 2
) -> AnalysisReport:
    """Run the prefix criterion and the exact solvers on one instance."""
    # A bad limit and the solvers' size guard must raise before any search.
    if limit < 1:
        raise ValueError("limit must be >= 1")
    from .exact import duality_report  # here, so that `extend` never loads it

    duality = duality_report(h, force=force)
    return AnalysisReport(
        hypergraph=h,
        verdict=prefix_hall_verdict(h, limit=limit),
        duality=duality,
    )


def edge_labels(h: KPartiteHypergraph, edge: Iterable[int]) -> list[str]:
    """The labels of the vertex ids in ``edge``, in order."""
    return list(map(h.labels.__getitem__, edge))


def matching_labels(h: KPartiteHypergraph, m: Matching) -> list[list[str]]:
    label = h.labels.__getitem__
    return [list(map(label, e)) for e in m]


def _hall_jsonable(h: KPartiteHypergraph, a: MatchingAnalysis) -> dict[str, Any]:
    witness = a.hall.witness_violator
    return {
        "t": len(a.prefix_matching),
        "max_sdr": len(a.extension),
        "deficiency": a.hall.deficiency,
        "witness_violator": (
            None if witness is None else [edge_labels(h, s) for s in witness]
        ),
        "witness_neighborhood": (
            None
            if witness is None
            else edge_labels(h, neighborhood_of_set(h, witness))
        ),
    }


def verdict_jsonable(h: KPartiteHypergraph, verdict: HallVerdict) -> dict[str, Any]:
    return {
        "applicable": verdict.applicable,
        "reason": verdict.reason,
        "t": h.t,
        "pm_count": verdict.pm_count,
        "pm_count_is_lower_bound": verdict.pm_count_is_lower_bound,
        "unique": verdict.unique,
        "matchings": [
            {
                "prefix_matching": matching_labels(h, a.prefix_matching),
                "hall": _hall_jsonable(h, a),
                "extension": matching_labels(h, a.extension),
                "extension_size": len(a.extension),
            }
            for a in verdict.per_matching
        ],
        "conclusion": verdict.conclusion,
        "message": verdict.message,
        "witness": (
            None if verdict.witness is None else matching_labels(h, verdict.witness)
        ),
        "perfect_matching": verdict.perfect_matching,
    }


def _duality_jsonable(h: KPartiteHypergraph, report: DualityReport) -> dict[str, Any]:
    return {
        "alpha_prime": report.alpha_prime,
        "beta": report.beta,
        "t": report.t,
        "max_matching_witness": matching_labels(h, report.max_matching_witness),
        "min_cover_witness": edge_labels(h, report.min_cover_witness),
        "has_t_matching": report.has_t_matching,
        "konig_equality": report.konig_equality,
    }


def analysis_jsonable(report: AnalysisReport) -> dict[str, Any]:
    h = report.hypergraph
    return {
        "report_version": REPORT_VERSION,
        "instance": {
            "k": h.k,
            "part_sizes": list(h.part_sizes),
            "parts": [edge_labels(h, part) for part in h.parts],
            "edges": [edge_labels(h, e) for e in h.edges],
            "warnings": list(h.warnings),
        },
        "prefix_criterion": verdict_jsonable(h, report.verdict),
        "duality": _duality_jsonable(h, report.duality),
    }
