"""Exact maximum matching and minimum vertex cover by exhaustive search.

Both problems are NP-hard on k-partite hypergraphs, so these solvers exist
as desk-scale oracles, not as scalable algorithms.  A size guard rejects
instances past roughly 40 edges / 40 vertices unless ``force`` is given.

Witnesses are always returned alongside the optimum so callers can check
them without trusting the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .hypergraph import KPartiteHypergraph, Vertex
from .matching import Matching

__all__ = [
    "DualityReport",
    "SOLVER_EDGE_LIMIT",
    "SOLVER_VERTEX_LIMIT",
    "alpha_prime",
    "beta",
    "duality_report",
]

SOLVER_EDGE_LIMIT = 40
SOLVER_VERTEX_LIMIT = 40


@dataclass(frozen=True)
class DualityReport:
    """Maximum matching vs minimum vertex cover, with both witnesses.

    ``has_t_matching`` and ``konig_equality`` are computed from independent
    searches so their equivalence stays testable.
    """

    alpha_prime: int
    beta: int
    t: int
    max_matching_witness: Matching
    min_cover_witness: tuple[Vertex, ...]
    has_t_matching: bool
    konig_equality: bool


def _guard(h: KPartiteHypergraph, force: bool) -> None:
    n_vertices = sum(h.part_sizes)
    if force:
        return
    if len(h.edges) > SOLVER_EDGE_LIMIT or n_vertices > SOLVER_VERTEX_LIMIT:
        raise TooLargeError(
            f"instance has {len(h.edges)} edges / {n_vertices} vertices; "
            f"exact search is guarded at {SOLVER_EDGE_LIMIT}/{SOLVER_VERTEX_LIMIT} "
            "(pass force=True to override)"
        )


def alpha_prime(
    h: KPartiteHypergraph, *, force: bool = False
) -> tuple[int, Matching]:
    """Exact maximum matching size and a witness.

    Branch and bound over the canonically ordered edge list; the optimum
    cannot exceed the smallest part, which caps the search early.  The
    witness is the lexicographically first maximum matching.
    """
    _guard(h, force)
    edges = h.edges
    edge_sets = [frozenset(e) for e in edges]
    cap = min(h.part_sizes)
    m = len(edges)
    best: list[int] = []
    done = False

    def walk(start: int, used: frozenset[Vertex], chosen: list[int]) -> None:
        nonlocal best, done
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= cap:
                done = True
                return
        compatible = [j for j in range(start, m) if used.isdisjoint(edge_sets[j])]
        if len(chosen) + len(compatible) <= len(best):
            return
        for pos, j in enumerate(compatible):
            chosen.append(j)
            walk(j + 1, used | edge_sets[j], chosen)
            chosen.pop()
            if done:
                return
            if len(chosen) + (len(compatible) - pos - 1) <= len(best):
                return

    walk(0, frozenset(), [])
    return len(best), Matching.of(edges[j] for j in best)


def beta(
    h: KPartiteHypergraph, *, force: bool = False
) -> tuple[int, tuple[Vertex, ...]]:
    """Exact minimum vertex cover size and a witness.

    Branches k ways on the first uncovered edge in canonical order.  The
    first part is always a cover (every edge meets it exactly once), which
    seeds the incumbent; the maximum-matching size is a lower bound that
    stops the search as soon as it is met.
    """
    lower, _ = alpha_prime(h, force=force)
    return _min_cover(h, lower)


def _min_cover(h: KPartiteHypergraph, lower: int) -> tuple[int, tuple[Vertex, ...]]:
    edges = h.edges
    best: list[Vertex] = sorted(h.parts[0])
    done = False

    def first_uncovered(cover: set[Vertex]) -> tuple[Vertex, ...] | None:
        for e in edges:
            if cover.isdisjoint(e):
                return e
        return None

    def walk(cover: set[Vertex]) -> None:
        nonlocal best, done
        if len(cover) >= len(best):
            return
        e = first_uncovered(cover)
        if e is None:
            best = sorted(cover)
            if len(best) <= lower:
                done = True
            return
        for v in e:
            cover.add(v)
            walk(cover)
            cover.remove(v)
            if done:
                return

    # No cover is smaller than a matching, so a first part already of size
    # ``lower`` is optimal, and the walk could only ever tie it.
    if len(best) > lower:
        walk(set())
    return len(best), tuple(best)


def duality_report(h: KPartiteHypergraph, *, force: bool = False) -> DualityReport:
    """Assemble maximum matching, minimum cover, and the size-t equality flags."""
    a, matching_witness = alpha_prime(h, force=force)
    b, cover_witness = _min_cover(h, a)
    t = h.t
    return DualityReport(
        alpha_prime=a,
        beta=b,
        t=t,
        max_matching_witness=matching_witness,
        min_cover_witness=cover_witness,
        has_t_matching=a == t,
        konig_equality=a == b == t,
    )
