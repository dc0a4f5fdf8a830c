"""Exact maximum matching and minimum vertex cover by exhaustive search.

Both problems are NP-hard on k-partite hypergraphs, so these solvers exist
as desk-scale oracles, not as scalable algorithms.  A size guard rejects
instances past roughly 40 edges / 40 vertices unless ``force`` is given.

Witnesses are always returned alongside the optimum so callers can check
them without trusting the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    chosen: list[int] = []
    used: set[Vertex] = set()
    # Depth-first with an explicit stack, so a deep optimum cannot exhaust
    # the recursion limit.  One frame per node on the path: the later edges
    # disjoint from ``used`` and the position of the next one to try.
    frames: list[list] = []
    start = 0
    while True:
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= cap:
                break
        frames.append(
            [[j for j in range(start, m) if used.isdisjoint(edge_sets[j])], 0]
        )
        # Back up to the deepest node whose untried edges could still beat
        # ``best``, undoing the edge that led to each node left behind.
        while frames:
            compatible, pos = frames[-1]
            if len(chosen) + len(compatible) - pos > len(best):
                break
            frames.pop()
            if chosen:
                used -= edge_sets[chosen.pop()]
        else:
            break
        j = compatible[pos]
        frames[-1][1] = pos + 1
        chosen.append(j)
        used |= edge_sets[j]
        start = j + 1

    # Edges taken in canonical order and pairwise disjoint: already canonical.
    return len(best), Matching(tuple([edges[j] for j in best]))


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
    # No cover is smaller than a matching, so a first part already of size
    # ``lower`` is optimal, and the walk could only ever tie it.
    if len(best) <= lower:
        return len(best), tuple(best)
    # Depth-first with an explicit stack, so a deep cover cannot exhaust the
    # recursion limit: one iterator per node on the path over the vertices
    # of its first uncovered edge, and path[d] is the vertex taken at depth d.
    cover: set[Vertex] = set()
    path: list[Vertex] = []
    stack: list[Iterator[Vertex]] = []
    while True:
        if len(cover) < len(best):
            e = next((e for e in edges if cover.isdisjoint(e)), None)
            if e is None:
                best = sorted(cover)
                if len(best) <= lower:
                    break
            else:
                stack.append(iter(e))
        # Resume the deepest node with a vertex left to try, undoing the
        # vertex that led to each node that is done.
        while stack:
            if len(path) == len(stack):
                cover.remove(path.pop())
            v = next(stack[-1], None)
            if v is not None:
                break
            stack.pop()
        else:
            break
        cover.add(v)
        path.append(v)
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
