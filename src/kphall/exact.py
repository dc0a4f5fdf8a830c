"""Exact maximum matching and minimum vertex cover by exhaustive search.

Both problems are NP-hard on k-partite hypergraphs, so these solvers exist
as desk-scale oracles, not as scalable algorithms.  A size guard rejects
instances past roughly 40 edges / 40 vertices unless ``force`` is given.

Both are depth-first branch and bound over the canonical edge order, on
the instance's cached bitmasks: vertex v is bit v, an edge or a cover is
an int.  Each prunes with an admissible bound, one that cuts only subtrees
holding no strictly better solution than the incumbent.  Since the
incumbent changes only on a strict improvement, the walks find the same
incumbents in the same order as the unbounded searches, so every witness
is the one the plain search returns.

Witnesses are always returned alongside the optimum so callers can check
them without trusting the search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeError
from .hypergraph import KPartiteHypergraph, Matching

__all__ = [
    "DualityReport",
    "SOLVER_EDGE_LIMIT",
    "SOLVER_VERTEX_LIMIT",
    "alpha_prime",
    "duality_report",
]

SOLVER_EDGE_LIMIT = 40
SOLVER_VERTEX_LIMIT = 40


@dataclass(frozen=True)
class DualityReport:
    """Maximum matching vs minimum vertex cover, with both witnesses.

    ``alpha_prime`` and ``beta`` come from separate searches.  The flags
    ``has_t_matching`` (alpha' = t) and ``konig_equality`` (alpha' = beta
    = t) are computed from them, not stored.
    """

    alpha_prime: int
    beta: int
    t: int
    max_matching_witness: Matching
    min_cover_witness: tuple[int, ...]

    @property
    def has_t_matching(self) -> bool:
        return self.alpha_prime == self.t

    @property
    def konig_equality(self) -> bool:
        return self.alpha_prime == self.beta == self.t


def _guard(h: KPartiteHypergraph, force: bool) -> None:
    if force:
        return
    n_vertices = sum(h.part_sizes)
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

    Branch and bound over the canonically ordered edge list, with each edge
    a bitmask of its vertices.  A node is continued only while the chosen
    edges plus the most its untried compatible edges can add beat the
    incumbent.  That most is the smaller of their count and their reach:
    the fewest vertices any one part offers among them.  Both bounds cut
    only subtrees without a strictly larger matching, so the witness is
    unchanged: the lexicographically first maximum matching.  The optimum
    cannot exceed the smallest part, which stops the search early.
    """
    _guard(h, force)
    masks, part_masks = h._bits
    cap = min(map(len, h.parts))
    best: list[int] = []
    chosen: list[int] = []
    # Depth-first with an explicit stack, so a deep optimum cannot exhaust
    # the recursion limit.  One frame per node on the path: the later edges
    # disjoint from the chosen ones and the position of the next one to
    # try.  A child's edges are its parent's untried ones that miss the
    # edge just taken.
    frames: list[list] = []
    compatible = list(range(len(masks)))
    while True:
        frames.append([compatible, 0])
        # Back up to the deepest node whose untried edges could still beat
        # ``best``, dropping the edge that led to each node left behind.
        while frames:
            frame = frames[-1]
            compatible, pos = frame
            room = len(best) - len(chosen)
            if len(compatible) - pos > room:
                # The reach of a nonempty edge list is at least 1, so it
                # can prune only where fewer edges are chosen than in best.
                if not room:
                    break
                union = 0
                for j in compatible[pos:]:
                    union |= masks[j]
                if min([(union & p).bit_count() for p in part_masks]) > room:
                    break
            frames.pop()
            if chosen:
                chosen.pop()
        else:
            break
        j = compatible[pos]
        frame[1] = pos + 1
        chosen.append(j)
        if len(chosen) > len(best):
            best = chosen[:]
            if len(best) >= cap:
                break
        taken = masks[j]
        compatible = [i for i in compatible[pos + 1 :] if not masks[i] & taken]

    # Edges taken in canonical order and pairwise disjoint: already canonical.
    edges = h.edges
    return len(best), tuple([edges[j] for j in best])


def _min_cover(h: KPartiteHypergraph, lower: int) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover size and a witness.

    Branches k ways on the first uncovered edge in canonical order, with the
    cover as one bitmask.  The first part is always a cover (every edge
    meets it exactly once), which seeds the incumbent; ``lower``, the
    maximum-matching size, stops the search as soon as it is met.  A
    node is expanded only while its cover plus a greedy packing of pairwise
    disjoint uncovered edges, each needing a vertex of its own, stays below
    the incumbent.  That cuts only subtrees without a strictly smaller
    cover, so the witness is the one the unbounded search finds.
    """
    masks, part_masks = h._bits
    m = len(masks)
    best = part_masks[0]
    best_size = h.t
    # No cover is smaller than a matching, so a first part already of size
    # ``lower`` is optimal, and the walk could only ever tie it.
    if best_size <= lower:
        return best_size, tuple(h.parts[0])
    # Depth-first with an explicit stack, so a deep cover cannot exhaust
    # the recursion limit.  One frame per expanded node on the path: its
    # first uncovered edge and that edge's untried vertex bits, taken in
    # increasing (part) order; path[d] is the vertex bit taken at depth d.
    # Edges before a frame's edge are covered at that node and below, so a
    # child's scan starts right after it.
    cover = 0
    path: list[int] = []
    frames: list[list[int]] = []
    start = 0
    while True:
        bound = len(path)
        if bound < best_size:
            # One pass finds the first uncovered edge and greedily packs
            # disjoint uncovered edges, stopping once the bound prunes.
            first = -1
            blocked = cover
            for j in range(start, m):
                if not masks[j] & blocked:
                    if first < 0:
                        first = j
                    blocked |= masks[j]
                    bound += 1
                    if bound >= best_size:
                        break
            if bound < best_size:
                if first < 0:
                    best, best_size = cover, bound
                    if best_size <= lower:
                        break
                else:
                    frames.append([first, masks[first]])
        # Resume the deepest node with a vertex left to try, undoing the
        # vertex that led to each node that is done.
        while frames:
            if len(path) == len(frames):
                cover ^= path.pop()
            frame = frames[-1]
            untried = frame[1]
            if untried:
                break
            frames.pop()
        else:
            break
        v = untried & -untried
        frame[1] = untried ^ v
        cover |= v
        path.append(v)
        start = frame[0] + 1
    return best_size, tuple([v for v in range(best.bit_length()) if best >> v & 1])


def duality_report(h: KPartiteHypergraph, *, force: bool = False) -> DualityReport:
    """Maximum matching and minimum cover of ``h``, with their witnesses."""
    a, matching_witness = alpha_prime(h, force=force)
    b, cover_witness = _min_cover(h, a)
    return DualityReport(
        alpha_prime=a,
        beta=b,
        t=h.t,
        max_matching_witness=matching_witness,
        min_cover_witness=cover_witness,
    )
