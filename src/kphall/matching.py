"""Perfect-matching enumeration, Hall/SDR machinery, and the extension step.

The pipeline mirrors how the analysis runs: enumerate perfect matchings of
the prefix subhypergraph, and turn each into an SDR instance (element ->
candidate last-part vertices).  One augmenting-path run on that instance
gives everything the analysis reports about the matching: its Hall
deficiency, a violator set when the deficiency is positive, and its
extension to a matching of the full hypergraph.  `hall_deficiency` and
`extend_matching` are views of that one run.

Two independent routes compute the deficiency: the augmenting-path engine
and an exhaustive subset check (`hall_subset_oracle`).  They must always
agree; the test suite leans on that redundancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import NotPerfectPrefixMatchingError, TooLargeError
from .hypergraph import (
    Edge,
    GeneratedSubhypergraph,
    KPartiteHypergraph,
    SubmaximalEdge,
    Vertex,
    neighborhood,
    prefix_subhypergraph,
)

__all__ = [
    "Matching",
    "SdrInstance",
    "HallReport",
    "MatchingAnalysis",
    "HallVerdict",
    "MATCHING_EXISTS",
    "NO_MATCHING",
    "INCONCLUSIVE",
    "SUBSET_ORACLE_LIMIT",
    "enumerate_perfect_matchings",
    "sdr_instance",
    "max_bipartite_matching",
    "hall_deficiency",
    "hall_subset_oracle",
    "extend_matching",
    "prefix_hall_verdict",
]

MATCHING_EXISTS = "exists"
NO_MATCHING = "no-matching"
INCONCLUSIVE = "inconclusive"

SUBSET_ORACLE_LIMIT = 20


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored in canonical order."""

    edges: tuple[Edge, ...]

    @classmethod
    def of(cls, edges: Iterable[Iterable[Vertex]]) -> "Matching":
        canon = sorted(tuple(sorted(e)) for e in edges)
        seen: set[Vertex] = set()
        for e in canon:
            for v in e:
                if v in seen:
                    raise ValueError(f"edges are not pairwise disjoint at {v.label}")
                seen.add(v)
        return cls(tuple(canon))

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)

    def vertices(self) -> frozenset[Vertex]:
        return frozenset(v for e in self.edges for v in e)

    def __str__(self) -> str:
        return " | ".join(
            "{" + ",".join(v.label for v in e) + "}" for e in self.edges
        )


@dataclass(frozen=True)
class SdrInstance:
    """Bipartite instance: matching elements on the left, a part on the right."""

    left: tuple[SubmaximalEdge, ...]
    right: tuple[Vertex, ...]
    adjacency: tuple[tuple[Vertex, ...], ...]


@dataclass(frozen=True)
class HallReport:
    """Deficiency of the neighborhood family of a prefix perfect matching."""

    t: int
    max_sdr: int
    deficiency: int
    witness_violator: tuple[SubmaximalEdge, ...] | None

    @property
    def satisfied(self) -> bool:
        return self.deficiency == 0


@dataclass(frozen=True)
class MatchingAnalysis:
    """Hall report and extension for one enumerated prefix perfect matching."""

    prefix_matching: Matching
    hall: HallReport
    extension: Matching


def enumerate_perfect_matchings(
    sub: GeneratedSubhypergraph, limit: int = 2
) -> list[Matching]:
    """Up to ``limit`` perfect matchings of a part-structured subhypergraph.

    Backtracks over the vertices of the first part in canonical order,
    trying traces in canonical order, so the output order is deterministic.
    Unequal part sizes mean no perfect matching can exist: empty list.
    """
    if sub.parts is None:
        raise ValueError("subhypergraph has no part structure")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    sizes = sub.part_sizes or ()
    if len(set(sizes)) > 1:
        return []

    first = sub.parts[0]
    first_part_index = first[0].part
    by_anchor: dict[Vertex, list[Edge]] = {v: [] for v in first}
    for tr in sub.traces:
        anchor = next((v for v in tr if v.part == first_part_index), None)
        if anchor is not None and len(tr) == len(sub.parts):
            by_anchor[anchor].append(tr)

    found: list[Matching] = []
    used: set[Vertex] = set()
    chosen: list[Edge] = []
    # Depth-first over the first part with an explicit stack, so large t
    # cannot exhaust the recursion limit: one trace iterator per depth, and
    # chosen[i] is the trace taken at depth i.
    options = [by_anchor[v] for v in first]
    stack = [iter(options[0])]
    while stack:
        for tr in stack[-1]:
            if used.isdisjoint(tr):
                break
        else:
            stack.pop()
            if chosen:
                used.difference_update(chosen.pop())
            continue
        used.update(tr)
        chosen.append(tr)
        if len(chosen) < len(options):
            stack.append(iter(options[len(chosen)]))
            continue
        found.append(Matching.of(chosen))
        if len(found) >= limit:
            break
        used.difference_update(chosen.pop())
    return found


def _check_prefix_matching(
    h: KPartiteHypergraph, m: Matching
) -> GeneratedSubhypergraph:
    sub = prefix_subhypergraph(h)
    traces = set(sub.traces)
    covered: set[Vertex] = set()
    for e in m.edges:
        if e not in traces:
            raise NotPerfectPrefixMatchingError(
                f"{{{','.join(v.label for v in e)}}} is not a prefix trace"
            )
        if covered & set(e):
            raise NotPerfectPrefixMatchingError("matching edges overlap")
        covered.update(e)
    if covered != set(sub.base_vertices):
        raise NotPerfectPrefixMatchingError(
            "matching does not cover every prefix vertex"
        )
    return sub


def sdr_instance(h: KPartiteHypergraph, m: Matching) -> SdrInstance:
    """SDR instance of a prefix perfect matching: elements vs last-part vertices."""
    _check_prefix_matching(h, m)
    left = tuple(SubmaximalEdge(e) for e in m.edges)
    adjacency = tuple(neighborhood(h, sub) for sub in left)
    return SdrInstance(left=left, right=h.last_part(), adjacency=adjacency)


def _kuhn(inst: SdrInstance) -> tuple[list[Vertex | None], dict[Vertex, int]]:
    """Maximum bipartite matching by augmenting paths, deterministic order."""
    match_left: list[Vertex | None] = [None] * len(inst.left)
    match_right: dict[Vertex, int] = {}

    def augment(root: int) -> None:
        # Depth-first search for an augmenting path from ``root``, with an
        # explicit stack so long paths cannot exhaust the recursion limit;
        # path[d] is the vertex being tried from the element at stack[d].
        visited: set[Vertex] = set()
        stack = [(root, iter(inst.adjacency[root]))]
        path: list[Vertex] = []
        while stack:
            for v in stack[-1][1]:
                if v not in visited:
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                continue
            visited.add(v)
            path.append(v)
            j = match_right.get(v)
            if j is None:
                for (i, _), u in zip(stack, path):
                    match_left[i] = u
                    match_right[u] = i
                return
            stack.append((j, iter(inst.adjacency[j])))

    for i in range(len(inst.left)):
        augment(i)
    return match_left, match_right


def max_bipartite_matching(inst: SdrInstance) -> tuple[tuple[int, Vertex], ...]:
    """Maximum set of (left index, vertex) pairs with all indices and vertices distinct."""
    match_left, _ = _kuhn(inst)
    return tuple((i, v) for i, v in enumerate(match_left) if v is not None)


def _violator_cut(
    inst: SdrInstance,
    match_left: list[Vertex | None],
    match_right: dict[Vertex, int],
) -> tuple[SubmaximalEdge, ...]:
    # Left elements reachable from unmatched left elements by alternating
    # paths; by Koenig duality this set maximizes |A| - |N(A)|.
    reach_left = {i for i, v in enumerate(match_left) if v is None}
    reach_right: set[Vertex] = set()
    queue = deque(sorted(reach_left))
    while queue:
        i = queue.popleft()
        for v in inst.adjacency[i]:
            if v in reach_right:
                continue
            reach_right.add(v)
            j = match_right.get(v)
            if j is not None and j not in reach_left:
                reach_left.add(j)
                queue.append(j)
    return tuple(inst.left[i] for i in sorted(reach_left))


def _analyze(h: KPartiteHypergraph, m: Matching) -> MatchingAnalysis:
    # One SDR instance and one augmenting-path run give the deficiency, the
    # violator cut and the extension of ``m`` together.
    inst = sdr_instance(h, m)
    match_left, match_right = _kuhn(inst)
    t = len(inst.left)
    max_sdr = sum(1 for v in match_left if v is not None)
    deficiency = t - max_sdr
    witness = (
        _violator_cut(inst, match_left, match_right) if deficiency > 0 else None
    )
    extension = Matching.of(
        inst.left[i].vertices + (v,) for i, v in enumerate(match_left) if v is not None
    )
    return MatchingAnalysis(
        prefix_matching=m,
        hall=HallReport(
            t=t, max_sdr=max_sdr, deficiency=deficiency, witness_violator=witness
        ),
        extension=extension,
    )


def hall_deficiency(h: KPartiteHypergraph, m: Matching) -> HallReport:
    """Deficiency of the neighborhood family of ``m`` via maximum matching.

    ``max_sdr`` is the size of a maximum partial transversal; the witness,
    present exactly when the deficiency is positive, is a subset A of the
    matching with |N(A)| = |A| - deficiency.
    """
    return _analyze(h, m).hall


def hall_subset_oracle(h: KPartiteHypergraph, m: Matching) -> HallReport:
    """Same contract as hall_deficiency, by exhaustive subset enumeration.

    Deliberately independent of the augmenting-path engine; guarded at
    2^t subsets with t <= SUBSET_ORACLE_LIMIT.
    """
    inst = sdr_instance(h, m)
    t = len(inst.left)
    if t > SUBSET_ORACLE_LIMIT:
        raise TooLargeError(
            f"subset oracle limited to {SUBSET_ORACLE_LIMIT} elements, got {t}"
        )
    neighborhoods = [frozenset(adj) for adj in inst.adjacency]
    best = 0
    best_mask = 0
    for mask in range(1 << t):
        union: set[Vertex] = set()
        size = 0
        for i in range(t):
            if mask >> i & 1:
                union |= neighborhoods[i]
                size += 1
        if size - len(union) > best:
            best = size - len(union)
            best_mask = mask
    witness = None
    if best > 0:
        witness = tuple(inst.left[i] for i in range(t) if best_mask >> i & 1)
    return HallReport(
        t=t, max_sdr=t - best, deficiency=best, witness_violator=witness
    )


def extend_matching(h: KPartiteHypergraph, m: Matching) -> Matching:
    """Extend a prefix perfect matching into a matching of the full hypergraph.

    Each matched (element, vertex) pair becomes the hyperedge element + vertex;
    the result always has exactly t - deficiency edges.
    """
    return _analyze(h, m).extension


@dataclass(frozen=True)
class HallVerdict:
    """Outcome of the prefix-matching criterion for a matching of size t.

    ``pm_count`` counts enumerated prefix perfect matchings and is a lower
    bound when ``pm_count_is_lower_bound`` (enumeration stopped at the cap).
    A positive or negative ``conclusion`` is only licensed per the rules in
    ``prefix_hall_verdict``; otherwise it is inconclusive.
    """

    applicable: bool
    reason: str | None
    t: int
    pm_count: int
    pm_count_is_lower_bound: bool
    unique: bool | None
    per_matching: tuple[MatchingAnalysis, ...]
    conclusion: str | None
    message: str
    witness: Matching | None
    perfect_matching: bool

    @property
    def chosen(self) -> MatchingAnalysis | None:
        """Analysis of the first prefix matching in canonical order."""
        return self.per_matching[0] if self.per_matching else None


def _not_applicable(t: int, pm_count: int, reason: str) -> HallVerdict:
    return HallVerdict(
        applicable=False,
        reason=reason,
        t=t,
        pm_count=pm_count,
        pm_count_is_lower_bound=False,
        unique=None,
        per_matching=(),
        conclusion=None,
        message=f"not applicable: {reason}",
        witness=None,
        perfect_matching=False,
    )


def prefix_hall_verdict(h: KPartiteHypergraph, *, limit: int = 2) -> HallVerdict:
    """Decide existence of a matching of size t = |V1| via the prefix criterion.

    Enumerates up to ``limit`` prefix perfect matchings and reports, per
    matching, its Hall deficiency and extension.  Conclusions:

    * unique prefix matching, deficiency 0: a matching of size t exists.
    * unique prefix matching, deficiency d > 0: no matching of size t
      exists; the extension of size t - d is the best this matching gives.
    * several matchings, one with deficiency 0: a matching of size t exists
      (the criterion's constructive direction needs no uniqueness).
    * several matchings, all deficient: inconclusive; nonexistence may not
      be claimed without uniqueness.

    ``perfect_matching`` is set when the conclusion is positive and the last
    part also has size t, so the witness covers every vertex.
    """
    t = h.t
    prefix_sizes = set(len(p) for p in h.prefix_parts())
    if prefix_sizes != {t}:
        return _not_applicable(
            t, 0, f"prefix part sizes {sorted(prefix_sizes)} are not all {t}"
        )

    sub = prefix_subhypergraph(h)
    matchings = enumerate_perfect_matchings(sub, limit=limit)
    if not matchings:
        return _not_applicable(t, 0, "prefix subhypergraph has no perfect matching")

    # Uniqueness is only known when enumeration exhausted the search; with
    # limit 1 a single hit leaves it undetermined (None).
    exhausted = len(matchings) < limit
    if exhausted:
        unique = len(matchings) == 1
    else:
        unique = False if len(matchings) >= 2 else None
    analyses = [_analyze(h, m) for m in matchings]

    satisfied = [a for a in analyses if a.hall.satisfied]
    best_extension = max(analyses, key=lambda a: len(a.extension)).extension
    if satisfied:
        conclusion = MATCHING_EXISTS
        witness = satisfied[0].extension
        message = f"matching of size {t} exists"
    elif unique:
        d = analyses[0].hall.deficiency
        conclusion = NO_MATCHING
        witness = best_extension
        message = (
            f"no matching of size {t} exists; "
            f"best extension via the unique prefix matching has size {t - d}"
        )
    else:
        conclusion = INCONCLUSIVE
        witness = best_extension
        qualifier = (
            "uniqueness is undetermined at this enumeration cap"
            if unique is None
            else "the prefix matching is not unique"
        )
        message = (
            f"inconclusive: every enumerated prefix matching is deficient, but "
            f"{qualifier}, which does not rule out a matching of size {t}"
        )

    perfect = conclusion == MATCHING_EXISTS and len(h.last_part()) == t
    if perfect:
        message += "; it is a perfect matching"

    return HallVerdict(
        applicable=True,
        reason=None,
        t=t,
        pm_count=len(matchings),
        pm_count_is_lower_bound=len(matchings) == limit,
        unique=unique,
        per_matching=tuple(analyses),
        conclusion=conclusion,
        message=message,
        witness=witness,
        perfect_matching=perfect,
    )
