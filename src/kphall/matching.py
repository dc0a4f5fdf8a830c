"""Perfect-matching enumeration, Hall/SDR machinery, and the extension step.

The pipeline mirrors how the analysis runs: enumerate perfect matchings of
the prefix subhypergraph, whose traces (each edge minus its last-part
vertex) are read straight off the edge list, in canonical order.  The
enumeration is an exact-cover search over the instance's integer vertex
ids; it forward-checks each take against per-vertex counts of live
traces, which prunes dead branches without reordering the search.  Each
matching is then turned into an SDR instance: a tuple holding, for each
element of the matching in order, the tuple of its candidate last-part
vertices, read straight off the instance's cached trace index.  One
augmenting-path run on that instance, `analyze_matching`, gives everything
the analysis reports about the matching: its Hall deficiency, a violator
set when the deficiency is positive, and its extension to a matching of
the full hypergraph.

Two independent routes compute the deficiency: the augmenting-path engine
and an exhaustive subset check (`hall_subset_oracle`).  They must always
agree; the test suite leans on that redundancy.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import NotPerfectPrefixMatchingError, TooLargeError
from .hypergraph import Edge, KPartiteHypergraph, Matching, prefix_traces

__all__ = [
    "HallReport",
    "MatchingAnalysis",
    "HallVerdict",
    "MATCHING_EXISTS",
    "NO_MATCHING",
    "INCONCLUSIVE",
    "SUBSET_ORACLE_LIMIT",
    "enumerate_perfect_matchings",
    "sdr_instance",
    "analyze_matching",
    "hall_subset_oracle",
    "prefix_hall_verdict",
]

MATCHING_EXISTS = "exists"
NO_MATCHING = "no-matching"
INCONCLUSIVE = "inconclusive"

SUBSET_ORACLE_LIMIT = 20


@dataclass(frozen=True)
class HallReport:
    """Deficiency of the neighborhood family of a prefix perfect matching."""

    deficiency: int
    witness_violator: tuple[Edge, ...] | None

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
    h: KPartiteHypergraph, limit: int = 2
) -> list[Matching]:
    """Up to ``limit`` perfect matchings of the prefix subhypergraph of ``h``.

    Backtracks over the vertices of the first part in canonical order,
    trying traces in canonical order, so the output order is deterministic.
    Unequal prefix part sizes mean no perfect matching can exist: empty list.

    The search forward-checks like Knuth's Algorithm X without its
    reordering: every prefix vertex keeps a count of the traces still
    disjoint from the ones taken, and a take that leaves some uncovered
    vertex with no such trace is undone at once.  That only cuts subtrees
    holding no perfect matching, so the order is the plain walk's.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    parts = h.parts[:-1]
    t = len(parts[0])
    if any(len(p) != t for p in parts):
        return []

    # Every prefix part has t vertices, so the prefix ids are 0..t(k-1)-1
    # and a first-part vertex's id is its index.
    members = prefix_traces(h)
    by_anchor: list[list[int]] = [[] for _ in range(t)]
    through: list[list[int]] = [[] for _ in range(t * len(parts))]
    for s, ids in enumerate(members):
        by_anchor[ids[0]].append(s)
        for u in ids:
            through[u].append(s)
    live = [len(ss) for ss in through]
    # A vertex in no trace never drops to zero, so the prune cannot see it.
    if 0 in live:
        return []
    alive = [True] * len(members)

    def restore(gone: list[int]) -> None:
        for r in gone:
            alive[r] = True
            for w in members[r]:
                live[w] += 1

    def take(s: int) -> list[int] | None:
        # Kill every live trace meeting trace s (s included); None, with
        # nothing changed, if that starves an uncovered vertex.
        mine = members[s]
        gone: list[int] = []
        for u in mine:
            for r in through[u]:
                if not alive[r]:
                    continue
                alive[r] = False
                gone.append(r)
                starved = False
                for w in members[r]:
                    live[w] -= 1
                    if not live[w] and w not in mine:
                        starved = True
                if starved:
                    restore(gone)
                    return None
        return gone

    found: list[Matching] = []
    chosen: list[int] = []
    killed: list[list[int]] = []
    # Depth-first over the first part with an explicit stack, so large t
    # cannot exhaust the recursion limit: one trace iterator per depth, and
    # chosen[i] is the trace taken at depth i, killed[i] what it killed.
    stack = [iter(by_anchor[0])]
    while stack:
        for s in stack[-1]:
            if alive[s]:
                gone = take(s)
                if gone is not None:
                    break
        else:
            stack.pop()
            if chosen:
                chosen.pop()
                restore(killed.pop())
            continue
        chosen.append(s)
        killed.append(gone)
        if len(chosen) < t:
            stack.append(iter(by_anchor[len(chosen)]))
            continue
        # Taken in first-part order and pairwise disjoint: already canonical.
        found.append(tuple([members[c] for c in chosen]))
        if len(found) >= limit:
            break
        chosen.pop()
        restore(killed.pop())
    return found


def _check_prefix_matching(h: KPartiteHypergraph, m: Matching) -> None:
    covered: set[int] = set()
    for e in m:
        # An id that is not a vertex of h is in no trace.
        if e not in h._traces:
            raise NotPerfectPrefixMatchingError(f"{list(e)} is not a prefix trace")
        if not covered.isdisjoint(e):
            raise NotPerfectPrefixMatchingError("matching edges overlap")
        covered.update(e)
    # Every covered vertex is a prefix vertex of h, so equal counts mean
    # every prefix vertex is covered.
    if len(covered) != sum(len(p) for p in h.parts[:-1]):
        raise NotPerfectPrefixMatchingError(
            "matching does not cover every prefix vertex"
        )


def sdr_instance(h: KPartiteHypergraph, m: Matching) -> tuple[tuple[int, ...], ...]:
    """SDR instance of a prefix perfect matching: each element's candidates."""
    _check_prefix_matching(h, m)
    return tuple([h._traces[e] for e in m])


def _kuhn(
    inst: tuple[tuple[int, ...], ...]
) -> tuple[list[int | None], dict[int, int]]:
    """Maximum bipartite matching by augmenting paths, deterministic order."""
    match_left: list[int | None] = [None] * len(inst)
    match_right: dict[int, int] = {}

    def augment(root: int) -> None:
        # Depth-first search for an augmenting path from ``root``, with an
        # explicit stack so long paths cannot exhaust the recursion limit;
        # path[d] is the vertex being tried from the element at stack[d].
        visited: set[int] = set()
        stack = [(root, iter(inst[root]))]
        path: list[int] = []
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
            stack.append((j, iter(inst[j])))

    for i in range(len(inst)):
        augment(i)
    return match_left, match_right


def _violator_cut(
    inst: tuple[tuple[int, ...], ...],
    match_left: list[int | None],
    match_right: dict[int, int],
) -> list[int]:
    # Left elements reachable from unmatched left elements by alternating
    # paths; by Koenig duality this set maximizes |A| - |N(A)|.
    reach_left = {i for i, v in enumerate(match_left) if v is None}
    reach_right: set[int] = set()
    queue = deque(sorted(reach_left))
    while queue:
        i = queue.popleft()
        for v in inst[i]:
            if v in reach_right:
                continue
            reach_right.add(v)
            j = match_right.get(v)
            if j is not None and j not in reach_left:
                reach_left.add(j)
                queue.append(j)
    return sorted(reach_left)


def analyze_matching(h: KPartiteHypergraph, m: Matching) -> MatchingAnalysis:
    """Hall deficiency, violator and extension of a prefix perfect matching.

    One SDR instance and one augmenting-path run give all three.  Each
    matched (element, vertex) pair becomes the hyperedge element + vertex of
    the extension, a maximum partial transversal, so the extension always
    has exactly t - deficiency edges.  The witness, present exactly when the
    deficiency is positive, is a subset A of the matching with
    |N(A)| = |A| - deficiency.
    """
    inst = sdr_instance(h, m)
    match_left, match_right = _kuhn(inst)
    # The elements are disjoint and in canonical order, and a last-part
    # vertex sorts after them, so the extension is canonical as built.
    extension = tuple([e + (v,) for e, v in zip(m, match_left) if v is not None])
    deficiency = len(m) - len(extension)
    witness = None
    if deficiency > 0:
        cut = _violator_cut(inst, match_left, match_right)
        witness = tuple([m[i] for i in cut])
    return MatchingAnalysis(
        prefix_matching=m,
        hall=HallReport(deficiency=deficiency, witness_violator=witness),
        extension=extension,
    )


def hall_subset_oracle(h: KPartiteHypergraph, m: Matching) -> HallReport:
    """The Hall report of ``analyze_matching``, by exhaustive subset enumeration.

    Deliberately independent of the augmenting-path engine; guarded at
    2^t subsets with t <= SUBSET_ORACLE_LIMIT.
    """
    inst = sdr_instance(h, m)
    t = len(inst)
    if t > SUBSET_ORACLE_LIMIT:
        raise TooLargeError(
            f"subset oracle limited to {SUBSET_ORACLE_LIMIT} elements, got {t}"
        )
    neighborhoods = [frozenset(adj) for adj in inst]
    best = 0
    best_mask = 0
    for mask in range(1 << t):
        union: set[int] = set()
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
        witness = tuple([m[i] for i in range(t) if best_mask >> i & 1])
    return HallReport(deficiency=best, witness_violator=witness)


@dataclass(frozen=True)
class HallVerdict:
    """Outcome of the prefix-matching criterion for a matching of size h.t.

    ``per_matching`` holds one analysis per enumerated prefix perfect
    matching; ``pm_count``, their number, is a lower bound when
    ``pm_count_is_lower_bound`` (enumeration stopped at the cap).  A
    positive or negative ``conclusion`` is only licensed per the rules in
    ``prefix_hall_verdict``; otherwise it is inconclusive.
    """

    applicable: bool
    reason: str | None
    pm_count_is_lower_bound: bool
    unique: bool | None
    per_matching: tuple[MatchingAnalysis, ...]
    conclusion: str | None
    message: str
    witness: Matching | None
    perfect_matching: bool

    @property
    def pm_count(self) -> int:
        return len(self.per_matching)

    @property
    def chosen(self) -> MatchingAnalysis | None:
        """Analysis of the first prefix matching in canonical order."""
        return self.per_matching[0] if self.per_matching else None


def _not_applicable(reason: str) -> HallVerdict:
    return HallVerdict(
        applicable=False,
        reason=reason,
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
    prefix_sizes = set(len(p) for p in h.parts[:-1])
    if prefix_sizes != {t}:
        return _not_applicable(
            f"prefix part sizes {sorted(prefix_sizes)} are not all {t}"
        )

    matchings = enumerate_perfect_matchings(h, limit=limit)
    if not matchings:
        return _not_applicable("prefix subhypergraph has no perfect matching")

    # Uniqueness is only known when enumeration exhausted the search; with
    # limit 1 a single hit leaves it undetermined (None).
    exhausted = len(matchings) < limit
    if exhausted:
        unique = len(matchings) == 1
    else:
        unique = False if len(matchings) >= 2 else None
    analyses = [analyze_matching(h, m) for m in matchings]

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

    perfect = conclusion == MATCHING_EXISTS and len(h.parts[-1]) == t
    if perfect:
        message += "; it is a perfect matching"

    return HallVerdict(
        applicable=True,
        reason=None,
        pm_count_is_lower_bound=len(matchings) == limit,
        unique=unique,
        per_matching=tuple(analyses),
        conclusion=conclusion,
        message=message,
        witness=witness,
        perfect_matching=perfect,
    )
