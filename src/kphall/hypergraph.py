"""Data model for k-uniform k-partite hypergraphs.

An instance has an ordered list of k pairwise-disjoint vertex parts and a
set of hyperedges, each taking exactly one vertex from every part.  A
vertex is an int id, numbered once, when the instance is built: labels
are sorted within each part and numbered part by part, so part i holds the
ids ``parts[i]``, a contiguous range, and ``labels[v]`` is the label of
vertex v.  Labels are read only where a report or a document is written.

Ids grow part by part, so an edge, a tuple of ids in increasing order, is
in part order, and the canonical edge list is sorted lexicographically by
those tuples.  All downstream tie-breaking (enumeration order, witnesses,
report bytes) inherits from this canonical order, so equal inputs always
produce identical outputs.  The build makes one pass over the edges: it
resolves and sorts each edge's ids and keys the edge by its local indices
read as one mixed-radix integer, which dedupes and orders the edge list.
Only an edge that is not one vertex per part takes a slower path, which
names the fault.  What follows canonicalization (coverage, the isolated
vertex warnings or error, the degenerate warning and the instance itself)
is one private tail, `_from_canonical`.  The seeded generators call it
directly: they number their vertices the same way and emit canonical id
edges, so a generated instance is never resolved or re-sorted.

The analysis needs one subhypergraph, the one generated on the first k-1
parts.  Its edges, the prefix traces, are the edges with their last-part
vertex removed.  Each instance caches one index from every prefix trace to
the last-part vertices completing it; the canonical edge list already
groups edges by trace, in canonical order, so the index is read off it in
one pass.  `prefix_traces` lists its keys and `neighborhood` reads the
paper's N(e) from it, so a neighborhood is always taken in the last part;
`rotate_parts` puts a different part last.

Instances are immutable; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, groupby
from typing import Iterable, Mapping, NoReturn, Sequence

from .errors import (
    DuplicateLabelError,
    IsolatedVertexError,
    NotPartiteError,
    NotUniformError,
    SamePartError,
    WrongArityError,
)

__all__ = [
    "Edge",
    "Matching",
    "KPartiteHypergraph",
    "build_hypergraph",
    "prefix_traces",
    "neighborhood",
    "neighborhood_of_set",
    "rotate_parts",
]

Edge = tuple[int, ...]
# Pairwise disjoint edges in canonical order.
Matching = tuple[Edge, ...]


@dataclass(frozen=True)
class KPartiteHypergraph:
    """A validated, canonically ordered k-uniform k-partite hypergraph.

    Equality sees the labels, so instances differing only in labels are
    unequal.
    """

    k: int
    parts: tuple[range, ...]
    labels: tuple[str, ...]
    edges: tuple[Edge, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)
    metadata: Mapping | None = field(default=None, compare=False)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        return tuple([len(p) for p in self.parts])

    @property
    def t(self) -> int:
        """Size of the first part; the target matching size in all verdicts."""
        return len(self.parts[0])

    @cached_property
    def _part_of(self) -> tuple[int, ...]:
        return tuple([i for i, p in enumerate(self.parts) for _ in p])

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def has_edge(self, edge: Iterable[int]) -> bool:
        return tuple(sorted(edge)) in self._edge_set

    @cached_property
    def _traces(self) -> dict[Edge, tuple[int, ...]]:
        """Each prefix trace -> the last-part vertices completing it.

        Edges sharing a trace are adjacent in the canonical edge list, with
        their last-part vertices in increasing order, so no sort is needed.
        """
        return {
            trace: tuple([e[-1] for e in group])
            for trace, group in groupby(self.edges, key=lambda e: e[:-1])
        }

    @cached_property
    def _bits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bitmasks for the exact solvers: per edge, then per part.

        Bit v stands for vertex v, so the bits of an edge in increasing
        order are its vertices in part order.
        """
        masks = tuple([sum([1 << v for v in e]) for e in self.edges])
        part_masks = tuple([((1 << len(p)) - 1) << p.start for p in self.parts])
        return masks, part_masks


def _reject_edge(
    labels: list[str], by_label: Mapping[str, int], part_of: list[int], k: int
) -> NoReturn:
    """Raise the error for an edge that does not take one vertex per part."""
    resolved = []
    for lab in labels:
        v = by_label.get(lab)
        if v is None:
            raise ValueError(f"edge references undeclared label {lab!r}")
        resolved.append(v)
    distinct = set(resolved)
    if len(distinct) != k or len(labels) != k:
        raise NotUniformError(
            f"edge {sorted(labels)} has {len(distinct)} vertices, expected {k}"
        )
    per_part = [0] * k
    for v in distinct:
        per_part[part_of[v]] += 1
    # k distinct vertices, not one per part: some part holds two or more
    bad = next(i for i, c in enumerate(per_part) if c > 1)
    raise NotPartiteError(
        f"edge {sorted(labels)} has {per_part[bad]} vertices in part {bad}"
    )


def build_hypergraph(
    parts: Sequence[Sequence[str]],
    edges: Iterable[Iterable[str]],
    *,
    strict: bool = True,
    metadata: Mapping | None = None,
) -> KPartiteHypergraph:
    """Validate raw parts and edges and return the canonical instance.

    Labels are sorted within each part and numbered part by part, edges are
    deduplicated and sorted.  An edge is valid when its ids, sorted, lie in
    parts 0..k-1 in turn.  Its key reads its local indices as the digits of
    one mixed-radix integer, the last part's index lowest, so sorting keys
    sorts edges lexicographically by ids.  The canonical edges then go
    through the construction tail the generators share: strict mode
    rejects isolated vertices; lenient mode records a warning per isolated
    vertex instead.

    Raises NotUniformError, NotPartiteError, DuplicateLabelError or
    IsolatedVertexError on invalid input.
    """
    k = len(parts)
    if k < 2:
        raise ValueError(f"need at least 2 parts, got {k}")
    if any(len(p) == 0 for p in parts):
        raise ValueError("every part must be nonempty")

    labels: list[str] = []
    ranges: list[range] = []
    part_of: list[int] = []
    by_label: dict[str, int] = {}
    for i, raw in enumerate(parts):
        start = len(labels)
        for lab in sorted(str(x) for x in raw):
            if lab in by_label:
                raise DuplicateLabelError(f"label {lab!r} declared twice")
            by_label[lab] = len(labels)
            labels.append(lab)
        ranges.append(range(start, len(labels)))
        part_of.extend([i] * len(ranges[-1]))

    # id -> its local index times the product of the later parts' sizes
    digit = [0] * len(labels)
    radix = 1
    for part in reversed(ranges):
        for v in part:
            digit[v] = (v - part.start) * radix
        radix *= len(part)

    id_of, part_at, digit_at = (
        by_label.__getitem__, part_of.__getitem__, digit.__getitem__
    )
    part_ids = list(range(k))
    canonical: dict[int, list[int]] = {}
    for raw_edge in edges:
        if type(raw_edge) is not list and type(raw_edge) is not tuple:
            raw_edge = list(raw_edge)  # read a one-shot iterable once
        try:
            ids = sorted(map(id_of, raw_edge))
        except (KeyError, TypeError):
            # a label that is not a declared str: resolve its str() form
            edge_labels = [str(x) for x in raw_edge]
            try:
                ids = sorted(map(id_of, edge_labels))
            except KeyError:
                _reject_edge(edge_labels, by_label, part_of, k)
        if list(map(part_at, ids)) != part_ids:
            _reject_edge([str(x) for x in raw_edge], by_label, part_of, k)
        canonical[sum(map(digit_at, ids))] = ids

    edge_list = tuple([tuple(canonical[key]) for key in sorted(canonical)])
    return _from_canonical(
        tuple(ranges), tuple(labels), edge_list, strict=strict, metadata=metadata
    )


def _from_canonical(
    ranges: tuple[range, ...],
    labels: tuple[str, ...],
    edges: tuple[Edge, ...],
    *,
    strict: bool,
    metadata: Mapping | None,
) -> KPartiteHypergraph:
    """The instance on already canonical parts, labels and edges.

    The shared tail of every construction: ``edges`` must be distinct id
    tuples, one vertex per part, in lexicographic order, as
    `build_hypergraph` leaves them and the generators emit them.  Checks
    coverage: strict mode raises IsolatedVertexError for an isolated
    vertex, lenient mode records a warning per isolated vertex instead.
    """
    covered = set(chain.from_iterable(edges))
    warnings = []
    for v, lab in enumerate(labels):
        if v not in covered:
            if strict:
                raise IsolatedVertexError(
                    f"vertex {lab!r} lies in no edge (strict mode)"
                )
            warnings.append(f"isolated vertex: {lab}")
    if not edges:
        warnings.append("degenerate: instance has no edges")

    return KPartiteHypergraph(
        k=len(ranges),
        parts=ranges,
        labels=labels,
        edges=edges,
        warnings=tuple(warnings),
        metadata=metadata,
    )


def prefix_traces(h: KPartiteHypergraph) -> tuple[Edge, ...]:
    """Edges of the subhypergraph generated on all parts but the last.

    Each is an edge minus its last-part vertex, listed once, in canonical
    order.
    """
    return tuple(h._traces)


def neighborhood(h: KPartiteHypergraph, sub: Iterable[int]) -> tuple[int, ...]:
    """N(sub): the last-part vertices v such that sub + {v} is an edge of h.

    In canonical order.  Empty when ``sub`` is not a prefix trace of h, which
    includes every set holding a last-part vertex; that is a valid outcome,
    not an error.  Raises WrongArityError unless ``sub`` has k-1 vertices,
    ValueError when one is not a vertex id of h and SamePartError when two
    of them share a part.
    """
    vs = tuple(sorted(sub))
    if len(vs) != h.k - 1:
        raise WrongArityError(f"expected {h.k - 1} vertices, got {len(vs)}")
    if vs[0] < 0 or vs[-1] >= len(h.labels):
        raise ValueError(f"{list(vs)} holds an id that is not a vertex of h")
    part_of = h._part_of
    if len({part_of[v] for v in vs}) != len(vs):
        raise SamePartError("two vertices share a part")
    return h._traces.get(vs, ())


def neighborhood_of_set(
    h: KPartiteHypergraph, subs: Iterable[Iterable[int]]
) -> tuple[int, ...]:
    """Union of the neighborhoods of the given prefix traces."""
    out: set[int] = set()
    for sub in subs:
        out.update(neighborhood(h, sub))
    return tuple(sorted(out))


def rotate_parts(h: KPartiteHypergraph, shift: int) -> KPartiteHypergraph:
    """Rotate the part ordering left by ``shift`` so another part plays last.

    Coverage is unchanged, so the rotated instance is rebuilt leniently; it
    carries the same labels and metadata.
    """
    r = shift % h.k
    if r == 0:
        return h
    order = list(range(r, h.k)) + list(range(r))
    parts = [[h.labels[v] for v in h.parts[i]] for i in order]
    edges = [[h.labels[v] for v in e] for e in h.edges]
    return build_hypergraph(parts, edges, strict=False, metadata=h.metadata)
