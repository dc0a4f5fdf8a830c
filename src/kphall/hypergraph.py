"""Data model for k-uniform k-partite hypergraphs.

An instance has an ordered list of k pairwise-disjoint vertex parts and a
set of hyperedges, each taking exactly one vertex from every part.  Building
an instance canonicalizes it: labels are sorted within each part, every edge
is sorted by part, and the edge list is sorted lexicographically by local
indices.  All downstream tie-breaking (enumeration order, witnesses, report
bytes) inherits from this canonical order, so equal inputs always produce
identical outputs.

Instances are immutable; every operation here is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateLabelError,
    EmptySubsetError,
    IsolatedVertexError,
    NotPartiteError,
    NotUniformError,
    SamePartError,
    WrongArityError,
)

__all__ = [
    "Vertex",
    "Edge",
    "KPartiteHypergraph",
    "SubmaximalEdge",
    "GeneratedSubhypergraph",
    "build_hypergraph",
    "generated_subhypergraph",
    "prefix_subhypergraph",
    "submaximal_edges",
    "neighborhood",
    "neighborhood_of_set",
    "rotate_parts",
]


@dataclass(frozen=True, order=True)
class Vertex:
    """A vertex at (part, index) with a display label.

    Within one instance (part, index) is already unique, so the label never
    decides the canonical order; it does participate in equality, keeping
    vertices from differently labeled instances distinct.
    """

    part: int
    index: int
    label: str

    def __str__(self) -> str:
        return self.label


Edge = tuple[Vertex, ...]


@dataclass(frozen=True)
class KPartiteHypergraph:
    """A validated, canonically ordered k-uniform k-partite hypergraph."""

    k: int
    parts: tuple[tuple[Vertex, ...], ...]
    edges: tuple[Edge, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)
    metadata: Mapping | None = field(default=None, compare=False)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def t(self) -> int:
        """Size of the first part; the target matching size in all verdicts."""
        return len(self.parts[0])

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for part in self.parts for v in part)

    @cached_property
    def _by_label(self) -> dict[str, Vertex]:
        return {v.label: v for part in self.parts for v in part}

    def vertex(self, label: str) -> Vertex:
        """Look up a vertex by its label."""
        return self._by_label[label]

    def edge_by_labels(self, labels: Iterable[str]) -> Edge:
        """Build a canonical edge tuple from labels (need not be an edge of H)."""
        return tuple(sorted(self.vertex(x) for x in labels))

    @cached_property
    def _edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def has_edge(self, edge: Iterable[Vertex]) -> bool:
        return tuple(sorted(edge)) in self._edge_set

    @cached_property
    def _completions(self) -> dict[tuple[Vertex, ...], tuple[Vertex, ...]]:
        """Each (k-1)-subtuple of an edge -> the sorted vertices completing it."""
        found: dict[tuple[Vertex, ...], list[Vertex]] = {}
        for e in self.edges:
            for i, v in enumerate(e):
                found.setdefault(e[:i] + e[i + 1 :], []).append(v)
        return {key: tuple(sorted(vs)) for key, vs in found.items()}

    def prefix_parts(self) -> tuple[tuple[Vertex, ...], ...]:
        """All parts except the last."""
        return self.parts[:-1]

    def last_part(self) -> tuple[Vertex, ...]:
        return self.parts[-1]


@dataclass(frozen=True, order=True)
class SubmaximalEdge:
    """A (k-1)-set of vertices contained in at least one hyperedge."""

    vertices: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        parts = [v.part for v in self.vertices]
        if len(set(parts)) != len(parts):
            raise SamePartError(f"two vertices share a part in {self}")

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __str__(self) -> str:
        return "{" + ",".join(v.label for v in self.vertices) + "}"


@dataclass(frozen=True)
class GeneratedSubhypergraph:
    """Traces of the edges of a host hypergraph on a base vertex set.

    ``parts`` is attached only when the base set is a union of whole parts
    of the host; only then do uniformity and perfect matchings make sense.
    """

    base_vertices: tuple[Vertex, ...]
    traces: tuple[Edge, ...]
    parts: tuple[tuple[Vertex, ...], ...] | None = None

    @property
    def part_sizes(self) -> tuple[int, ...] | None:
        if self.parts is None:
            return None
        return tuple(len(p) for p in self.parts)


def _canonical_edge_key(edge: Edge) -> tuple[int, ...]:
    return tuple(v.index for v in edge)


def build_hypergraph(
    parts: Sequence[Sequence[str]],
    edges: Iterable[Iterable[str]],
    *,
    strict: bool = True,
    metadata: Mapping | None = None,
) -> KPartiteHypergraph:
    """Validate raw parts and edges and return the canonical instance.

    Labels are sorted within each part, edges are deduplicated and sorted.
    Strict mode rejects isolated vertices; lenient mode records a warning
    per isolated vertex instead.

    Raises NotUniformError, NotPartiteError, DuplicateLabelError or
    IsolatedVertexError on invalid input.
    """
    k = len(parts)
    if k < 2:
        raise ValueError(f"need at least 2 parts, got {k}")
    if any(len(p) == 0 for p in parts):
        raise ValueError("every part must be nonempty")

    seen: set[str] = set()
    vertex_parts: list[tuple[Vertex, ...]] = []
    by_label: dict[str, Vertex] = {}
    for i, raw in enumerate(parts):
        labels = sorted(str(x) for x in raw)
        for j, lab in enumerate(labels):
            if lab in seen:
                raise DuplicateLabelError(f"label {lab!r} declared twice")
            seen.add(lab)
        vs = tuple(Vertex(i, j, lab) for j, lab in enumerate(labels))
        vertex_parts.append(vs)
        by_label.update((v.label, v) for v in vs)

    canonical: set[Edge] = set()
    for raw_edge in edges:
        labels = [str(x) for x in raw_edge]
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
            per_part[v.part] += 1
        if any(c != 1 for c in per_part):
            bad = next(i for i, c in enumerate(per_part) if c > 1)
            raise NotPartiteError(
                f"edge {sorted(labels)} has {per_part[bad]} vertices in part {bad}"
            )
        canonical.add(tuple(sorted(distinct)))

    edge_list = tuple(sorted(canonical, key=_canonical_edge_key))

    covered = {v for e in edge_list for v in e}
    warnings = []
    for part in vertex_parts:
        for v in part:
            if v not in covered:
                if strict:
                    raise IsolatedVertexError(
                        f"vertex {v.label!r} lies in no edge (strict mode)"
                    )
                warnings.append(f"isolated vertex: {v.label}")
    if not edge_list:
        warnings.append("degenerate: instance has no edges")

    return KPartiteHypergraph(
        k=k,
        parts=tuple(vertex_parts),
        edges=edge_list,
        warnings=tuple(warnings),
        metadata=metadata,
    )


def generated_subhypergraph(
    h: KPartiteHypergraph, base: Iterable[Vertex]
) -> GeneratedSubhypergraph:
    """Deduplicated nonempty traces of the edges of ``h`` on ``base``."""
    base_set = frozenset(base)
    if not base_set:
        raise EmptySubsetError("base vertex set is empty")
    all_vertices = set(h.vertices())
    foreign = base_set - all_vertices
    if foreign:
        raise ValueError(f"vertices not in the hypergraph: {sorted(foreign)}")

    traces = {
        tuple(sorted(set(e) & base_set)) for e in h.edges if set(e) & base_set
    }
    trace_list = tuple(sorted(traces, key=_canonical_edge_key))

    part_structure = None
    selected = [p for p in h.parts if base_set.issuperset(p)]
    if selected and sum(len(p) for p in selected) == len(base_set):
        part_structure = tuple(selected)

    return GeneratedSubhypergraph(
        base_vertices=tuple(sorted(base_set)),
        traces=trace_list,
        parts=part_structure,
    )


def prefix_subhypergraph(h: KPartiteHypergraph) -> GeneratedSubhypergraph:
    """The subhypergraph generated on the union of all parts but the last."""
    base = [v for part in h.prefix_parts() for v in part]
    return generated_subhypergraph(h, base)


def submaximal_edges(h: KPartiteHypergraph) -> tuple[SubmaximalEdge, ...]:
    """All (k-1)-subsets of vertices contained in at least one edge, sorted."""
    return tuple(sorted(SubmaximalEdge(key) for key in h._completions))


def _as_vertex_tuple(sub: SubmaximalEdge | Iterable[Vertex]) -> tuple[Vertex, ...]:
    if isinstance(sub, SubmaximalEdge):
        return sub.vertices
    return tuple(sorted(sub))


def neighborhood(
    h: KPartiteHypergraph, sub: SubmaximalEdge | Iterable[Vertex]
) -> tuple[Vertex, ...]:
    """Vertices v such that sub + {v} is an edge of h, in canonical order.

    Empty when ``sub`` is not a submaximal edge of h; that is a valid
    outcome, not an error.
    """
    vs = _as_vertex_tuple(sub)
    if len(vs) != h.k - 1:
        raise WrongArityError(f"expected {h.k - 1} vertices, got {len(vs)}")
    parts = [v.part for v in vs]
    if len(set(parts)) != len(parts):
        raise SamePartError("two vertices share a part")
    return h._completions.get(vs, ())


def neighborhood_of_set(
    h: KPartiteHypergraph, subs: Iterable[SubmaximalEdge | Iterable[Vertex]]
) -> tuple[Vertex, ...]:
    """Union of the neighborhoods of the given submaximal edges."""
    out: set[Vertex] = set()
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
    parts = [[v.label for v in h.parts[i]] for i in order]
    edges = [[v.label for v in e] for e in h.edges]
    return build_hypergraph(parts, edges, strict=False, metadata=h.metadata)
