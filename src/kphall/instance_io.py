"""Instance file format and bundled fixtures.

An instance document is a UTF-8 JSON object:

    {
      "format_version": "1",
      "k": 3,
      "parts": [["x1", "x2"], ["y1", "y2"], ["z1", "z2"]],
      "edges": [["x1", "y1", "z1"], ...],
      "metadata": {...}            # optional, free-form
    }

Unknown top-level fields are rejected.  Serialization is canonical and
byte-stable: keys in the order above, labels sorted within each part, each
edge ordered by part, the edge list sorted, metadata keys sorted.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Any, Mapping

from .errors import ParseError, SchemaError, UnknownFixtureError
from .hypergraph import KPartiteHypergraph, build_hypergraph

__all__ = [
    "FORMAT_VERSION",
    "FIXTURE_NAMES",
    "parse_instance",
    "serialize_instance",
    "fixture",
]

FORMAT_VERSION = "1"

_TOP_LEVEL_KEYS = ("format_version", "k", "parts", "edges", "metadata")

# name -> (resource file, strict build). The bipartite Hall counterexample
# keeps an uncovered vertex on purpose, so it only builds leniently.
_FIXTURES: dict[str, tuple[str, bool]] = {
    "nonunique_prefix": ("nonunique_prefix.json", True),
    "duality_gap": ("duality_gap.json", True),
    "k2_hall_fail": ("k2_hall_fail.json", False),
    "k3_single_edge": ("k3_single_edge.json", True),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def parse_instance(text: str, *, strict: bool = True) -> KPartiteHypergraph:
    """Parse and validate an instance document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("top level must be an object")
    unknown = set(raw) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise SchemaError(f"unknown fields: {sorted(unknown)}")
    for key in ("format_version", "k", "parts", "edges"):
        if key not in raw:
            raise SchemaError(f"missing field: {key}")
    if raw["format_version"] != FORMAT_VERSION:
        raise SchemaError(
            f"unsupported format_version {raw['format_version']!r}"
        )
    k = raw["k"]
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise SchemaError("k must be an integer >= 2")
    parts = raw["parts"]
    if not isinstance(parts, list) or len(parts) != k:
        raise SchemaError(f"parts must be an array of {k} arrays")
    for i, part in enumerate(parts):
        if not isinstance(part, list) or not part:
            raise SchemaError(f"part {i} must be a nonempty array")
        if not all(isinstance(x, str) for x in part):
            raise SchemaError(f"part {i} labels must be strings")
    declared = {x for part in parts for x in part}
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges must be an array")
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != k:
            raise SchemaError(f"edge {i} must be an array of {k} labels")
        for x in edge:
            if not isinstance(x, str):
                raise SchemaError(f"edge {i} labels must be strings")
            if x not in declared:
                raise SchemaError(f"edge {i} references undeclared label {x!r}")
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    return build_hypergraph(parts, edges, strict=strict, metadata=metadata)


def _normalize_metadata(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _normalize_metadata(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_normalize_metadata(x) for x in value]
    return value


def serialize_instance(
    h: KPartiteHypergraph, *, metadata: Mapping | None = None
) -> str:
    """Canonical, byte-stable document text for an instance.

    Structurally equal instances serialize identically.  Metadata defaults
    to whatever the instance carries.
    """
    meta = h.metadata if metadata is None else metadata
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "k": h.k,
        "parts": [[v.label for v in part] for part in h.parts],
        "edges": [[v.label for v in e] for e in h.edges],
    }
    if meta is not None:
        doc["metadata"] = _normalize_metadata(dict(meta))
    return json.dumps(doc, indent=2) + "\n"


def fixture(name: str) -> KPartiteHypergraph:
    """Load one of the bundled sample instances by name.

    * ``nonunique_prefix``: 3-partite, 4 edges; its prefix has two perfect
      matchings, one violating the neighborhood condition even though a
      full-size matching exists.
    * ``duality_gap``: 3-partite, 3 edges; maximum matching 1 but minimum
      vertex cover 2, so no matching saturates the first part.
    * ``k2_hall_fail``: bipartite with two left vertices competing for one
      right vertex (classical Hall failure).
    * ``k3_single_edge``: one edge, all parts of size 1.
    """
    try:
        filename, strict = _FIXTURES[name]
    except KeyError:
        raise UnknownFixtureError(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        ) from None
    text = resources.files(__package__).joinpath("data", filename).read_text("utf-8")
    return parse_instance(text, strict=strict)
