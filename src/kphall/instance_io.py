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
edge ordered by part, the edge list sorted, metadata keys sorted.  One
writer renders both documents and the CLI's ``--json`` reports, byte for
byte as ``json.dumps(obj, indent=2)`` does, without the standard library's
pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .errors import ParseError, SchemaError, UnknownFixtureError
from .hypergraph import KPartiteHypergraph, build_hypergraph

__all__ = [
    "FORMAT_VERSION",
    "REPORT_VERSION",
    "FIXTURE_NAMES",
    "parse_instance",
    "serialize_instance",
    "fixture",
]

FORMAT_VERSION = "1"
# the schema version of every CLI report; it sits here, beside the file
# format, so that ``validate`` states it without loading the analysis layers
REPORT_VERSION = "1"

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
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
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
        # join refuses a non-string label; JSON escapes can spell lone
        # surrogates, which no report can print, and encoding refuses them.
        # Edge labels must be declared, so checking the parts covers them.
        try:
            "".join(part).encode("utf-8")
        except TypeError:
            raise SchemaError(f"part {i} labels must be strings") from None
        except UnicodeEncodeError:
            raise SchemaError(f"part {i} labels must be encodable as UTF-8") from None
    declared = {x for part in parts for x in part}
    edges = raw["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges must be an array")
    for i, edge in enumerate(edges):
        if not isinstance(edge, list) or len(edge) != k:
            raise SchemaError(f"edge {i} must be an array of {k} labels")
        # one C-level pass; only an edge that fails it is walked to name the
        # fault (an unhashable label makes issuperset raise TypeError)
        try:
            if declared.issuperset(edge):
                continue
        except TypeError:
            pass
        for x in edge:
            if not isinstance(x, str):
                raise SchemaError(f"edge {i} labels must be strings")
            if x not in declared:
                raise SchemaError(f"edge {i} references undeclared label {x!r}")
    metadata = raw.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("metadata must be an object")
    return build_hypergraph(parts, edges, strict=strict, metadata=metadata)


def serialize_instance(h: KPartiteHypergraph) -> str:
    """Canonical, byte-stable document text for an instance.

    Structurally equal instances serialize identically.  The round trip
    through `json` sorts the keys of every metadata object; metadata inside
    itself raises ValueError.
    """
    label = h.labels.__getitem__
    doc: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "k": h.k,
        "parts": [list(map(label, part)) for part in h.parts],
        "edges": [list(map(label, e)) for e in h.edges],
    }
    if h.metadata is not None:
        doc["metadata"] = json.loads(json.dumps(dict(h.metadata), sort_keys=True))
    return _json_text(doc) + "\n"


def _json_text(obj: Any, newline: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for a value placed after
    ``newline`` (a newline and the current indentation).

    Lists of strings are quoted in one C-level pass; every other container
    calls itself directly, one frame per level, so metadata nested nearly
    to the recursion limit still renders.  Containers are not checked for
    cycles: both callers pass freshly built trees.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj == math.inf:
            return "Infinity"
        if obj == -math.inf:
            return "-Infinity"
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj[0]) is str:
            try:
                return f"[{inner}{(',' + inner).join(map(_quote, obj))}{newline}]"
            except TypeError:
                pass  # not all strings
        items = []
        for value in obj:
            items.append(_json_text(value, inner))
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                # a scalar key is written as its JSON text, then quoted
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(
                        "keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}"
                    )
                key = _json_text(key)
            items.append(f"{_quote(key)}: {_json_text(value, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


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
    from importlib import resources  # costly to import, and only needed here

    text = resources.files(__package__).joinpath("data", filename).read_text("utf-8")
    return parse_instance(text, strict=strict)
