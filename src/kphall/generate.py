"""Seeded instance generators.

All randomness comes from a counter-based stream: every decision hashes the
64-bit seed together with a fixed path of counters, so values never depend
on evaluation order and equal (params, seed) always produce byte-identical
instances.  Value i of the stream at (seed, path) is the first 8 bytes of
SHA-256 over the encoded (seed, *path, i), scaled to [0, 1).  `_path_bytes`
is the one encoder: a scalar draw hashes its bytes in one call, and
`_stream` yields values 0..n-1 of one path, hashing the path's bytes once
and copying that state per value.  ``hashlib`` (and with it OpenSSL) is
imported by the first draw, not by importing this module, so a process
that never draws an instance never loads it.

Generation works in vertex ids, not labels.  A shape's layout (the part
ranges and the label table, numbered as `build_hypergraph` numbers them,
plus the staircase candidates and the diagonal for planted mode) is a pure
function of the part sizes and is cached.  Both generators emit their
edges as id tuples already in canonical order, and hand them to the
construction tail that `build_hypergraph` ends with, so no edge is ever
spelled in labels, resolved or re-sorted.

Two modes:

* ``gen_random``: every possible edge (one vertex per part) is included
  independently with a fixed probability.
* ``gen_planted_unique``: prefix traces are the diagonal plus extra tuples
  whose first coordinate is minimal ("staircase"), which forces the prefix
  perfect matching to be unique; each trace is then attached to the
  last-part vertices with the lowest draws.  The output is re-checked by
  enumeration anyway, and a failed check raises rather than drawing again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import prod
from string import ascii_lowercase
from typing import Iterator

from .errors import RetryExhaustedError
from .hypergraph import KPartiteHypergraph, _from_canonical
from .matching import enumerate_perfect_matchings

__all__ = [
    "GeneratorParams",
    "gen_random",
    "gen_planted_unique",
    "unit_float",
    "randbelow",
    "derive_seed",
]

_MASK64 = (1 << 64) - 1
_TWO64 = float(1 << 64)
# shapes whose layouts are kept; a layout is rebuilt cheaply after eviction
_LAYOUTS = 256
# an integer path item: b"i" then the signed 64-bit big-endian value
_COUNTER = struct.Struct(">cq")
# a string path item's head: b"s" then its UTF-8 byte length; the bytes follow
_TEXT = struct.Struct(">cI")
# an unsigned 64-bit big-endian int: the seed, first on every path, and a
# value's head, the first 8 digest bytes
_U64 = struct.Struct(">Q")
# hashlib.sha256, bound by the first draw: importing hashlib loads OpenSSL
_sha256 = None


def _path_bytes(seed: int, *path: int | str) -> bytes:
    """The encoded (seed, *path) that every draw at that path hashes."""
    chunks = [_U64.pack(seed & _MASK64)]
    for item in path:
        if isinstance(item, str):
            data = item.encode("utf-8")
            chunks.append(_TEXT.pack(b"s", len(data)))
            chunks.append(data)
        else:
            chunks.append(_COUNTER.pack(b"i", item))
    return b"".join(chunks)


def _hasher(seed: int, *path: int | str):
    """A SHA-256 state over ``_path_bytes(seed, *path)``, to copy or finish."""
    global _sha256
    if _sha256 is None:
        from hashlib import sha256 as _sha256
    return _sha256(_path_bytes(seed, *path))


def _digest(seed: int, *path: int | str) -> bytes:
    return _hasher(seed, *path).digest()


def _stream(prefix, n: int) -> Iterator[float]:
    """The values ``unit_float(seed, *path, i)`` for i = 0..n-1, in order.

    ``prefix`` is ``_hasher(seed, *path)``; it is hashed once and copied per
    value, and ``_COUNTER`` encodes ``i`` exactly as `_path_bytes` does.
    """
    copy = prefix.copy
    pack = _COUNTER.pack
    head = _U64.unpack_from
    for i in range(n):
        hasher = copy()
        hasher.update(pack(b"i", i))
        yield head(hasher.digest())[0] / _TWO64


def unit_float(seed: int, *path: int | str) -> float:
    """Deterministic value in [0, 1) keyed by (seed, path)."""
    return _U64.unpack_from(_digest(seed, *path))[0] / _TWO64


def randbelow(seed: int, n: int, *path: int | str) -> int:
    """Deterministic integer in [0, n) keyed by (seed, path)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return int(unit_float(seed, *path) * n)


def derive_seed(seed: int, *path: int | str) -> int:
    """Derive an independent 64-bit sub-seed."""
    return _U64.unpack_from(_digest(seed, "derive", *path))[0]


@dataclass(frozen=True)
class GeneratorParams:
    """Shape and density knobs; the mode is picked by the function called.

    Random mode reads ``edge_probability``; planted mode reads the other two.
    """

    k: int
    part_sizes: tuple[int, ...]
    edge_probability: float | None = None
    trace_density: float = 0.4
    attachments_per_trace: int = 2

    def _check_shape(self) -> None:
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if len(self.part_sizes) != self.k:
            raise ValueError(
                f"part_sizes has {len(self.part_sizes)} entries, expected {self.k}"
            )
        if any(s < 1 for s in self.part_sizes):
            raise ValueError("part sizes must be positive")


@lru_cache(maxsize=_LAYOUTS)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple[range, ...], tuple[str, ...]]:
    """The part ranges and the label table of a shape.

    Part i's labels are its letter (or ``pNN_`` past 26 parts) and the
    1-based index, zero-padded to one width, so they sort in index order
    and `build_hypergraph` would number them exactly as here.
    """
    k = len(sizes)
    ranges = []
    labels: list[str] = []
    for i, size in enumerate(sizes):
        prefix = ascii_lowercase[i] if k <= len(ascii_lowercase) else f"p{i:02d}_"
        width = len(str(size))
        ranges.append(range(len(labels), len(labels) + size))
        labels.extend([f"{prefix}{j + 1:0{width}d}" for j in range(size)])
    return tuple(ranges), tuple(labels)


def gen_random(params: GeneratorParams, seed: int) -> KPartiteHypergraph:
    """Independent-edge random instance; lenient, so isolated vertices warn.

    Possible edges are ranked lexicographically and each gets its own
    counter, so the instance is a pure function of (params, seed).  The
    candidates are streamed, never held in a list.
    """
    params._check_shape()
    p = params.edge_probability
    if p is None or not 0.0 <= p <= 1.0:
        raise ValueError("edge_probability must be in [0, 1]")

    ranges, labels = _layout(tuple(params.part_sizes))
    values = _stream(_hasher(seed, "edge"), prod(params.part_sizes))
    # product over the ranges yields id tuples in canonical order
    edges = tuple(
        [edge for edge, value in zip(product(*ranges), values) if value < p]
    )
    metadata = {
        "generator": {
            "mode": "random",
            "seed": seed,
            "k": params.k,
            "part_sizes": list(params.part_sizes),
            "edge_probability": p,
        }
    }
    return _from_canonical(ranges, labels, edges, strict=False, metadata=metadata)


@lru_cache(maxsize=_LAYOUTS)
def _planted_layout(sizes: tuple[int, ...]) -> tuple:
    """`_layout` plus the staircase candidates and the diagonal, as id tuples.

    The candidates are the prefix traces whose first local index is
    minimal, in lexicographic order: for first index c, the other parts'
    ids run over their ranges from local index c on.
    """
    ranges, labels = _layout(sizes)
    prefix_parts = ranges[:-1]
    candidates = tuple(
        [
            (first,) + rest
            for c, first in enumerate(prefix_parts[0])
            for rest in product(*[part[c:] for part in prefix_parts[1:]])
        ]
    )
    return ranges, labels, candidates, frozenset(zip(*prefix_parts))


def gen_planted_unique(params: GeneratorParams, seed: int) -> KPartiteHypergraph:
    """Instance whose prefix subhypergraph has exactly one perfect matching.

    The prefix traces are the diagonal plus a density-controlled sample of
    staircase tuples (first coordinate minimal).  Uniqueness follows by
    induction on the largest unused index, but the construction is not
    trusted: the instance is checked with the enumerator, and a prefix
    without exactly one perfect matching raises `RetryExhaustedError` (a
    bug, not bad luck).
    """
    params._check_shape()
    density = params.trace_density
    if not 0.0 <= density <= 1.0:
        raise ValueError("trace_density must be in [0, 1]")
    attachments = params.attachments_per_trace
    if attachments < 1:
        raise ValueError("attachments_per_trace must be >= 1")

    prefix_sizes = set(params.part_sizes[:-1])
    if len(prefix_sizes) != 1:
        raise ValueError(
            f"prefix part sizes must all be equal, got {params.part_sizes[:-1]}"
        )
    ranges, labels, candidates, diagonal = _planted_layout(tuple(params.part_sizes))
    last = ranges[-1]
    last_size = len(last)
    max_attach = min(attachments, last_size)

    # value i belongs to candidate i; the diagonal is kept whatever its value
    values = _stream(_hasher(seed, "trace", 0), len(candidates))
    traces = [
        tup
        for tup, value in zip(candidates, values)
        if value < density or tup in diagonal
    ]

    edges = []
    nattach = _stream(_hasher(seed, "nattach", 0), len(traces))
    attach = _hasher(seed, "attach", 0)
    for rank, (tup, value) in enumerate(zip(traces, nattach)):
        count = 1 + int(value * max_attach)
        # the stream at (seed, "attach", 0, rank); its shared head is hashed
        # once per instance
        prefix = attach.copy()
        prefix.update(_COUNTER.pack(b"i", rank))
        scored = sorted(zip(_stream(prefix, last_size), last))
        # traces come in canonical order, so sorting each trace's chosen
        # last-part vertices leaves the whole edge list canonical
        chosen = sorted([v for _, v in scored[:count]])
        edges.extend([tup + (v,) for v in chosen])

    metadata = {
        "generator": {
            "mode": "planted",
            "seed": seed,
            "k": params.k,
            "part_sizes": list(params.part_sizes),
            "trace_density": density,
            "attachments_per_trace": attachments,
            # fixed, like the 0 in the stream paths: changing either changes
            # every planted instance
            "attempt": 0,
        }
    }
    h = _from_canonical(ranges, labels, tuple(edges), strict=False, metadata=metadata)
    if len(enumerate_perfect_matchings(h, limit=2)) != 1:
        raise RetryExhaustedError(
            "the staircase construction gave a prefix without a unique "
            "perfect matching"
        )
    return h
