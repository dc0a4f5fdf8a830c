"""Seeded instance generators.

All randomness comes from a counter-based stream: every decision hashes the
64-bit seed together with a fixed path of counters, so values never depend
on evaluation order and equal (params, seed) always produce byte-identical
instances.  Value i of the stream at (seed, path) is the first 8 bytes of
SHA-256 over the encoded (seed, *path, i), scaled to [0, 1); `_stream`
yields values 0..n-1 of one path, hashing the path's prefix once and
copying that state per value.

Two modes:

* ``gen_random``: every possible edge (one vertex per part) is included
  independently with a fixed probability.
* ``gen_planted_unique``: prefix traces are the diagonal plus extra tuples
  whose first coordinate is minimal ("staircase"), which forces the prefix
  perfect matching to be unique; each trace is then attached to the
  last-part vertices with the lowest draws.  The output is re-checked by
  enumeration anyway.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import product
from math import prod
from string import ascii_lowercase
from typing import Iterator

from .errors import RetryExhaustedError
from .hypergraph import KPartiteHypergraph, build_hypergraph
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
_PLANTED_RETRIES = 100
# an integer path item: b"i" then the signed 64-bit big-endian value
_COUNTER = struct.Struct(">cq")
# a value's head: the first 8 digest bytes as an unsigned big-endian int
_HEAD = struct.Struct(">Q")


def _hasher(seed: int, *path: int | str):
    hasher = hashlib.sha256()
    hasher.update(struct.pack(">Q", seed & _MASK64))
    for item in path:
        if isinstance(item, str):
            data = item.encode("utf-8")
            hasher.update(b"s")
            hasher.update(struct.pack(">I", len(data)))
            hasher.update(data)
        else:
            hasher.update(_COUNTER.pack(b"i", item))
    return hasher


def _digest(seed: int, *path: int | str) -> bytes:
    return _hasher(seed, *path).digest()


def _stream(prefix, n: int) -> Iterator[float]:
    """The values ``unit_float(seed, *path, i)`` for i = 0..n-1, in order.

    ``prefix`` is ``_hasher(seed, *path)``; it is hashed once and copied per
    value, and ``_COUNTER`` encodes ``i`` exactly as ``_hasher`` does.
    """
    copy = prefix.copy
    pack = _COUNTER.pack
    head = _HEAD.unpack_from
    for i in range(n):
        hasher = copy()
        hasher.update(pack(b"i", i))
        yield head(hasher.digest())[0] / _TWO64


def unit_float(seed: int, *path: int | str) -> float:
    """Deterministic value in [0, 1) keyed by (seed, path)."""
    value = int.from_bytes(_digest(seed, *path)[:8], "big")
    return value / float(1 << 64)


def randbelow(seed: int, n: int, *path: int | str) -> int:
    """Deterministic integer in [0, n) keyed by (seed, path)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return int(unit_float(seed, *path) * n)


def derive_seed(seed: int, *path: int | str) -> int:
    """Derive an independent 64-bit sub-seed."""
    return int.from_bytes(_digest(seed, "derive", *path)[:8], "big")


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


def _part_labels(k: int, sizes: tuple[int, ...]) -> list[list[str]]:
    labels = []
    for i, size in enumerate(sizes):
        prefix = ascii_lowercase[i] if k <= len(ascii_lowercase) else f"p{i:02d}_"
        width = len(str(size))
        labels.append([f"{prefix}{j + 1:0{width}d}" for j in range(size)])
    return labels


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

    labels = _part_labels(params.k, params.part_sizes)
    edges = []
    values = _stream(_hasher(seed, "edge"), prod(params.part_sizes))
    for combo, value in zip(product(*labels), values):
        if value < p:
            edges.append(list(combo))
    metadata = {
        "generator": {
            "mode": "random",
            "seed": seed,
            "k": params.k,
            "part_sizes": list(params.part_sizes),
            "edge_probability": p,
        }
    }
    return build_hypergraph(labels, edges, strict=False, metadata=metadata)


def _staircase_tuples(t: int, coords: int) -> list[tuple[int, ...]]:
    """The tuples in range(t)^coords whose first coordinate is minimal.

    In lexicographic order: for each first coordinate c, the other
    coordinates run over range(c, t) in lexicographic order.
    """
    return [
        (c,) + rest
        for c in range(t)
        for rest in product(range(c, t), repeat=coords - 1)
    ]


def gen_planted_unique(params: GeneratorParams, seed: int) -> KPartiteHypergraph:
    """Instance whose prefix subhypergraph has exactly one perfect matching.

    The prefix traces are the diagonal plus a density-controlled sample of
    staircase tuples (first coordinate minimal).  Uniqueness follows by
    induction on the largest unused index, but the construction is not
    trusted: every candidate is verified with the enumerator and resampled
    on failure.  Exhausting the retries indicates a bug, not bad luck.
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
    t = params.part_sizes[0]
    last_size = params.part_sizes[-1]
    coords = params.k - 1
    labels = _part_labels(params.k, params.part_sizes)
    candidates = _staircase_tuples(t, coords)
    diagonal = {(c,) * coords for c in range(t)}
    max_attach = min(attachments, last_size)
    last_labels = labels[-1]

    for attempt in range(_PLANTED_RETRIES):
        # value i belongs to candidate i; the diagonal is kept whatever its value
        values = _stream(_hasher(seed, "trace", attempt), len(candidates))
        traces = [
            tup
            for tup, value in zip(candidates, values)
            if value < density or tup in diagonal
        ]

        edges = []
        nattach = _stream(_hasher(seed, "nattach", attempt), len(traces))
        attach = _hasher(seed, "attach", attempt)
        for rank, (tup, value) in enumerate(zip(traces, nattach)):
            count = 1 + int(value * max_attach)
            # the stream at (seed, "attach", attempt, rank); its shared head
            # is hashed once per attempt
            prefix = attach.copy()
            prefix.update(_COUNTER.pack(b"i", rank))
            scored = sorted(zip(_stream(prefix, last_size), range(last_size)))
            trace_labels = [labels[i][c] for i, c in enumerate(tup)]
            for _, j in scored[:count]:
                edges.append(trace_labels + [last_labels[j]])

        metadata = {
            "generator": {
                "mode": "planted",
                "seed": seed,
                "k": params.k,
                "part_sizes": list(params.part_sizes),
                "trace_density": density,
                "attachments_per_trace": attachments,
                "attempt": attempt,
            }
        }
        h = build_hypergraph(labels, edges, strict=False, metadata=metadata)
        found = enumerate_perfect_matchings(h, limit=2)
        if len(found) == 1:
            return h

    raise RetryExhaustedError(
        f"no unique-prefix instance after {_PLANTED_RETRIES} attempts; "
        "the staircase construction should never fail"
    )
