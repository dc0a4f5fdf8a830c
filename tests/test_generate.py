"""Seeded generators: determinism, densities, planted uniqueness."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kphall import (
    GeneratorParams,
    build_hypergraph,
    enumerate_perfect_matchings,
    gen_planted_unique,
    gen_random,
    prefix_hall_verdict,
    serialize_instance,
)
from kphall.generate import (
    _hasher,
    _planted_layout,
    _stream,
    derive_seed,
    randbelow,
    unit_float,
)
from kphall.hypergraph import prefix_traces


class TestRandom:
    def test_probability_one_gives_all_edges(self):
        params = GeneratorParams(k=3, part_sizes=(2, 2, 2), edge_probability=1.0)
        h = gen_random(params, 31337)
        assert len(h.edges) == 8

    def test_probability_zero_is_degenerate(self):
        params = GeneratorParams(k=3, part_sizes=(2, 2, 2), edge_probability=0.0)
        h = gen_random(params, 1)
        assert len(h.edges) == 0
        assert any("degenerate" in w for w in h.warnings)

    def test_determinism(self):
        params = GeneratorParams(k=3, part_sizes=(3, 2, 4), edge_probability=0.5)
        a = serialize_instance(gen_random(params, 99))
        b = serialize_instance(gen_random(params, 99))
        assert a == b

    def test_different_seeds_differ(self):
        params = GeneratorParams(k=3, part_sizes=(3, 3, 3), edge_probability=0.5)
        assert serialize_instance(gen_random(params, 1)) != serialize_instance(
            gen_random(params, 2)
        )

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            gen_random(GeneratorParams(k=2, part_sizes=(2, 2), edge_probability=1.5), 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            gen_random(GeneratorParams(k=3, part_sizes=(2, 2), edge_probability=0.5), 0)
        with pytest.raises(ValueError):
            gen_random(GeneratorParams(k=2, part_sizes=(2, 0), edge_probability=0.5), 0)

    def test_metadata_records_parameters(self):
        params = GeneratorParams(k=2, part_sizes=(2, 2), edge_probability=0.5)
        h = gen_random(params, 7)
        gen = h.metadata["generator"]
        assert gen["mode"] == "random" and gen["seed"] == 7


class TestPlantedUnique:
    def test_trivial_t1(self):
        params = GeneratorParams(k=3, part_sizes=(1, 1, 1), trace_density=0.0)
        h = gen_planted_unique(params, 5)
        assert len(enumerate_perfect_matchings(h, 2)) == 1

    def test_requested_example_is_unique(self):
        params = GeneratorParams(k=3, part_sizes=(3, 3, 3), trace_density=0.5)
        h = gen_planted_unique(params, 7)
        assert len(enumerate_perfect_matchings(h, 2)) == 1

    @pytest.mark.parametrize("seed", range(40))
    def test_uniqueness_across_seeds(self, seed):
        params = GeneratorParams(
            k=4, part_sizes=(4, 4, 4, 3), trace_density=0.7, attachments_per_trace=2
        )
        h = gen_planted_unique(params, seed)
        assert len(enumerate_perfect_matchings(h, 2)) == 1
        assert h.metadata["generator"]["attempt"] == 0

    @pytest.mark.parametrize("k, t", [(3, 40), (4, 15)])
    def test_uniqueness_proven_at_large_t(self, k, t):
        # A plain walk over the staircase backtracks exponentially here.
        params = GeneratorParams(k=k, part_sizes=(t,) * k, trace_density=0.4)
        h = gen_planted_unique(params, 1)
        assert len(enumerate_perfect_matchings(h, 2)) == 1
        assert prefix_hall_verdict(h).unique is True

    def test_determinism(self):
        params = GeneratorParams(k=3, part_sizes=(4, 4, 2), trace_density=0.6)
        a = serialize_instance(gen_planted_unique(params, 11))
        b = serialize_instance(gen_planted_unique(params, 11))
        assert a == b

    def test_prefix_sizes_must_match(self):
        with pytest.raises(ValueError):
            gen_planted_unique(
                GeneratorParams(k=3, part_sizes=(2, 3, 2), trace_density=0.5), 0
            )

    def test_k2_reduces_to_random_bipartite_attachment(self):
        params = GeneratorParams(k=2, part_sizes=(3, 3), trace_density=0.9)
        h = gen_planted_unique(params, 3)
        assert [len(tr) for tr in prefix_traces(h)] == [1, 1, 1]

    def test_retry_exhaustion_raises(self, monkeypatch):
        import kphall.generate as generate_module
        from kphall.errors import RetryExhaustedError

        monkeypatch.setattr(
            generate_module, "enumerate_perfect_matchings", lambda h, limit: []
        )
        params = GeneratorParams(k=3, part_sizes=(2, 2, 2), trace_density=0.5)
        with pytest.raises(RetryExhaustedError):
            gen_planted_unique(params, 0)

    def test_failed_self_check_raises_after_one_draw(self, monkeypatch):
        import kphall.generate as generate_module
        from kphall.errors import RetryExhaustedError

        calls = []

        def two_matchings(h, limit):
            calls.append(limit)
            return [(), ()]

        monkeypatch.setattr(
            generate_module, "enumerate_perfect_matchings", two_matchings
        )
        params = GeneratorParams(k=3, part_sizes=(2, 2, 2), trace_density=0.5)
        with pytest.raises(RetryExhaustedError):
            gen_planted_unique(params, 0)
        assert calls == [2]


class TestStaircasePrinciple:
    """Upper-triangular bipartite adjacency with a full diagonal has a
    unique perfect matching; checked against brute-force permutation count."""

    @pytest.mark.parametrize("t", range(1, 7))
    def test_unique_pm(self, t):
        # the bipartite staircase is the prefix of a 3-partite instance whose
        # last part is one vertex, so every edge's trace is a staircase pair
        parts = [[f"l{i}" for i in range(t)], [f"r{i}" for i in range(t)], ["z"]]
        edges = [
            [f"l{i}", f"r{j}", "z"] for i in range(t) for j in range(t) if i <= j
        ]
        h = build_hypergraph(parts, edges)
        brute = sum(
            1
            for perm in itertools.permutations(range(t))
            if all(i <= perm[i] for i in range(t))
        )
        assert brute == 1
        assert len(enumerate_perfect_matchings(h, limit=5)) == 1


class TestStream:
    def test_unit_float_range_and_determinism(self):
        values = [unit_float(123, "x", i) for i in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert values == [unit_float(123, "x", i) for i in range(100)]

    def test_path_separation(self):
        assert unit_float(1, "a", 2) != unit_float(1, "b", 2)
        assert unit_float(1, 2) != unit_float(2, 1)

    def test_randbelow_bounds(self):
        for i in range(50):
            assert 0 <= randbelow(9, 7, i) < 7

    def test_derive_seed_is_stable(self):
        assert derive_seed(5, "laps", 3) == derive_seed(5, "laps", 3)
        assert derive_seed(5, "laps", 3) != derive_seed(5, "laps", 4)

    def test_draws_match_unit_float(self):
        for path in [("edge",), ("trace", 3), ("attach", 0, 17)]:
            values = list(_stream(_hasher(2**64 + 9, *path), 12))
            assert values == [unit_float(2**64 + 9, *path, i) for i in range(12)]
        assert list(_stream(_hasher(3, "edge"), 0)) == []


# Each (generator, params, seed) below is serialized and hashed in order.
# The digest was recorded from the per-value draws the stream replaced, so
# any change to a generated byte fails this test.
_RANDOM_SHAPES = [
    (1, 3), (3, 2), (4, 4), (2, 3, 1), (3, 3, 3), (2, 4, 3), (2, 2, 2, 2), (3, 2, 3, 2)
]
# (k, t, last part size): last size 1, and last size below attachments = 3
_PLANTED_SHAPES = [
    (2, 1, 1), (2, 4, 2), (2, 5, 7), (3, 1, 1), (3, 3, 1),
    (3, 4, 2), (3, 5, 5), (4, 2, 1), (4, 3, 3), (4, 4, 2),
]
_STREAM_DIGEST = "ef39c4c97f0233bc802d154aa73e48b6c7e6a2a4ebc9952663f73f404dd02d06"


def _stream_cases():
    for sizes in _RANDOM_SHAPES:
        for p in (0.1, 0.5, 0.9):
            for seed in range(6):
                params = GeneratorParams(
                    k=len(sizes), part_sizes=sizes, edge_probability=p
                )
                yield gen_random, params, seed * 7919 + 3
    for k, t, last in _PLANTED_SHAPES:
        for density in (0.0, 0.4, 0.9):
            for attach in (1, 3):
                for seed in range(3):
                    params = GeneratorParams(
                        k=k,
                        part_sizes=(t,) * (k - 1) + (last,),
                        trace_density=density,
                        attachments_per_trace=attach,
                    )
                    yield gen_planted_unique, params, seed * 104729 + 11


def test_generator_stream_is_pinned():
    digest = hashlib.sha256()
    count = 0
    for gen, params, seed in _stream_cases():
        digest.update(serialize_instance(gen(params, seed)).encode("utf-8"))
        count += 1
    assert count == 324
    assert digest.hexdigest() == _STREAM_DIGEST


@pytest.mark.parametrize("coords", [1, 2, 3, 4])
def test_staircase_matches_filtered_reference(coords):
    for t in range(1, 9):
        reference = [
            tup
            for tup in itertools.product(range(t), repeat=coords)
            if all(tup[0] <= c for c in tup[1:])
        ]
        parts, _, candidates, diagonal = _planted_layout((t,) * coords + (2,))
        local = [
            tuple([v - part.start for v, part in zip(tup, parts)])
            for tup in candidates
        ]
        assert local == reference
        assert diagonal == {tuple([part[c] for part in parts[:-1]]) for c in range(t)}


def _label_route(h):
    """``h`` rebuilt from its labels by `build_hypergraph`, leniently."""
    parts = [[h.labels[v] for v in part] for part in h.parts]
    edges = [[h.labels[v] for v in e] for e in h.edges]
    return build_hypergraph(parts, edges, strict=False)


def _assert_label_route_agrees(h, generator):
    rebuilt = _label_route(h)
    assert h == rebuilt
    # warnings and metadata are left out of equality
    assert h.warnings == rebuilt.warnings
    assert h.metadata == {"generator": generator}


@st.composite
def _planted_shapes(draw):
    """k in 2..5 and a last part of size 1, below t or above t."""
    k = draw(st.integers(2, 5))
    t = draw(st.integers(1, 4 if k < 5 else 3))
    last = draw(st.sampled_from(sorted({1, max(1, t - 1), t + 1})))
    return k, t, last


_unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_seeds = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=5), _unit, _seeds)
def test_random_instance_matches_label_route(sizes, p, seed):
    k = len(sizes)
    params = GeneratorParams(k=k, part_sizes=tuple(sizes), edge_probability=p)
    h = gen_random(params, seed)
    _assert_label_route_agrees(
        h,
        {
            "mode": "random",
            "seed": seed,
            "k": k,
            "part_sizes": sizes,
            "edge_probability": p,
        },
    )


@settings(max_examples=60, deadline=None)
@given(_planted_shapes(), _unit, st.integers(1, 3), _seeds)
def test_planted_instance_matches_label_route(shape, density, attach, seed):
    k, t, last = shape
    sizes = (t,) * (k - 1) + (last,)
    params = GeneratorParams(
        k=k, part_sizes=sizes, trace_density=density, attachments_per_trace=attach
    )
    h = gen_planted_unique(params, seed)
    _assert_label_route_agrees(
        h,
        {
            "mode": "planted",
            "seed": seed,
            "k": k,
            "part_sizes": list(sizes),
            "trace_density": density,
            "attachments_per_trace": attach,
            "attempt": 0,
        },
    )
