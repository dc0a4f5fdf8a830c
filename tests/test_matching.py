"""Matching engine: enumeration, SDR solver, deficiency, extension, verdict."""

import pytest

from kphall import (
    analyze_matching,
    build_hypergraph,
    enumerate_perfect_matchings,
    prefix_hall_verdict,
)
from kphall.errors import NotPerfectPrefixMatchingError, TooLargeError
from kphall.hypergraph import neighborhood_of_set
from kphall.matching import (
    INCONCLUSIVE,
    MATCHING_EXISTS,
    NO_MATCHING,
    _kuhn,
    hall_subset_oracle,
    sdr_instance,
)
from conftest import labels, vertex


def vertex_tuple(h, names):
    return tuple(sorted(vertex(h, x) for x in names))


def prefix_matching(h, *edges):
    return tuple(sorted(vertex_tuple(h, e) for e in edges))


class TestEnumeratePerfectMatchings:
    def test_nonunique_prefix_has_two(self, nonunique):
        ms = enumerate_perfect_matchings(nonunique, limit=2)
        assert len(ms) == 2
        found = {tuple(tuple(nonunique.labels[v] for v in e) for e in m) for m in ms}
        assert found == {
            (("x1", "y1"), ("x2", "y2")),
            (("x1", "y2"), ("x2", "y1")),
        }

    def test_limit_caps_enumeration(self, nonunique):
        ms = enumerate_perfect_matchings(nonunique, limit=1)
        assert len(ms) == 1

    def test_gap_prefix_is_unique(self, gap):
        ms = enumerate_perfect_matchings(gap, limit=5)
        assert len(ms) == 1
        assert labels(gap, ms[0]) == [["1", "3"], ["2", "4"]]

    def test_unequal_part_sizes_no_pm(self):
        h = build_hypergraph(
            [["a", "b"], ["c"], ["d"]],
            [["a", "c", "d"], ["b", "c", "d"]],
        )
        assert enumerate_perfect_matchings(h, limit=2) == []

    def test_later_matching_reuses_the_last_trace(self):
        # both matchings end in {x3,y3}; the second is found only if taking
        # it the first time is fully undone
        parts = [["x1", "x2", "x3"], ["y1", "y2", "y3"], ["z"]]
        pairs = [("x1", "y1"), ("x1", "y2"), ("x2", "y1"), ("x2", "y2"), ("x3", "y3")]
        h = build_hypergraph(parts, [[x, y, "z"] for x, y in pairs])
        ms = enumerate_perfect_matchings(h, limit=3)
        assert [labels(h, m) for m in ms] == [
            [["x1", "y1"], ["x2", "y2"], ["x3", "y3"]],
            [["x1", "y2"], ["x2", "y1"], ["x3", "y3"]],
        ]

    def test_prefix_vertex_in_no_trace_means_no_pm(self):
        h = build_hypergraph(
            [["x1", "x2"], ["y1", "y2"], ["z"]],
            [["x1", "y1", "z"], ["x2", "y1", "z"]],
            strict=False,
        )
        assert enumerate_perfect_matchings(h, limit=2) == []


class TestKuhn:
    def _inst(self, h, adjacency):
        return tuple(tuple(vertex(h, x) for x in vs) for vs in adjacency.values())

    def test_competing_singletons(self, gap):
        inst = self._inst(gap, {("1", "3"): ("5",), ("2", "4"): ("5",)})
        z = vertex(gap, "5")
        assert _kuhn(inst) == ([z, None], {z: 0})

    def test_disjoint_singletons(self, nonunique):
        inst = self._inst(
            nonunique, {("x1", "y1"): ("z1",), ("x2", "y2"): ("z2",)}
        )
        match_left, match_right = _kuhn(inst)
        assert [nonunique.labels[v] for v in match_left] == ["z1", "z2"]
        assert match_right == {v: i for i, v in enumerate(match_left)}

    def test_empty_left(self, gap):
        assert _kuhn(()) == ([], {})

    def test_deterministic(self, gap):
        m = prefix_matching(gap, ("1", "3"), ("2", "4"))
        inst = sdr_instance(gap, m)
        assert _kuhn(inst) == _kuhn(inst)


class TestHallDeficiency:
    def test_violating_prefix_matching(self, nonunique):
        m = prefix_matching(nonunique, ("x1", "y2"), ("x2", "y1"))
        a = analyze_matching(nonunique, m)
        r = a.hall
        assert (len(m), len(a.extension), r.deficiency) == (2, 1, 1)
        assert labels(nonunique, r.witness_violator) == [
            ["x1", "y2"],
            ["x2", "y1"],
        ]
        nb = neighborhood_of_set(nonunique, r.witness_violator)
        assert nb == (vertex(nonunique, "z2"),)

    def test_satisfying_prefix_matching(self, nonunique):
        m = prefix_matching(nonunique, ("x1", "y1"), ("x2", "y2"))
        r = analyze_matching(nonunique, m).hall
        assert r.deficiency == 0
        assert r.witness_violator is None

    def test_gap_matching(self, gap):
        m = prefix_matching(gap, ("1", "3"), ("2", "4"))
        r = analyze_matching(gap, m).hall
        assert r.deficiency == 1
        assert labels(gap, r.witness_violator) == [
            ["1", "3"],
            ["2", "4"],
        ]

    def test_rejects_non_trace(self, gap):
        m = prefix_matching(gap, ("1", "4"), ("2", "3"))
        with pytest.raises(NotPerfectPrefixMatchingError):
            analyze_matching(gap, m)

    def test_rejects_partial_cover(self, nonunique):
        m = prefix_matching(nonunique, ("x1", "y1"))
        with pytest.raises(NotPerfectPrefixMatchingError):
            analyze_matching(nonunique, m)

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize(
        "check", [sdr_instance, analyze_matching, hall_subset_oracle]
    )
    def test_rejects_ids_outside_the_instance(self, nonunique, check, bad):
        # -1 would index the last part and 6 (= n) no vertex at all
        x1, x2y2 = vertex(nonunique, "x1"), vertex_tuple(nonunique, ["x2", "y2"])
        m = ((x1, bad), x2y2)
        with pytest.raises(NotPerfectPrefixMatchingError, match=rf"\[0, {bad}\]"):
            check(nonunique, m)


class TestHallSubsetOracle:
    def test_matches_engine_on_fixtures(self, nonunique, gap):
        cases = [
            (nonunique, [("x1", "y2"), ("x2", "y1")]),
            (nonunique, [("x1", "y1"), ("x2", "y2")]),
            (gap, [("1", "3"), ("2", "4")]),
        ]
        for h, edges in cases:
            m = prefix_matching(h, *edges)
            fast = analyze_matching(h, m).hall
            slow = hall_subset_oracle(h, m)
            assert fast.deficiency == slow.deficiency

    def test_oracle_witness_attains_deficiency(self, gap):
        m = prefix_matching(gap, ("1", "3"), ("2", "4"))
        r = hall_subset_oracle(gap, m)
        nb = neighborhood_of_set(gap, r.witness_violator)
        assert len(nb) == len(r.witness_violator) - r.deficiency

    def test_size_guard(self):
        t = 21
        parts = [
            [f"a{i:02d}" for i in range(t)],
            [f"b{i:02d}" for i in range(t)],
        ]
        edges = [[f"a{i:02d}", f"b{i:02d}"] for i in range(t)]
        h = build_hypergraph(parts, edges)
        m = tuple([vertex_tuple(h, [f"a{i:02d}"]) for i in range(t)])
        with pytest.raises(TooLargeError):
            hall_subset_oracle(h, m)


class TestExtendMatching:
    def test_full_extension(self, nonunique):
        m = prefix_matching(nonunique, ("x1", "y1"), ("x2", "y2"))
        ext = analyze_matching(nonunique, m).extension
        assert labels(nonunique, ext) == [["x1", "y1", "z1"], ["x2", "y2", "z2"]]

    def test_deficient_extension(self, nonunique):
        m = prefix_matching(nonunique, ("x1", "y2"), ("x2", "y1"))
        ext = analyze_matching(nonunique, m).extension
        assert len(ext) == 1

    def test_gap_extension(self, gap):
        m = prefix_matching(gap, ("1", "3"), ("2", "4"))
        ext = analyze_matching(gap, m).extension
        assert labels(gap, ext) == [["1", "3", "5"]]

    def test_size_law_on_fixtures(self, nonunique, gap, k2_fail, single_edge):
        for h in (nonunique, gap, k2_fail, single_edge):
            ms = enumerate_perfect_matchings(h, limit=4)
            for m in ms:
                a = analyze_matching(h, m)
                assert len(a.extension) == len(m) - a.hall.deficiency


class TestPrefixHallVerdict:
    def test_nonunique_fixture(self, nonunique):
        v = prefix_hall_verdict(nonunique)
        assert v.applicable
        assert (v.pm_count, v.pm_count_is_lower_bound, v.unique) == (2, True, False)
        assert v.conclusion == MATCHING_EXISTS
        assert v.perfect_matching
        assert labels(nonunique, v.witness) == [
            ["x1", "y1", "z1"],
            ["x2", "y2", "z2"],
        ]
        deficiencies = sorted(a.hall.deficiency for a in v.per_matching)
        assert deficiencies == [0, 1]

    def test_gap_fixture(self, gap):
        v = prefix_hall_verdict(gap)
        assert (v.pm_count, v.unique) == (1, True)
        assert v.conclusion == NO_MATCHING
        assert not v.perfect_matching
        assert v.chosen.hall.deficiency == 1
        assert len(v.witness) == 1

    def test_single_edge_fixture(self, single_edge):
        v = prefix_hall_verdict(single_edge)
        assert (v.pm_count, v.unique) == (1, True)
        assert v.chosen.hall.deficiency == 0
        assert v.conclusion == MATCHING_EXISTS
        assert v.perfect_matching

    def test_k2_fixture_matches_classical_hall(self, k2_fail):
        v = prefix_hall_verdict(k2_fail)
        assert (v.pm_count, v.unique) == (1, True)
        assert v.conclusion == NO_MATCHING

    def test_deficient_matching_coexists_with_full_matching(self, nonunique):
        # the one-directional nature of the criterion without uniqueness:
        # one prefix matching violates the neighborhood condition even
        # though a matching of size t does exist
        from kphall import alpha_prime

        m = prefix_matching(nonunique, ("x1", "y2"), ("x2", "y1"))
        assert analyze_matching(nonunique, m).hall.deficiency > 0
        assert alpha_prime(nonunique)[0] == nonunique.t

    def test_not_applicable_unequal_prefix_sizes(self):
        h = build_hypergraph(
            [["a", "b"], ["c"], ["d"]],
            [["a", "c", "d"], ["b", "c", "d"]],
        )
        v = prefix_hall_verdict(h)
        assert not v.applicable
        assert "part sizes" in v.reason

    def test_not_applicable_no_prefix_pm(self):
        # both prefix traces compete for c, and d is never covered
        h = build_hypergraph(
            [["a", "b"], ["c", "d"], ["e", "f"]],
            [["a", "c", "e"], ["b", "c", "f"]],
            strict=False,
        )
        v = prefix_hall_verdict(h)
        assert not v.applicable
        assert "no perfect matching" in v.reason

    def test_limit_one_never_claims_uniqueness(self, gap):
        # a single hit at the cap leaves uniqueness (and nonexistence) open
        v = prefix_hall_verdict(gap, limit=1)
        assert v.pm_count == 1 and v.pm_count_is_lower_bound
        assert v.unique is None
        assert v.conclusion == INCONCLUSIVE
        full = prefix_hall_verdict(gap, limit=2)
        assert full.unique is True
        assert full.conclusion == NO_MATCHING

    def test_higher_limit_keeps_exact_counts(self, nonunique):
        v = prefix_hall_verdict(nonunique, limit=5)
        assert v.pm_count == 2
        assert not v.pm_count_is_lower_bound
        assert v.unique is False

    def test_inconclusive_needs_all_deficient_and_nonunique(self):
        # two prefix matchings, both deficient: existence stays open
        h = build_hypergraph(
            [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
            [
                ["a1", "b1", "c1"],
                ["a2", "b2", "c1"],
                ["a1", "b2", "c1"],
                ["a2", "b1", "c1"],
            ],
            strict=False,
        )
        v = prefix_hall_verdict(h)
        assert not v.unique
        assert all(a.hall.deficiency > 0 for a in v.per_matching)
        assert v.conclusion == INCONCLUSIVE
