"""Exact solvers: maximum matching, minimum vertex cover, duality report."""

import itertools

import pytest

from kphall import (
    alpha_prime,
    analyze_instance,
    build_hypergraph,
    duality_report,
    fixture,
    gen_random,
    GeneratorParams,
)
from kphall.errors import TooLargeError
from conftest import labels


def min_cover(h, force=False):
    """Minimum vertex cover size and witness, read off the duality report."""
    r = duality_report(h, force=force)
    return r.beta, r.min_cover_witness


class TestAlphaPrime:
    def test_gap(self, gap):
        value, witness = alpha_prime(gap)
        assert value == 1
        assert labels(gap, witness.edges) == [["1", "3", "5"]]

    def test_nonunique(self, nonunique):
        value, witness = alpha_prime(nonunique)
        assert value == 2
        assert labels(nonunique, witness.edges) == [
            ["x1", "y1", "z1"],
            ["x2", "y2", "z2"],
        ]

    def test_single_edge(self, single_edge):
        assert alpha_prime(single_edge)[0] == 1

    def test_witness_is_valid_matching(self, nonunique, gap, k2_fail):
        for h in (nonunique, gap, k2_fail):
            value, witness = alpha_prime(h)
            assert len(witness) == value
            seen = set()
            for e in witness:
                assert h.has_edge(e)
                assert seen.isdisjoint(e)
                seen.update(e)

    def test_empty_edge_list(self):
        h = build_hypergraph([["a"], ["b"]], [], strict=False)
        value, witness = alpha_prime(h)
        assert value == 0 and len(witness) == 0


class TestBeta:
    def test_gap(self, gap):
        value, witness = min_cover(gap)
        assert value == 2
        assert all(set(witness) & set(e) for e in gap.edges)

    def test_nonunique(self, nonunique):
        value, witness = min_cover(nonunique)
        assert value == 2
        assert [nonunique.labels[v] for v in witness] == ["x1", "x2"]

    def test_single_edge(self, single_edge):
        assert min_cover(single_edge)[0] == 1

    def test_k2(self, k2_fail):
        value, witness = min_cover(k2_fail)
        assert value == 1
        assert [k2_fail.labels[v] for v in witness] == ["c"]

    def test_empty_edge_list(self):
        h = build_hypergraph([["a"], ["b"]], [], strict=False)
        assert min_cover(h) == (0, ())


class TestCoverEarlyExit:
    def test_disjoint_edges_stop_at_the_first_part(self):
        # alpha' = 24 meets the seeded first-part cover, so no walk over
        # the 2^24 covers is needed to prove it optimal.
        parts = [[f"a{i:02d}" for i in range(24)], [f"b{i:02d}" for i in range(24)]]
        h = build_hypergraph(parts, list(zip(*parts)))
        value, witness = min_cover(h, force=True)
        assert value == 24
        assert witness == tuple(h.parts[0])

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("nonunique_prefix", ["x1", "x2"]),
            ("duality_gap", ["1", "2"]),
            ("k2_hall_fail", ["c"]),
            ("k3_single_edge", ["a"]),
        ],
    )
    def test_fixture_witnesses_unchanged(self, name, expected):
        h = fixture(name)
        value, witness = min_cover(h)
        assert value == len(expected)
        assert [h.labels[v] for v in witness] == expected


def near_matching(n):
    """Edges (a_i, b_i) for i < n plus (a_n, b_0): beta = alpha' = n < |a| = n + 1."""
    parts = [[f"a{i:02d}" for i in range(n + 1)], [f"b{i:02d}" for i in range(n)]]
    edges = list(zip(parts[0], parts[1])) + [(parts[0][n], parts[1][0])]
    return build_hypergraph(parts, edges)


class TestBoundsPrune:
    """Instances the unbounded walks cannot finish in test time."""

    def test_cover_packing_bound(self):
        # Without the packing bound every cover through a00 is walked:
        # about 4x more time per +2 on n, and 4 s already at n = 20.
        h = near_matching(24)
        value, witness = min_cover(h, force=True)
        assert value == 24
        assert [h.labels[v] for v in witness] == [
            f"a{i:02d}" for i in range(1, 24)
        ] + ["b00"]

    def test_matching_reach_bound(self):
        # K(12, 11) and an isolated b11: no matching beats the 11 usable
        # b-vertices, but only the reach bound knows; counting edges, the
        # walk takes about 10x more time per vertex added to each part,
        # and 3 s already on K(9, 8).
        parts = [[f"a{i:02d}" for i in range(12)], [f"b{j:02d}" for j in range(12)]]
        edges = [(a, b) for a in parts[0] for b in parts[1][:11]]
        h = build_hypergraph(parts, edges, strict=False)
        value, witness = alpha_prime(h, force=True)
        assert value == 11
        assert labels(h, witness.edges) == [
            [f"a{i:02d}", f"b{i:02d}"] for i in range(11)
        ]


class TestDualityReport:
    def test_gap(self, gap):
        r = duality_report(gap)
        assert (r.alpha_prime, r.beta, r.t) == (1, 2, 2)
        assert not r.has_t_matching
        assert not r.konig_equality

    def test_nonunique(self, nonunique):
        r = duality_report(nonunique)
        assert (r.alpha_prime, r.beta, r.t) == (2, 2, 2)
        assert r.has_t_matching
        assert r.konig_equality

    def test_single_edge(self, single_edge):
        r = duality_report(single_edge)
        assert (r.alpha_prime, r.beta, r.t) == (1, 1, 1)
        assert r.has_t_matching and r.konig_equality

    def test_weak_duality_on_fixtures(self, nonunique, gap, k2_fail, single_edge):
        for h in (nonunique, gap, k2_fail, single_edge):
            r = duality_report(h)
            assert r.alpha_prime <= r.beta
            assert r.alpha_prime <= min(h.part_sizes)


def _past_the_guard(sizes, p, count=10):
    """The first ``count`` seeded gen_random instances with 41-70 edges."""
    params = GeneratorParams(k=len(sizes), part_sizes=sizes, edge_probability=p)
    instances = (gen_random(params, seed) for seed in itertools.count())
    return list(
        itertools.islice((h for h in instances if 41 <= len(h.edges) <= 70), count)
    )


@pytest.mark.parametrize(
    "sizes, p",
    # sparse enough that some instances have alpha' < t (k = 2, 4) or a
    # gap alpha' < beta (k = 3, 4)
    [((16, 16), 0.2), ((9, 9, 9), 0.08), ((6, 6, 6, 6), 0.04)],
)
def test_duality_report_matches_ilp(sizes, p):
    # Independent oracle past the 40/40 guard: alpha' and beta as 0/1
    # integer programs over the vertex-edge incidence matrix (HiGHS).
    optimize = pytest.importorskip("scipy.optimize")
    import numpy as np

    reports = []
    for h in _past_the_guard(sizes, p):
        r = duality_report(h, force=True)
        reports.append(r)
        vertices = [v for part in h.parts for v in part]
        incidence = np.array([[v in e for e in h.edges] for v in vertices], dtype=float)
        n_edges, n_vertices = incidence.shape[1], incidence.shape[0]
        matching = optimize.milp(
            -np.ones(n_edges),
            constraints=optimize.LinearConstraint(incidence, ub=1),
            integrality=np.ones(n_edges),
            bounds=optimize.Bounds(0, 1),
        )
        cover = optimize.milp(
            np.ones(n_vertices),
            constraints=optimize.LinearConstraint(incidence.T, lb=1),
            integrality=np.ones(n_vertices),
            bounds=optimize.Bounds(0, 1),
        )
        assert matching.success and cover.success
        assert r.alpha_prime == round(-matching.fun)
        assert r.beta == round(cover.fun)
        # Both witnesses are feasible points of their programs, at the optimum.
        chosen = set(r.max_matching_witness.edges)
        x = np.array([e in chosen for e in h.edges], dtype=float)
        assert (incidence @ x <= 1).all() and x.sum() == r.alpha_prime
        in_cover = set(r.min_cover_witness)
        y = np.array([v in in_cover for v in vertices], dtype=float)
        assert (incidence.T @ y >= 1).all() and y.sum() == r.beta
        assert r.has_t_matching == (r.alpha_prime == h.t)
        assert r.konig_equality == (r.alpha_prime == r.beta == h.t)
    assert any(not r.konig_equality for r in reports)


class TestSizeGuard:
    def test_guard_rejects_large_instances(self):
        h = gen_random(
            GeneratorParams(k=2, part_sizes=(7, 7), edge_probability=1.0), 0
        )
        assert len(h.edges) == 49
        with pytest.raises(TooLargeError):
            alpha_prime(h)
        with pytest.raises(TooLargeError):
            min_cover(h)

    def test_guard_runs_before_the_verdict(self, monkeypatch):
        import kphall.analysis

        def verdict_must_not_run(*args, **kwargs):
            raise AssertionError("prefix verdict ran before the size guard")

        monkeypatch.setattr(kphall.analysis, "prefix_hall_verdict", verdict_must_not_run)
        parts = [[f"a{i}" for i in range(6)], [f"b{j}" for j in range(7)]]
        edges = [[a, b] for a in parts[0] for b in parts[1]][:41]
        h = build_hypergraph(parts, edges)
        assert len(h.edges) == 41
        with pytest.raises(TooLargeError):
            analyze_instance(h)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_bad_limit_raises_before_the_solvers(self, gap, monkeypatch, limit):
        import kphall.analysis

        def solvers_must_not_run(*args, **kwargs):
            raise AssertionError("exact solvers ran before the limit check")

        monkeypatch.setattr(kphall.analysis, "duality_report", solvers_must_not_run)
        with pytest.raises(ValueError, match="limit must be >= 1"):
            analyze_instance(gap, force=True, limit=limit)

    def test_force_lifts_guard(self):
        h = gen_random(
            GeneratorParams(k=2, part_sizes=(7, 7), edge_probability=1.0), 0
        )
        value, _ = alpha_prime(h, force=True)
        assert value == 7
        assert min_cover(h, force=True)[0] == 7
