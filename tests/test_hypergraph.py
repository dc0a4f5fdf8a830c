"""Core data model: validation, prefix traces and their neighborhoods."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kphall import build_hypergraph, neighborhood
from kphall.errors import (
    DuplicateLabelError,
    IsolatedVertexError,
    NotPartiteError,
    NotUniformError,
    SamePartError,
    WrongArityError,
)
from kphall.hypergraph import (
    neighborhood_of_set,
    prefix_traces,
    rotate_parts,
)
from conftest import labels, vertex

PARTS_A = [["x1", "x2"], ["y1", "y2"], ["z1", "z2"]]
EDGES_A = [
    ["x1", "y1", "z1"],
    ["x1", "y2", "z2"],
    ["x2", "y2", "z2"],
    ["x2", "y1", "z2"],
]


class TestBuildValidate:
    def test_valid_instance(self, nonunique):
        assert nonunique.k == 3
        assert len(nonunique.edges) == 4
        assert nonunique.part_sizes == (2, 2, 2)

    def test_not_partite(self):
        with pytest.raises(NotPartiteError):
            build_hypergraph(PARTS_A, [["x1", "x2", "y1"]])

    def test_not_uniform(self):
        with pytest.raises(NotUniformError):
            build_hypergraph(PARTS_A, [["x1", "y1"]] + EDGES_A)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            build_hypergraph([["x1", "x2"], ["x1"]], [["x1", "x1"]])

    def test_isolated_vertex_strict(self):
        with pytest.raises(IsolatedVertexError):
            build_hypergraph([["a", "b"], ["c", "d"]], [["a", "c"], ["b", "c"]])

    def test_isolated_vertex_lenient(self):
        h = build_hypergraph(
            [["a", "b"], ["c", "d"]], [["a", "c"], ["b", "c"]], strict=False
        )
        assert any("isolated" in w for w in h.warnings)

    def test_undeclared_label(self):
        with pytest.raises(ValueError):
            build_hypergraph(PARTS_A, [["x1", "y1", "nope"]])

    def test_needs_two_parts(self):
        with pytest.raises(ValueError):
            build_hypergraph([["a"]], [])

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            build_hypergraph([["a"], []], [])

    def test_deduplication_and_canonical_order(self):
        h = build_hypergraph(PARTS_A, EDGES_A + [["z2", "x2", "y1"]])
        assert len(h.edges) == 4
        assert labels(h, h.edges) == sorted(
            [["x1", "y1", "z1"], ["x1", "y2", "z2"], ["x2", "y1", "z2"], ["x2", "y2", "z2"]]
        )

    def test_deterministic_under_input_order(self):
        h1 = build_hypergraph(PARTS_A, EDGES_A)
        shuffled_parts = [["x2", "x1"], ["y2", "y1"], ["z2", "z1"]]
        shuffled_edges = [list(reversed(e)) for e in reversed(EDGES_A)]
        h2 = build_hypergraph(shuffled_parts, shuffled_edges)
        assert h1 == h2

    def test_equality_sees_labels(self):
        h1 = build_hypergraph(PARTS_A, EDGES_A)
        relabeled = [[lab.upper() for lab in part] for part in PARTS_A]
        h2 = build_hypergraph(relabeled, [[lab.upper() for lab in e] for e in EDGES_A])
        assert (h1.parts, h1.edges) == (h2.parts, h2.edges)
        assert h1 != h2

    @pytest.mark.parametrize(
        "edge, error, message",
        [
            (["x1", "y1"], NotUniformError, "['x1', 'y1'] has 2 vertices, expected 3"),
            (
                ["x1", "y1", "z1", "z2"],
                NotUniformError,
                "['x1', 'y1', 'z1', 'z2'] has 4 vertices, expected 3",
            ),
            (
                ["z1", "y1", "y1"],
                NotUniformError,
                "['y1', 'y1', 'z1'] has 2 vertices, expected 3",
            ),
            (
                ["x1", "x1", "y1", "z1"],
                NotUniformError,
                "['x1', 'x1', 'y1', 'z1'] has 3 vertices, expected 3",
            ),
            (
                ["x2", "y2", "x1"],
                NotPartiteError,
                "['x1', 'x2', 'y2'] has 2 vertices in part 0",
            ),
            (
                ["y1", "z2", "z1"],
                NotPartiteError,
                "['y1', 'z1', 'z2'] has 2 vertices in part 2",
            ),
            (["x1", "y1", "nope"], ValueError, "references undeclared label 'nope'"),
            (["nope", "y1"], ValueError, "references undeclared label 'nope'"),
        ],
    )
    def test_malformed_edge_error(self, edge, error, message):
        # The first malformed edge raises, wherever it stands in the list.
        for position in (0, 2, len(EDGES_A)):
            edges = EDGES_A[:position] + [edge] + EDGES_A[position:]
            with pytest.raises(error) as info:
                build_hypergraph(PARTS_A, edges)
            assert type(info.value) is error
            assert str(info.value) == "edge " + message

    def test_non_string_labels_build_as_their_str_forms(self):
        parts = [[1, 2], [30, 40], [5.5, True]]
        edges = [[1, 30, 5.5], [2, 40, True], [True, 1, 40]]
        h = build_hypergraph(parts, edges)
        as_str = build_hypergraph(
            [[str(x) for x in p] for p in parts], [[str(x) for x in e] for e in edges]
        )
        assert h == as_str
        assert h.labels == ("1", "2", "30", "40", "5.5", "True")
        # mixed: int edge labels against string parts, and the reverse
        assert build_hypergraph([["1", "2"], [3, 4]], [[1, "3"], ["2", 4]]) == (
            build_hypergraph([["1", "2"], ["3", "4"]], [["1", "3"], ["2", "4"]])
        )

    @pytest.mark.parametrize(
        "label, message",
        [
            (["x1"], "edge references undeclared label \"['x1']\""),
            ({"x1": 1}, "edge references undeclared label \"{'x1': 1}\""),
            ({"x1"}, "edge references undeclared label \"{'x1'}\""),
            (("x1",), "edge references undeclared label \"('x1',)\""),
        ],
    )
    def test_unhashable_or_foreign_edge_label_error(self, label, message):
        for position in (0, 2, len(EDGES_A)):
            edges = EDGES_A[:position] + [[label, "y1", "z1"]] + EDGES_A[position:]
            with pytest.raises(ValueError) as info:
                build_hypergraph(PARTS_A, edges)
            assert type(info.value) is ValueError
            assert str(info.value) == message

    def test_unhashable_labels_resolve_by_their_str_forms(self):
        h = build_hypergraph([[["x"]], ["y"]], [[["x"], "y"]])
        assert h.labels == ("['x']", "y")
        assert h.edges == ((0, 1),)

    def test_one_shot_edges(self):
        h = build_hypergraph(PARTS_A, (iter(e) for e in EDGES_A))
        assert h == build_hypergraph(PARTS_A, EDGES_A)
        # the fault is named from the whole edge, not what is left of it
        with pytest.raises(ValueError, match="undeclared label 'nope'"):
            build_hypergraph(PARTS_A, [iter(["x1", "nope", "z1"])])
        with pytest.raises(NotUniformError) as info:
            build_hypergraph(PARTS_A, [iter(["x1", "y1", "z1", "z2"])])
        assert str(info.value) == "edge ['x1', 'y1', 'z1', 'z2'] has 4 vertices, expected 3"


def _reference_build(parts, edges):
    """Canonical labels, edges and warnings by the definition, for comparison.

    Vertex ids come from the part and the label's position in its sorted
    part: id = (sizes of the earlier parts) + position.
    """
    ids = {}
    for i, part in enumerate(parts):
        offset = sum(len(p) for p in parts[:i])
        for j, lab in enumerate(sorted(part)):
            ids[lab] = offset + j
    table = tuple(sorted(ids, key=ids.get))
    unique = {tuple(sorted(ids[lab] for lab in e)) for e in edges}
    canonical = tuple(sorted(unique))
    covered = {v for e in canonical for v in e}
    warnings = [
        f"isolated vertex: {lab}" for v, lab in enumerate(table) if v not in covered
    ]
    if not canonical:
        warnings.append("degenerate: instance has no edges")
    return table, canonical, tuple(warnings)


@st.composite
def raw_instances(draw):
    """Parts and edges in arbitrary order, with duplicate edges.

    Label numbers are not zero-padded, so their sorted order differs from
    their numeric order.
    """
    k = draw(st.integers(2, 4))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    parts = []
    for i, size in enumerate(sizes):
        numbers = draw(
            st.lists(st.integers(0, 30), min_size=size, max_size=size, unique=True)
        )
        parts.append([f"{'abcd'[i]}{n}" for n in numbers])
    universe = list(itertools.product(*parts))
    chosen = draw(st.lists(st.sampled_from(universe), max_size=24))
    edges = [draw(st.permutations(list(e))) for e in chosen]
    return parts, edges


@settings(max_examples=150, deadline=None)
@given(raw_instances(), st.booleans())
def test_build_matches_reference_canonicalization(raw, strict):
    parts, edges = raw
    table, canonical, warnings = _reference_build(parts, edges)
    isolated = any(w.startswith("isolated") for w in warnings)
    if strict and isolated:
        with pytest.raises(IsolatedVertexError):
            build_hypergraph(parts, edges, strict=True)
        return
    h = build_hypergraph(parts, edges, strict=strict)
    assert h.labels == table
    assert h.edges == canonical
    assert h.warnings == warnings


@settings(max_examples=150, deadline=None)
@given(raw_instances())
def test_ids_number_the_parts_in_turn(raw):
    parts, edges = raw
    h = build_hypergraph(parts, edges, strict=False)
    assert all(type(p) is range and p.step == 1 for p in h.parts)
    assert [v for p in h.parts for v in p] == list(range(len(h.labels)))
    for part, ids in zip(parts, h.parts):
        assert [h.labels[v] for v in ids] == sorted(part)
    for e in h.edges:
        assert all(v in p for v, p in zip(e, h.parts, strict=True))


class TestGeneratedSubhypergraph:
    def test_prefix_traces(self, nonunique):
        assert labels(nonunique, prefix_traces(nonunique)) == [
            ["x1", "y1"],
            ["x1", "y2"],
            ["x2", "y1"],
            ["x2", "y2"],
        ]
        assert nonunique.part_sizes[:-1] == (2, 2)

    def test_prefix_traces_gap(self, gap):
        assert labels(gap, prefix_traces(gap)) == [["1", "3"], ["2", "3"], ["2", "4"]]

    def test_prefix_traces_single_edge(self, single_edge):
        assert len(prefix_traces(single_edge)) == 1


class TestNeighborhood:
    def test_known_pair(self, nonunique):
        e = [vertex(nonunique, "x2"), vertex(nonunique, "y1")]
        assert neighborhood(nonunique, e) == (vertex(nonunique, "z2"),)

    def test_known_pair_gap(self, gap):
        e = [vertex(gap, "1"), vertex(gap, "3")]
        assert neighborhood(gap, e) == (vertex(gap, "5"),)

    def test_non_submaximal_is_empty(self, nonunique):
        e = [vertex(nonunique, "x2"), vertex(nonunique, "z1")]
        assert neighborhood(nonunique, e) == ()

    def test_only_prefix_traces_have_neighbors(self, gap):
        # {2, 5} lies in the edge {2, 4, 5}, but 5 is a last-part vertex, so
        # {2, 5} is no prefix trace and N({2, 5}) is empty.
        e = [vertex(gap, "2"), vertex(gap, "5")]
        assert neighborhood(gap, e) == ()

    def test_wrong_arity(self, nonunique):
        with pytest.raises(WrongArityError):
            neighborhood(nonunique, [vertex(nonunique, "x1")])

    def test_same_part(self, nonunique):
        with pytest.raises(SamePartError):
            neighborhood(nonunique, [vertex(nonunique, "x1"), vertex(nonunique, "x2")])

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_id_outside_instance(self, nonunique, bad):
        # -1 would index the last part and 6 (= n) no vertex at all
        with pytest.raises(ValueError, match="not a vertex"):
            neighborhood(nonunique, [vertex(nonunique, "x1"), bad])

    def test_union_violating_set(self, nonunique):
        pairs = [
            [vertex(nonunique, "x2"), vertex(nonunique, "y1")],
            [vertex(nonunique, "x1"), vertex(nonunique, "y2")],
        ]
        assert neighborhood_of_set(nonunique, pairs) == (vertex(nonunique, "z2"),)

    def test_union_satisfying_set(self, nonunique):
        pairs = [
            [vertex(nonunique, "x1"), vertex(nonunique, "y1")],
            [vertex(nonunique, "x2"), vertex(nonunique, "y2")],
        ]
        union = neighborhood_of_set(nonunique, pairs)
        assert [nonunique.labels[v] for v in union] == ["z1", "z2"]

    def test_empty_set(self, nonunique):
        assert neighborhood_of_set(nonunique, []) == ()

    def test_last_vertex_in_neighborhood_of_trace(self, nonunique, gap):
        for h in (nonunique, gap):
            for e in h.edges:
                assert e[-1] in neighborhood(h, e[:-1])
                for v in e[:-1]:
                    assert neighborhood(h, [u for u in e if u != v]) == ()


class TestRotateParts:
    def test_rotation_moves_first_part_last(self, gap):
        r = rotate_parts(gap, 1)
        assert [r.labels[v] for v in r.parts[-1]] == ["1", "2"]
        assert len(r.edges) == len(gap.edges)

    def test_full_rotation_is_identity(self, gap):
        assert rotate_parts(gap, 3) == gap
