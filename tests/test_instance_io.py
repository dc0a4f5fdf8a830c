"""File format: parsing, schema validation, canonical serialization, fixtures."""

import json

import pytest

from kphall import (
    FIXTURE_NAMES,
    DuplicateLabelError,
    ParseError,
    SchemaError,
    UnknownFixtureError,
    build_hypergraph,
    fixture,
    parse_instance,
    serialize_instance,
)

GOOD = {
    "format_version": "1",
    "k": 2,
    "parts": [["a", "b"], ["c", "d"]],
    "edges": [["a", "c"], ["b", "d"]],
}


def doc(**overrides):
    payload = {**GOOD, **overrides}
    for key, value in list(payload.items()):
        if value is None:
            del payload[key]
    return json.dumps(payload)


class TestParse:
    def test_happy_path(self):
        h = parse_instance(doc())
        assert h.k == 2
        assert len(h.edges) == 2

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            parse_instance("[1, 2]")

    def test_unknown_field(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(extra=1))

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(edges=None))

    def test_wrong_version(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(format_version="2"))

    def test_wrong_edge_arity(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(edges=[["a", "c"], ["b"]]))

    def test_wrong_part_count(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(k=3))

    def test_undeclared_label(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(edges=[["a", "z"]]))

    def test_non_string_label(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(parts=[["a", 1], ["c", "d"]]))

    def test_metadata_must_be_object(self):
        with pytest.raises(SchemaError):
            parse_instance(doc(metadata=[1]))

    def test_duplicate_label_comes_from_validation(self):
        with pytest.raises(DuplicateLabelError):
            parse_instance(doc(parts=[["a", "b"], ["a", "d"]], edges=[["a", "d"]]))


class TestSerialize:
    def test_round_trip_is_canonicalization(self):
        messy = json.dumps(
            {
                "format_version": "1",
                "k": 2,
                "parts": [["b", "a"], ["d", "c"]],
                "edges": [["d", "b"], ["c", "a"]],
            }
        )
        text = serialize_instance(parse_instance(messy))
        again = serialize_instance(parse_instance(text))
        assert text == again
        payload = json.loads(text)
        assert payload["parts"] == [["a", "b"], ["c", "d"]]
        assert payload["edges"] == [["a", "c"], ["b", "d"]]

    def test_structurally_equal_instances_serialize_identically(self):
        h1 = build_hypergraph([["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]])
        h2 = build_hypergraph([["b", "a"], ["d", "c"]], [["d", "b"], ["c", "a"]])
        assert serialize_instance(h1) == serialize_instance(h2)

    def test_metadata_round_trip(self):
        text = doc(metadata={"z": 1, "a": [1, 2]})
        out = serialize_instance(parse_instance(text))
        assert json.loads(out)["metadata"] == {"a": [1, 2], "z": 1}
        assert list(json.loads(out)["metadata"]) == ["a", "z"]

    def test_empty_edge_list_serializes(self):
        h = build_hypergraph([["a"], ["b"]], [], strict=False)
        payload = json.loads(serialize_instance(h))
        assert payload["edges"] == []

    def test_key_order_is_stable(self):
        payload = json.loads(serialize_instance(parse_instance(doc())))
        assert list(payload) == ["format_version", "k", "parts", "edges"]


class TestFixtures:
    def test_names(self):
        assert set(FIXTURE_NAMES) == {
            "nonunique_prefix",
            "duality_gap",
            "k2_hall_fail",
            "k3_single_edge",
        }

    def test_nonunique_prefix_content(self):
        h = fixture("nonunique_prefix")
        assert h.part_sizes == (2, 2, 2)
        assert len(h.edges) == 4

    def test_duality_gap_content(self):
        h = fixture("duality_gap")
        assert [[v.label for v in part] for part in h.parts] == [
            ["1", "2"],
            ["3", "4"],
            ["5", "6"],
        ]
        assert [[v.label for v in e] for e in h.edges] == [
            ["1", "3", "5"],
            ["2", "3", "6"],
            ["2", "4", "5"],
        ]

    def test_k2_hall_fail_content(self):
        h = fixture("k2_hall_fail")
        assert h.k == 2
        assert len(h.edges) == 2
        assert any("isolated" in w for w in h.warnings)

    def test_k3_single_edge_content(self):
        h = fixture("k3_single_edge")
        assert h.part_sizes == (1, 1, 1)
        assert len(h.edges) == 1

    def test_unknown_fixture(self):
        with pytest.raises(UnknownFixtureError):
            fixture("nope")

    def test_fixture_files_are_canonical(self):
        for name in FIXTURE_NAMES:
            h = fixture(name)
            text = serialize_instance(h)
            assert parse_instance(text, strict=False) == h


class TestInstanceDocument:
    def test_from_text_fields(self):
        h = parse_instance(doc(metadata={"note": "hi"}))
        assert h.k == 2
        assert h.metadata == {"note": "hi"}
