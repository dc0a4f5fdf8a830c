"""File format: parsing, schema validation, canonical serialization, fixtures."""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from kphall import build_hypergraph, fixture, parse_instance, serialize_instance
from kphall.errors import (
    DuplicateLabelError,
    ParseError,
    SchemaError,
    UnknownFixtureError,
)
from kphall.instance_io import FIXTURE_NAMES, _json_text

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

    @pytest.mark.parametrize(
        "label, message",
        [
            (1, "labels must be strings"),
            (None, "labels must be strings"),
            (["a"], "labels must be strings"),
            ({"a": 1}, "labels must be strings"),
            ("z", "references undeclared label 'z'"),
        ],
    )
    def test_malformed_edge_label_error(self, label, message):
        # The first bad edge is named, wherever it stands in the list.
        edges = [["a", "c"], ["b", "d"], ["a", "d"]]
        for position in (0, 2, len(edges)):
            bad = edges[:position] + [["a", label]] + edges[position:]
            with pytest.raises(SchemaError) as info:
                parse_instance(doc(edges=bad))
            assert type(info.value) is SchemaError
            assert str(info.value) == f"edge {position} {message}"


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

    @pytest.mark.parametrize("depth", [900, 990])
    def test_deeply_nested_metadata_round_trip(self, depth):
        # A fresh interpreter starts with a shallow stack, as the CLI does;
        # under pytest json.loads alone would refuse this depth.
        nested = "[" * depth + '{"b": 1, "a": 2}' + "]" * depth
        text = doc()[:-1] + ', "metadata": {"x": ' + nested + "}}"
        script = (
            "import sys\n"
            "from kphall import parse_instance, serialize_instance\n"
            "out = serialize_instance(parse_instance(sys.stdin.read()))\n"
            "assert serialize_instance(parse_instance(out)) == out\n"
            "inner = parse_instance(out).metadata['x']\n"
            "for _ in range(int(sys.argv[1])):\n"
            "    (inner,) = inner\n"
            "print(list(inner))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(depth)],
            input=text,
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "['a', 'b']\n"

    def test_self_containing_metadata_is_rejected(self):
        loop = []
        loop.append(loop)
        h = build_hypergraph([["a"], ["b"]], [["a", "b"]], metadata={"loop": loop})
        with pytest.raises(ValueError, match="Circular reference"):
            serialize_instance(h)

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
        assert [[h.labels[v] for v in part] for part in h.parts] == [
            ["1", "2"],
            ["3", "4"],
            ["5", "6"],
        ]
        assert [[h.labels[v] for v in e] for e in h.edges] == [
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


# JSON values as json.dumps accepts them, including the strings ensure_ascii
# escapes (control and non-ASCII characters, lone surrogates) and the
# floats it spells outside JSON (NaN, Infinity).
_TEXT = st.text(
    st.characters() | st.characters(categories=["Cs"]) | st.sampled_from('"\\'),
    max_size=6,
)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | _TEXT
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(_TEXT, max_size=4)
    | st.dictionaries(_KEYS, children, max_size=4),
    max_leaves=25,
)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(_JSON)
    def test_matches_json_dumps_indent_2(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            [],
            {},
            (),
            [[], {}, ()],
            ["a", 1],
            ["a", ["b"]],
            {"x": ["é", "\ud800", '"\\']},
            {1: "a", 2.5: None, True: 0, None: -0.0, "k": [math.nan, -math.inf]},
        ],
    )
    def test_matches_json_dumps_on_edge_cases(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, [1, {2}], {"a": b"x"}, {(1,): 2}])
    def test_non_json_value_is_a_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as info:
            _json_text(value)
        assert str(info.value) == str(expected.value)
