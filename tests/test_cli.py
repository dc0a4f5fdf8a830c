"""CLI surface: subcommands, exit codes, JSON output stability."""

import json
import sys

import pytest

from kphall import fixture, serialize_instance
from kphall.cli import main


@pytest.fixture
def gap_file(tmp_path):
    path = tmp_path / "gap.json"
    path.write_text(serialize_instance(fixture("duality_gap")), "utf-8")
    return str(path)


@pytest.fixture
def nonunique_file(tmp_path):
    path = tmp_path / "nonunique.json"
    path.write_text(serialize_instance(fixture("nonunique_prefix")), "utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_ok(self, capsys, gap_file):
        code, out, _ = run(capsys, "validate", gap_file)
        assert code == 0
        assert "valid" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/does/not/exist.json")
        assert code == 2
        assert "not found" in err

    def test_strict_rejects_isolated(self, capsys, tmp_path):
        path = tmp_path / "iso.json"
        path.write_text(serialize_instance(fixture("k2_hall_fail")), "utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        code, out, _ = run(capsys, "validate", str(path), "--lenient", "--json")
        assert code == 0
        assert json.loads(out)["warnings"]

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": "1"}', "utf-8")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2


class TestAnalyze:
    def test_gap_report(self, capsys, gap_file):
        code, out, _ = run(capsys, "analyze", gap_file, "--json")
        assert code == 0
        payload = json.loads(out)
        duality = payload["duality"]
        assert duality["alpha_prime"] == 1
        assert duality["beta"] == 2
        assert not duality["konig_equality"]
        prefix = payload["prefix_criterion"]
        assert prefix["unique"] is True
        assert prefix["matchings"][0]["hall"]["deficiency"] == 1

    def test_nonunique_report(self, capsys, nonunique_file):
        code, out, _ = run(capsys, "analyze", nonunique_file, "--json")
        payload = json.loads(out)
        prefix = payload["prefix_criterion"]
        assert prefix["pm_count"] == 2
        assert prefix["pm_count_is_lower_bound"] is True
        assert prefix["unique"] is False
        assert payload["duality"]["konig_equality"] is True

    def test_text_output(self, capsys, gap_file):
        code, out, _ = run(capsys, "analyze", gap_file)
        assert code == 0
        assert "no matching of size 2" in out

    def test_byte_identical_json(self, capsys, gap_file):
        _, first, _ = run(capsys, "analyze", gap_file, "--json")
        _, second, _ = run(capsys, "analyze", gap_file, "--json")
        assert first == second

    def test_rotate_parts(self, capsys, gap_file):
        code, out, _ = run(
            capsys, "analyze", gap_file, "--json", "--rotate-parts", "1"
        )
        payload = json.loads(out)
        assert payload["instance"]["parts"][-1] == ["1", "2"]

    def test_solver_guard_maps_to_exit_2(self, capsys, tmp_path):
        from kphall import GeneratorParams, gen_random

        h = gen_random(
            GeneratorParams(k=2, part_sizes=(7, 7), edge_probability=1.0), 0
        )
        path = tmp_path / "big.json"
        path.write_text(serialize_instance(h), "utf-8")
        code, _, err = run(capsys, "analyze", str(path), "--lenient")
        assert code == 2
        assert "--force" in err
        code, _, _ = run(capsys, "analyze", str(path), "--lenient", "--force")
        assert code == 0

    def test_bad_limit_exit_2(self, capsys, gap_file):
        code, _, err = run(capsys, "analyze", gap_file, "--limit", "0")
        assert code == 2

    def test_not_applicable_still_analyzes(self, capsys, tmp_path):
        # no prefix perfect matching: the verdict reports not-applicable but
        # the duality numbers still come out, with exit 0
        from kphall import build_hypergraph

        h = build_hypergraph(
            [["a", "b"], ["c", "d"], ["e", "f"]],
            [["a", "c", "e"], ["b", "c", "f"]],
            strict=False,
        )
        path = tmp_path / "nopm.json"
        path.write_text(serialize_instance(h), "utf-8")
        code, out, _ = run(capsys, "analyze", str(path), "--lenient", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["prefix_criterion"]["applicable"] is False
        assert payload["duality"]["alpha_prime"] == 1


class TestExtend:
    def test_gap_extension(self, capsys, gap_file):
        code, out, _ = run(capsys, "extend", gap_file, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 1
        assert payload["edges"] == [["1", "3", "5"]]

    def test_nonunique_extension(self, capsys, nonunique_file):
        code, out, _ = run(capsys, "extend", nonunique_file, "--json")
        payload = json.loads(out)
        assert payload["size"] == 2

    def test_no_prefix_pm_exits_3(self, capsys, tmp_path):
        from kphall import build_hypergraph

        h = build_hypergraph(
            [["a", "b"], ["c", "d"], ["e", "f"]],
            [["a", "c", "e"], ["b", "c", "f"]],
            strict=False,
        )
        path = tmp_path / "nopm.json"
        path.write_text(serialize_instance(h), "utf-8")
        code, _, err = run(capsys, "extend", str(path), "--lenient")
        assert code == 3
        assert "not applicable" in err


@pytest.fixture
def default_recursion_limit():
    """Run at the interpreter's default recursion limit, whatever it was."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


def _bipartite_file(tmp_path, left, right, edges):
    doc = {"format_version": "1", "k": 2, "parts": [left, right], "edges": edges}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), "utf-8")
    return str(path)


@pytest.mark.usefixtures("default_recursion_limit")
class TestExtendDeep:
    """Inputs deeper than the recursion limit; both once raised RecursionError."""

    def test_many_disjoint_edges(self, capsys, tmp_path):
        left = [f"a{i:04d}" for i in range(1500)]
        right = [f"b{i:04d}" for i in range(1500)]
        edges = [list(e) for e in zip(left, right)]
        path = _bipartite_file(tmp_path, left, right, edges)
        code, out, _ = run(capsys, "extend", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["deficiency"]) == (1500, 0)

    def test_long_augmenting_path(self, capsys, tmp_path):
        # a1500 can only take b0000, which shifts every earlier pair by one
        left = [f"a{i:04d}" for i in range(1501)]
        right = [f"b{i:04d}" for i in range(1501)]
        edges = [[left[i], right[i]] for i in range(1500)]
        edges += [[left[i], right[i + 1]] for i in range(1500)]
        edges.append([left[1500], right[0]])
        path = _bipartite_file(tmp_path, left, right, edges)
        code, out, _ = run(capsys, "extend", path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["size"], payload["deficiency"]) == (1501, 0)
        assert payload["edges"][0] == ["a0000", "b0001"]
        assert payload["edges"][-1] == ["a1500", "b0000"]


class TestGenerate:
    def test_random_full_density(self, capsys, tmp_path):
        out_path = tmp_path / "all.json"
        code, _, _ = run(
            capsys,
            "generate", "random",
            "--sizes", "2,2,2",
            "--p", "1.0",
            "--seed", "5",
            "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["edges"]) == 8

    def test_planted_has_unique_prefix_pm(self, capsys, tmp_path):
        out_path = tmp_path / "planted.json"
        code, _, _ = run(
            capsys,
            "generate", "planted",
            "--k", "3", "--t", "3", "--seed", "7",
            "--out", str(out_path),
        )
        assert code == 0
        from kphall import enumerate_perfect_matchings, parse_instance, prefix_subhypergraph

        h = parse_instance(out_path.read_text(), strict=False)
        assert len(enumerate_perfect_matchings(prefix_subhypergraph(h), 2)) == 1

    def test_out_of_range_probability(self, capsys):
        code, _, err = run(
            capsys, "generate", "random", "--sizes", "2,2", "--p", "1.5"
        )
        assert code == 2

    def test_missing_params(self, capsys):
        code, _, err = run(capsys, "generate", "planted", "--k", "3")
        assert code == 2

    def test_unwritable_path_exits_4(self, capsys):
        code, _, err = run(
            capsys,
            "generate", "random",
            "--sizes", "2,2",
            "--p", "1.0",
            "--out", "/nonexistent-dir/x.json",
        )
        assert code == 4

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(
            capsys, "generate", "random", "--sizes", "1,1", "--p", "1.0"
        )
        assert code == 0
        assert json.loads(out)["k"] == 2


class TestVerify:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--trials", "3", "--seed", "42",
            "--k", "2,3", "--t", "1..3",
        )
        assert code == 0
        assert "all properties hold" in out

    def test_json_deterministic(self, capsys):
        args = ("verify", "--trials", "4", "--seed", "9", "--json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert json.loads(first)["ok"] is True

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 2

    def test_unknown_property_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--properties", "nope")
        assert code == 2

    def test_t_range_syntax(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--trials", "1", "--seed", "0",
            "--t", "1..2,4", "--properties", "konig", "--json",
        )
        assert code == 0
        assert json.loads(out)["config"]["t_values"] == [1, 2, 4]
