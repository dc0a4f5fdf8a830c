"""CLI surface: subcommands, exit codes, JSON output stability."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import kphall
from kphall import campaign, fixture, serialize_instance
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

    def test_directory_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"cannot read {tmp_path}: ")

    def test_deeply_nested_document(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000, "utf-8")
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err

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

    @pytest.mark.parametrize("command", ["validate", "analyze", "extend"])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_lone_surrogate_label(self, capsys, tmp_path, command, json_flag):
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"format_version": "1", "k": 2, "parts": [["a\\ud800"], ["b"]],'
            ' "edges": [["a\\ud800", "b"]]}',
            "utf-8",
        )
        code, out, err = run(capsys, command, str(path), *json_flag)
        assert code == 2
        assert out == ""
        assert err == "error: part 0 labels must be encodable as UTF-8\n"


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

    def test_text_undetermined_uniqueness(self, capsys, gap_file):
        # at --limit 1 the enumeration stops at the first prefix matching,
        # so the payload's "unique" is null, not false
        code, out, _ = run(capsys, "analyze", gap_file, "--limit", "1")
        assert code == 0
        assert out.splitlines()[1] == (
            "prefix perfect matchings: >=1 (uniqueness undetermined), t=2"
        )
        _, payload, _ = run(capsys, "analyze", gap_file, "--limit", "1", "--json")
        assert json.loads(payload)["prefix_criterion"]["unique"] is None

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

    def test_exact_solvers_finish_inside_the_guard(self, capsys, tmp_path):
        # 20 edges and 39 vertices, under the guard: (a_i, b_i) for i < 19
        # plus (a19, b00); beta has to prove the first part is not optimal.
        left = [f"a{i:02d}" for i in range(20)]
        right = [f"b{i:02d}" for i in range(19)]
        edges = [list(e) for e in zip(left, right)] + [[left[19], right[0]]]
        path = _bipartite_file(tmp_path, left, right, edges)
        code, out, _ = run(capsys, "analyze", path, "--json")
        assert code == 0
        duality = json.loads(out)["duality"]
        assert (duality["alpha_prime"], duality["beta"]) == (19, 19)

    def test_bad_limit_exit_2(self, capsys, gap_file):
        code, out, err = run(capsys, "analyze", gap_file, "--limit", "0")
        assert (code, out) == (2, "")
        assert "limit must be >= 1" in err

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


@pytest.mark.usefixtures("default_recursion_limit")
class TestAnalyzeForceDeep:
    """Forced solves deeper than the recursion limit; both walks once overflowed."""

    def test_many_disjoint_edges(self, capsys, tmp_path):
        # alpha' walks one edge deeper per edge taken
        left = [f"a{i:04d}" for i in range(1200)]
        right = [f"b{i:04d}" for i in range(1200)]
        edges = [list(e) for e in zip(left, right)]
        path = _bipartite_file(tmp_path, left, right, edges)
        code, out, _ = run(capsys, "analyze", path, "--force", "--json")
        assert code == 0
        duality = json.loads(out)["duality"]
        assert (duality["alpha_prime"], duality["beta"]) == (1200, 1200)

    def test_star(self, capsys, tmp_path):
        # the cover walk takes leaf after leaf before it tries the center
        left = [f"a{i:04d}" for i in range(1200)]
        path = _bipartite_file(tmp_path, left, ["b"], [[a, "b"] for a in left])
        code, out, _ = run(capsys, "analyze", path, "--force", "--json")
        assert code == 0
        duality = json.loads(out)["duality"]
        assert (duality["alpha_prime"], duality["beta"]) == (1, 1)
        assert duality["min_cover_witness"] == ["b"]


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
        from kphall import enumerate_perfect_matchings, parse_instance

        h = parse_instance(out_path.read_text(), strict=False)
        assert len(enumerate_perfect_matchings(h, 2)) == 1

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


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{gap}", "--json"],
        # about 30 KB, so the pipe breaks inside a write, not at exit
        ["generate", "random", "--sizes", "9,9,9", "--p", "1.0"],
    ],
)
def test_closed_stdout_exits_4(gap_file, argv):
    argv = [a.format(gap=gap_file) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(kphall.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kphall", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == b""


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

    @staticmethod
    def _masked(out):
        # the one line that depends on the clock
        lines = out.splitlines()
        assert re.fullmatch(r"elapsed: \d+\.\d\ds", lines[-2])
        lines[-2] = "elapsed: <masked>"
        return "\n".join(lines) + "\n"

    def test_text_skipped_properties(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--trials", "3", "--seed", "5", "--modes", "random"
        )
        assert code == 0
        assert self._masked(out) == (
            "campaign: 3 trials per property, seed 5, k in [2, 3, 4], "
            "t in [1, 2, 3, 4]\n"
            "  unique-hall: skipped (mode unique-planted not selected)\n"
            "  defect-extension: skipped (mode unique-planted not selected)\n"
            "  defect-equivalence: skipped (mode unique-planted not selected)\n"
            "  konig: 3/3 passed, 0 failed\n"
            "  k2-reduction: 3/3 passed, 0 failed\n"
            "elapsed: <masked>\n"
            "result: all properties hold\n"
        )

    def test_text_first_failure_and_replay(self, capsys, monkeypatch):
        calls = []

        def check(h):
            calls.append(h)
            return None if len(calls) == 1 else f"boom at call {len(calls)}"

        monkeypatch.setitem(campaign._PROPERTIES, "konig", ("random", check))
        code, out, _ = run(
            capsys,
            "verify", "--trials", "3", "--seed", "5", "--k", "2", "--t", "1",
            "--properties", "unique-hall,konig",
        )
        assert code == 1
        replay = serialize_instance(calls[1])
        assert self._masked(out) == (
            "campaign: 3 trials per property, seed 5, k in [2], t in [1]\n"
            "  unique-hall: 3/3 passed, 0 failed\n"
            "  konig: 1/3 passed, 2 failed\n"
            "    first failure (trial 1): boom at call 2\n"
            "    replay instance:\n"
            + "".join(f"      {line}\n" for line in replay.splitlines())
            + "elapsed: <masked>\n"
            "result: FAILURES\n"
        )
        assert replay == (
            '{\n  "format_version": "1",\n  "k": 2,\n'
            '  "parts": [\n    [\n      "a1"\n    ],\n    [\n      "b1"\n    ]\n  ],\n'
            '  "edges": [\n    [\n      "a1",\n      "b1"\n    ]\n  ],\n'
            '  "metadata": {\n    "generator": {\n'
            '      "edge_probability": 0.484425853720005,\n      "k": 2,\n'
            '      "mode": "random",\n'
            '      "part_sizes": [\n        1,\n        1\n      ],\n'
            '      "seed": 15003212363240103657\n    }\n  }\n}\n'
        )

    def test_t_range_syntax(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--trials", "1", "--seed", "0",
            "--t", "1..2,4", "--properties", "konig", "--json",
        )
        assert code == 0
        assert json.loads(out)["config"]["t_values"] == [1, 2, 4]


class TestFuzz:
    """Seeded mutants of a fixture document through ``main()``."""

    SPLICES = [
        b"[" * 3000,
        b"9" * 5000,
        b"1e999",
        b'"\\ud800"',
        "\ud800".encode("utf-8", "surrogatepass"),
    ]
    TOKENS = [
        b"[", b"]", b"{", b"}", b",", b":", b'"', b"0", b"-1", b"null",
        b"true", b'"x1"', b'"z2",', b'"k": 2,', b"\\", b"\xff",
    ]

    def mutate(self, rng, doc):
        doc = bytearray(doc)
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(doc) + 1)
            op = rng.randrange(3)
            if op == 0:
                del doc[pos : pos + rng.randint(1, 8)]
            elif op == 1:
                doc[pos:pos] = b"".join(rng.choices(self.TOKENS, k=rng.randint(1, 3)))
            else:
                doc[pos:pos] = rng.choice(self.SPLICES)
        return bytes(doc)

    def test_documented_exit_codes_and_no_traceback(self, capsys, tmp_path):
        rng = random.Random(20161)
        base = serialize_instance(fixture("nonunique_prefix")).encode()
        path = tmp_path / "mutant.json"
        seen = set()
        for _ in range(300):
            path.write_bytes(self.mutate(rng, base))
            for argv in (
                ("validate", str(path)),
                ("analyze", str(path), "--json"),
                ("extend", str(path)),
            ):
                code, out, err = run(capsys, *argv)
                assert code in (0, 2, 3, 4), (argv, path.read_bytes())
                assert "Traceback" not in out + err
                seen.add(code)
        assert {0, 2} <= seen
