"""Golden CLI outputs, pinned across commits.

Each case runs ``main`` in-process and compares its exit code and stdout,
byte for byte, with files under ``tests/golden/`` that an earlier commit
wrote.  Two runs of the current code agreeing with each other (acceptance
criterion 8) cannot catch a report that changed between commits; this can.

Inputs are the bundled fixtures and instances written by ``generate``
cases, whose golden outputs double as the inputs of later cases.  A report
change is deliberate only together with a ``REPORT_VERSION`` bump; then
rewrite the files by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import kphall
from kphall.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# fixture name -> extra flags its file needs
FIXTURES = {
    "nonunique_prefix": [],
    "duality_gap": [],
    "k2_hall_fail": ["--lenient"],
    "k3_single_edge": [],
}

# case name -> generate arguments; the output is also an input below
GENERATED = {
    "gen-planted-k3-t3-s7": ["planted", "--k", "3", "--t", "3", "--seed", "7"],
    "gen-planted-k2-t5-s3": ["planted", "--k", "2", "--t", "5", "--seed", "3"],
    "gen-planted-k4-t3-s11": [
        "planted", "--k", "4", "--t", "3", "--density", "0.6", "--seed", "11",
    ],
    "gen-planted-k3-t4-s19-last3": [
        "planted", "--k", "3", "--t", "4", "--last-size", "3", "--seed", "19",
    ],
    "gen-random-333-s5": ["random", "--sizes", "3,3,3", "--p", "0.3", "--seed", "5"],
    "gen-random-44-s2": ["random", "--sizes", "4,4", "--p", "0.35", "--seed", "2"],
    "gen-random-2322-s9": ["random", "--sizes", "2,3,2,2", "--p", "0.4", "--seed", "9"],
    "gen-random-323-s13": ["random", "--sizes", "3,2,3", "--p", "0.5", "--seed", "13"],
}


def _fixture_path(name: str) -> str:
    return str(resources.files("kphall").joinpath("data", f"{name}.json"))


def _cases() -> dict[str, list[str]]:
    cases = {name: ["generate", *args] for name, args in GENERATED.items()}
    for name, flags in FIXTURES.items():
        path = _fixture_path(name)
        for command in ("analyze", "extend", "validate"):
            cases[f"{name}-{command}-json"] = [command, path, *flags, "--json"]
            cases[f"{name}-{command}-text"] = [command, path, *flags]
    cases["nonunique_prefix-analyze-limit3"] = [
        "analyze", _fixture_path("nonunique_prefix"), "--json", "--limit", "3",
    ]
    cases["duality_gap-analyze-rotate1"] = [
        "analyze", _fixture_path("duality_gap"), "--json", "--rotate-parts", "1",
    ]
    cases["duality_gap-analyze-rotate1-text"] = [
        "analyze", _fixture_path("duality_gap"), "--rotate-parts", "1",
    ]
    for name in GENERATED:
        path = str(GOLDEN / f"{name}.out")
        cases[f"{name}-analyze-json"] = ["analyze", path, "--lenient", "--json"]
        cases[f"{name}-extend-json"] = ["extend", path, "--lenient", "--json"]
    # the one generated instance whose prefix criterion is not applicable
    cases["gen-random-2322-s9-analyze-text"] = [
        "analyze", str(GOLDEN / "gen-random-2322-s9.out"), "--lenient",
    ]
    cases["verify-t20-s42"] = ["verify", "--json", "--trials", "20", "--seed", "42"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output(name):
    code, out = _run(CASES[name])
    assert code == json.loads(EXIT_CODES.read_text("utf-8"))[name]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


# Cases run back to back in one interpreter: every analysis command before
# the first draw, extend before analyze loads the exact solvers, and a case
# with a non-default flag before the same case without it, so a value left
# over from an earlier call would show.
ONE_PROCESS = [
    "k2_hall_fail-extend-text",
    "gen-random-333-s5-extend-json",
    "nonunique_prefix-analyze-limit3",
    "nonunique_prefix-analyze-json",
    "duality_gap-analyze-rotate1",
    "duality_gap-analyze-json",
    "gen-planted-k3-t3-s7",
    "gen-planted-k3-t3-s7-analyze-json",
]

_ONE_PROCESS_SCRIPT = """\
import contextlib, io, json, sys
def loaded():
    return sorted(n for n in sys.modules if n.startswith("kphall."))
import kphall
imports = [loaded()]
from kphall.cli import main
imports.append(loaded())
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    results.append([code, out.getvalue(), "_hashlib" in sys.modules, loaded()])
print(json.dumps([imports, results]))
"""


def test_one_process_reuses_parser_and_loads_openssl_only_to_draw():
    # A fresh interpreter, so that no earlier test has imported hashlib or
    # any kphall module.
    validate = ["validate", _fixture_path("duality_gap")]
    argvs = [validate] + [CASES[name] for name in ONE_PROCESS]
    env = dict(os.environ, PYTHONPATH=str(Path(kphall.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_PROCESS_SCRIPT],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    imports, (validated, *results) = json.loads(proc.stdout)
    assert validated[0] == 0
    codes = json.loads(EXIT_CODES.read_text("utf-8"))
    for name, (code, out, _, _) in zip(ONE_PROCESS, results):
        assert code == codes[name], name
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name
    # OpenSSL is loaded by the first generate call, and not before
    first_draw = 1 + ONE_PROCESS.index("gen-planted-k3-t3-s7")
    loaded = [validated[2]] + [r[2] for r in results]
    assert loaded == [i >= first_draw for i in range(len(argvs))]
    # Each command loads the layers it runs and no others: the package
    # loads no submodule, the CLI only the error classes, validate only the
    # parser, extend no exact solver, and no analysis command the campaign
    # or the generator.
    cli = ["kphall.cli", "kphall.errors"]
    assert imports == [[], cli]
    assert validated[3] == sorted(cli + ["kphall.hypergraph", "kphall.instance_io"])
    for name, result in zip(ONE_PROCESS[: first_draw - 1], results):
        assert {"kphall.campaign", "kphall.generate"}.isdisjoint(result[3]), name
        if "-extend-" in name:
            assert "kphall.exact" not in result[3], name


def _write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    # generate cases come first in CASES, so their files exist as inputs
    for name, argv in CASES.items():
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    EXIT_CODES.write_text(json.dumps(codes, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    _write_goldens()
    sys.exit(0)
