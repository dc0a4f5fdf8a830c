"""The benchmark's workloads: seeded inputs, one op each, and output checks.

A workload builds its inputs from a seed into a work directory (``build``),
reads them back as a list of op items (``load``), runs one op on an item
(``op``, the only timed part) and checks the op's output (``check``, which
returns an error message or None).  Ops call kphall through module
attributes, so the tracer's rebinding reaches calls made from here too.

Each workload also fixes ``ROUND``, the ops of one round (throughput is the
median over rounds): one op per rung, one pass over all input files, or a
single op; ``TAIL_PCT``, the tail percentile,
the highest of p99/p90/p75 with at least 10 ops beyond it in a run of the
workload as defined; ``TRACED_OPS``, the fixed op set of a traced run; and
``deep_item``, the wide-extend deep op's input or None.

Why each workload exists, and which layers it loads, is written in
README.md beside this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

PLAN = "plan.json"


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


def _write_plan(workdir: Path, items: list) -> None:
    (workdir / PLAN).write_text(json.dumps({"items": items}), "utf-8")


def _read_plan(workdir: Path) -> list:
    return json.loads((workdir / PLAN).read_text("utf-8"))["items"]


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI's ``main`` in-process; return its exit code and stdout."""
    from kphall import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Instance:
    """An instance file's content, indexed for output checks.

    Built from the document text alone, so checks do not trust kphall's
    own data model.
    """

    def __init__(self, text: str) -> None:
        doc = json.loads(text)
        self.parts = doc["parts"]
        self.t = len(self.parts[0])
        self.edges = {tuple(e) for e in doc["edges"]}
        self.last_neighbours: dict[tuple, set] = {}
        for e in self.edges:
            self.last_neighbours.setdefault(e[:-1], set()).add(e[-1])

    def matching_error(self, edges, size: int) -> str | None:
        """Why ``edges`` is not a matching of ``size`` edges of this instance."""
        seen: set = set()
        for e in edges:
            if tuple(e) not in self.edges:
                return f"{e} is not an edge"
            if seen.intersection(e):
                return f"{e} overlaps another edge"
            seen.update(e)
        if len(edges) != size:
            return f"matching has {len(edges)} edges, expected {size}"
        return None

    def extension_error(self, prefix_matching, deficiency: int, extension) -> str | None:
        """Why ``extension`` is not a valid extension of ``prefix_matching``.

        The prefix matching must be a perfect matching of the prefix traces,
        the extension a matching of size t - deficiency built on it, and the
        deficiency must equal t minus an independently computed maximum SDR.
        """
        elements = [tuple(x) for x in prefix_matching]
        covered = [v for el in elements for v in el]
        prefix_labels = {v for part in self.parts[:-1] for v in part}
        if len(covered) != len(set(covered)) or set(covered) != prefix_labels:
            return "prefix matching is not a perfect matching of the prefix"
        if any(el not in self.last_neighbours for el in elements):
            return "prefix matching uses a non-trace"
        sdr = max_sdr([sorted(self.last_neighbours[el]) for el in elements])
        if deficiency != self.t - sdr:
            return f"deficiency {deficiency}, but the maximum SDR has size {sdr}"
        chosen = set(elements)
        if any(tuple(e[:-1]) not in chosen for e in extension):
            return "extension edge does not extend the prefix matching"
        return self.matching_error(extension, self.t - deficiency)


def max_sdr(adjacency: list[list]) -> int:
    """Size of a maximum bipartite matching, by iterative augmenting paths."""
    match_left: dict[int, object] = {}
    match_right: dict[object, int] = {}
    for root in range(len(adjacency)):
        came_from: dict[object, int] = {}
        stack = [root]
        free = None
        while stack and free is None:
            u = stack.pop()
            for v in adjacency[u]:
                if v in came_from:
                    continue
                came_from[v] = u
                if v not in match_right:
                    free = v
                    break
                stack.append(match_right[v])
        v = free
        while v is not None:
            u = came_from[v]
            previous = match_left.get(u)
            match_left[u] = v
            match_right[v] = u
            v = previous
    return len(match_left)


def _nondiagonal(k: int, t: int) -> int:
    # staircase tuples of gen_planted_unique that are not on the diagonal
    return sum((t - c) ** (k - 2) for c in range(t)) - t


class PrefixLadder:
    """Planted unique-prefix instances on a k=3 and a k=4 ladder of t."""

    name = "prefix-ladder"
    deep_item = None
    # (k, t): k=3 rungs get about t extra prefix traces, k=4 rungs about 3t.
    # The top rungs have ops of about 1 s; above them a few instances per run
    # take several seconds and swamp every other op.
    RUNGS = [(3, t) for t in range(12, 20)] + [(4, t) for t in range(7, 12)]
    EXTRA_TRACES_PER_T = {3: 1.0, 4: 3.0}
    ROUND = len(RUNGS)
    TAIL_PCT = 90
    ROUNDS = 400
    TRACED_OPS = 12 * ROUND

    def build(self, seed: int, workdir: Path) -> None:
        rng = _rng(self.name, seed)
        items = []
        for _ in range(self.ROUNDS):
            for k, t in self.RUNGS:
                density = min(1.0, self.EXTRA_TRACES_PER_T[k] * t / _nondiagonal(k, t))
                items.append([k, t, density, rng.getrandbits(63)])
        _write_plan(workdir, items)

    def load(self, workdir: Path) -> list:
        return _read_plan(workdir)

    def op(self, item):
        from kphall import analysis, generate, instance_io, matching

        k, t, density, seed = item
        params = generate.GeneratorParams(
            k=k, part_sizes=(t,) * k, trace_density=density, attachments_per_trace=2
        )
        text = instance_io.serialize_instance(generate.gen_planted_unique(params, seed))
        h = instance_io.parse_instance(text, strict=False)
        verdict = matching.prefix_hall_verdict(h, limit=2)
        return text, json.dumps(analysis.verdict_jsonable(h, verdict))

    def check(self, item, output) -> str | None:
        text, rendered = output
        v = json.loads(rendered)
        if v["unique"] is not True or v["pm_count"] != 1 or len(v["matchings"]) != 1:
            return f"prefix matching not reported unique: pm_count={v['pm_count']}"
        m = v["matchings"][0]
        if m["extension_size"] != len(m["extension"]):
            return "extension_size disagrees with the extension"
        return Instance(text).extension_error(
            m["prefix_matching"], m["hall"]["deficiency"], m["extension"]
        )


class DeskAnalyze:
    """Desk-scale instances inside the exact solvers' 40-edge/40-vertex guard."""

    name = "desk-analyze"
    deep_item = None
    # (generator, k, part size): every shape gets the same number of files,
    # so the seed changes the instances' structure but not the mix of sizes.
    SHAPES = (
        [("random", 2, n) for n in range(7, 11)]
        + [("random", 3, n) for n in range(5, 8)]
        + [("random", 4, n) for n in range(4, 6)]
        + [("planted", 2, t) for t in range(9, 13)]
        + [("planted", 3, t) for t in range(5, 9)]
        + [("planted", 4, t) for t in range(4, 7)]
    )
    FILES = 20 * len(SHAPES)
    ROUND = TRACED_OPS = FILES
    TAIL_PCT = 99
    TARGET_EDGES = 30
    MAX_EDGES = MAX_VERTICES = 40

    def _candidate(self, rng: random.Random, i: int):
        from kphall import generate

        mode, k, n = self.SHAPES[i % len(self.SHAPES)]
        seed = rng.getrandbits(63)
        if mode == "random":
            p = min(1.0, self.TARGET_EDGES / n**k)
            params = generate.GeneratorParams(k=k, part_sizes=(n,) * k, edge_probability=p)
            return generate.gen_random(params, seed)
        nondiag = _nondiagonal(k, n)
        # each trace attaches to 1.5 last-part vertices on average
        extra = self.TARGET_EDGES / 1.5 - n
        params = generate.GeneratorParams(
            k=k,
            part_sizes=(n,) * (k - 1) + ((2 * n + 2) // 3,),
            trace_density=min(1.0, extra / nondiag) if nondiag else 0.0,
            attachments_per_trace=2,
        )
        return generate.gen_planted_unique(params, seed)

    def build(self, seed: int, workdir: Path) -> None:
        from kphall import instance_io

        rng = _rng(self.name, seed)
        items = []
        for i in range(self.FILES):
            while True:
                h = self._candidate(rng, i)
                if (
                    not h.warnings
                    and len(h.edges) <= self.MAX_EDGES
                    and sum(h.part_sizes) <= self.MAX_VERTICES
                ):
                    break
            path = workdir / f"desk{i:03d}.json"
            path.write_text(instance_io.serialize_instance(h), "utf-8")
            items.append(str(path))
        _write_plan(workdir, items)

    def load(self, workdir: Path) -> list:
        self._instances = {p: Instance(Path(p).read_text("utf-8")) for p in _read_plan(workdir)}
        self._first_output: dict[str, str] = {}
        return list(self._instances)

    def op(self, item):
        return invoke(["analyze", item, "--json"])

    def check(self, item, output) -> str | None:
        rc, out = output
        if rc != 0:
            return f"exit code {rc}"
        first = self._first_output.setdefault(item, out)
        if out != first:
            return "output bytes differ from an earlier op on the same file"
        report = json.loads(out)
        inst = self._instances[item]
        d = report["duality"]
        a, b = d["alpha_prime"], d["beta"]
        if a > b:
            return f"alpha'={a} > beta={b}"
        error = inst.matching_error(d["max_matching_witness"], a)
        if error:
            return f"matching witness: {error}"
        cover = set(d["min_cover_witness"])
        if len(cover) != b or any(cover.isdisjoint(e) for e in inst.edges):
            return "cover witness is not a vertex cover of size beta"
        conclusion = report["prefix_criterion"]["conclusion"]
        if conclusion == "exists" and a != inst.t:
            return f"verdict claims a matching of size t={inst.t}, alpha'={a}"
        if conclusion == "no-matching" and a >= inst.t:
            return f"verdict denies a matching of size t={inst.t}, alpha'={a}"
        return None


def _document(parts: list[list[str]], edges: list[tuple[str, ...]]) -> str:
    return json.dumps(
        {"format_version": "1", "k": len(parts), "parts": parts, "edges": [list(e) for e in edges]}
    )


def _wide_instance(rng: random.Random, k: int, t: int) -> str:
    """A diagonal plus about t distinct random edges, in kphall's file format."""
    parts = [[f"{'abc'[i]}{j}" for j in range(t)] for i in range(k)]
    edges = {tuple(part[j] for part in parts) for j in range(t)}
    target = len(edges) + t
    while len(edges) < target:
        edges.add(tuple(part[rng.randrange(t)] for part in parts))
    return _document(parts, sorted(edges))


class WideExtend:
    """Large sparse instances through ``kphall extend``, plus one deep op."""

    name = "wide-extend"
    SHAPES = [(k, t) for t in range(30, 151, 20) for k in (2, 3)]
    COPIES = 3
    ROUND = TRACED_OPS = len(SHAPES) * COPIES
    TAIL_PCT = 90
    # The disjoint-edge bipartite instance of this size is the smallest one,
    # to within 50, on which extend exceeded the default recursion limit
    # when the workload was defined (t = 950 passed).
    DEEP_T = 1000
    deep_item = None

    def build(self, seed: int, workdir: Path) -> None:
        rng = _rng(self.name, seed)
        items = []
        for copy in range(self.COPIES):
            for k, t in self.SHAPES:
                path = workdir / f"wide-k{k}-t{t}-{copy}.json"
                path.write_text(_wide_instance(rng, k, t), "utf-8")
                items.append(str(path))
        parts = [[f"a{j}" for j in range(self.DEEP_T)], [f"b{j}" for j in range(self.DEEP_T)]]
        deep = workdir / "deep.json"
        deep.write_text(_document(parts, list(zip(*parts))), "utf-8")
        _write_plan(workdir, items)

    def load(self, workdir: Path) -> list:
        self.deep_item = str(workdir / "deep.json")
        paths = _read_plan(workdir) + [self.deep_item]
        self._instances = {p: Instance(Path(p).read_text("utf-8")) for p in paths}
        return paths[:-1]

    def op(self, item):
        return invoke(["extend", item, "--json"])

    def check(self, item, output) -> str | None:
        rc, out = output
        if rc != 0:
            return f"exit code {rc}"
        r = json.loads(out)
        if r["size"] != len(r["edges"]):
            return "size disagrees with the edge list"
        return self._instances[item].extension_error(
            r["prefix_matching"], r["deficiency"], r["edges"]
        )


class Campaign:
    """The default verification campaign, one distinct seed per op."""

    name = "campaign"
    deep_item = None
    OPS = 2000
    ROUND = 1
    TAIL_PCT = 75
    TRACED_OPS = 12

    def build(self, seed: int, workdir: Path) -> None:
        rng = _rng(self.name, seed)
        _write_plan(workdir, [rng.getrandbits(31) for _ in range(self.OPS)])

    def load(self, workdir: Path) -> list:
        return _read_plan(workdir)

    def op(self, item):
        return invoke(["verify", "--json", "--seed", str(item)])

    def check(self, item, output) -> str | None:
        rc, out = output
        if rc != 0:
            return f"exit code {rc}"
        r = json.loads(out)
        if r["ok"] is not True:
            return "campaign reports a failed property"
        for p in r["properties"]:
            if p["skipped"] or p["failed"] or p["passed"] != p["trials"]:
                return f"property {p['name']} did not pass every trial"
        return None


WORKLOADS = {w.name: w for w in (PrefixLadder(), DeskAnalyze(), WideExtend(), Campaign())}
