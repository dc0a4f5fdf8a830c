"""Command-line interface.

Subcommands: validate, analyze, extend, generate, verify.  Each report
command builds one payload: ``--json`` writes it as a stable schema, byte
for byte as ``json.dumps(payload, indent=2)`` writes it, and the default
text formats it line by line, so the facts a report states and the labels
it shows come from `analysis` and `campaign` alone.  ``verify``'s
``elapsed:`` line is the one text field not in the payload: the handler
times the campaign, whose report holds no clock.

An option of ``verify``, or ``--density`` and ``--attach`` of ``generate
planted``, that is left out is absent from the parsed arguments, so the
handler passes on only what was given and the defaults are those of
``CampaignConfig`` and ``GeneratorParams``.  Instance and ``--out`` paths
are read and written through ``pathlib``.

Exit codes: 0 success, 1 a property failed (``verify`` only), 2 input or
configuration error, 3 criterion not applicable (extend without a prefix
perfect matching), 4 write failure, including a stdout whose reader has
gone.

``main`` may be called any number of times in one process.  The argument
parser is built on the first call and reused, since parsing never changes
it; ``validate``, ``analyze`` and ``extend`` never load OpenSSL, which only
``generate`` and ``verify`` need to draw instances.

Importing this module loads only ``errors``; each handler imports the
layers it runs, on its first call:

* ``validate``: ``instance_io`` and ``hypergraph``;
* ``extend``: those, ``analysis`` and ``matching``;
* ``analyze``: those and ``exact``;
* ``generate``: ``generate``, ``instance_io``, ``hypergraph`` and ``matching``;
* ``verify``: ``campaign``, which loads every layer.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import KphallError, TooLargeError

if TYPE_CHECKING:
    from .hypergraph import KPartiteHypergraph

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_WRITE = 4

def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="instance file path")
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--strict",
        dest="strict",
        action="store_true",
        default=True,
        help="reject isolated vertices (default)",
    )
    group.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="allow isolated vertices with a warning",
    )
    sub.add_argument(
        "--rotate-parts",
        type=int,
        default=0,
        metavar="N",
        help="rotate the part ordering left by N before analysis",
    )


class _UnreadableInputError(Exception):
    """The instance file could not be read; the message says why."""


def _load(args: argparse.Namespace) -> KPartiteHypergraph:
    from pathlib import Path

    from .hypergraph import rotate_parts
    from .instance_io import parse_instance

    # Only the read is guarded: an OSError from writing the report (a
    # closed stdout pipe, say) is not a read error.
    try:
        text = Path(args.input).read_text("utf-8")
    except OSError as exc:
        reason = "not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise _UnreadableInputError(f"cannot read {exc.filename}: {reason}") from None
    h = parse_instance(text, strict=args.strict)
    return rotate_parts(h, args.rotate_parts)


def _int_list(text: str) -> tuple[int, ...]:
    """Parse '2,3,4' or '1..5' (or a mix) into a tuple of ints."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo, hi = token.split("..", 1)
            values.extend(range(int(lo), int(hi) + 1))
        elif token:
            values.append(int(token))
    if not values:
        raise ValueError(f"empty list: {text!r}")
    return tuple(values)


def _name_list(text: str) -> tuple[str, ...]:
    """Parse 'a, b' into ('a', 'b'), dropping empty names."""
    return tuple(name for name in map(str.strip, text.split(",")) if name)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kphall",
        description="Hall-type matching analysis for k-uniform k-partite hypergraphs",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("validate", help="parse and validate an instance file")
    _add_instance_args(p)
    p.add_argument("--json", action="store_true")

    p = commands.add_parser(
        "analyze", help="full report: prefix criterion plus exact duality"
    )
    _add_instance_args(p)
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--force", action="store_true", help="lift the exact-solver size guard"
    )
    p.add_argument(
        "--limit",
        type=int,
        default=2,
        help="prefix perfect matchings to enumerate (default 2)",
    )

    p = commands.add_parser(
        "extend", help="extend the canonical prefix matching into the instance"
    )
    _add_instance_args(p)
    p.add_argument("--json", action="store_true")

    p = commands.add_parser("generate", help="write a seeded instance file")
    p.add_argument("mode", choices=("random", "planted"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (defaults to stdout)")
    p.add_argument("--sizes", help="random mode: part sizes, e.g. 2,2,2")
    p.add_argument("--p", type=float, default=0.3, help="random mode: edge probability")
    p.add_argument("--k", type=int, help="planted mode: number of parts")
    p.add_argument("--t", type=int, help="planted mode: prefix part size")
    p.add_argument(
        "--last-size", type=int, help="planted mode: last part size (default t)"
    )
    p.add_argument(
        "--density",
        dest="trace_density",
        type=float,
        default=argparse.SUPPRESS,
        metavar="DENSITY",
        help="planted mode: trace density",
    )
    p.add_argument(
        "--attach",
        dest="attachments_per_trace",
        type=int,
        default=argparse.SUPPRESS,
        metavar="ATTACH",
        help="planted mode: max attachments per trace",
    )

    p = commands.add_parser(
        "verify",
        help="run the property-verification campaign",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--k", dest="k_values", type=_int_list, metavar="LIST")
    p.add_argument("--t", dest="t_values", type=_int_list, metavar="LIST")
    p.add_argument("--modes", type=_name_list, help="comma-separated; default all")
    p.add_argument(
        "--properties", type=_name_list, help="comma-separated; default all"
    )
    p.add_argument("--json", action="store_true", default=False)

    return parser


def _print_report(args: argparse.Namespace, payload: dict, text: Callable) -> None:
    """Write ``payload`` under ``--json``, else the lines ``text`` formats from it."""
    from .instance_io import _json_text

    print(_json_text(payload) if args.json else "\n".join(text(payload)))


def _edge_text(labels: list[str]) -> str:
    return "{" + ",".join(labels) + "}"


def _matching_text(edges: list[list[str]]) -> str:
    return " | ".join(map(_edge_text, edges))


# "unique" is null when the enumeration stopped at its cap
_UNIQUENESS = {True: "unique", False: "not unique", None: "uniqueness undetermined"}


def _format_verdict(verdict: dict) -> Iterator[str]:
    if not verdict["applicable"]:
        yield f"prefix criterion: not applicable ({verdict['reason']})"
        return
    count = verdict["pm_count"]
    count = f">={count}" if verdict["pm_count_is_lower_bound"] else count
    uniq = _UNIQUENESS[verdict["unique"]]
    yield f"prefix perfect matchings: {count} ({uniq}), t={verdict['t']}"
    for i, a in enumerate(verdict["matchings"], start=1):
        hall = a["hall"]
        line = f"  M{i} = {_matching_text(a['prefix_matching'])}: "
        line += f"deficiency {hall['deficiency']}"
        if hall["witness_violator"] is not None:
            viol = ", ".join(map(_edge_text, hall["witness_violator"]))
            line += f" (violator: {viol})"
        ext = _matching_text(a["extension"])
        yield f"{line}; extension size {a['extension_size']}: {ext}"
    yield f"conclusion: {verdict['message']}"


def _format_duality(d: dict) -> list[str]:
    witness = _matching_text(d["max_matching_witness"])
    return [
        f"alpha' = {d['alpha_prime']} (witness: {witness})",
        f"beta = {d['beta']} (cover: {', '.join(d['min_cover_witness'])})",
        f"t = {d['t']}; matching of size t: {'yes' if d['has_t_matching'] else 'no'}; "
        f"alpha' = beta = t: {'yes' if d['konig_equality'] else 'no'}",
    ]


def _format_validation(p: dict) -> Iterator[str]:
    yield f"valid: k={p['k']}, parts {p['part_sizes']}, {p['edge_count']} edges"
    yield from [f"warning: {w}" for w in p["warnings"]]


def _format_analysis(payload: dict) -> Iterator[str]:
    inst = payload["instance"]
    sizes, edges = inst["part_sizes"], len(inst["edges"])
    yield f"instance: k={inst['k']}, parts {sizes}, {edges} edges"
    yield from [f"warning: {w}" for w in inst["warnings"]]
    yield from _format_verdict(payload["prefix_criterion"])
    yield from _format_duality(payload["duality"])


def _format_extension(p: dict) -> Iterator[str]:
    prefix = _matching_text(p["prefix_matching"])
    yield f"prefix matching {prefix} (deficiency {p['deficiency']})"
    yield f"extends to {p['size']} edges: {_matching_text(p['edges'])}"


def _format_campaign(payload: dict, elapsed: float) -> Iterator[str]:
    cfg = payload["config"]
    yield (
        f"campaign: {cfg['trials']} trials per property, seed {cfg['seed']}, "
        f"k in {cfg['k_values']}, t in {cfg['t_values']}"
    )
    for o in payload["properties"]:
        if o["skipped"]:
            yield f"  {o['name']}: skipped (mode {o['mode']} not selected)"
            continue
        yield f"  {o['name']}: {o['passed']}/{o['trials']} passed, {o['failed']} failed"
        failure = o["first_failure"]
        if failure is not None:
            yield f"    first failure (trial {failure['trial']}): {failure['message']}"
            yield "    replay instance:"
            yield from [f"      {line}" for line in failure["instance"].splitlines()]
    yield f"elapsed: {elapsed:.2f}s"
    yield "result: " + ("all properties hold" if payload["ok"] else "FAILURES")


def _cmd_validate(args: argparse.Namespace) -> int:
    from .instance_io import REPORT_VERSION

    h = _load(args)
    payload = {
        "report_version": REPORT_VERSION,
        "valid": True,
        "k": h.k,
        "part_sizes": list(h.part_sizes),
        "edge_count": len(h.edges),
        "warnings": list(h.warnings),
    }
    _print_report(args, payload, _format_validation)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import analysis_jsonable, analyze_instance

    report = analyze_instance(_load(args), force=args.force, limit=args.limit)
    _print_report(args, analysis_jsonable(report), _format_analysis)
    return EXIT_OK


def _cmd_extend(args: argparse.Namespace) -> int:
    from .analysis import matching_labels
    from .instance_io import REPORT_VERSION
    from .matching import prefix_hall_verdict

    h = _load(args)
    verdict = prefix_hall_verdict(h, limit=1)
    if not verdict.applicable:
        print(f"not applicable: {verdict.reason}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    chosen = verdict.chosen
    payload = {
        "report_version": REPORT_VERSION,
        "prefix_matching": matching_labels(h, chosen.prefix_matching),
        "deficiency": chosen.hall.deficiency,
        "size": len(chosen.extension),
        "edges": matching_labels(h, chosen.extension),
    }
    _print_report(args, payload, _format_extension)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generate import GeneratorParams, gen_planted_unique, gen_random
    from .instance_io import serialize_instance

    if args.mode == "random":
        if not args.sizes:
            print("random mode needs --sizes", file=sys.stderr)
            return EXIT_INPUT
        sizes = _int_list(args.sizes)
        params = GeneratorParams(
            k=len(sizes), part_sizes=sizes, edge_probability=args.p
        )
        h = gen_random(params, args.seed)
    else:
        if args.k is None or args.t is None:
            print("planted mode needs --k and --t", file=sys.stderr)
            return EXIT_INPUT
        last = args.t if args.last_size is None else args.last_size
        given = {
            name: value
            for name, value in vars(args).items()
            if name in ("trace_density", "attachments_per_trace")
        }
        params = GeneratorParams(
            k=args.k, part_sizes=(args.t,) * (args.k - 1) + (last,), **given
        )
        h = gen_planted_unique(params, args.seed)
    text = serialize_instance(h)
    for w in h.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.out:
        from pathlib import Path

        try:
            Path(args.out).write_text(text, "utf-8")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_WRITE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .campaign import CampaignConfig, campaign_jsonable, run_campaign

    given = dict(vars(args))
    del given["command"], given["json"]
    start = time.perf_counter()
    report = run_campaign(CampaignConfig(**given))
    elapsed = time.perf_counter() - start
    text = functools.partial(_format_campaign, elapsed=elapsed)
    _print_report(args, campaign_jsonable(report), text)
    return EXIT_OK if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "extend": _cmd_extend,
        "generate": _cmd_generate,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except _UnreadableInputError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INPUT
    except TooLargeError as exc:
        print(f"too large: {exc} (use --force)", file=sys.stderr)
        return EXIT_INPUT
    except (KphallError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point the descriptor at the null device,
        # so the flush at interpreter exit cannot fail again, and report a
        # write failure.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_WRITE
    raise SystemExit(code)
