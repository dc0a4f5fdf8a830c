"""kphall benchmark: one seeded workload per process, closed loop, one client.

Usage, from the root of a kphall checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (interpreter start, import, building and writing the inputs) runs
in fresh interpreters.  With ``--trace 0`` the ops run back to back for S
seconds, set-up is timed several times before and after them, and the
end-to-end metrics are reported.  With ``--trace 1`` each op of a fixed,
seeded set runs untraced and then traced, and per-layer metrics plus the
tracing overhead are reported; the spans go to .bench_work/.  Every op's
output is checked.  Human-readable lines come first; the last line of
stdout is one JSON object.  Without kphall sources under src/ the command
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Set-ups are timed before and after the measured ops, so that the median
# does not rest on one moment of a host whose speed drifts.
SETUP_REPS, SETUP_BUDGET_S = 2, 1.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# metric -> (span name, field of Tracer.summary()), or a Tracer counter
PER_LAYER = {
    "matching.enumerate_s": ("matching.enumerate", "incl_s"),
    "matching.enumerate_calls": ("matching.enumerate", "calls"),
    "matching.prefix_matchings_found": "matching.prefix_matchings_found",
    "hypergraph.neighborhood_s": ("hypergraph.neighborhood", "incl_s"),
    "hypergraph.neighborhood_calls": ("hypergraph.neighborhood", "calls"),
    "matching.sdr_s": ("matching.sdr", "incl_s"),
    "matching.sdr_calls": ("matching.sdr", "calls"),
    "hypergraph.prefix_sub_s": ("hypergraph.prefix_sub", "incl_s"),
    "hypergraph.prefix_sub_calls": ("hypergraph.prefix_sub", "calls"),
    "exact.alpha_s": ("exact.alpha", "incl_s"),
    "exact.alpha_calls": ("exact.alpha", "calls"),
    "exact.beta_self_s": ("exact.beta", "self_s"),
    "generate.planted_self_s": ("generate.planted", "self_s"),
    "generate.planted_attempts": "generate.planted_attempts",
    "generate.random_s": ("generate.random", "incl_s"),
    "instance_io.parse_s": ("instance_io.parse", "incl_s"),
    "instance_io.serialize_s": ("instance_io.serialize", "incl_s"),
    "hypergraph.build_s": ("hypergraph.build", "incl_s"),
    "matching.hall_self_s": ("matching.hall", "self_s"),
    "matching.extend_self_s": ("matching.extend", "self_s"),
    "matching.oracle_s": ("matching.oracle", "incl_s"),
    "matching.verdict_self_s": ("matching.verdict", "self_s"),
    "analysis.render_s": ("analysis.render", "incl_s"),
    "analysis.analyze_self_s": ("analysis.analyze", "self_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "campaign.unique-hall_s": ("campaign.unique-hall", "incl_s"),
    "campaign.defect-extension_s": ("campaign.defect-extension", "incl_s"),
    "campaign.defect-equivalence_s": ("campaign.defect-equivalence", "incl_s"),
    "campaign.konig_s": ("campaign.konig", "incl_s"),
    "campaign.k2-reduction_s": ("campaign.k2-reduction", "incl_s"),
}
PER_LAYER_UNITS = {m: "s" if m.endswith("_s") else "count" for m in PER_LAYER}
PER_LAYER_UNITS.update({"trace.overhead_pct": "%", "cli.deep_op_failed": "count"})
# Work counts; equal seeds must give equal counts, run after run.
COUNTS = [m for m in PER_LAYER if m.endswith(("_calls", "_found", "_attempts"))]


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def import_kphall() -> None:
    """Import kphall from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import kphall.cli  # noqa: F401

    where = Path(sys.modules["kphall"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"kphall was imported from {where}, not from {SRC}")


def time_setups(args, workdir: Path, reps: int, budget_s: float) -> list[float]:
    """Wall times of fresh interpreters that import kphall and build inputs.

    Runs at least ``reps`` set-ups, and more until ``budget_s`` has passed.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-into", str(workdir),
    ]
    times: list[float] = []
    begin = time.perf_counter()
    while len(times) < reps or time.perf_counter() - begin < budget_s:
        start = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would be added to the measured time.
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def percentile(latencies: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Loop:
    """Runs ops one after another, checks each, and keeps the accounts."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.op_s: list[float] = []
        self.ok: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_op(self, item, call=None) -> None:
        """One op, timed and checked; a failure is counted, never raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = call(self.workload.op, item) if call else self.workload.op(item)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output, error = None, f"{type(exc).__name__}: {exc}"
        self.op_s.append(time.perf_counter() - start)
        if error is None:
            try:
                error = self.workload.check(item, output)
            except Exception as exc:  # malformed output fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        self.ok.append(error is None)
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{item}: {error}")

    @property
    def latencies(self) -> list[float]:
        """Op times of the successful ops."""
        return [s for s, ok in zip(self.op_s, self.ok) if ok]


def deep_op(workload) -> str | None:
    """The wide-extend deep op, at the default recursion limit; its error."""
    if sys.getrecursionlimit() != 1000:
        raise RuntimeError("the deep op must run at the default recursion limit")
    loop = Loop(workload)
    loop.run_op(workload.deep_item)
    return loop.errors[0] if loop.errors else None


def run_untraced(workload, items, seconds: float) -> tuple[Loop, dict, dict]:
    loop = Loop(workload)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        loop.run_op(items[i % len(items)])
        i += 1
    latencies = loop.latencies
    pct = workload.TAIL_PCT
    size = workload.ROUND
    rounds = [
        size / sum(loop.op_s[i : i + size])
        for i in range(0, len(loop.op_s) - size + 1, size)
        if all(loop.ok[i : i + size])
    ]
    metrics = {
        "ops_per_s": statistics.median(rounds) if rounds else 0.0,
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "op_tail_ms": 1e3 * percentile(latencies, pct) if latencies else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "ops_per_s": f"median of {len(rounds)} rounds of {size} ops",
        "op_tail_ms": f"p{pct:g} of {len(latencies)} ops, "
        f"{len(latencies) * (100 - pct) / 100:.0f} beyond it",
    }
    return loop, metrics, notes


def run_traced(workload, items, out_path: Path, info: dict) -> tuple[Loop, dict, dict]:
    """Run the fixed traced op set untraced and traced; per-layer metrics."""
    from tracing import Tracer

    ops = items[: workload.TRACED_OPS]
    tracer = Tracer()
    plain, traced = Loop(workload), Loop(workload)
    # Each op runs untraced and then traced, back to back, so that the
    # overhead compares runs made under the same load on the machine.
    for op_id, item in enumerate(ops):
        plain.run_op(item)
        tracer.install()
        try:
            traced.run_op(item, call=lambda fn, it: tracer.op(op_id, fn, it))
        finally:
            tracer.uninstall()

    summary = tracer.summary()
    metrics = {}
    for name, source in PER_LAYER.items():
        if isinstance(source, str):
            metrics[name] = tracer.counters.get(source, 0)
        else:
            span, field = source
            metrics[name] = summary.get(span, {}).get(field, 0)
    metrics["trace.overhead_pct"] = 100 * (
        statistics.median(t / u for t, u in zip(traced.op_s, plain.op_s)) - 1
    )
    op_s = summary.get("op", {}).get("incl_s", 0.0)
    notes = {
        "trace.overhead_pct": f"median over {len(ops)} ops; "
        f"{sum(traced.op_s):.3f} s traced, {sum(plain.op_s):.3f} s untraced",
        "self-time shares": ", ".join(
            f"{name} {100 * row['self_s'] / op_s:.1f}%"
            for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])
            if name != "op" and op_s
        ),
    }
    if tracer.unhooked:
        notes["unhooked"] = ", ".join(tracer.unhooked)
    out_path.write_text(
        json.dumps({
            "run": info,
            "ops": len(ops),
            "summary": summary,
            "counters": dict(tracer.counters),
            "spans": ["name start end parent op".split()] + tracer.spans,
        }),
        "utf-8",
    )
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.errors += traced.errors
    return plain, metrics, notes


def check_counts(metrics: dict, path: Path) -> str | None:
    """Compare work counts with an earlier run of the same seed, if any."""
    counts = {m: metrics[m] for m in COUNTS}
    if path.exists():
        earlier = json.loads(path.read_text("utf-8"))
        if earlier != counts:
            diff = sorted(m for m in counts if counts[m] != earlier.get(m))
            return f"work counts differ from an earlier run with this seed: {diff}"
        return None
    path.write_text(json.dumps(counts, indent=1), "utf-8")
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kphall" / "__init__.py").is_file():
        print(f"error: no kphall sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_kphall()

    if args.setup_into:
        workdir = Path(args.setup_into)
        workdir.mkdir(parents=True, exist_ok=True)
        workload.build(args.seed, workdir)
        return 0

    info = {"workload": args.workload, "seed": args.seed, **machine_info()}
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"# machine: nproc {info['nproc']}, cpu {info['cpu']}, python {info['python']}")
    stem = WORK / f"{args.workload}-seed{args.seed}"
    # set-up time is an end-to-end metric; a traced run needs the inputs only
    setups = time_setups(args, stem, *((1, 0) if args.trace else (SETUP_REPS, SETUP_BUDGET_S)))
    items = workload.load(stem)

    count_error = None
    if args.trace:
        loop, metrics, notes = run_traced(workload, items, Path(f"{stem}-trace.json"), info)
        count_error = check_counts(metrics, Path(f"{stem}-counts.json"))
        units = PER_LAYER_UNITS
    else:
        loop, metrics, notes = run_untraced(workload, items, args.seconds)
        setups += time_setups(args, stem, SETUP_REPS, SETUP_BUDGET_S)
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} set-ups"
        units = END_TO_END

    # The deep op runs untraced after the measured ops and is kept out of
    # attempted/failed; failed_frac, as printed, includes it.
    deep_error = None
    if workload.deep_item is not None:
        deep_error = deep_op(workload)
        print(f"# deep op, t={workload.DEEP_T}: {deep_error or 'ok'}")
    metrics["cli.deep_op_failed"] = int(deep_error is not None)
    deep_ops = int(workload.deep_item is not None)
    failed = loop.failed + metrics["cli.deep_op_failed"]

    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    print(f"failed_frac {failed / (loop.attempted + deep_ops):.6g} frac  "
          f"({failed} of {loop.attempted + deep_ops} ops, deep op included)")
    for key in ("self-time shares", "unhooked"):
        if key in notes:
            print(f"# {key}: {notes[key]}")
    for error in loop.errors + ([count_error] if count_error else []):
        print(f"# {error}", file=sys.stderr)

    result = {
        "correct": loop.failed == 0 and count_error is None,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    shutil.rmtree(stem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
