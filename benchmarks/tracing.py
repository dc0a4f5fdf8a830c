"""Benchmark-side tracing of kphall's layers.

The tracer wraps public kphall functions by rebinding them in every kphall
module that imported them, so calls made inside the library are caught as
well as calls made by the benchmark.  Each call becomes a span (name, start,
end, parent span, op id) kept in memory; ``summary`` turns the spans into
per-layer time, self time and call counts.

These spans are taken from outside the program.  kphall has no counters or
timers of its own yet (``analyze --stats`` and campaign timing are later
work), so nothing here should be read as the program's own tracing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, defining module, public attribute).  Both renderers share one
# span name; analysis_jsonable calls verdict_jsonable, and inclusive time
# counts the outermost span only.
TARGETS = (
    ("cli.main", "kphall.cli", "main"),
    ("instance_io.parse", "kphall.instance_io", "parse_instance"),
    ("instance_io.serialize", "kphall.instance_io", "serialize_instance"),
    ("hypergraph.build", "kphall.hypergraph", "build_hypergraph"),
    ("hypergraph.prefix_sub", "kphall.hypergraph", "prefix_subhypergraph"),
    ("hypergraph.neighborhood", "kphall.hypergraph", "neighborhood"),
    ("matching.enumerate", "kphall.matching", "enumerate_perfect_matchings"),
    ("matching.sdr", "kphall.matching", "sdr_instance"),
    ("matching.hall", "kphall.matching", "hall_deficiency"),
    ("matching.oracle", "kphall.matching", "hall_subset_oracle"),
    ("matching.extend", "kphall.matching", "extend_matching"),
    ("matching.verdict", "kphall.matching", "prefix_hall_verdict"),
    ("exact.alpha", "kphall.exact", "alpha_prime"),
    ("exact.beta", "kphall.exact", "beta"),
    ("generate.planted", "kphall.generate", "gen_planted_unique"),
    ("generate.random", "kphall.generate", "gen_random"),
    ("analysis.analyze", "kphall.analysis", "analyze_instance"),
    ("analysis.render", "kphall.analysis", "analysis_jsonable"),
    ("analysis.render", "kphall.analysis", "verdict_jsonable"),
    ("campaign.run", "kphall.campaign", "run_campaign"),
)

# Per-property checks have no public name; the campaign keeps them in this
# private table of name -> (mode, check).  It is the one private hook, and a
# missing table only leaves the campaign.<property>_s metrics at zero.
CAMPAIGN_TABLE = ("kphall.campaign", "_PROPERTIES")


def _planted_attempts(h) -> int:
    meta = getattr(h, "metadata", None) or {}
    return int(meta.get("generator", {}).get("attempt", 0)) + 1


# span name -> (counter name, function of the call's result)
RESULT_COUNTERS = {
    "matching.enumerate": ("matching.prefix_matchings_found", len),
    "generate.planted": ("generate.planted_attempts", _planted_attempts),
}


class Tracer:
    """Records spans while installed; every wrapped call is one span."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.unhooked: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self._op)
            if counter is not None:
                counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        import kphall.cli  # noqa: F401  (loads every layer module)

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "kphall" or n.startswith("kphall."))
        ]
        for name, modname, attr in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.unhooked.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, original)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    setattr(m, attr, wrapped)
                    self._restore.append((m, attr, original))
        modname, attr = CAMPAIGN_TABLE
        table = getattr(sys.modules.get(modname), attr, None)
        if not isinstance(table, dict):
            self.unhooked.append("campaign.<property>")
            return
        saved = dict(table)
        for prop, (mode, check) in saved.items():
            table[prop] = (mode, self._wrap(f"campaign.{prop}", check))
        self._restore.append((table, None, saved))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if attr is None:
                target.clear()
                target.update(original)
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span named ``op``."""
        self._op = op_id
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self._op = None

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a name
        nested in itself is not counted twice; self time is a span's duration
        minus the durations of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
        )
        for sid, (name, start, end, parent, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += end - start - child_time[sid]
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                row["incl_s"] += end - start
        return dict(out)
