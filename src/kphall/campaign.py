"""Randomized verification campaign over generated instances.

Each property is a law the library must satisfy on every instance; a
failure therefore indicates an implementation bug, and the report embeds
the first failing instance verbatim so it can be replayed from a file.

Properties and the instance mode that feeds them:

* ``unique-hall`` (unique-planted): on instances whose prefix has a unique
  perfect matching M, deficiency(M) = 0 holds exactly when the true
  maximum matching reaches t; the verdict's positive/negative claims must
  agree with the exact solver.
* ``defect-extension`` (unique-planted): the extension of M is a valid
  matching of size exactly t - deficiency(M).
* ``defect-equivalence`` (unique-planted): the augmenting-path deficiency
  equals the exhaustive subset oracle, witnesses included.
* ``konig`` (random): alpha' <= beta always, both witnesses check out, and
  alpha' = t holds exactly when alpha' = beta = t.
* ``k2-reduction`` (random, k forced to 2): the verdict agrees with
  classical bipartite Hall, read as alpha' = t (a matching saturates the
  first part), and alpha' = beta (Koenig).

Trials are deterministic in (seed, property, trial index), and the report
holds no timing, so equal configs give equal reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .analysis import edge_labels
from .errors import KphallError
from .exact import alpha_prime, duality_report
from .generate import (
    GeneratorParams,
    derive_seed,
    gen_planted_unique,
    gen_random,
    randbelow,
    unit_float,
)
from .hypergraph import KPartiteHypergraph, neighborhood_of_set
from .instance_io import REPORT_VERSION, serialize_instance
from .matching import (
    MATCHING_EXISTS,
    NO_MATCHING,
    hall_subset_oracle,
    prefix_hall_verdict,
)

__all__ = [
    "PROPERTY_NAMES",
    "MODES",
    "CampaignConfig",
    "PropertyOutcome",
    "CampaignReport",
    "run_campaign",
    "campaign_jsonable",
]

MODES = ("unique-planted", "random")

_CheckFn = Callable[[KPartiteHypergraph], str | None]


def _unique_verdict(h: KPartiteHypergraph):
    verdict = prefix_hall_verdict(h)
    if verdict.pm_count != 1:
        return None, (
            f"expected a unique prefix perfect matching, found {verdict.pm_count}"
        )
    return verdict, None


def _check_unique_hall(h: KPartiteHypergraph) -> str | None:
    verdict, err = _unique_verdict(h)
    if err:
        return err
    d = verdict.chosen.hall.deficiency
    a, _ = alpha_prime(h, force=True)
    t = h.t
    if (d == 0) != (a >= t):
        return f"deficiency={d} but alpha'={a} with t={t}"
    if verdict.conclusion == MATCHING_EXISTS and a != t:
        return f"verdict claims a matching of size {t} but alpha'={a}"
    if verdict.conclusion == NO_MATCHING and a >= t:
        return f"verdict denies a matching of size {t} but alpha'={a}"
    return None


def _check_defect_extension(h: KPartiteHypergraph) -> str | None:
    verdict, err = _unique_verdict(h)
    if err:
        return err
    chosen = verdict.chosen
    d = chosen.hall.deficiency
    ext = chosen.extension
    if len(ext) != h.t - d:
        return f"extension has {len(ext)} edges, expected {h.t}-{d}"
    seen = set()
    prefix_traces = set(chosen.prefix_matching)
    for e in ext:
        if not h.has_edge(e):
            return f"extension edge {edge_labels(h, e)} is not an edge of H"
        if seen & set(e):
            return "extension edges overlap"
        seen.update(e)
        trace = tuple([v for v in e if v not in h.parts[-1]])
        if trace not in prefix_traces:
            return f"extension edge {edge_labels(h, e)} does not extend the matching"
    return None


def _check_defect_equivalence(h: KPartiteHypergraph) -> str | None:
    verdict, err = _unique_verdict(h)
    if err:
        return err
    chosen = verdict.chosen
    fast = chosen.hall
    slow = hall_subset_oracle(h, chosen.prefix_matching)
    if fast.deficiency != slow.deficiency:
        return (
            f"matching route gives d={fast.deficiency}, "
            f"subset oracle gives d={slow.deficiency}"
        )
    for label, report in (("matching", fast), ("oracle", slow)):
        witness = report.witness_violator
        if report.deficiency > 0:
            if witness is None:
                return f"{label} route reports deficiency but no witness"
            nb = neighborhood_of_set(h, witness)
            if len(nb) != len(witness) - report.deficiency:
                return (
                    f"{label} witness has |N(A)|={len(nb)}, "
                    f"|A|={len(witness)}, d={report.deficiency}"
                )
        elif witness is not None:
            return f"{label} route reports a witness at deficiency 0"
    return None


def _check_konig(h: KPartiteHypergraph) -> str | None:
    report = duality_report(h, force=True)
    a, b, t = report.alpha_prime, report.beta, report.t
    if a > b:
        return f"weak duality violated: alpha'={a} > beta={b}"
    if len(report.max_matching_witness) != a:
        return "matching witness size disagrees with alpha'"
    for e in report.max_matching_witness:
        if not h.has_edge(e):
            return "matching witness uses a non-edge"
    cover = set(report.min_cover_witness)
    if len(cover) != b:
        return "cover witness size disagrees with beta"
    if any(cover.isdisjoint(e) for e in h.edges):
        return "cover witness misses an edge"
    if (a == t) != (a == b == t):
        return f"alpha'={a}, beta={b}, t={t}: size-t equivalence broken"
    return None


def _check_k2_reduction(h: KPartiteHypergraph) -> str | None:
    if h.k != 2:
        return f"expected a bipartite instance, got k={h.k}"
    verdict = prefix_hall_verdict(h)
    report = duality_report(h, force=True)
    # Classical Hall holds exactly when a matching saturates the first part,
    # that is alpha' = t; the branch and bound shares no code with the
    # verdict's augmenting paths.
    claims_exists = verdict.applicable and verdict.conclusion == MATCHING_EXISTS
    if claims_exists != report.has_t_matching:
        return (
            f"verdict says {verdict.conclusion or verdict.reason!r} but "
            f"alpha'={report.alpha_prime} with t={h.t}"
        )
    if report.alpha_prime != report.beta:
        return f"bipartite alpha'={report.alpha_prime} != beta={report.beta}"
    return None


_PROPERTIES: dict[str, tuple[str, _CheckFn]] = {
    "unique-hall": ("unique-planted", _check_unique_hall),
    "defect-extension": ("unique-planted", _check_defect_extension),
    "defect-equivalence": ("unique-planted", _check_defect_equivalence),
    "konig": ("random", _check_konig),
    "k2-reduction": ("random", _check_k2_reduction),
}

PROPERTY_NAMES = tuple(_PROPERTIES)


@dataclass(frozen=True)
class CampaignConfig:
    trials: int = 100
    seed: int = 0
    k_values: tuple[int, ...] = (2, 3, 4)
    t_values: tuple[int, ...] = (1, 2, 3, 4)
    modes: tuple[str, ...] = MODES
    properties: tuple[str, ...] = PROPERTY_NAMES

    def validate(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.k_values or any(k < 2 for k in self.k_values):
            raise ValueError("k values must be integers >= 2")
        if not self.t_values or any(t < 1 for t in self.t_values):
            raise ValueError("t values must be integers >= 1")
        unknown = set(self.modes) - set(MODES)
        if unknown:
            raise ValueError(
                f"unknown modes: {sorted(unknown)}; known: {', '.join(MODES)}"
            )
        unknown = set(self.properties) - set(_PROPERTIES)
        if unknown:
            raise ValueError(
                f"unknown properties: {sorted(unknown)}; "
                f"known: {', '.join(PROPERTY_NAMES)}"
            )
        if not self.modes or not self.properties:
            raise ValueError("modes and properties must be nonempty")


@dataclass(frozen=True)
class PropertyOutcome:
    name: str
    mode: str
    trials: int
    passed: int
    failed: int
    skipped: bool = False
    first_failure: dict | None = field(default=None)


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    outcomes: tuple[PropertyOutcome, ...]
    ok: bool


def _planted_trial(cfg: CampaignConfig, prop: str, index: int) -> KPartiteHypergraph:
    s = derive_seed(cfg.seed, prop, index)
    k = cfg.k_values[randbelow(s, len(cfg.k_values), "k")]
    t = cfg.t_values[randbelow(s, len(cfg.t_values), "t")]
    last = max(1, t + randbelow(s, 3, "last") - 1)
    density = 0.15 + 0.7 * unit_float(s, "density")
    # keep expected trace counts small so the exact solvers stay fast
    nondiag = sum((t - c) ** (k - 2) for c in range(t)) - t
    if nondiag > 15:
        density *= 15.0 / nondiag
    params = GeneratorParams(
        k=k,
        part_sizes=(t,) * (k - 1) + (last,),
        trace_density=density,
        attachments_per_trace=2,
    )
    return gen_planted_unique(params, s)


def _random_trial(
    cfg: CampaignConfig, prop: str, index: int, k: int | None = None
) -> KPartiteHypergraph:
    s = derive_seed(cfg.seed, prop, index)
    if k is None:
        k = cfg.k_values[randbelow(s, len(cfg.k_values), "k")]
    max_size = max(cfg.t_values)
    sizes = []
    product = 1
    for i in range(k):
        hi = max(1, min(max_size, 48 // product))
        size = 1 + randbelow(s, hi, "size", i)
        sizes.append(size)
        product *= size
    p = 0.1 + 0.8 * unit_float(s, "p")
    params = GeneratorParams(k=k, part_sizes=tuple(sizes), edge_probability=p)
    return gen_random(params, s)


def _trial_instance(cfg: CampaignConfig, prop: str, index: int) -> KPartiteHypergraph:
    mode, _ = _PROPERTIES[prop]
    if mode == "unique-planted":
        return _planted_trial(cfg, prop, index)
    if prop == "k2-reduction":
        return _random_trial(cfg, prop, index, k=2)
    return _random_trial(cfg, prop, index)


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run every selected property for the configured number of trials."""
    cfg.validate()
    outcomes = []
    for name in cfg.properties:
        mode, check = _PROPERTIES[name]
        if mode not in cfg.modes:
            outcomes.append(
                PropertyOutcome(
                    name=name, mode=mode, trials=0, passed=0, failed=0, skipped=True
                )
            )
            continue
        passed = failed = 0
        first_failure = None
        for index in range(cfg.trials):
            h = _trial_instance(cfg, name, index)
            try:
                message = check(h)
            except KphallError as exc:
                message = f"error: {exc}"
            if message is None:
                passed += 1
            else:
                failed += 1
                if first_failure is None:
                    first_failure = {
                        "trial": index,
                        "message": message,
                        "instance": serialize_instance(h),
                    }
        outcomes.append(
            PropertyOutcome(
                name=name,
                mode=mode,
                trials=cfg.trials,
                passed=passed,
                failed=failed,
                first_failure=first_failure,
            )
        )
    ok = all(o.failed == 0 for o in outcomes)
    return CampaignReport(config=cfg, outcomes=tuple(outcomes), ok=ok)


def campaign_jsonable(report: CampaignReport) -> dict[str, Any]:
    """JSON form of a campaign report.

    The report holds no timing, so fixed-seed runs stay byte-identical.
    """
    cfg = report.config
    return {
        "report_version": REPORT_VERSION,
        "config": {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "k_values": list(cfg.k_values),
            "t_values": list(cfg.t_values),
            "modes": list(cfg.modes),
            "properties": list(cfg.properties),
        },
        "properties": [
            {
                "name": o.name,
                "mode": o.mode,
                "skipped": o.skipped,
                "trials": o.trials,
                "passed": o.passed,
                "failed": o.failed,
                "first_failure": o.first_failure,
            }
            for o in report.outcomes
        ],
        "ok": report.ok,
    }
