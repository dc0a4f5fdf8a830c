"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line with its budget.
Criteria 3 and 4 share one 520-instance planted corpus; every randomized
criterion runs from a fixed seed and is fully reproducible.
"""

import subprocess
import sys
import time

import pytest

from kphall import (
    GeneratorParams,
    alpha_prime,
    analyze_instance,
    analyze_matching,
    duality_report,
    enumerate_perfect_matchings,
    fixture,
    gen_planted_unique,
    gen_random,
    neighborhood,
    prefix_hall_verdict,
    serialize_instance,
)
from kphall.generate import derive_seed, randbelow, unit_float
from kphall.hypergraph import neighborhood_of_set
from kphall.matching import (
    MATCHING_EXISTS,
    hall_subset_oracle,
    max_bipartite_matching,
)

SEED = 2024


def report_line(number, description, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


def edge_labels(h, edges):
    return sorted([h.labels[v] for v in e] for e in edges)


# --- shared corpora -------------------------------------------------------


def make_planted(seed, index, t_max=5):
    s = derive_seed(seed, "planted", index)
    k = (2, 3, 4)[randbelow(s, 3, "k")]
    t = 1 + randbelow(s, t_max, "t")
    last = max(1, t + randbelow(s, 3, "last") - 1)
    density = 0.15 + 0.7 * unit_float(s, "density")
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


def make_random(seed, index, k=None, size_max=5):
    s = derive_seed(seed, "random", index)
    if k is None:
        k = (2, 3, 4)[randbelow(s, 3, "k")]
    sizes, product = [], 1
    for i in range(k):
        hi = max(1, min(size_max, 48 // product))
        size = 1 + randbelow(s, hi, "size", i)
        sizes.append(size)
        product *= size
    p = 0.1 + 0.8 * unit_float(s, "p")
    return gen_random(GeneratorParams(k=k, part_sizes=tuple(sizes), edge_probability=p), s)


@pytest.fixture(scope="module")
def planted_corpus():
    start = time.perf_counter()
    corpus = [make_planted(SEED, i) for i in range(520)]
    return corpus, time.perf_counter() - start


# --- criteria -------------------------------------------------------------


def test_criterion_1_nonunique_prefix_reproduction():
    start = time.perf_counter()
    h = fixture("nonunique_prefix")
    report = analyze_instance(h)
    v = report.verdict

    ok = v.pm_count == 2 and v.pm_count_is_lower_bound and v.unique is False
    by_content = {
        tuple(tuple(h.labels[x] for x in e) for e in a.prefix_matching.edges): a
        for a in v.per_matching
    }
    violating = by_content[(("x1", "y2"), ("x2", "y1"))]
    satisfied = by_content[(("x1", "y1"), ("x2", "y2"))]
    ok = ok and violating.hall.deficiency == 1
    ok = ok and [
        h.labels[x] for x in neighborhood_of_set(h, violating.hall.witness_violator)
    ] == ["z2"]
    ok = ok and satisfied.hall.deficiency == 0
    ok = ok and edge_labels(h, v.witness.edges) == [
        ["x1", "y1", "z1"],
        ["x2", "y2", "z2"],
    ]
    ok = ok and report.duality.alpha_prime == 2
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report_line(
        1,
        "non-unique prefix example reproduced exactly",
        ok,
        f"{elapsed * 1000:.0f} ms",
    )


def test_criterion_2_duality_gap_reproduction():
    start = time.perf_counter()
    h = fixture("duality_gap")
    report = analyze_instance(h)
    v = report.verdict
    d = report.duality

    ok = v.pm_count == 1 and v.unique is True
    ok = ok and edge_labels(h, v.chosen.prefix_matching.edges) == [
        ["1", "3"],
        ["2", "4"],
    ]
    ok = ok and v.chosen.hall.deficiency == 1
    ok = ok and d.alpha_prime == 1 and d.beta == 2
    ok = ok and not d.konig_equality and not d.has_t_matching
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report_line(
        2, "duality-gap example reproduced exactly", ok, f"{elapsed * 1000:.0f} ms"
    )


def test_criterion_3_unique_prefix_criterion_equivalence(planted_corpus):
    corpus, build_time = planted_corpus
    start = time.perf_counter()
    failures = 0
    for h in corpus:
        (m,) = enumerate_perfect_matchings(h, limit=2)
        deficiency = analyze_matching(h, m).hall.deficiency
        a, _ = alpha_prime(h, force=True)
        if (deficiency == 0) != (a >= h.t):
            failures += 1
    elapsed = time.perf_counter() - start + build_time
    ok = failures == 0 and len(corpus) >= 500 and elapsed < 60.0
    report_line(
        3,
        f"deficiency-0 iff alpha' >= t on {len(corpus)} unique-prefix instances",
        ok,
        f"{failures} failures, {elapsed:.1f} s",
    )


def test_criterion_4_extension_size_law(planted_corpus):
    corpus, _ = planted_corpus
    failures = 0
    for h in corpus:
        (m,) = enumerate_perfect_matchings(h, limit=2)
        analysis = analyze_matching(h, m)
        deficiency = analysis.hall.deficiency
        ext = analysis.extension
        valid = len(ext) == h.t - deficiency
        covered = set()
        traces = set(m.edges)
        for e in ext:
            valid = valid and h.has_edge(e)
            valid = valid and covered.isdisjoint(e)
            covered.update(e)
            valid = valid and tuple(v for v in e if v not in h.parts[-1]) in traces
        if not valid:
            failures += 1
    ok = failures == 0 and len(corpus) >= 500
    report_line(
        4,
        f"extension is a valid matching of size t - deficiency on {len(corpus)} instances",
        ok,
        f"{failures} failures",
    )


def test_criterion_5_size_t_duality_equivalence():
    start = time.perf_counter()
    trials = 520
    failures = 0
    for i in range(trials):
        h = make_random(SEED, i)
        a, wm = alpha_prime(h, force=True)
        r = duality_report(h, force=True)
        b, wc = r.beta, r.min_cover_witness
        valid = a <= b
        valid = valid and len(wm) == a and all(h.has_edge(e) for e in wm)
        cover = set(wc)
        valid = valid and len(cover) == b
        valid = valid and all(cover & set(e) for e in h.edges)
        valid = valid and ((a == h.t) == (a == b == h.t))
        if not valid:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report_line(
        5,
        f"matching of size t iff alpha'=beta=t on {trials} random instances",
        ok,
        f"{failures} failures, {elapsed:.1f} s",
    )


def test_criterion_6_deficiency_oracle_equivalence():
    start = time.perf_counter()
    trials = 220
    failures = 0
    for i in range(trials):
        s = derive_seed(SEED, "oracle", i)
        k = (2, 3)[randbelow(s, 2, "k")]
        t = 1 + randbelow(s, 10, "t")
        last = max(1, t + randbelow(s, 3, "last") - 1)
        density = 0.15 + 0.7 * unit_float(s, "density")
        nondiag = sum((t - c) ** (k - 2) for c in range(t)) - t
        if nondiag > 15:
            density *= 15.0 / nondiag
        h = gen_planted_unique(
            GeneratorParams(
                k=k,
                part_sizes=(t,) * (k - 1) + (last,),
                trace_density=density,
                attachments_per_trace=2,
            ),
            s,
        )
        (m,) = enumerate_perfect_matchings(h, limit=2)
        fast = analyze_matching(h, m).hall
        slow = hall_subset_oracle(h, m)
        valid = (fast.deficiency, fast.max_sdr) == (slow.deficiency, slow.max_sdr)
        for rep in (fast, slow):
            if rep.deficiency > 0:
                nb = neighborhood_of_set(h, rep.witness_violator)
                valid = valid and len(nb) == len(rep.witness_violator) - rep.deficiency
            else:
                valid = valid and rep.witness_violator is None
        if not valid:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report_line(
        6,
        f"matching-based deficiency equals subset oracle on {trials} instances (t <= 10)",
        ok,
        f"{failures} failures, {elapsed:.1f} s",
    )


def test_criterion_7_bipartite_reduction():
    trials = 220
    failures = 0
    for i in range(trials):
        h = make_random(SEED + 1, i, k=2, size_max=6)
        verdict = prefix_hall_verdict(h)
        inst = tuple(neighborhood(h, (v,)) for v in h.parts[0])
        saturated = len(max_bipartite_matching(inst)) == h.t
        claims = verdict.applicable and verdict.conclusion == MATCHING_EXISTS
        r = duality_report(h, force=True)
        if claims != saturated or r.alpha_prime != r.beta:
            failures += 1
    ok = failures == 0
    report_line(
        7,
        f"verdict matches classical bipartite Hall and alpha'=beta on {trials} instances",
        ok,
        f"{failures} failures",
    )


def test_criterion_8_byte_identical_outputs(tmp_path):
    def cli(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "kphall", *argv],
            capture_output=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    gap_path = tmp_path / "gap.json"
    gap_path.write_text(serialize_instance(fixture("duality_gap")), "utf-8")

    gen_args = ("generate", "planted", "--k", "3", "--t", "3", "--seed", "7")
    analyze_args = ("analyze", str(gap_path), "--json")
    verify_args = ("verify", "--trials", "8", "--seed", "42", "--json")

    ok = True
    for args in (gen_args, analyze_args, verify_args):
        first = cli(*args)
        second = cli(*args)
        ok = ok and first == second and first.strip().startswith(b"{")
    report_line(
        8, "generate/analyze/verify emit byte-identical JSON across runs", ok
    )
