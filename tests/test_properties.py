"""Property-based tests over randomly drawn instances.

Brute-force re-implementations (subset enumeration, permutation search)
act as the independent reference wherever the library has a clever route.
"""

import itertools

from hypothesis import given, settings, strategies as st

from kphall import (
    GeneratorParams,
    MATCHING_EXISTS,
    NO_MATCHING,
    SdrInstance,
    SubmaximalEdge,
    alpha_prime,
    build_hypergraph,
    duality_report,
    enumerate_perfect_matchings,
    extend_matching,
    gen_planted_unique,
    hall_deficiency,
    hall_subset_oracle,
    max_bipartite_matching,
    neighborhood,
    neighborhood_of_set,
    prefix_hall_verdict,
    prefix_subhypergraph,
    serialize_instance,
    submaximal_edges,
)


@st.composite
def instances(draw, min_k=2, max_k=4, max_part=3, max_edges=14):
    k = draw(st.integers(min_k, max_k))
    sizes = [draw(st.integers(1, max_part)) for _ in range(k)]
    universe = list(itertools.product(*[range(s) for s in sizes]))
    chosen = draw(
        st.lists(
            st.sampled_from(universe),
            min_size=1,
            max_size=min(len(universe), max_edges),
            unique=True,
        )
    )
    parts = [[f"p{i}v{j}" for j in range(s)] for i, s in enumerate(sizes)]
    edges = [[parts[i][j] for i, j in enumerate(combo)] for combo in chosen]
    return build_hypergraph(parts, edges, strict=False)


@st.composite
def planted_instances(draw, max_k=4, max_t=4):
    k = draw(st.integers(2, max_k))
    t = draw(st.integers(1, max_t))
    last = draw(st.integers(1, max_t))
    density = draw(st.floats(0.0, 1.0, allow_nan=False))
    seed = draw(st.integers(0, 2**32))
    params = GeneratorParams(
        k=k,
        part_sizes=(t,) * (k - 1) + (last,),
        trace_density=density,
        attachments_per_trace=2,
    )
    return gen_planted_unique(params, seed)


# --- core invariants ----------------------------------------------------


@given(instances())
def test_submaximal_edges_have_neighbors(h):
    for sub in submaximal_edges(h):
        assert len(sub) == h.k - 1
        assert len(neighborhood(h, sub)) >= 1


@given(instances())
def test_edge_vertex_completes_its_rest(h):
    for e in h.edges:
        for v in e:
            rest = [u for u in e if u != v]
            nb = neighborhood(h, rest)
            assert v in nb
            assert all(u.part == v.part for u in nb)


@given(instances())
def test_generated_on_everything_is_identity(h):
    from kphall import generated_subhypergraph

    sub = generated_subhypergraph(h, h.vertices())
    assert sub.traces == h.edges


@given(instances())
def test_build_is_deterministic(h):
    rebuilt = build_hypergraph(
        [[v.label for v in part] for part in h.parts],
        [[v.label for v in e] for e in reversed(h.edges)],
        strict=False,
    )
    assert rebuilt == h
    assert serialize_instance(rebuilt) == serialize_instance(h)


# --- deficiency and extension -------------------------------------------


def brute_deficiency(h, m):
    subs = [SubmaximalEdge(e) for e in m.edges]
    worst = 0
    for r in range(len(subs) + 1):
        for combo in itertools.combinations(subs, r):
            worst = max(worst, r - len(neighborhood_of_set(h, combo)))
    return worst


@settings(max_examples=60, deadline=None)
@given(planted_instances(max_k=4, max_t=4))
def test_deficiency_routes_agree(h):
    (m,) = enumerate_perfect_matchings(prefix_subhypergraph(h), limit=2)
    fast = hall_deficiency(h, m)
    slow = hall_subset_oracle(h, m)
    assert fast.deficiency == slow.deficiency == brute_deficiency(h, m)
    assert fast.max_sdr == slow.max_sdr
    for report in (fast, slow):
        if report.deficiency > 0:
            witness = report.witness_violator
            nb = neighborhood_of_set(h, witness)
            assert len(nb) == len(witness) - report.deficiency
        else:
            assert report.witness_violator is None


@settings(max_examples=60, deadline=None)
@given(planted_instances(max_k=4, max_t=4))
def test_extension_size_law(h):
    (m,) = enumerate_perfect_matchings(prefix_subhypergraph(h), limit=2)
    report = hall_deficiency(h, m)
    ext = extend_matching(h, m)
    assert len(ext) == report.t - report.deficiency
    prefix_traces = set(m.edges)
    for e in ext:
        assert h.has_edge(e)
        assert tuple(v for v in e if v.part < h.k - 1) in prefix_traces


@settings(max_examples=60, deadline=None)
@given(planted_instances(max_k=4, max_t=4))
def test_unique_prefix_criterion_is_exact(h):
    (m,) = enumerate_perfect_matchings(prefix_subhypergraph(h), limit=2)
    deficiency = hall_deficiency(h, m).deficiency
    a, _ = alpha_prime(h, force=True)
    assert (deficiency == 0) == (a >= h.t)


@settings(max_examples=60, deadline=None)
@given(instances(max_part=3, max_edges=10))
def test_verdict_claims_match_exact_solver(h):
    v = prefix_hall_verdict(h)
    a, _ = alpha_prime(h, force=True)
    if not v.applicable:
        return
    if v.conclusion == MATCHING_EXISTS:
        assert a == v.t
    elif v.conclusion == NO_MATCHING:
        assert a < v.t


# --- duality ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(instances())
def test_weak_duality_and_konig_equivalence(h):
    r = duality_report(h, force=True)
    assert r.alpha_prime <= r.beta
    assert r.alpha_prime <= min(h.part_sizes)
    assert (r.alpha_prime == r.t) == r.has_t_matching
    assert r.has_t_matching == r.konig_equality
    cover = set(r.min_cover_witness)
    assert all(cover & set(e) for e in h.edges)
    assert len(r.max_matching_witness) == r.alpha_prime


@settings(max_examples=80, deadline=None)
@given(instances(max_k=2, max_part=4, max_edges=16))
def test_bipartite_konig_and_hall_reduction(h):
    r = duality_report(h, force=True)
    assert r.alpha_prime == r.beta
    left = tuple(SubmaximalEdge((v,)) for v in h.parts[0])
    inst = SdrInstance(
        left=left,
        right=h.parts[1],
        adjacency=tuple(neighborhood(h, s) for s in left),
    )
    saturated = len(max_bipartite_matching(inst)) == h.t
    v = prefix_hall_verdict(h)
    claims = v.applicable and v.conclusion == MATCHING_EXISTS
    assert claims == saturated


# --- determinism -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(planted_instances(max_k=3, max_t=3))
def test_enumeration_and_matching_are_repeatable(h):
    sub = prefix_subhypergraph(h)
    first = enumerate_perfect_matchings(sub, limit=2)
    second = enumerate_perfect_matchings(sub, limit=2)
    assert first == second
    m = first[0]
    from kphall import sdr_instance

    inst = sdr_instance(h, m)
    assert max_bipartite_matching(inst) == max_bipartite_matching(inst)


# --- single computations against their references -------------------------


def _scan_neighborhood(h, vs):
    """Reference: every edge containing ``vs``, scanned one by one."""
    need = set(vs)
    found = {v for e in h.edges if need <= set(e) for v in e if v not in need}
    return tuple(sorted(found))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_neighborhood_matches_edge_scan(h):
    subs = submaximal_edges(h)
    for sub in subs:
        assert neighborhood(h, sub) == _scan_neighborhood(h, sub.vertices)
    # every (k-1)-set with one vertex in each of k-1 distinct parts, most of
    # them not submaximal edges, given in reverse order
    for chosen_parts in itertools.combinations(h.parts, h.k - 1):
        for vs in itertools.product(*chosen_parts):
            expected = _scan_neighborhood(h, vs)
            assert neighborhood(h, vs[::-1]) == expected
            assert (SubmaximalEdge(vs) in subs) == bool(expected)


@settings(max_examples=80, deadline=None)
@given(st.one_of(instances(max_edges=10), planted_instances(max_k=4, max_t=4)))
def test_verdict_analyses_equal_the_public_views(h):
    verdict = prefix_hall_verdict(h, limit=3)
    for a in verdict.per_matching:
        assert a.hall == hall_deficiency(h, a.prefix_matching)
        assert a.extension == extend_matching(h, a.prefix_matching)


def _enumeration_reference(sub, limit):
    """Reference: first-part choices in lexicographic order, filtered."""
    first = sub.parts[0]
    options = [
        [tr for tr in sub.traces if v in tr and len(tr) == len(sub.parts)]
        for v in first
    ]
    out = []
    for combo in itertools.product(*options):
        if len({v for tr in combo for v in tr}) == sum(len(tr) for tr in combo):
            out.append(combo)
    return [sorted(c) for c in out[:limit]]


@settings(max_examples=80, deadline=None)
@given(instances(max_edges=12), st.integers(1, 4))
def test_enumeration_order_matches_lexicographic_reference(h, limit):
    sub = prefix_subhypergraph(h)
    if len(set(sub.part_sizes)) > 1:
        return
    found = enumerate_perfect_matchings(sub, limit=limit)
    assert [list(m.edges) for m in found] == _enumeration_reference(sub, limit)


def _kuhn_reference(inst):
    """Reference: the recursive augmenting-path search, same visiting order."""
    match_left = [None] * len(inst.left)
    match_right = {}

    def augment(i, visited):
        for v in inst.adjacency[i]:
            if v in visited:
                continue
            visited.add(v)
            j = match_right.get(v)
            if j is None or augment(j, visited):
                match_left[i] = v
                match_right[v] = i
                return True
        return False

    for i in range(len(inst.left)):
        augment(i, set())
    return tuple((i, v) for i, v in enumerate(match_left) if v is not None)


@settings(max_examples=100, deadline=None)
@given(instances(min_k=2, max_k=2, max_part=5, max_edges=20))
def test_kuhn_matches_recursive_reference(h):
    left = tuple(SubmaximalEdge((v,)) for v in h.parts[0])
    inst = SdrInstance(
        left=left,
        right=h.parts[1],
        adjacency=tuple(neighborhood(h, s) for s in left),
    )
    assert max_bipartite_matching(inst) == _kuhn_reference(inst)
