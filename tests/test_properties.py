"""Property-based tests over randomly drawn instances.

Brute-force re-implementations (subset enumeration, permutation search)
act as the independent reference wherever the library has a clever route.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kphall import (
    GeneratorParams,
    alpha_prime,
    analyze_matching,
    build_hypergraph,
    duality_report,
    enumerate_perfect_matchings,
    gen_planted_unique,
    neighborhood,
    prefix_hall_verdict,
    serialize_instance,
)
from kphall.errors import NotPerfectPrefixMatchingError
from kphall.hypergraph import neighborhood_of_set, prefix_traces
from kphall.matching import (
    MATCHING_EXISTS,
    NO_MATCHING,
    _kuhn,
    hall_subset_oracle,
    sdr_instance,
)


@st.composite
def instances(draw, min_k=2, max_k=4, max_part=3, max_edges=14, min_edges=1):
    k = draw(st.integers(min_k, max_k))
    sizes = [draw(st.integers(1, max_part)) for _ in range(k)]
    universe = list(itertools.product(*[range(s) for s in sizes]))
    chosen = draw(
        st.lists(
            st.sampled_from(universe),
            min_size=min(len(universe), min_edges),
            max_size=min(len(universe), max_edges),
            unique=True,
        )
    )
    parts = [[f"p{i}v{j}" for j in range(s)] for i, s in enumerate(sizes)]
    edges = [[parts[i][j] for i, j in enumerate(combo)] for combo in chosen]
    return build_hypergraph(parts, edges, strict=False)


@st.composite
def planted_instances(draw, min_k=2, max_k=4, max_t=4):
    k = draw(st.integers(min_k, max_k))
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
def test_prefix_traces_have_neighbors(h):
    traces = prefix_traces(h)
    assert traces == tuple(dict.fromkeys(e[:-1] for e in h.edges))
    for trace in traces:
        assert len(trace) == h.k - 1
        nb = neighborhood(h, trace)
        assert len(nb) >= 1
        assert all(v in h.parts[-1] for v in nb)


@given(instances())
def test_edge_vertex_completes_its_rest(h):
    # Only the last-part vertex does: any other rest holds a last-part vertex,
    # so it is no prefix trace and has no neighbors.
    for e in h.edges:
        for v in e:
            nb = neighborhood(h, [u for u in e if u != v])
            if v in h.parts[-1]:
                assert v in nb
                assert all(u in h.parts[-1] for u in nb)
            else:
                assert nb == ()


@given(instances())
def test_build_is_deterministic(h):
    rebuilt = build_hypergraph(
        [[h.labels[v] for v in part] for part in h.parts],
        [[h.labels[v] for v in e] for e in reversed(h.edges)],
        strict=False,
    )
    assert rebuilt == h
    assert serialize_instance(rebuilt) == serialize_instance(h)


# --- deficiency and extension -------------------------------------------


def brute_deficiency(h, m):
    subs = list(m)
    worst = 0
    for r in range(len(subs) + 1):
        for combo in itertools.combinations(subs, r):
            worst = max(worst, r - len(neighborhood_of_set(h, combo)))
    return worst


@settings(max_examples=60, deadline=None)
@given(planted_instances(max_k=4, max_t=4))
def test_deficiency_routes_agree(h):
    (m,) = enumerate_perfect_matchings(h, limit=2)
    fast = analyze_matching(h, m).hall
    slow = hall_subset_oracle(h, m)
    assert fast.deficiency == slow.deficiency == brute_deficiency(h, m)
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
    (m,) = enumerate_perfect_matchings(h, limit=2)
    analysis = analyze_matching(h, m)
    report, ext = analysis.hall, analysis.extension
    assert len(ext) == len(m) - report.deficiency
    taken = set(m)
    for e in ext:
        assert h.has_edge(e)
        assert tuple(v for v in e if v not in h.parts[-1]) in taken


@settings(max_examples=60, deadline=None)
@given(planted_instances(max_k=4, max_t=4))
def test_unique_prefix_criterion_is_exact(h):
    (m,) = enumerate_perfect_matchings(h, limit=2)
    deficiency = analyze_matching(h, m).hall.deficiency
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
        assert a == h.t
    elif v.conclusion == NO_MATCHING:
        assert a < h.t


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
    inst = tuple(neighborhood(h, (v,)) for v in h.parts[0])
    saturated = None not in _kuhn(inst)[0]
    v = prefix_hall_verdict(h)
    claims = v.applicable and v.conclusion == MATCHING_EXISTS
    assert claims == saturated == (r.alpha_prime == h.t)


# --- determinism -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(planted_instances(max_k=3, max_t=3))
def test_enumeration_and_matching_are_repeatable(h):
    first = enumerate_perfect_matchings(h, limit=2)
    second = enumerate_perfect_matchings(h, limit=2)
    assert first == second
    m = first[0]
    inst = sdr_instance(h, m)
    assert _kuhn(inst) == _kuhn(inst)


# --- single computations against their references -------------------------


def _scan_neighborhood(h, vs):
    """Reference: the last-part vertices of every edge containing ``vs``."""
    need = set(vs)
    found = {
        v for e in h.edges if need <= set(e) for v in e
        if v not in need and v in h.parts[-1]
    }
    return tuple(sorted(found))


@settings(max_examples=80, deadline=None)
@given(instances())
def test_neighborhood_matches_edge_scan(h):
    traces = set(prefix_traces(h))
    # every (k-1)-set with one vertex in each of k-1 distinct parts, last
    # part included, given in reverse order: only prefix traces have
    # neighbors, and those are their last-part completions
    for chosen_parts in itertools.combinations(h.parts, h.k - 1):
        for vs in itertools.product(*chosen_parts):
            expected = _scan_neighborhood(h, vs)
            assert neighborhood(h, vs[::-1]) == expected
            assert (tuple(sorted(vs)) in traces) == bool(expected)


@settings(max_examples=80, deadline=None)
@given(st.one_of(instances(max_edges=10), planted_instances(max_k=4, max_t=4)))
def test_verdict_analyses_equal_the_public_views(h):
    verdict = prefix_hall_verdict(h, limit=3)
    for a in verdict.per_matching:
        assert a == analyze_matching(h, a.prefix_matching)


def _enumeration_reference(h, limit):
    """Reference: first-part choices in lexicographic order, filtered."""
    traces = sorted(
        {tuple(v for v in e if v not in h.parts[-1]) for e in h.edges},
        key=lambda tr: [v - part.start for v, part in zip(tr, h.parts)],
    )
    options = [[tr for tr in traces if v in tr] for v in h.parts[0]]
    out = []
    for combo in itertools.product(*options):
        if len({v for tr in combo for v in tr}) == sum(len(tr) for tr in combo):
            out.append(combo)
    return [sorted(c) for c in out[:limit]]


@settings(max_examples=80, deadline=None)
@given(instances(max_edges=12), st.integers(1, 4))
def test_enumeration_order_matches_lexicographic_reference(h, limit):
    if len(set(h.part_sizes[:-1])) > 1:
        return
    found = enumerate_perfect_matchings(h, limit=limit)
    assert [list(m) for m in found] == _enumeration_reference(h, limit)


@st.composite
def dense_prefix_instances(draw):
    """Equal prefix parts and many traces, so the search backtracks a lot."""
    k = draw(st.integers(2, 4))
    t = draw(st.integers(1, 5))
    last = draw(st.integers(1, 3))
    universe = list(itertools.product(range(t), repeat=k - 1))
    most = min(len(universe), 4 * t)
    count = draw(st.integers(min(most, 2 * t), most))
    traces = draw(st.randoms(use_true_random=False)).sample(universe, count)
    if draw(st.booleans()):
        # plant the diagonal, so some perfect matching exists
        traces = list(dict.fromkeys([(i,) * (k - 1) for i in range(t)] + traces))
    if k > 2 and draw(st.booleans()):
        # leave the last second-part vertex in no trace
        traces = [tr for tr in traces if tr[1] != t - 1]
    parts = [[f"p{i}v{j}" for j in range(t)] for i in range(k - 1)]
    parts.append([f"z{j}" for j in range(last)])
    edges = [
        [parts[i][c] for i, c in enumerate(tr)]
        + [parts[-1][draw(st.integers(0, last - 1))]]
        for tr in traces
    ]
    return build_hypergraph(parts, edges, strict=False)


@settings(max_examples=150, deadline=None)
@given(dense_prefix_instances(), st.integers(1, 4))
def test_dense_enumeration_matches_lexicographic_reference(h, limit):
    found = enumerate_perfect_matchings(h, limit=limit)
    assert [list(m) for m in found] == _enumeration_reference(h, limit)


def _kuhn_reference(inst):
    """Reference: the recursive augmenting-path search, same visiting order."""
    match_left = [None] * len(inst)
    match_right = {}

    def augment(i, visited):
        for v in inst[i]:
            if v in visited:
                continue
            visited.add(v)
            j = match_right.get(v)
            if j is None or augment(j, visited):
                match_left[i] = v
                match_right[v] = i
                return True
        return False

    for i in range(len(inst)):
        augment(i, set())
    return match_left, match_right


@settings(max_examples=100, deadline=None)
@given(instances(min_k=2, max_k=2, max_part=5, max_edges=20))
def test_kuhn_matches_recursive_reference(h):
    inst = tuple(neighborhood(h, (v,)) for v in h.parts[0])
    assert _kuhn(inst) == _kuhn_reference(inst)


def _alpha_prime_reference(h):
    """Reference: the recursive branch and bound, same visiting order."""
    edges = h.edges
    edge_sets = [frozenset(e) for e in edges]
    cap = min(h.part_sizes)
    m = len(edges)
    best = []
    done = False

    def walk(start, used, chosen):
        nonlocal best, done
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) >= cap:
                done = True
                return
        compatible = [j for j in range(start, m) if used.isdisjoint(edge_sets[j])]
        if len(chosen) + len(compatible) <= len(best):
            return
        for pos, j in enumerate(compatible):
            chosen.append(j)
            walk(j + 1, used | edge_sets[j], chosen)
            chosen.pop()
            if done:
                return
            if len(chosen) + (len(compatible) - pos - 1) <= len(best):
                return

    walk(0, frozenset(), [])
    return len(best), tuple(edges[j] for j in best)


def _min_cover_reference(h, lower):
    """Reference: the recursive cover search, same visiting order."""
    edges = h.edges
    best = sorted(h.parts[0])
    done = False

    def first_uncovered(cover):
        for e in edges:
            if cover.isdisjoint(e):
                return e
        return None

    def walk(cover):
        nonlocal best, done
        if len(cover) >= len(best):
            return
        e = first_uncovered(cover)
        if e is None:
            best = sorted(cover)
            if len(best) <= lower:
                done = True
            return
        for v in e:
            cover.add(v)
            walk(cover)
            cover.remove(v)
            if done:
                return

    if len(best) > lower:
        walk(set())
    return len(best), tuple(best)


def _assert_exact_witnesses_match_references(h):
    expected = _alpha_prime_reference(h)
    assert alpha_prime(h, force=True) == expected
    r = duality_report(h, force=True)
    assert (r.beta, r.min_cover_witness) == _min_cover_reference(h, expected[0])


@settings(max_examples=150, deadline=None)
@given(instances(max_part=4, max_edges=20))
def test_exact_witnesses_match_recursive_references(h):
    _assert_exact_witnesses_match_references(h)


@settings(max_examples=150, deadline=None)
@given(instances(max_part=7, max_edges=36, min_edges=8))
def test_bounded_exact_witnesses_match_on_larger_instances(h):
    # Larger draws than above, where the packing and reach bounds seldom
    # prune.  They must never cut a strictly better solution, so both
    # witnesses stay those of the unpruned references.
    _assert_exact_witnesses_match_references(h)


def _assert_canonical_matching(m):
    assert m == tuple(sorted(m))
    assert all(e == tuple(sorted(e)) for e in m)
    vertices = [v for e in m for v in e]
    assert len(vertices) == len(set(vertices))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        instances(max_edges=12),
        planted_instances(max_k=4, max_t=4),
        dense_prefix_instances(),
    )
)
def test_internal_matchings_are_canonical_and_disjoint(h):
    # Every path builds Matching directly, with no sorting or disjointness
    # check of its own; this is that check.
    for m in enumerate_perfect_matchings(h, limit=3):
        _assert_canonical_matching(m)
        _assert_canonical_matching(analyze_matching(h, m).extension)
    verdict = prefix_hall_verdict(h, limit=3)
    if verdict.witness is not None:
        _assert_canonical_matching(verdict.witness)
    _assert_canonical_matching(alpha_prime(h, force=True)[1])


def _accepts_prefix_matching(h, edges):
    """Reference: disjoint traces of edges of h that cover every prefix vertex."""
    traces = {e[:-1] for e in h.edges}
    covered = [v for e in edges for v in e]
    prefix = {v for part in h.parts[:-1] for v in part}
    return (
        all(e in traces for e in edges)
        and len(covered) == len(set(covered))
        and set(covered) == prefix
    )


@settings(max_examples=150, deadline=None)
@given(instances(max_edges=12), st.data())
def test_prefix_matching_check_matches_reference(h, data):
    traces = sorted({e[:-1] for e in h.edges})

    def pick(options):
        return data.draw(st.sampled_from(options))

    def prefix_tuple():
        return tuple(pick(part) for part in h.parts[:-1])

    candidates = [
        (pick(h.edges),),
        (pick(traces), pick(traces)),
        tuple(prefix_tuple() for _ in range(h.t)),
    ]
    for m in enumerate_perfect_matchings(h, limit=3):
        edges = list(m)
        i = data.draw(st.integers(0, len(edges) - 1))
        j = data.draw(st.integers(0, h.k - 2))
        e = edges[i]
        # an id that is no vertex of h (-1 would index the last part), and
        # a last-part vertex in a prefix slot
        outside = e[:j] + (pick([-1, len(h.labels)]),) + e[j + 1 :]
        misplaced = e[:j] + (pick(h.parts[-1]),) + e[j + 1 :]
        candidates += [
            tuple(edges),
            tuple(edges[:i] + [prefix_tuple()] + edges[i + 1 :]),
            tuple(edges[:i] + [pick(h.edges)[1:]] + edges[i + 1 :]),
            tuple(edges[:i] + edges[i + 1 :]),
            tuple(edges[:i] + [outside] + edges[i + 1 :]),
            tuple(edges[:i] + [misplaced] + edges[i + 1 :]),
            tuple(edges + [e]),
        ]
    for edges in candidates:
        try:
            sdr_instance(h, edges)
            accepted = True
        except NotPerfectPrefixMatchingError:
            accepted = False
        assert accepted == _accepts_prefix_matching(h, edges), edges


@st.composite
def wide_instances(draw, min_t=21, max_t=40):
    """k = 2 or 3 with a diagonal prefix matching, past the subset oracle's limit.

    Traces draw 1-3 last-part vertices from a pool of random size, so they
    compete and deficiencies come up; on some draws diagonal trace j also
    gets vertex j, which can make the deficiency 0.  For k = 3, swapped
    pairs (i, i+1), (i+1, i) give further prefix matchings, and a few random
    traces add dead ends; there are few enough to keep enumeration small.
    """
    k = draw(st.integers(2, 3))
    t = draw(st.integers(min_t, max_t))
    last = draw(st.integers(t - 3, t + 2))
    pool = draw(st.integers(1, last))
    planted = draw(st.booleans())
    traces = [(j,) * (k - 1) for j in range(t)]
    if k == 3:
        for i in draw(st.lists(st.integers(0, t - 2), max_size=3)):
            traces += [(i, i + 1), (i + 1, i)]
        index = st.integers(0, t - 1)
        traces += draw(st.lists(st.tuples(index, index), max_size=4))
    parts = [[f"p{i}v{j:02d}" for j in range(t)] for i in range(k - 1)]
    parts.append([f"z{j:02d}" for j in range(last)])
    edges = []
    for n, trace in enumerate(traces):
        ends = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=3))
        if planted and n < min(t, last):
            ends.append(n)
        for z in ends:
            edges.append([parts[i][j] for i, j in enumerate(trace)] + [parts[-1][z]])
    return build_hypergraph(parts, edges, strict=False)


@settings(max_examples=60, deadline=None)
@given(wide_instances())
def test_sdr_size_matches_networkx_hopcroft_karp(h):
    nx = pytest.importorskip("networkx")
    matchings = enumerate_perfect_matchings(h, limit=2)
    assert matchings
    for m in matchings:
        inst = sdr_instance(h, m)
        graph = nx.Graph()
        left = [("element", i) for i in range(len(inst))]
        graph.add_nodes_from(left)
        graph.add_edges_from(
            (node, v) for node, adj in zip(left, inst) for v in adj
        )
        pairs = nx.algorithms.bipartite.hopcroft_karp_matching(graph, top_nodes=left)
        analysis = analyze_matching(h, m)
        report = analysis.hall
        assert len(m) == h.t > 20
        assert len(m) - report.deficiency == len(pairs) // 2
        assert len(analysis.extension) == len(pairs) // 2


@st.composite
def square_k3_instances(draw, max_t=5):
    """k = 3 instances with |V1| = |V2|, so their prefix can have matchings."""
    t = draw(st.integers(1, max_t))
    last = draw(st.integers(1, 3))
    universe = list(itertools.product(range(t), range(t), range(last)))
    chosen = draw(
        st.lists(st.sampled_from(universe), min_size=t, max_size=3 * t, unique=True)
    )
    parts = [[f"p{i}v{j}" for j in range(s)] for i, s in enumerate((t, t, last))]
    edges = [[parts[i][j] for i, j in enumerate(combo)] for combo in chosen]
    return build_hypergraph(parts, edges, strict=False)


def _k3_prefix_count_up_to_2(nx, h):
    """min(#prefix perfect matchings, 2) for k = 3, by Hopcroft-Karp.

    The prefix is the bipartite graph of first/second-part pairs lying in an
    edge.  It has a perfect matching M iff a maximum matching saturates both
    sides, and a second one iff M minus some edge still has one.
    """
    left, right = h.parts[0], h.parts[1]
    if len(left) != len(right):
        return 0
    pairs = {(e[0], e[1]) for e in h.edges}

    def perfect(edges):
        graph = nx.Graph()
        graph.add_nodes_from([*left, *right])
        graph.add_edges_from(edges)
        m = nx.algorithms.bipartite.hopcroft_karp_matching(graph, top_nodes=left)
        return m if len(m) == 2 * len(left) else None

    m = perfect(pairs)
    if m is None:
        return 0
    if any(perfect(pairs - {(u, m[u])}) for u in left):
        return 2
    return 1


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        square_k3_instances(),
        planted_instances(min_k=3, max_k=3, max_t=6),
    )
)
def test_k3_prefix_matchings_match_networkx(h):
    nx = pytest.importorskip("networkx")
    found = enumerate_perfect_matchings(h, limit=2)
    assert len(found) == _k3_prefix_count_up_to_2(nx, h)
    if h.metadata and h.metadata["generator"]["mode"] == "planted":
        assert len(found) == 1
