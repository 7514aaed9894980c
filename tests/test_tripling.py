import collections
import inspect
import itertools
import os
import random
import textwrap
from fractions import Fraction

import pytest

from oracle import automorphisms, block_edges, least_mask, random_graph
from pqvol import tripling
from pqvol.draconian import count_draconian, enumerate_draconian
from pqvol.graphs import (
    Graph,
    complete_graph,
    connected_components,
    doubling,
    matching_triangles,
    triangle_extend,
)
from pqvol.tripling import (
    connected_graph_stream,
    lift_bump,
    lift_one,
    lift_resolve,
    recurrence_hypotheses,
    search_triple_recurrence,
    verify_partition,
)

K2_BUMP_IMAGE = {(2, 0, 0), (1, 1, 0)}


def test_lift_one():
    assert lift_one((1, 0)) == (1, 0, 1)
    assert lift_one((0, 1)) == (0, 1, 1)
    assert lift_one((2, 0, 0)) == (2, 0, 0, 1)


def test_lift_bump():
    assert lift_bump((1, 0), 1) == (2, 0, 0)
    assert lift_bump((0, 1), 1) == (1, 1, 0)
    assert lift_bump((1, 1, 0), 3) == (1, 1, 1, 0)
    with pytest.raises(ValueError):
        lift_bump((1, 0), 3)


def test_lift_resolve_branches():
    # (1,0): bumping vertex 2 gives (1,1,0), which collides with the bump
    # image, so the fallback takes the unit from vertex 1
    assert lift_resolve((1, 0), 1, 2, K2_BUMP_IMAGE) == (0, 0, 2)
    # (0,1): bumping vertex 2 gives (0,2,0), no collision
    assert lift_resolve((0, 1), 1, 2, K2_BUMP_IMAGE) == (0, 2, 0)


def test_lift_resolve_guards_negative_entries():
    # a wrong bump image forces the fallback on an input with no unit at u
    with pytest.raises(ValueError):
        lift_resolve((0, 1), 1, 2, {(0, 2, 0)})


def test_partition_on_single_edge():
    rep = verify_partition(complete_graph(2), (1, 2))
    assert rep.base_count == 2 and rep.extended_count == 6
    assert rep.image_sizes == {"one": 2, "bump": 2, "resolve": 2}
    assert rep.injective == {"one": True, "bump": True, "resolve": True}
    assert rep.contained == {"one": True, "bump": True, "resolve": True}
    assert rep.pairwise_disjoint and rep.union_equals
    assert rep.partition_holds and rep.triples
    assert rep.reversed_partition_holds


def test_partition_explicit_images_on_single_edge():
    base = enumerate_draconian(doubling(complete_graph(2)))
    one = {lift_one(c) for c in base}
    bump = {lift_bump(c, 1) for c in base}
    resolve = {lift_resolve(c, 1, 2, bump) for c in base}
    assert one == {(1, 0, 1), (0, 1, 1)}
    assert bump == K2_BUMP_IMAGE
    assert resolve == {(0, 0, 2), (0, 2, 0)}
    assert one | bump | resolve == set(enumerate_draconian(doubling(complete_graph(3))))


def test_partition_at_matching_induction_steps():
    # step 0 -> 1 on the bare complete graph, step 1 -> 2 on its extension
    first = verify_partition(complete_graph(4), (1, 2), matching_mode=True)
    assert first.partition_holds and first.triples
    assert (first.base_count, first.extended_count) == (20, 60)

    bigger = matching_triangles(4, 1)
    second = verify_partition(bigger, (3, 4), matching_mode=True)
    assert second.partition_holds and second.triples
    assert (second.base_count, second.extended_count) == (60, 180)
    assert second.matching_mode


def test_partition_beyond_matchings_observed():
    # a path: injectivity and containment of the first two lifts hold
    # on any connected graph; whether the whole partition holds is
    # measured, not assumed
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    rep = verify_partition(path, (1, 2))
    assert rep.injective == {"one": True, "bump": True, "resolve": True}
    assert rep.contained == {"one": True, "bump": True, "resolve": True}
    assert rep.pairwise_disjoint
    # the full partition is observed to hold here as well
    assert rep.union_equals and rep.triples


def test_partition_rejects_non_edges():
    with pytest.raises(ValueError):
        verify_partition(Graph.from_edges(3, [(1, 2)]), (1, 3))


def test_strip_last_unit_recovers_base():
    # in matching mode, extended sequences ending in 1 are exactly the
    # first lift's image
    cases = [
        (complete_graph(4), (1, 2)),
        (matching_triangles(4, 1), (3, 4)),
    ]
    for g, e in cases:
        base = set(enumerate_draconian(doubling(g)))
        extended = enumerate_draconian(doubling(triangle_extend(g, e)))
        tail_one = {c for c in extended if c[-1] == 1}
        assert {c[:-1] for c in tail_one} == base


def lift_census(n_max: int) -> tuple[collections.Counter, list[int]]:
    """Tally the tripling docstring's lift facts over every (G, e) with G
    connected on at most n_max vertices, in both orientations of e, and
    list each record's defect 3·count(G) − count(G △ e).
    """
    tally, defects = collections.Counter(), []
    for g in connected_graph_stream(n_max):
        base = enumerate_draconian(doubling(g))
        one = {lift_one(c) for c in base}
        for e in g.sorted_edges():
            extended = set(enumerate_draconian(doubling(triangle_extend(g, e))))
            defect = 3 * len(base) - len(extended)
            defects.append(defect)
            tally["records"] += 1
            tally["apex entry 1 is lift_one"] += {c for c in extended if c[-1] == 1} == one
            for u, v in (e, e[::-1]):
                bump = {lift_bump(c, u) for c in base}
                resolve = {lift_resolve(c, u, v, bump) for c in base}
                strays = len(resolve - extended)
                tally["orientations"] += 1
                tally["lift_one and lift_bump land"] += one <= extended and bump <= extended
                tally["lift_resolve injective"] += len(resolve) == len(base)
                tally["images cover"] += one | bump | resolve >= extended
                tally["defect is strays"] += defect == strays
                tally["resolve strays"] += strays > 0
    return tally, defects


def test_lift_facts_to_n_5():
    # CI runs the same census to n = 6: 1112 records, 430 stray orientations, defects 0..48
    tally, defects = lift_census(5)
    assert tally == {"records": 161, "apex entry 1 is lift_one": 161, "orientations": 322,
                     "lift_one and lift_bump land": 322, "lift_resolve injective": 322,
                     "images cover": 322, "defect is strays": 322, "resolve strays": 32}
    assert (min(defects), max(defects)) == (0, 12)
    assert sum(d > 0 for d in defects) == 16


def test_hypotheses():
    assert recurrence_hypotheses(complete_graph(3), (1, 2))
    assert not recurrence_hypotheses(complete_graph(4), (1, 2))
    assert not recurrence_hypotheses(complete_graph(2), (1, 2))
    # degree-2 endpoint whose neighbors are adjacent: a triangle with a tail
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3), (3, 4)])
    assert recurrence_hypotheses(g, (1, 2))   # deg(1) = 2, 2-3 present
    assert not recurrence_hypotheses(g, (3, 4))
    with pytest.raises(ValueError):
        recurrence_hypotheses(g, (1, 4))


def _listed_ratio(g, e):
    """count(g with a triangle on e) / count(g), both sequence sets listed whole,
    since count_draconian multiplies over blocks itself and so could not test
    the product rule."""
    extended = enumerate_draconian(doubling(triangle_extend(g, e)))
    return Fraction(len(extended), len(enumerate_draconian(doubling(g))))


def test_tripling_is_local_to_the_block_of_the_edge():
    rng = random.Random(2207)
    pairs = smaller = tripled = 0
    while pairs < 80:
        n = rng.randint(2, 7)
        g = Graph.from_edges(n, random_graph(rng, n, p=rng.choice((0.3, 0.5, 0.7))))
        if len(connected_components(g)) > 1:
            continue
        e = rng.choice(g.sorted_edges())
        pos = {v: i for i, v in enumerate(sorted(set().union(*block_edges(n, g.edges, e))), 1)}
        block = Graph.from_edges(len(pos), [(pos[u], pos[v]) for u, v in g.edges
                                            if u in pos and v in pos])
        ratio = _listed_ratio(g, e)
        assert ratio == _listed_ratio(block, (pos[e[0]], pos[e[1]])), (g.descriptor(), e)
        pairs += 1
        smaller += block.n < g.n
        tripled += ratio == 3
    # the blocks are proper, and both outcomes occur
    assert smaller >= 20 and 0 < tripled < pairs


def test_degree_two_in_the_block_triples_to_six_vertices():
    # e is a bridge, or an end of e has degree 2 in e's block: every such
    # record triples; without it, both outcomes occur
    seen = collections.Counter()
    for r in search_triple_recurrence(6):
        head, _, body = r["graph_encoding"].partition(";e=")
        edges = [tuple(map(int, p.split("-"))) for p in body.split(",")]
        block = block_edges(int(head[2:]), edges, tuple(r["edge"]))
        ends = [sum(x in f for f in block) for x in r["edge"]]
        seen[(len(block) == 1 or 2 in ends, r["triples"])] += 1
    assert seen == {(True, True): 533, (False, True): 364, (False, False): 215}


def test_graph_stream_counts_isomorphism_classes():
    # connected graphs up to isomorphism (OEIS A001349)
    sizes = {}
    for g in connected_graph_stream(7):
        sizes[g.n] = sizes.get(g.n, 0) + 1
    assert sizes == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    # the stream is lazy and has no bound of its own; search's bound is in the CLI
    assert next(connected_graph_stream(9)) == complete_graph(2)


def test_graph_stream_yields_least_masks():
    # bit k of a mask is the k-th pair of combinations(1..n, 2)
    for g in connected_graph_stream(6):
        bit = {p: 1 << k for k, p in enumerate(itertools.combinations(range(1, g.n + 1), 2))}
        assert sum(bit[e] for e in g.edges) == least_mask(g.n, g.edges), g.descriptor()


def test_graph_stream_canonicalizes_each_candidate_once(monkeypatch):
    calls = []
    canonical = tripling._canonical_encoding

    def counting(g):
        calls.append(g)
        return canonical(g)

    monkeypatch.setattr(tripling, "_canonical_encoding", counting)
    graphs = list(connected_graph_stream(5))
    # every low row under each class on n - 1 vertices (OEIS A000088: 1, 2, 4, 11)
    assert len(calls) == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 == 218
    assert len(graphs) == 1 + 2 + 6 + 21
    keys = [canonical(g) for g in graphs]
    assert keys == sorted(set(keys))


def test_search_classes_small():
    records = search_triple_recurrence(3)
    assert all(r["category"] != "hypotheses-hold:fails" for r in records)
    triangle_rows = [r for r in records if r["graph_encoding"] == "n=3;e=1-2,1-3,2-3"]
    assert len(triangle_rows) == 3
    for r in triangle_rows:
        assert r["hypotheses_hold"] and r["triples"]
        assert r["counts"] == {"base": "6", "extended": "18"}
    k2_rows = [r for r in records if r["graph_encoding"] == "n=2;e=1-2"]
    assert k2_rows[0]["counts"] == {"base": "2", "extended": "6"}
    assert k2_rows[0]["triples"] and not k2_rows[0]["hypotheses_hold"]


def test_search_is_deterministic_and_parallelizable():
    serial = search_triple_recurrence(4, jobs=1)
    parallel = search_triple_recurrence(4, jobs=2)
    assert serial == parallel
    assert serial == search_triple_recurrence(4, jobs=1)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count, maps in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    return RecordingPool.sizes


def _sweep(patch, graphs):
    """Make search_triple_recurrence sweep graphs in place of the connected graph stream."""
    patch.setattr(tripling, "connected_graph_stream", lambda n_max: graphs)


def test_search_pool_is_capped_by_tasks_and_cores(recording_pool, monkeypatch):
    _sweep(monkeypatch, [complete_graph(2), complete_graph(3),
                         Graph.from_edges(3, [(1, 2), (2, 3)])])
    expected = search_triple_recurrence(0)
    cores = os.cpu_count() or 1
    assert search_triple_recurrence(0, jobs=10**6) == expected
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert search_triple_recurrence(0, jobs=10**6) == expected
    # this machine's cores, then three tasks on 64 cores
    assert recording_pool == [w for w in (min(3, cores), 3) if w > 1]


def test_search_starts_no_pool_for_one_worker_or_task(recording_pool, monkeypatch):
    with monkeypatch.context() as patch:
        _sweep(patch, [complete_graph(3)])
        assert len(search_triple_recurrence(0, jobs=10**6)) == 3
    assert len(search_triple_recurrence(4, jobs=1)) == 31
    assert recording_pool == []


def test_search_of_empty_source_is_empty(recording_pool, monkeypatch):
    _sweep(monkeypatch, [])
    assert search_triple_recurrence(0, jobs=4) == []
    assert recording_pool == []


def test_search_counts_each_base_graph_once(monkeypatch):
    calls = []

    def counting(g, *args):
        calls.append(g.n)
        return count_draconian(g, *args)

    monkeypatch.setattr(tripling, "count_draconian", counting)
    _sweep(monkeypatch, [complete_graph(3), Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]),
                         complete_graph(4)])
    records = search_triple_recurrence(0)
    assert len(records) == 12
    # one base count per graph, one extended count per edge orbit:
    # K_3 and K_4 have one, P_4 has {12, 34} and {23}
    assert calls == [3, 4, 4, 5, 5, 4, 5]


def _per_edge_search_task(g):
    """The sweep before edge orbits: one extended count per edge."""
    base = count_draconian(g).count
    records = []
    for e in g.sorted_edges():
        extended = count_draconian(triangle_extend(g, e)).count
        hyp = recurrence_hypotheses(g, e)
        triples = extended == 3 * base
        category = ("hypotheses-hold" if hyp else "hypotheses-fail") + \
                   (":triples" if triples else ":fails")
        records.append({
            "graph_encoding": g.descriptor(),
            "edge": list(e),
            "hypotheses_hold": hyp,
            "triples": triples,
            "counts": {"base": str(base), "extended": str(extended)},
            "category": category,
        })
    return records


def test_search_counts_one_extension_per_edge_orbit(monkeypatch):
    reference = [r for g in connected_graph_stream(5) for r in _per_edge_search_task(g)]
    calls = []

    def counting(g, *args):
        calls.append(g.n)
        return count_draconian(g, *args)

    monkeypatch.setattr(tripling, "count_draconian", counting)
    assert search_triple_recurrence(5) == reference
    # 30 base graphs and 69 edge orbits, where one count per edge made 30 + 161
    assert len(calls) == 30 + 69


def test_edge_orbits_match_brute_force_automorphisms():
    rng = random.Random(1998)
    graphs = list(connected_graph_stream(6)) + [Graph(n, frozenset()) for n in range(1, 5)]
    for _ in range(100):
        n = rng.randint(1, 7)
        graphs.append(Graph.from_edges(n, random_graph(rng, n, p=rng.choice((0.2, 0.5, 0.8)))))
    disconnected = 0
    for g in graphs:
        autos = automorphisms(g.n, g.edges)
        found = []
        tripling._automorphisms(g.adj, [], 0, found)
        assert sorted(tuple(w + 1 for w in p) for p in found) == autos
        # each edge goes to the smallest of its images
        assert tripling._edge_orbits(g) == {
            (u, v): min(tuple(sorted((p[u - 1], p[v - 1]))) for p in autos) for u, v in g.edges
        }, g.descriptor()
        disconnected += len(connected_components(g)) > 1
    assert disconnected >= 20


def test_edge_orbit_counts_of_named_graphs():
    def orbits(n, edges):
        return len(set(tripling._edge_orbits(Graph.from_edges(n, edges)).values()))

    for n in range(2, 9):
        assert orbits(n, itertools.combinations(range(1, n + 1), 2)) == 1
        assert orbits(n, [(v, v + 1) for v in range(1, n)]) == n // 2  # ceil((n - 1) / 2)
        assert orbits(n, [(1, v) for v in range(2, n + 1)]) == 1
        if n >= 3:
            assert orbits(n, [(v, v + 1) for v in range(1, n)] + [(1, n)]) == 1
    assert orbits(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]) == 2


def test_canonical_encoding_matches_filtered_permutations():
    def filtered(g):
        # every vertex order, kept when its degrees do not increase
        degree = {v: g.degree(v) for v in range(1, g.n + 1)}
        descending = sorted(degree.values(), reverse=True)
        relabelings = ({v: i for i, v in enumerate(flat, 1)}
                       for flat in itertools.permutations(degree)
                       if [degree[v] for v in flat] == descending)
        return (g.n, min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges))
                         for p in relabelings))

    rng = random.Random(4093)
    for _ in range(60):
        n = rng.randint(1, 6)
        g = Graph.from_edges(n, random_graph(rng, n, p=rng.choice((0.2, 0.5, 0.8))))
        assert tripling._canonical_encoding(g) == filtered(g)


def _permutation_encoding(g):
    """The canonical form as a brute-force minimum: the least sorted edge
    tuple over every product of permutations of the degree classes,
    classes taken from the highest degree down."""
    classes = {}
    for v in range(1, g.n + 1):
        classes.setdefault(g.degree(v), []).append(v)
    orders = itertools.product(*(itertools.permutations(classes[d])
                                 for d in sorted(classes, reverse=True)))
    relabelings = ({v: i for i, v in enumerate(itertools.chain.from_iterable(flat), 1)}
                   for flat in orders)
    return (g.n, min(tuple(sorted((p[u], p[v]) if p[u] < p[v] else (p[v], p[u])
                                  for u, v in g.edges)) for p in relabelings))


@pytest.fixture(scope="module")
def stream_candidates():
    """Every graph the stream canonicalizes up to 6 vertices."""
    calls = []
    canonical = tripling._canonical_encoding
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tripling, "_canonical_encoding", lambda g: calls.append(g) or canonical(g))
        list(connected_graph_stream(6))
    assert len(calls) == 1 * 2 + 2 * 4 + 4 * 8 + 11 * 16 + 34 * 32 == 1306
    return calls


def _named_graphs():
    """Graphs on 7 and 8 vertices with many tied rows, many twins or both."""
    def cycle(n):
        return [(v, v + 1) for v in range(1, n)] + [(1, n)]

    matching = [(v, v + 1) for v in range(1, 8, 2)]
    cube = [(u + 1, v + 1) for u in range(8) for v in range(u + 1, 8) if (u ^ v).bit_count() == 1]
    return {
        "K_8": complete_graph(8),
        "empty_8": Graph(8, frozenset()),
        "C_8": Graph.from_edges(8, cycle(8)),
        "K_4,4": Graph.from_edges(8, [(u, v) for u in range(1, 5) for v in range(5, 9)]),
        "Q_3": Graph.from_edges(8, cube),
        "2K_4": Graph.from_edges(8, [(u + s, v + s) for s in (0, 4)
                                     for u, v in itertools.combinations(range(1, 5), 2)]),
        "matching_8": Graph.from_edges(8, matching),
        "W_7": Graph.from_edges(7, cycle(6) + [(v, 7) for v in range(1, 7)]),
        "K_8-matching": Graph.from_edges(8, set(complete_graph(8).edges) - set(matching)),
    }


def test_canonical_encoding_matches_every_relabeling(stream_candidates):
    for g in stream_candidates:
        assert tripling._canonical_encoding(g) == _permutation_encoding(g), g.descriptor()
    rng = random.Random(2014)
    for name, g in _named_graphs().items():
        key = tripling._canonical_encoding(g)
        assert key == _permutation_encoding(g), name
        # and the same key under a shuffled labelling
        p = dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n)))
        assert tripling._canonical_encoding(Graph.from_edges(g.n, [(p[u], p[v])
                                                                  for u, v in g.edges])) == key


def test_canonical_encoding_needs_every_tie_and_only_true_twins(stream_candidates):
    # a copy that follows only the first branch of a tied row, and a copy that
    # skips every vertex of the first cell after one (all have one degree, so
    # this takes equal degrees for twins), each give a wrong key
    source = inspect.getsource(tripling._canonical_encoding)
    mutants = {"first tie": ("if row == best:", "if row == best and not ties:"),
               "equal degree": ("if ax in seen or ax | bit in seen:", "if seen:")}
    wrong = {}
    for name, (line, mutant) in mutants.items():
        assert source.count(line) == 1
        namespace = dict(vars(tripling))
        exec(textwrap.dedent(source.replace(line, mutant)), namespace)
        copy = namespace["_canonical_encoding"]
        wrong[name] = sum(copy(g) != tripling._canonical_encoding(g) for g in stream_candidates)
    assert wrong == {"first tie": 10, "equal degree": 257}
