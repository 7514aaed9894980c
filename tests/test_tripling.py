import os

import pytest

from pqvol import tripling
from pqvol.draconian import count_draconian, enumerate_draconian
from pqvol.graphs import Graph, canonical_matching, complete_graph, doubling, triangle_extend_set
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

    bigger = triangle_extend_set(complete_graph(4), canonical_matching(4, 1).edges)
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
        (triangle_extend_set(complete_graph(4), canonical_matching(4, 1).edges), (3, 4)),
    ]
    for g, e in cases:
        base = set(enumerate_draconian(doubling(g)))
        extended = enumerate_draconian(doubling(triangle_extend_set(g, [e])))
        tail_one = {c for c in extended if c[-1] == 1}
        assert {c[:-1] for c in tail_one} == base


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


def test_graph_stream_counts_isomorphism_classes():
    # connected graphs up to isomorphism (OEIS A001349)
    sizes = {}
    for g in connected_graph_stream(6):
        sizes[g.n] = sizes.get(g.n, 0) + 1
    assert sizes == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
    with pytest.raises(ValueError):
        list(connected_graph_stream(9))


def test_graph_stream_canonicalizes_each_class_once(monkeypatch):
    calls = []
    canonical = tripling._canonical_encoding

    def counting(g):
        calls.append(g)
        return canonical(g)

    monkeypatch.setattr(tripling, "_canonical_encoding", counting)
    graphs = list(connected_graph_stream(5))
    # 1 + 2 + 6 + 21 connected classes, not one call per connected labelled graph
    assert len(calls) == len(graphs) == 30
    assert sorted(calls, key=canonical) == graphs


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
    _sweep(monkeypatch, [complete_graph(3), Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])])
    records = search_triple_recurrence(0)
    assert len(records) == 6
    # one base count per graph, one extended count per edge
    assert calls == [3, 4, 4, 4, 4, 5, 5, 5]
