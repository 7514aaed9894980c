import pickle
import random

import pytest
from oracle import blocks, components, double_neighborhoods, random_graph

from pqvol import graphs
from pqvol.graphs import (
    MAX_VERTICES,
    Graph,
    GraphFormatError,
    biconnected_blocks,
    complete_graph,
    connected_components,
    cycle_vertices,
    delete_cycle,
    delete_path,
    doubling,
    matching_triangles,
    parse_graph,
    relabel,
    triangle_extend,
)


def test_graph_normalizes_and_validates():
    g = Graph.from_edges(3, [(2, 1), (3, 2)])
    assert g.sorted_edges() == [(1, 2), (2, 3)]
    assert g.neighbors(2) == {1, 3}
    assert g.degree(1) == 1
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(1, 3)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        Graph(0, frozenset())


def test_descriptor_is_canonical():
    g = Graph.from_edges(4, [(3, 1), (1, 2)])
    assert g.descriptor() == "n=4;e=1-2,1-3"
    assert complete_graph(1).descriptor() == "n=1;e="


def test_complete_graph():
    assert len(complete_graph(5).edges) == 10
    assert complete_graph(1).edges == frozenset()
    with pytest.raises(ValueError):
        complete_graph(0)


def test_delete_path_removes_tail_edges():
    g = delete_path(5, 2)
    missing = {(3, 4), (4, 5)}
    assert complete_graph(5).edges - g.edges == missing
    assert delete_path(5, 0).edges == complete_graph(5).edges
    with pytest.raises(ValueError):
        delete_path(3, 1)
    with pytest.raises(ValueError):
        delete_path(5, 5)


def test_delete_cycle_removes_wraparound():
    g = delete_cycle(6, 4)
    assert cycle_vertices(6, 4) == (3, 4, 5, 6)
    missing = {(3, 4), (4, 5), (5, 6), (3, 6)}
    assert complete_graph(6).edges - g.edges == missing
    assert delete_cycle(5, 0).edges == complete_graph(5).edges
    # a triangle deletes three edges, not a doubled pair
    assert len(complete_graph(5).edges - delete_cycle(5, 3).edges) == 3
    for bad in (1, 2, 7):
        with pytest.raises(ValueError):
            delete_cycle(6, bad)
    with pytest.raises(ValueError):
        delete_cycle(4, 3)


def test_triangle_extend():
    g = triangle_extend(complete_graph(2), (1, 2))
    assert g.n == 3 and g.edges == complete_graph(3).edges
    with pytest.raises(ValueError):
        triangle_extend(complete_graph(3), (1, 4))


def test_matching_triangles():
    # edge {2k-1, 2k} gets apex n+k: (1,2) gets vertex 7, (3,4) 8, (5,6) 9
    g = matching_triangles(6, 3)
    assert g.n == 9
    assert g.edges - complete_graph(6).edges == {
        (1, 7), (2, 7), (3, 8), (4, 8), (5, 9), (6, 9)}
    one = triangle_extend(complete_graph(4), (1, 2))
    assert matching_triangles(4, 2) == triangle_extend(one, (3, 4))
    assert matching_triangles(5, 0) == complete_graph(5)
    for n, m in ((5, 3), (4, -1)):
        with pytest.raises(ValueError, match=f"size {m} does not fit in {n} vertices"):
            matching_triangles(n, m)


@pytest.mark.parametrize("n, m", [(1, 0), (4, 3), (1500, -1)])
def test_matching_triangles_refused_before_k_n_is_built(monkeypatch, n, m):
    def unbuildable(n):
        raise AssertionError(f"K_{n} was built")

    monkeypatch.setattr(graphs, "complete_graph", unbuildable)
    with pytest.raises(ValueError):
        matching_triangles(n, m)


def test_doubling_masks():
    d = doubling(delete_path(4, 2))
    assert [m.bit_count() for m in d.masks] == [4, 3, 2, 3]
    assert d.masks[2] == 0b0101
    assert d.masks[1] == 0b1011
    # left vertex always meets its own double
    for i in range(1, 5):
        assert d.masks[i - 1] >> (i - 1) & 1


def test_doubling_size_is_degree_plus_one():
    for g in (complete_graph(5), delete_cycle(6, 4), Graph(3, frozenset())):
        d = doubling(g)
        for v in range(1, g.n + 1):
            assert d.masks[v - 1].bit_count() == g.degree(v) + 1


def test_relabel():
    g = delete_path(4, 2)
    h = relabel(g, (4, 3, 2, 1))
    assert h.edges == frozenset((5 - b, 5 - a) for a, b in g.edges)
    with pytest.raises(ValueError):
        relabel(g, (1, 2, 3, 3))


def test_connected_components_order_and_maps():
    g = Graph.from_edges(6, [(5, 6), (2, 3)])
    assert connected_components(g) == [(1,), (2, 3), (4,), (5, 6)]
    assert connected_components(complete_graph(4)) == [(1, 2, 3, 4)]


def test_parse_graph_roundtrip():
    text = "# a triangle plus a pendant\n4\n1 2\n2 3\n\n1 3\n3 4\n"
    g = parse_graph(text)
    assert g.n == 4
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3), (3, 4)]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("zero\n", "line 1"),
        ("3\n1 2 3\n", "line 2"),
        ("3\n1 x\n", "line 2"),
        ("3\n1 1\n", "loop"),
        ("3\n1 4\n", "outside"),
        ("3\n1 2\n2 1\n", "line 3"),
        ("-2\n", "positive"),
        (f"{10**12}\n1 2\n", "line 1"),
        (f"{MAX_VERTICES + 1}\n", "at most"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_duplicate_edge_error_names_both_lines():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("3\n2 3\n1 2\n3 2\n")
    msg = str(err.value)
    assert "line 4" in msg and "line 2" in msg


def test_parse_graph_accepts_the_vertex_bound():
    assert parse_graph(f"{MAX_VERTICES}\n1 {MAX_VERTICES}\n").degree(MAX_VERTICES) == 1


def test_adjacency_masks_are_a_derived_field():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4)])
    assert g.adj == (0b0010, 0b1101, 0b0010, 0b0010)
    h = Graph(4, frozenset(g.edges))
    assert g == h and hash(g) == hash(h)
    assert "adj" not in repr(g)
    assert pickle.loads(pickle.dumps(g)).adj == g.adj
    with pytest.raises(TypeError):
        Graph(4, g.edges, adj=g.adj)


class _NoIteration(frozenset):
    def __iter__(self):
        raise AssertionError("edge set iterated")


def test_adjacency_readers_do_not_scan_the_edge_set():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
    object.__setattr__(g, "edges", _NoIteration(g.edges))
    assert g.neighbors(2) == {1, 3} and g.degree(5) == 1
    assert doubling(g).masks == (0b00011, 0b00111, 0b00110, 0b11000, 0b11000)
    assert connected_components(g) == [(1, 2, 3), (4, 5)]


def test_masks_match_edge_based_reference_random():
    rng = random.Random(2202)
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = random_graph(rng, n, p=rng.choice((0.2, 0.4, 0.7)))
        g = Graph.from_edges(n, edges)
        nbrs = double_neighborhoods(n, g.edges)
        d = doubling(g)
        for v in range(1, n + 1):
            assert g.neighbors(v) == nbrs[v] - {v}
            assert g.degree(v) == len(nbrs[v]) - 1
            assert d.masks[v - 1] == sum(1 << (w - 1) for w in nbrs[v])
        assert connected_components(g) == components(n, g.edges)


def test_biconnected_blocks_match_the_definition():
    # trees with a few chords, sometimes split in two: mostly several blocks
    rng = random.Random(717)
    multi = 0
    for _ in range(120):
        n = rng.randint(1, 8)
        cut = rng.randint(1, n) if rng.random() < 0.3 else n
        edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1) if v != cut + 1}
        edges |= set(random_graph(rng, n, p=0.15))
        g = Graph.from_edges(n, edges)
        want = []
        for vs in blocks(n, g.edges):
            pos = {v: k for k, v in enumerate(vs, 1)}
            want.append(Graph.from_edges(len(vs), [(pos[u], pos[v]) for u, v in g.edges
                                                   if u in pos and v in pos]).descriptor())
        got = [b.descriptor() for b in biconnected_blocks(g)]
        assert sorted(got) == sorted(want), g.descriptor()
        multi += len(want) > len(components(n, g.edges))
    assert multi >= 60


def test_biconnected_blocks_of_a_long_path_need_no_recursion():
    path = Graph.from_edges(1500, [(v, v + 1) for v in range(1, 1500)])
    got = biconnected_blocks(path)
    assert len(got) == 1499
    assert all(b.descriptor() == "n=2;e=1-2" for b in got)
    assert [b.descriptor() for b in biconnected_blocks(Graph(3, frozenset()))] == ["n=1;e="] * 3
