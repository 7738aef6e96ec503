"""Beck graph construction, core reduction, and export formats."""

import gc
import json
import weakref

import pytest

from beckring import DescriptorError, build_graph, export_graph, make_product, make_zmod, ring_of
from beckring.catalog import catalog_rings
from beckring.graphs import BeckGraph


def test_z4_graph_is_a_star():
    g = build_graph(make_zmod(4))
    # 2*2 = 0 is a self-pair, not an edge; exactly the three spokes remain
    assert g.edges() == [(0, 1), (0, 2), (0, 3)]
    assert g.edge_count() == 3


def test_z2_single_edge():
    g = build_graph(make_zmod(2))
    assert g.edges() == [(0, 1)]


def test_z2xz2_edges():
    r = make_product([make_zmod(2), make_zmod(2)])
    g = build_graph(r)
    a, b = r.encode((1, 0)), r.encode((0, 1))
    assert g.has_edge(a, b)
    # pairwise scan: three spokes from 0 plus (1,0)-(0,1)
    assert sorted(g.edges()) == [(0, 1), (0, 2), (0, 3), (1, 2)]


def test_adjacency_matches_multiplication():
    r = ring_of("Z12")
    g = build_graph(r)
    for a in r.elements():
        for b in r.elements():
            expect = a != b and r.mul(a, b) == 0
            assert g.has_edge(a, b) == expect


@pytest.mark.parametrize("expr,core_size", [("Z7", 2), ("Z12", 6), ("AN", 13)])
def test_core_sizes(expr, core_size):
    # the first element of each class of same neighbours and square-zero
    # flag: Z12 has {0}, the units, {2, 10}, {3, 9}, {4, 8} and {6}
    g = build_graph(ring_of(expr))
    c = g.core()
    assert c.n == core_size
    assert c.to_ring[0] == 0
    assert g.ring.unity in c.to_ring
    assert [g.group.index(i) for i in range(c.n)] == c.to_ring


def test_core_is_induced_subgraph():
    g = build_graph(ring_of("Z12"))
    c = g.core()
    for i in range(c.n):
        for j in range(c.n):
            if i != j:
                assert c.has_edge(i, j) == g.has_edge(c.to_ring[i], c.to_ring[j])


def test_core_is_its_own_core_with_matching_edges():
    g = build_graph(ring_of("AN x Z2"))
    c = g.core()
    assert c.core() is c
    for graph in (g, c):
        assert graph.edges() == [
            (u, v) for u in range(graph.n) for v in range(u + 1, graph.n) if graph.has_edge(u, v)
        ]


def test_a_product_graph_keeps_its_factor_graphs():
    p = ring_of("Z4 x Z3 x Z2")
    g = build_graph(p)
    assert len(g.factor_graphs) == len(p.factors) == 3
    for i, f in enumerate(p.factors):
        assert g.factor_graphs[i] is build_graph(f)
    # a core, any other induced graph and the graph of a ring that is not a
    # product keep none
    assert g.core() is not g and g.core().factor_graphs == []
    assert BeckGraph(p, [0, 1, 2]).factor_graphs == []
    assert build_graph(ring_of("Z12")).factor_graphs == []


def test_factor_graphs_live_as_long_as_the_product_graph():
    # nothing but the product's graph holds its factors' graphs, and it
    # makes no reference cycle: letting go of it frees them all at once
    gc.collect()
    p = ring_of("Z4 x Z9")
    g = build_graph(p)
    refs = [weakref.ref(h) for h in [g, *g.factor_graphs]]
    gc.collect()
    assert all(ref() is not None for ref in refs)
    gc.disable()
    try:
        del g
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_export_dimacs_z2():
    g = build_graph(make_zmod(2))
    assert export_graph(g, "dimacs") == "p edge 2 1\ne 1 2"


def test_export_dimacs_z1():
    g = build_graph(make_zmod(1))
    assert export_graph(g, "dimacs") == "p edge 1 0"


def test_export_dimacs_z4():
    text = export_graph(build_graph(make_zmod(4)), "dimacs")
    lines = text.split("\n")
    assert lines[0] == "p edge 4 3"
    assert lines[1:] == ["e 1 2", "e 1 3", "e 1 4"]


def test_export_json():
    payload = json.loads(export_graph(build_graph(make_zmod(4)), "json"))
    assert payload == {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}


def test_export_unknown_format():
    with pytest.raises(DescriptorError):
        export_graph(build_graph(make_zmod(4)), "graphml")


def test_structural_invariants_on_catalog():
    for name, ring in catalog_rings().items():
        g = build_graph(ring)
        full = (1 << g.n) - 1
        # no self loops, symmetric adjacency
        for v in range(g.n):
            assert not (g.adj[v] >> v) & 1
            for u in range(v):
                assert g.has_edge(u, v) == g.has_edge(v, u)
        if g.n >= 2:
            assert g.adj[0] == full ^ 1, f"{name}: 0 must dominate"
        for v in range(1, g.n):
            if not ring.zero_divisor_mask[v]:
                assert g.adj[v] == 1, f"{name}: non-zero-divisor {v} must only touch 0"
