"""Beck graph construction, core reduction, and export formats.

`BeckGraph.edges` and `export_graph` read the edges from the ring's
annihilator classes; they are checked against a walk over the bits of the
packed adjacency and the per-edge formatters that walk fed, kept here as
oracles, and against the edge count of Z2^k in closed form.
"""

import gc
import json
import weakref

import pytest

from beckring import DescriptorError, build_graph, export_graph, make_product, make_zmod, ring_of
from beckring.catalog import catalog_rings
from beckring.graphs import BeckGraph

try:
    from hypothesis import given
    from hypothesis import strategies as st
except ImportError:  # a test-only dependency: the property test below skips
    given = None
else:
    from test_ring_predicates import PROPERTY, rings


def edge_list(g):
    """`g.edges()` as a list of (u, v) pairs."""
    return list(zip(*(side.tolist() for side in g.edges())))


def test_z4_graph_is_a_star():
    g = build_graph(make_zmod(4))
    # 2*2 = 0 is a self-pair, not an edge; exactly the three spokes remain
    assert edge_list(g) == [(0, 1), (0, 2), (0, 3)]
    assert g.edge_count() == 3


def test_z2_single_edge():
    g = build_graph(make_zmod(2))
    assert edge_list(g) == [(0, 1)]


def test_z2xz2_edges():
    r = make_product([make_zmod(2), make_zmod(2)])
    g = build_graph(r)
    a, b = r.encode((1, 0)), r.encode((0, 1))
    assert g.has_edge(a, b)
    # pairwise scan: three spokes from 0 plus (1,0)-(0,1)
    assert sorted(edge_list(g)) == [(0, 1), (0, 2), (0, 3), (1, 2)]


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
        assert edge_list(graph) == [
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
    # makes no reference cycle: letting go of it frees them all at once.
    # The factors are new rings: the table of factors holds the graphs of
    # those `ring_of` makes
    gc.collect()
    p = make_product([make_zmod(4), make_zmod(9)])
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


# -- oracles ------------------------------------------------------------------


def walked_edges(g):
    """Edges (u, v), u < v, lexicographic: the bits above u of each packed row u."""
    out = []
    for u, row in enumerate(g.adj):
        row >>= u + 1
        while row:
            low = row & -row
            out.append((u, u + low.bit_length()))
            row ^= low
    return out


def formatted_per_edge(g, fmt):
    """The export text written one edge at a time, JSON through json.dumps."""
    edges = walked_edges(g)
    if fmt == "dimacs":
        return "\n".join([f"p edge {g.n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges])
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in edges]})


def assert_edges_match_the_oracles(g):
    u, v = g.edges()
    assert edge_list(g) == walked_edges(g)
    assert u.dtype.kind == v.dtype.kind == "i"
    for fmt in ("dimacs", "json"):
        assert export_graph(g, fmt) == formatted_per_edge(g, fmt)


def test_edges_of_z1_and_catalog_graphs_match_the_oracles():
    assert edge_list(build_graph(make_zmod(1))) == []
    for ring in [make_zmod(1), *catalog_rings().values()]:
        g = build_graph(ring)
        assert_edges_match_the_oracles(g)
        assert_edges_match_the_oracles(g.core())


if given is not None:

    @PROPERTY
    @given(rings(max_size=128), st.randoms(use_true_random=False))
    def test_edges_match_the_oracles_on_random_rings(ring, rnd):
        g = build_graph(ring)
        assert_edges_match_the_oracles(g)
        assert_edges_match_the_oracles(g.core())
        # any induced graph, its elements in any order, is read as `adj`
        # reads it, and `adj` as scalar multiplication decides
        h = BeckGraph(ring, rnd.sample(range(ring.size), rnd.randint(0, ring.size)))
        assert_edges_match_the_oracles(h)
        for u, x in enumerate(h.to_ring):
            assert h.adj[u] == sum(1 << v for v, y in enumerate(h.to_ring) if v != u and ring.mul(x, y) == 0)


@pytest.mark.parametrize("k", range(1, 13))
def test_z2_power_edge_count_in_closed_form(k):
    # the ordered pairs of Z2^k with disjoint supports number 3^k, and only
    # (0, 0) pairs an element with itself
    g = build_graph(make_product([make_zmod(2)] * k))
    u, v = g.edges()
    assert len(u) == len(v) == (3**k - 1) // 2
    assert (u < v).all()
    assert export_graph(g, "dimacs").split("\n", 1)[0] == f"p edge {2**k} {(3**k - 1) // 2}"


def test_export_packs_no_adjacency():
    g = build_graph(make_product([make_zmod(4), make_zmod(6)]))
    for fmt in ("dimacs", "json"):
        export_graph(g, fmt)
    assert "adj" not in vars(g)


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
