"""The exact chromatic search against an independent oracle and the paper's
bounds, and the coloring re-verification against the pairwise definition.

The k-coloring search prunes any node where a clique of uncolored vertices
has fewer colors left in the union of its domains than it has vertices.
These properties check that the pruning never cuts a colorable branch:
on random small graphs against the set-partition oracle, which shares no
code with the solver, and on Anderson-Naseer products against chi = omega + 1
(reduced co-factors) and the chi sandwich (any co-factors).

The clique search that supplies the k-coloring search's pre-colored clique
also finds the best split: among maximum cliques, one with the most
square-zero vertices. It is checked on random graphs with random
square-zero sets against subset enumeration. Its set-up works one class of
equal rows at a time, and DSATUR keeps one bucket per saturation level;
both are checked against the vertex-by-vertex versions they replace, kept
here as references.
"""

import math
import random
from dataclasses import dataclass

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ring_predicates import PROPERTY, atoms, reduced_atoms

from beckring import (
    Coloring,
    build_graph,
    chi_bounds,
    chromatic_number,
    make_product,
    max_clique,
    ring_of,
    verify_coloring,
)
from beckring.oracle import CHROMATIC_ORACLE_CAP, exhaustive_chromatic_number
from beckring.solvers import _CliqueSearch, _Deadline, _dsatur, _KColorSearch

AN_PRODUCT_CAP = 1024
SPLIT_ORACLE_CAP = 14
TWIN_GRAPH_CAP = 30
FOREVER = float("inf")
SMALL_GRAPHS = settings(PROPERTY, max_examples=200)


@dataclass(frozen=True)
class Graph:
    """Just the vertex count and bitset rows the solver and the oracle read."""

    n: int
    adj: list[int]


def _join_of_cycles(lengths: list[int], rng: random.Random) -> list[tuple[int, int]]:
    """Edges of the join of cycles of the given lengths, vertices shuffled.
    Each odd cycle of five or more vertices has omega 2 and chi 3, and a join
    adds both numbers, so every such cycle widens the gap by one."""
    label = list(range(sum(lengths)))
    rng.shuffle(label)
    edges, parts, start = [], [], 0
    for m in lengths:
        part = label[start:start + m]
        edges += [(part[i], part[(i + 1) % m]) for i in range(m)]
        edges += [(u, v) for done in parts for u in done for v in part]
        parts.append(part)
        start += m
    return edges


@st.composite
def graphs(draw):
    """Graphs of up to CHROMATIC_ORACLE_CAP vertices: random ones, and joins
    of 3-, 5- and 7-cycles with some edges dropped, whose chi exceeds omega.
    Edges come from a drawn seed, so that hypothesis, which shrinks towards
    small values, still draws dense graphs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        lengths = draw(st.lists(st.sampled_from((3, 5, 7)), min_size=1, max_size=3)
                       .filter(lambda ls: sum(ls) <= CHROMATIC_ORACLE_CAP))
        n = sum(lengths)
        drop = draw(st.sampled_from((0.0, 0.05, 0.15)))
        edges = [e for e in _join_of_cycles(lengths, rng) if rng.random() >= drop]
    else:
        n = draw(st.integers(0, CHROMATIC_ORACLE_CAP))
        density = draw(st.sampled_from((0.3, 0.5, 0.7, 0.85)))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


@st.composite
def split_graphs(draw):
    """Random graphs of up to SPLIT_ORACLE_CAP vertices, each with a random
    set of vertices marked square-zero (a bitmask)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, SPLIT_ORACLE_CAP))
    density = draw(st.sampled_from((0.3, 0.5, 0.7, 0.85)))
    marked = draw(st.sampled_from((0.2, 0.5, 0.8)))
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    sq0 = sum(1 << v for v in range(n) if rng.random() < marked)
    return Graph(n, adj), sq0


def _best_split_by_enumeration(g, sq0: int) -> tuple[int, int]:
    """The largest (clique size, square-zero count) over every vertex subset:
    a subset is a clique when it is one without its lowest vertex and that
    vertex is adjacent to the rest."""
    is_clique = [True] * (1 << g.n)
    best = (0, 0)
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        is_clique[mask] = is_clique[rest] and g.adj[low.bit_length() - 1] & rest == rest
        if is_clique[mask]:
            best = max(best, (mask.bit_count(), (mask & sq0).bit_count()))
    return best


@st.composite
def twin_graphs(draw):
    """Random graphs of up to TWIN_GRAPH_CAP vertices with planted twins:
    each clone copies the row of an earlier vertex, clones included, and is
    not adjacent to it; vertices are then relabelled at random. Each comes
    with a random square-zero mask."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    base = draw(st.integers(0, 12))
    n = base + (draw(st.integers(0, TWIN_GRAPH_CAP - base)) if base else 0)
    density = draw(st.sampled_from((0.3, 0.5, 0.7, 0.85)))
    rows = [0] * n
    for u in range(base):
        for v in range(u + 1, base):
            if rng.random() < density:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for y in range(base, n):
        x = rng.randrange(y)
        rows[y] = rows[x]
        for u in range(y):
            if rows[x] >> u & 1:
                rows[u] |= 1 << y
    label = list(range(n))
    rng.shuffle(label)
    adj = [0] * n
    for u in range(n):
        for v in range(n):
            if rows[u] >> v & 1:
                adj[label[u]] |= 1 << label[v]
    sq0 = sum(1 << v for v in range(n) if rng.random() < 0.5)
    return Graph(n, adj), sq0


def _vertex_by_vertex_set_up(n: int, adj: list[int]):
    """The clique search's set-up one vertex at a time: order by (degree
    desc, id), each row remapped to positions, and the greedy clique from
    each of the first 8 positions, adding the first candidate with the most
    candidate neighbours."""
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    radj = [sum(1 << pos[u] for u in range(n) if adj[v] >> u & 1) for v in order]
    best: list[int] = []
    for s in range(min(n, 8)):
        clique, cand = [s], radj[s]
        while cand:
            members = [v for v in range(n) if cand >> v & 1]
            pick = max(members, key=lambda v: ((radj[v] & cand).bit_count(), -v))
            clique.append(pick)
            cand &= radj[pick]
        if len(clique) > len(best):
            best = clique
    return order, pos, radj, best


class _VertexByVertexSearch(_CliqueSearch):
    """The clique search on the vertex-by-vertex set-up."""

    def _order_by_twin_class(self):
        self.order, self.pos, self.radj, self.first = _vertex_by_vertex_set_up(self.n, self.adj)
        return [0] * self.n

    def _greedy_clique(self, twins):
        return self.first


def _dsatur_by_scan(n: int, adj: list[int]) -> list[int]:
    """DSATUR scanning every uncolored vertex for each pick: the highest
    (saturation, degree), then the lowest id, takes the lowest free color."""
    color = [-1] * n
    neigh = [0] * n
    for _ in range(n):
        pick = max((v for v in range(n) if color[v] == -1),
                   key=lambda v: (neigh[v].bit_count(), adj[v].bit_count(), -v))
        c = 0
        while neigh[pick] >> c & 1:
            c += 1
        color[pick] = c
        for u in range(n):
            if adj[pick] >> u & 1:
                neigh[u] |= 1 << c
    return color


@st.composite
def an_products(draw, atom):
    """AN times one to four atoms, at most AN_PRODUCT_CAP elements; an atom
    that would pass the cap is skipped."""
    factors = [ring_of("AN")]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(atom)
        if math.prod(g.size for g in factors) * f.size <= AN_PRODUCT_CAP:
            factors.append(f)
    return factors


@SMALL_GRAPHS
@given(graphs())
def test_chromatic_number_matches_partition_oracle(g):
    chi, coloring = chromatic_number(g)
    assert chi == exhaustive_chromatic_number(g)
    assert verify_coloring(g, coloring)


@SMALL_GRAPHS
@given(graphs())
def test_decision_search_refutes_exactly_below_chi(g):
    chi = exhaustive_chromatic_number(g)
    clique = _CliqueSearch(g.n, g.adj, _Deadline(float("inf"))).run()
    for k in range(len(clique), chi + 1):
        found = _KColorSearch(g.n, g.adj, k, clique, _Deadline(float("inf"))).run()
        assert (found is not None) == (k == chi), k


@SMALL_GRAPHS
@given(split_graphs())
def test_clique_search_maximises_size_then_square_zero_count(case):
    # unseeded, and seeded with a finished plain search as the split is
    g, sq0 = case
    want = _best_split_by_enumeration(g, sq0)
    plain = _CliqueSearch(g.n, g.adj, _Deadline(float("inf")))
    assert len(plain.run()) == want[0]
    for seed in (None, plain):
        found = _CliqueSearch(g.n, g.adj, _Deadline(float("inf")), sq0, seed=seed).run()
        assert all(g.adj[u] >> v & 1 for u in found for v in found if u != v)
        assert (len(found), sum(sq0 >> v & 1 for v in found)) == want


@SMALL_GRAPHS
@given(twin_graphs())
def test_twin_class_set_up_matches_the_vertex_by_vertex_set_up(case):
    g, sq0 = case
    search = _CliqueSearch(g.n, g.adj, _Deadline(FOREVER))
    if g.n:
        search._setup()
        got = list(search.order), search.pos, search.radj, search.best
        assert got == _vertex_by_vertex_set_up(g.n, g.adj)
    # the searches, and the splits they seed, find the same cliques
    found = []
    for kind in (_CliqueSearch, _VertexByVertexSearch):
        plain = kind(g.n, g.adj, _Deadline(FOREVER))
        plain.run()
        found.append((plain.result, _CliqueSearch(g.n, g.adj, _Deadline(FOREVER), sq0, seed=plain).run()))
    assert found[0] == found[1]


@SMALL_GRAPHS
@given(st.one_of(graphs(), twin_graphs().map(lambda case: case[0])))
def test_dsatur_buckets_match_the_scan(g):
    assert _dsatur(g.n, g.adj, _Deadline(FOREVER)) == _dsatur_by_scan(g.n, g.adj)


@PROPERTY
@given(an_products(reduced_atoms()))
def test_an_times_reduced_rings_has_gap_one(factors):
    g = build_graph(make_product(factors))
    omega = max_clique(g).size
    chi, coloring = chromatic_number(g)
    assert chi == omega + 1
    assert verify_coloring(g, coloring)


@PROPERTY
@given(an_products(atoms()))
def test_an_products_lie_in_the_chi_sandwich(factors):
    g = build_graph(make_product(factors))
    chi, coloring = chromatic_number(g)
    bounds = chi_bounds(factors)
    assert bounds.lower <= chi <= bounds.upper
    assert verify_coloring(g, coloring)


def _proper_pairwise(g, coloring) -> bool:
    """The definition, pair by pair: n entries, each in [0, k), every class
    used, and no edge inside a class."""
    cls, k = coloring.class_of, coloring.k
    if len(cls) != g.n or any(not 0 <= c < k for c in cls) or len(set(cls)) != k:
        return False
    return all(cls[u] != cls[v] for u in range(g.n) for v in range(u + 1, g.n) if (g.adj[u] >> v) & 1)


@st.composite
def colorings(draw, g):
    """A chi-coloring of g, kept as is or broken: one vertex recolored
    (improper, out of range, or emptying a class), k moved by one, a vertex
    dropped or added, or every entry drawn at random."""
    _, proper = chromatic_number(g)
    cls, k = list(proper.class_of), proper.k
    change = draw(st.sampled_from(("none", "recolor", "k", "length", "random")))
    if change == "recolor" and cls:
        cls[draw(st.integers(0, len(cls) - 1))] = draw(st.integers(-1, k))
    elif change == "k":
        k += draw(st.sampled_from((-1, 1)))
    elif change == "length":
        cls = cls[:-1] if cls and draw(st.booleans()) else cls + [0]
    elif change == "random":
        cls = draw(st.lists(st.integers(-1, k), min_size=len(cls), max_size=len(cls)))
    return Coloring(tuple(cls), k)


@SMALL_GRAPHS
@given(st.data())
def test_verify_coloring_matches_pairwise_oracle(data):
    g = data.draw(graphs())
    coloring = data.draw(colorings(g))
    assert verify_coloring(g, coloring) == _proper_pairwise(g, coloring)
