"""Beck's graph of a ring: elements as vertices, edges where products vanish.

One type, `BeckGraph`, is Beck's graph induced on a list of ring elements:
`build_graph` gives the graph on all elements, and `BeckGraph.core` its twin
quotient, on one element of each class with the same neighbours and the
same square-zero flag (Mulay 2002; Spiroff and Wickham 2011). Twins are
never adjacent, so a clique meets a class at most once and one color serves
a class: the quotient keeps omega, the largest square-zero part of a
maximum clique, chi and the least number of square-zero-bearing classes of
a chi-coloring. A core is its own core.

A graph reads its ring once, when built: per vertex its annihilator class
and square-zero flag, per class its row of the zero relation over the
vertices. The whole graph keeps the ring's own arrays, never copied or
written; an induced graph keeps one `take` of each. Adjacency, one
machine-word-packed bitset per vertex (a Python int) for the solvers, is
packed once per class on first use; the quotient and the edge list, which
`export_graph` writes, are read from the same arrays.

Each graph is built once per ring and reduced once: `build_graph` returns
the ring's live graph while anything holds it, and `BeckGraph.core` keeps
its core, and the graph of a whole product its factors' graphs, so no
caller keeps them alive. Every graph carries `solved`, the memo in which
the solvers keep the searches they finish on that graph.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .errors import DescriptorError
from .rings import FiniteRing


def _pack_rows(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class BeckGraph:
    """Beck's graph induced on the ring elements `to_ring`: vertex v is
    element to_ring[v], and u ~ v iff u != v and their elements multiply to 0.

    `to_ring` None means every element, in ring order. The graph of a whole
    product keeps its factors' graphs, `factor_graphs` ([] on any other).
    """

    def __init__(self, ring: FiniteRing, to_ring: list[int] | None = None):
        self.ring = ring
        cls, rows = ring.ann_classes
        sq0 = ring.square_zero_mask
        if to_ring is not None:
            cls, sq0, rows = cls.take(to_ring), sq0.take(to_ring), rows.take(to_ring, 1)
        self._cls, self._sq0, self._rows = cls, sq0, rows
        self.to_ring = list(range(ring.size)) if to_ring is None else to_ring
        self.n = len(self.to_ring)
        self.sq0_bits = _pack_rows(sq0[None])[0]
        self.solved: dict = {}
        self.factor_graphs = [build_graph(f) for f in ring.factors] if to_ring is None else []
        # the core (None while unbuilt or if the graph is its own),
        # `group`, the core vertex of each vertex, and `reps`, the vertex
        # that stands for each core vertex (the first of its class)
        self._core: BeckGraph | None = None
        self.group: list[int] | None = None
        self.reps: list[int] | None = None

    @cached_property
    def adj(self) -> list[int]:
        """Rows packed once per annihilator class and shared by its vertices;
        a square-zero vertex clears its own bit."""
        adj = list(map(_pack_rows(self._rows).__getitem__, self._cls.tolist()))
        for v in self._sq0.nonzero()[0].tolist():
            adj[v] ^= 1 << v
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as two int arrays (u, v), u < v, in lexicographic
        order, read from the ring's annihilator classes, never from `adj`:
        the neighbours of u are the columns of its class's row, and those
        above u are its edges (a square-zero vertex's own column is not)."""
        # the flat index class * n + column lists each class's columns in
        # ascending order; u's edges are the part of its class's run above u
        n, own = self.n, self._cls
        key = np.flatnonzero(self._rows)
        lo = np.searchsorted(key, own * n + np.arange(n), side="right")
        count = np.searchsorted(key, own * n + n) - lo
        start = np.cumsum(count) - count
        u = np.repeat(np.arange(n), count)
        return u, key[np.arange(len(u)) + np.repeat(lo - start, count)] % n

    def element_of(self, v: int) -> int:
        return self.to_ring[v]

    def core(self) -> BeckGraph:
        """The twin quotient: Beck's graph on the first vertex, in order, of
        each class of vertices with the same neighbours and the same
        square-zero flag; `group` maps each vertex to its class's vertex,
        and `reps` each class's vertex back to the class's first vertex.
        Built on the first call and kept. A core is its own core.

        The classes are read from the ring's annihilator classes, not from
        `adj`. A vertex x with x^2 != 0 has the neighbours Ann(x), so its
        twins are the other such vertices of its class. A square-zero
        vertex has no twin: let x != y square to zero with the same
        neighbours. Then xy != 0, or x would neighbour y but not itself, so
        N(x) = Ann(x) & Ann(y) is an additive subgroup of Ann(x), which is
        N(x) and x, of index |Ann(x)| / (|Ann(x)| - 1). So Ann(x) = {0, x}
        and Ann(y) = {0, y}; xy != 0 lies in both, as x(xy) = x^2 y = 0 and
        likewise for y, so xy = x = y. On a graph induced on other elements
        these classes are still twins."""
        if self.group is None:
            # a vertex's key is its class, or ~v < 0 for a square-zero v,
            # a class of its own; `first` keeps each key's first vertex
            keys = self._cls.tolist()
            for v in self._sq0.nonzero()[0].tolist():
                keys[v] = ~v
            first: dict[int, int] = {}
            firsts = list(map(first.setdefault, keys, range(self.n)))
            self.reps = list(first.values())
            self.group = list(map(dict(zip(self.reps, range(len(self.reps)))).__getitem__, firsts))
            if len(self.reps) < self.n:
                self._core = BeckGraph(self.ring, [self.to_ring[v] for v in self.reps])
                self._core.group = self._core.reps = list(range(len(self.reps)))
        return self._core or self


def build_graph(ring: FiniteRing) -> BeckGraph:
    """The Beck graph of `ring`: the one already built while anything holds it.
    It takes no size cap: the ring was held to its caller's cap when built.

    The ring keeps only a weak reference, so a graph and the solves memoised
    on it go when the last holder lets go. Long-lived rings, such as the
    cached AN ring, therefore carry no answers from one analysis to the next.
    """
    g = ring._graph() if ring._graph is not None else None
    if g is None:
        g = BeckGraph(ring)
        ring._graph = weakref.ref(g)
    return g


def export_graph(g: BeckGraph, fmt: str) -> str:
    """Serialize as DIMACS ("p edge n m" header, 1-based) or JSON (0-based),
    one text block per vertex: the labels of its edges above it, joined."""
    fmt = fmt.strip().lower()
    if fmt not in ("dimacs", "json"):
        raise DescriptorError(f"unknown export format {fmt!r} (expected dimacs or json)")
    u, v = g.edges()
    base = int(fmt == "dimacs")
    labels = list(map(str, range(base, g.n + base)))
    v_labels = np.array(labels, dtype=object)[v].tolist()
    ends = np.searchsorted(u, np.arange(g.n + 1)).tolist()
    spans = [(labels[x], v_labels[a:b]) for x, (a, b) in enumerate(zip(ends, ends[1:])) if a < b]
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {len(u)}"]
        lines.extend(f"e {x} " + f"\ne {x} ".join(ys) for x, ys in spans)
        return "\n".join(lines)
    pairs = ", ".join(f"[{x}, " + f"], [{x}, ".join(ys) + "]" for x, ys in spans)
    return f'{{"n": {g.n}, "edges": [{pairs}]}}'
