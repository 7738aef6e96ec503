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
the solvers keep the searches they finish on that graph. The table of
factors (`dsl.held_factor`) holds the graphs of factor atoms, so their
solves serve every later request in the process.

The core a search runs on depends only on how the ring's annihilator
classes are laid out, so rings as unlike as AN x Z2 and AN x Z17 have one
core. The table of cores keys each core that `core` builds by (n, its
adjacency rows, its square-zero bits) and gives it the `solved` memo of
the first core built with that key, so each core is searched at most once
per process. What a core's memo holds reads nothing but those three.
Both tables are `HeldTable`s: the held vertex counts sum to at most
DEFAULT_SIZE_CAP, and the least recently used goes first.
"""

from __future__ import annotations

import weakref
from functools import cached_property

import numpy as np

from .errors import DescriptorError
from .rings import DEFAULT_SIZE_CAP, FiniteRing


def _pack_rows(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class HeldTable(dict):
    """A process-wide table, least recently used first, whose values' sizes
    sum to at most `cap`. The sum is kept as values come and go; write
    only through `hold`, `drop` and `clear`."""

    def __init__(self, cap: int = DEFAULT_SIZE_CAP):
        super().__init__()
        self.cap, self.total, self._sizes = cap, 0, {}

    def hold(self, key, value, size: int) -> None:
        """Hold `value` under `key` as the most recently used; the least
        recently used go while the sizes sum past `cap`. A value above
        `cap` is never held."""
        self.drop(key)
        if size <= self.cap:
            self[key], self._sizes[key] = value, size
            self.total += size
            while self.total > self.cap:
                self.drop(next(iter(self)))

    def drop(self, key) -> None:
        if key in self:
            del self[key]
            self.total -= self._sizes.pop(key)

    def clear(self) -> None:
        super().clear()
        self._sizes.clear()
        self.total = 0


# the table of cores: (n, adjacency rows, square-zero bits) -> the `solved`
# memo of the cores with that key. A memo holds no graph or ring, so an
# evicted one is freed once no core still holds it.
_cores = HeldTable()


def held_memo(g) -> dict:
    """The memo the table of cores holds for the key of `g`, a core or a
    plain graph-like with `n`, `adj` and `sq0_bits`, now the most recently
    used; else a new one, held unless `g` is above the cap."""
    if g.n > _cores.cap:
        return {}
    key = g.n, tuple(g.adj), g.sq0_bits
    memo = _cores.get(key, {})
    _cores.hold(key, memo, g.n)
    return memo


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
        # the core (None while unbuilt or if the graph is a core),
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

        The core takes its `solved` memo from the table of cores, shared
        with every core of the same key. It is never the graph itself: a
        graph with no twins gets a copy that shares its arrays and rows,
        so that the graph's own memo, where `solvers.pinch` may keep
        answers that no search gives, stays out of the table.

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
                core = BeckGraph(self.ring, [self.to_ring[v] for v in self.reps])
            else:  # no twins: the core shares the graph's arrays and rows
                self.adj  # packed once, for both
                core = object.__new__(BeckGraph)
                core.__dict__.update(vars(self), factor_graphs=[])
            core.group = core.reps = list(range(len(self.reps)))
            core.solved = held_memo(core)
            self._core = core
        return self._core or self


def build_graph(ring: FiniteRing) -> BeckGraph:
    """The Beck graph of `ring`: the one already built while anything holds it.
    It takes no size cap: the ring was held to its caller's cap when built.

    The ring keeps only a weak reference, so the graph holds its ring with
    no cycle, and the graph and the solves memoised on it go when the last
    holder lets go. The table of factors (`dsl.held_factor`) is one such
    holder: the graphs of factor atoms, AN's among them, carry their finished
    solves from one request to the next until the table evicts them.
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
