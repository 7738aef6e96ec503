"""Beck's graph of a ring: all elements as vertices, edges where products vanish.

Adjacency is stored as one machine-word-packed bitset per vertex (a Python
int), the format the branch-and-bound solvers consume directly. The
zero-divisor core keeps {0} plus the zero-divisors; dropping the remaining
vertices (units, which are pendant on 0) preserves both the clique and the
chromatic number under the max(., 2) rule.

Each graph is built once per ring and reduced once: `build_graph` returns
the ring's live graph while anything holds it, and `BeckGraph.core` keeps
its core. Both graph kinds carry `solved`, the memo in which the solvers
keep the searches they finish on that graph.
"""

from __future__ import annotations

import json
import weakref

import numpy as np

from .errors import CapacityError, DescriptorError
from .rings import DEFAULT_SIZE_CAP, FiniteRing


# rows per block when the core's adjacency is cut out of the full graph's
_ROWS = 256


def _pack_rows(mat: np.ndarray) -> list[int]:
    packed = np.packbits(mat, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _pack_mask(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


class BeckGraph:
    """Graph on all ring elements; x ~ y iff x != y and x*y = 0."""

    def __init__(self, ring: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP):
        _check_cap(ring, size_cap)
        self.ring = ring
        self.n = ring.size
        rel = ring.zero_rel_matrix.copy()
        np.fill_diagonal(rel, False)
        self._matrix = rel
        self.adj = _pack_rows(rel)
        self.sq0_bits = _pack_mask(ring.square_zero_mask)
        self.to_ring = list(range(self.n))
        self.solved: dict = {}
        self._core: CoreGraph | None = None

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted lexicographically."""
        return [(int(u), int(v)) for u, v in np.argwhere(np.triu(self._matrix, k=1))]

    def element_of(self, v: int) -> int:
        return v

    def core(self) -> "CoreGraph":
        """The zero-divisor core, built on the first call and kept."""
        if self._core is None:
            self._core = CoreGraph(self)
        return self._core


class CoreGraph:
    """Induced subgraph on {0} plus the zero-divisors, with the id remap kept."""

    def __init__(self, base: BeckGraph):
        ring = base.ring
        zd = sorted(np.flatnonzero(ring.zero_divisor_mask).tolist())
        vs = [0] + [v for v in zd if v != 0]
        self.ring = ring
        self.n = len(vs)
        self.to_ring = vs
        # blocks of rows, taken rows first: one n x n fancy index is several
        # times slower, and no |core|^2 submatrix is held at once
        self.adj = [
            row
            for lo in range(0, self.n, _ROWS)
            for row in _pack_rows(base._matrix.take(vs[lo:lo + _ROWS], axis=0).take(vs, axis=1))
        ]
        self.sq0_bits = _pack_mask(ring.square_zero_mask[vs])
        self.solved: dict = {}

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def element_of(self, v: int) -> int:
        return self.to_ring[v]


def _check_cap(ring: FiniteRing, size_cap: int) -> None:
    if ring.size > size_cap:
        raise CapacityError(f"graph on {ring.size} vertices exceeds cap {size_cap}")


def build_graph(ring: FiniteRing, size_cap: int = DEFAULT_SIZE_CAP) -> BeckGraph:
    """The Beck graph of `ring`: the one already built while anything holds it.

    The ring keeps only a weak reference, so a graph and the solves memoised
    on it go when the last holder lets go. Long-lived rings, such as the
    cached AN ring, therefore carry no answers from one analysis to the next.
    """
    _check_cap(ring, size_cap)
    g = ring._graph() if ring._graph is not None else None
    if g is None:
        g = BeckGraph(ring, size_cap=size_cap)
        ring._graph = weakref.ref(g)
    return g


def core(g: BeckGraph) -> CoreGraph:
    return g.core()


def export_graph(g: BeckGraph, fmt: str) -> str:
    """Serialize as DIMACS ("p edge n m" header, 1-based) or JSON (0-based)."""
    fmt = fmt.strip().lower()
    edges = g.edges()
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {len(edges)}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
        return "\n".join(lines)
    if fmt == "json":
        return json.dumps({"n": g.n, "edges": [[u, v] for u, v in edges]})
    raise DescriptorError(f"unknown export format {fmt!r} (expected dimacs or json)")
