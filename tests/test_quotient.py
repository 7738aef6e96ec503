"""The twin quotient against unreduced searches and an independent solver.

`BeckGraph.core` fuses the vertices with the same neighbours and the same
square-zero flag; chi and min-s are searched on it and lifted back. These
checks run the unreduced searches on the whole graph instead, and compare
omega and the lifted colorings with networkx on graphs above the size of
the brute-force oracles, and make sure `verify.core_preservation` fails on
a quotient that changes chi.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from test_ring_predicates import PROPERTY, rings

from beckring import (
    BeckGraph,
    build_graph,
    chromatic_number,
    max_clique,
    min_s_optimal_coloring,
    ring_of,
    s_of,
    verify_coloring,
)
from beckring.solvers import _CliqueSearch, _Deadline, _KColorSearch, _MinSSearch
from beckring.verify import core_preservation

FOREVER = float("inf")


@PROPERTY
@given(rings(max_size=128))
def test_quotient_keeps_omega_and_chi(ring):
    g = build_graph(ring)
    clique = max_clique(g).vertices
    assert max_clique(g.core()).size == len(clique)
    chi, col = chromatic_number(g)
    assert verify_coloring(g, col) and col.k == chi
    # the unfused decision search on the whole graph refutes chi - 1 and finds chi
    if chi > len(clique):
        assert _KColorSearch(g.n, g.adj, chi - 1, clique, _Deadline(FOREVER)).run() is None
    assert _KColorSearch(g.n, g.adj, chi, clique, _Deadline(FOREVER)).run() is not None


@PROPERTY
@given(rings(max_size=16))
def test_min_s_on_the_quotient_matches_the_unreduced_scan(ring):
    g = build_graph(ring)
    col, sz = min_s_optimal_coloring(g)
    assert sz.exact and verify_coloring(g, col) and col.k == chromatic_number(g)[0]
    best, best_s = _MinSSearch(g.n, g.adj, g.sq0_bits, col.k, 0, _Deadline(FOREVER)).run()
    assert best is not None
    assert sz.s == best_s == s_of(g, col).s


@pytest.mark.parametrize(
    "expr",
    ["Z48", "AN", "Z8 x Z9", "AN x Z3", "Z4 x Z4 x Z8", "AN x Z2 x Z2",
     "Z2 x Z2 x Z2 x Z3 x Z5", "Z27 x Z8", "AN x Z9"],
)
def test_networkx_agrees_on_omega_and_the_lifted_coloring(expr):
    nx = pytest.importorskip("networkx")
    ring = ring_of(expr)
    g = build_graph(ring)
    assert 20 <= g.n <= 300
    v = np.arange(ring.size, dtype=np.int64)
    zero = ring.mul_many(v[:, None], v[None, :]) == 0
    G = nx.Graph()
    G.add_nodes_from(range(ring.size))
    G.add_edges_from(map(tuple, np.argwhere(np.triu(zero, k=1)).tolist()))
    assert nx.max_weight_clique(G, weight=None)[1] == max_clique(g).size
    _, col = chromatic_number(g)
    assert not any(col.class_of[a] == col.class_of[b] for a, b in G.edges())


def _closed_twin_core(self):
    """A wrong quotient: it also fuses square-zero true twins (adjacent
    vertices with the same other neighbours), which a clique can hold both
    of. On AN it keeps omega = 5 but has chi 5, not 6."""
    if self.group is None:
        class_of, reps, self.group = {}, [], []
        for v, row in enumerate(self.adj):
            sq = (self.sq0_bits >> v) & 1
            c = class_of.setdefault((row | sq << v, sq), len(reps))
            if c == len(reps):
                reps.append(v)
            self.group.append(c)
        if len(reps) < self.n:
            self._core = BeckGraph(self.ring, [self.to_ring[v] for v in reps])
            self._core.group = list(range(len(reps)))
    return self._core or self


def test_core_preservation_fails_on_a_quotient_that_changes_chi(monkeypatch):
    ring = ring_of("AN")
    assert core_preservation({"AN": BeckGraph(ring)}).failed == 0
    monkeypatch.setattr(BeckGraph, "core", _closed_twin_core)
    # a fresh graph: the ring's live one keeps its true core
    g = BeckGraph(ring)
    assert (max_clique(g.core()).size, chromatic_number(g.core())[0]) == (5, 5)
    check = core_preservation({"AN": g})
    assert check.failed == 1
    assert "AN: core reduction changed (omega, chi)" in check.failures
