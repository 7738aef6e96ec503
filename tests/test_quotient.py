"""The twin quotient against unreduced searches and an independent solver.

`BeckGraph.core` fuses the vertices with the same neighbours and the same
square-zero flag, read from the ring's annihilator classes; omega, the
split, chi and min-s are searched on it and lifted back. It is checked
against the classes of equal rows of the multiplication table on random
rings. Other checks run the unreduced searches on the whole graph
instead, and compare omega and the lifted colorings with networkx on graphs
above the size of the brute-force oracles, and make sure
`verify.core_preservation` fails on a quotient that changes omega or chi.

Min-s is checked against an exhaustive scan of all chi-colorings kept
here, on whole graphs of small rings and, for each t, against the
restricted k-coloring decision that min-s runs, on random graphs with
random square-zero sets.
"""

import functools
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st
from test_coloring_properties import SMALL_GRAPHS, split_graphs
from test_ring_predicates import PROPERTY, rings

from beckring import (
    BeckGraph,
    BudgetError,
    best_clique_split,
    build_graph,
    chromatic_number,
    max_clique,
    min_s_optimal_coloring,
    ring_of,
    s_of,
    verify_clique,
    verify_coloring,
)
from beckring import graphs, solvers
from beckring.graphs import HeldTable
from beckring.solvers import (
    _CliqueSearch,
    _Deadline,
    _KColorSearch,
    _OutOfTime,
    _sq0_clique_floor,
)
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


class _CutDeadline(_Deadline):
    """A deadline that runs out at its `cut`-th tick or check."""

    def __init__(self, cut, budget):
        super().__init__(FOREVER)
        self.cut = cut

    def tick(self):
        self.check()

    def check(self):
        self.cut -= 1
        if self.cut < 0:
            raise _OutOfTime()


@PROPERTY
@given(rings(max_size=128), st.integers(0, 12))
def test_clique_witnesses_lift_to_class_representatives(ring, after_set_up):
    # the maximum clique and the split, searched on the core, against the
    # unreduced searches on the whole graph
    g = build_graph(ring)
    whole = _CliqueSearch(g.n, g.adj, _Deadline(FOREVER), g.sq0_bits)
    whole.run()
    clique, split = max_clique(g), best_clique_split(g)
    assert clique.size == len(whole.result)
    whole_b = sum(g.sq0_bits >> v & 1 for v in whole.split)
    assert (split.clique.size, split.b_size) == (len(whole.split), whole_b)
    # the partial clique of a search cut short, on a fresh graph with no
    # memo: the set-up ticks once per vertex, so the cut falls in the greedy
    # starts or the branch and bound
    fresh = BeckGraph(ring)
    cut = fresh.core().n + after_set_up
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_Deadline", functools.partial(_CutDeadline, cut))
        try:
            partial = max_clique(fresh).vertices
        except BudgetError as e:
            partial = tuple(e.witness)
            assert e.lower == len(partial)
    for vertices in (clique.vertices, split.clique.vertices, partial):
        assert verify_clique(g, vertices)
        assert all(g.reps[g.group[v]] == v for v in vertices)


@pytest.mark.isolated
@pytest.mark.parametrize("expr", ["AN", "AN x Z12"])
def test_one_clique_search_cut_at_every_tick(expr):
    # omega and the split come from one search: cut at each deadline read
    # in turn on a fresh graph, its core under an empty table of cores,
    # max_clique and best_clique_split certify no more than omega,
    # max_clique's partial clique is a clique, and a call the cut lets
    # complete returns the uncut answer
    ring = ring_of(expr)
    g = build_graph(ring)
    clique, split = max_clique(g), best_clique_split(g)
    for entry, want in ((max_clique, clique), (best_clique_split, split)):
        for cut in range(1000):
            fresh = BeckGraph(ring)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solvers, "_Deadline", functools.partial(_CutDeadline, cut))
                mp.setattr(graphs, "_cores", HeldTable())
                try:
                    got = entry(fresh)
                except BudgetError as e:
                    assert 1 <= e.lower <= clique.size
                    if entry is max_clique:
                        assert len(e.witness) == e.lower and verify_clique(fresh, e.witness)
                    continue
            assert got == want
            break
        assert cut > 0  # the first read cuts


class _MinSSearch:
    """Exhaustive scan of all proper k-colorings of a small graph, keeping
    one with the fewest classes that hold a square-zero vertex (`sq0_bits`).
    Symmetry is broken by one lowest-fresh-color rule over all k colors,
    which is sound here since no color is set apart."""

    def __init__(self, n, adj, sq0_bits, k):
        self.n = n
        self.adj = adj
        self.sq0 = sq0_bits
        self.k = k
        self.order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
        self.color = [-1] * n
        self.best: list[int] | None = None
        self.best_s = n + 1

    def _go(self, idx: int, used: int, class_sq0: int, s: int):
        if s >= self.best_s:
            return
        if idx == self.n:
            self.best = self.color.copy()
            self.best_s = s
            return
        v = self.order[idx]
        sq = (self.sq0 >> v) & 1
        forbidden = 0
        for u in range(self.n):
            if (self.adj[v] >> u) & 1 and self.color[u] != -1:
                forbidden |= 1 << self.color[u]
        for c in range(min(used + 1, self.k)):
            if (forbidden >> c) & 1:
                continue
            marks = sq and not ((class_sq0 >> c) & 1)
            self.color[v] = c
            self._go(
                idx + 1,
                max(used, c + 1),
                class_sq0 | (1 << c) if marks else class_sq0,
                s + (1 if marks else 0),
            )
            self.color[v] = -1

    def run(self):
        self._go(0, 0, 0, 0)
        return self.best, self.best_s


@PROPERTY
@given(rings(max_size=16))
def test_min_s_on_the_quotient_matches_the_unreduced_scan(ring):
    g = build_graph(ring)
    col, sz = min_s_optimal_coloring(g)
    assert sz.exact and verify_coloring(g, col) and col.k == chromatic_number(g)[0]
    best, best_s = _MinSSearch(g.n, g.adj, g.sq0_bits, col.k).run()
    assert best is not None
    assert sz.s == best_s == s_of(g, col).s


@SMALL_GRAPHS
@given(split_graphs())
def test_restricted_decision_search_matches_the_min_s_scan(case):
    # "is there a chi-coloring whose square-zero vertices use only colors
    # below t?" holds exactly from the scan's least s on, with no clique
    # pre-colored and with a largest square-zero clique pre-colored
    g, sq0 = case
    k, _ = chromatic_number(g)
    _, least = _MinSSearch(g.n, g.adj, sq0, k).run()
    floor = _sq0_clique_floor(SimpleNamespace(adj=g.adj, sq0_bits=sq0), _Deadline(FOREVER))
    for clique in ([], floor):
        for t in range(len(clique), k + 1):
            found = _KColorSearch(g.n, g.adj, k, clique, _Deadline(FOREVER), sq0, t).run()
            assert (found is not None) == (t >= least), (clique, t)
            if found is not None:
                assert not any(g.adj[v] >> u & 1 and found[u] == found[v]
                               for v in range(g.n) for u in range(g.n))
                assert all(0 <= found[v] < (t if sq0 >> v & 1 else k) for v in range(g.n))


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


def row_hashing_quotient(ring):
    """The twin quotient by its definition, from the multiplication table:
    the packed neighbour rows, and the classes of equal rows and equal
    square-zero flags, each named by its first vertex."""
    v = np.arange(ring.size, dtype=np.int64)
    zero = ring.mul_many(v[:, None], v[None, :]) == 0
    sq0 = zero.diagonal().tolist()
    np.fill_diagonal(zero, False)
    adj = [int.from_bytes(row.tobytes(), "little") for row in np.packbits(zero, axis=1, bitorder="little")]
    class_of, reps, group = {}, [], []
    for u, row in enumerate(adj):
        c = class_of.setdefault((row, sq0[u]), len(reps))
        if c == len(reps):
            reps.append(u)
        group.append(c)
    return adj, sq0, group, reps


@PROPERTY
@given(rings(max_size=128))
def test_annihilator_classes_give_the_row_hashing_quotient(ring):
    adj, sq0, group, reps = row_hashing_quotient(ring)
    g = BeckGraph(ring)
    core = g.core()
    assert g.adj == adj
    assert (g.group, g.reps) == (group, reps)
    assert core.to_ring == reps
    assert core.adj == [sum((adj[r] >> s & 1) << j for j, s in enumerate(reps)) for r in reps]
    # a square-zero vertex has no twin
    sq0_rows = [row for row, s in zip(adj, sq0) if s]
    assert len(set(sq0_rows)) == len(sq0_rows)


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
        self.reps = reps
        if len(reps) < self.n:
            self._core = BeckGraph(self.ring, [self.to_ring[v] for v in reps])
            self._core.group = self._core.reps = list(range(len(reps)))
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


_true_core = BeckGraph.core


def _doubled_core(self):
    """A wrong quotient: the true one with a second vertex for its last
    square-zero element, adjacent to the first since the element squares to
    zero. On AN it has omega 6 but keeps chi 6, so only omega tells it from
    the graph's (5, 6)."""
    if "_doubled" not in vars(self):
        core = _true_core(self)
        last = max(v for v in range(core.n) if core.sq0_bits >> v & 1)
        doubled = BeckGraph(self.ring, core.to_ring + [core.to_ring[last]])
        doubled.group = doubled.reps = list(range(doubled.n))
        doubled._doubled = doubled
        self._doubled = doubled
        self.reps = self.reps + [self.reps[last]]
    return self._doubled


def test_core_preservation_fails_on_a_quotient_that_changes_omega(monkeypatch):
    monkeypatch.setattr(BeckGraph, "core", _doubled_core)
    g = BeckGraph(ring_of("AN"))
    assert (max_clique(g.core()).size, chromatic_number(g.core())[0]) == (6, 6)
    check = core_preservation({"AN": g})
    assert check.failed == 1
    assert "AN: core reduction changed (omega, chi)" in check.failures


@pytest.mark.isolated
def test_core_preservation_searches_the_whole_graph_plainly(monkeypatch):
    # the check compares only omega and chi, so the whole graph is searched
    # with no square-zero tie-break: no clique search on AN's 32 vertices
    # carries its square-zero bits
    starts = []
    init = _CliqueSearch.__init__

    def recording_init(self, n, adj, deadline, sq0_bits=0):
        starts.append((n, sq0_bits))
        init(self, n, adj, deadline, sq0_bits)

    monkeypatch.setattr(_CliqueSearch, "__init__", recording_init)
    g = BeckGraph(ring_of("AN"))
    assert g.n == 32 and g.sq0_bits
    assert core_preservation({"AN": g}).failed == 0
    assert (32, 0) in starts
    assert [bits for n, bits in starts if n == 32 and bits] == []
