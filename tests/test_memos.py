"""Results derived from a graph or a ring are made once per request.

A request verifies each (graph, witness) pair once, searches for the
square-zero clique floor of min-s only where the best split does not
already decide s, builds one graph per ring and searches each core once.
Min-s with the split's floor gives the answers of the search for the
floor, kept below as the oracle; an exact min-s is memoised on its graph,
a cut-short one is not.
"""

import contextlib
import io
import itertools
import math
import weakref
from collections import Counter
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beckring import build_graph, cli, dsl, graphs, report, ring_of, solvers, theorems
from beckring.graphs import HeldTable
from beckring.solvers import (
    SZero,
    _bits,
    _CliqueSearch,
    _core,
    _Deadline,
    _KColorSearch,
    _lift,
    _permute,
    best_clique_split,
    chromatic_number,
    class_sq0_flags,
    min_s_optimal_coloring,
)

REQUESTS = (
    ["bound-chi", "AN x AN x Z3", "--s-mode", "min"],
    ["bound-chi", "Z4 x Z4 x Z8", "--s-mode", "min"],
    ["predict-omega", "Z4 x Z8 x Z8"],
    ["counterexample", "Z2", "Z2"],
    ["verify-suite", "--max-size", "16"],
)
ATOMS = ("Z2", "Z3", "Z4", "Z8", "Z9", "Z12", "Z2[t]/(t^2)", "AN",
         "Z16", "Z25", "Z27", "Z3[t]/(t^2)", "Z4[t]/(t^2+2)")
MIN_S_CAP = 128  # two 256-element products with AN take a second each
FOREVER = float("inf")


def split_decides(work) -> bool:
    """Whether the square-zero part of the best split of `work` has as many
    members as the chi-coloring of `work` has square-zero-bearing classes."""
    return best_clique_split(work).b_size == sum(class_sq0_flags(work, chromatic_number(work)[1]))


class Recorder:
    """Counts, over one request, the verifications per (graph, witness), the
    floor searches per core, the whole graphs per ring and the clique
    searches per core key. Graphs are told apart by a serial number kept
    beside them, not held, so that no graph outlives its request because of
    the count."""

    def __init__(self, monkeypatch):
        self.serial, self.serials = weakref.WeakKeyDictionary(), itertools.count()
        self.verified = {"coloring": [], "clique": []}
        self.floors, self.graphs, self.searches = [], [], []
        verify_coloring, verify_clique = solvers.verify_coloring, solvers.verify_clique
        floor, graph_init, clique_init = solvers._sq0_clique_floor, graphs.BeckGraph.__init__, solvers._CliqueSearch.__init__

        def counting_coloring(g, coloring):
            self.verified["coloring"].append((self.serial_of(g), coloring))
            return verify_coloring(g, coloring)

        def counting_clique(g, vertices):
            self.verified["clique"].append((self.serial_of(g), tuple(sorted(vertices))))
            return verify_clique(g, vertices)

        def counting_floor(work, deadline):
            self.floors.append((self.serial_of(work), split_decides(work)))
            return floor(work, deadline)

        def counting_graph(g, ring, to_ring=None):
            graph_init(g, ring, to_ring)
            if to_ring is None:
                self.graphs.append(ring)  # a ring held here still lets its graph go

        def counting_search(search, n, adj, deadline, sq0_bits=0):
            if adj is not None:  # the square-zero floor's search takes its rows ranked
                self.searches.append((n, tuple(adj), sq0_bits))
            clique_init(search, n, adj, deadline, sq0_bits)

        for module in (solvers, theorems, report):
            for name, counting in (("verify_coloring", counting_coloring), ("verify_clique", counting_clique)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting)
        monkeypatch.setattr(solvers, "_sq0_clique_floor", counting_floor)
        monkeypatch.setattr(graphs.BeckGraph, "__init__", counting_graph)
        monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_search)

    def serial_of(self, g) -> int:
        if g not in self.serial:
            self.serial[g] = next(self.serials)
        return self.serial[g]


def run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))


@pytest.mark.isolated
@pytest.mark.parametrize("argv", REQUESTS, ids=" ".join)
def test_each_derived_result_is_made_once_per_request(monkeypatch, argv, empty_factor_table):
    record = Recorder(monkeypatch)
    assert run(argv) == 0
    assert any(record.verified.values())
    for kind, calls in record.verified.items():
        repeats = [pair for pair, n in Counter(calls).items() if n > 1]
        assert repeats == [], f"{kind} verified more than once"
    # the floor is searched only where the split does not decide s, once a core
    assert all(not decided for _, decided in record.floors)
    assert len({g for g, _ in record.floors}) == len(record.floors)
    assert len(set(map(id, record.graphs))) == len(record.graphs), "a ring got two whole graphs"
    # each core key, (n, adjacency rows, square-zero bits), is searched once
    assert record.searches
    assert len(set(record.searches)) == len(record.searches), "a core was searched twice"


def test_split_and_exact_min_s_are_memoised_on_their_graph():
    g = build_graph(ring_of("AN x Z3"))
    assert best_clique_split(g) is best_clique_split(g)
    assert min_s_optimal_coloring(g) is min_s_optimal_coloring(g, budget=0)


def floor_search_min_s(g):
    """min-s with the floor always from a clique search of the square-zero
    subgraph, cut out in vertex order and ranked by the search."""
    work, group, _ = _core(g)
    deadline = _Deadline(FOREVER)
    k, coloring = chromatic_number(work)
    best = list(coloring.class_of)
    hi = len({best[v] for v in _bits(work.sq0_bits)})
    verts = list(_bits(work.sq0_bits))
    sub = _permute(work.adj, verts, deadline)
    floor = [verts[i] for i in _CliqueSearch(len(verts), sub, deadline).run()]
    lo = len(floor)
    while lo < hi:
        found = _KColorSearch(work.n, work.adj, k, floor, deadline, work.sq0_bits, lo).run()
        if found is None:
            lo += 1
        else:
            best, hi = found, lo
    return _lift(best, group, k), SZero(hi, lo)


@st.composite
def small_products(draw):
    """A product of 1 to 3 catalog and local atoms of at most MIN_S_CAP elements."""
    names = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3))
    while len(names) > 1 and math.prod(ring_of(name).size for name in names) > MIN_S_CAP:
        names.pop()
    return " x ".join(names)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_products())
def test_min_s_from_the_split_matches_the_floor_search(expr):
    # the floor is searched exactly where the split does not decide s; the
    # tables of factors and cores start empty, so that a held AN and every
    # core come unsolved
    with mock.patch.object(solvers, "_sq0_clique_floor", wraps=solvers._sq0_clique_floor) as floor, \
            mock.patch.object(dsl, "_factors", HeldTable()), mock.patch.object(graphs, "_cores", HeldTable()):
        got = min_s_optimal_coloring(build_graph(ring_of(expr)))
    want = floor_search_min_s(build_graph(ring_of(expr)))
    assert got == want
    work = build_graph(ring_of(expr)).core()
    assert floor.called != split_decides(work)


def test_min_s_cut_short_is_not_memoised():
    # AN x AN: chi = 20 and the floor 16 come within the budget, the
    # refutation of s <= 16 does not; a later call searches again, and
    # neither interval is kept on the graph or its core
    g = build_graph(ring_of("AN x AN"))
    coloring, sz = min_s_optimal_coloring(g, budget=0.3)
    assert (sz.lower, sz.s) == (16, 18) and coloring.k == 20
    with mock.patch.object(solvers, "_kernel_k_coloring", wraps=solvers._kernel_k_coloring) as decide:
        _, sz = min_s_optimal_coloring(g, budget=0.3)
    assert decide.called and 16 <= sz.lower <= sz.s <= 18
    assert "min_s" not in g.solved and "min_s" not in g.core().solved
