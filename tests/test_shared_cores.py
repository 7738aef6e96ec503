"""The table of cores: one search per core per process.

`BeckGraph.core` gives each core the `solved` memo of the first core built
with the same key, (n, adjacency rows, square-zero bits), from the table of
cores (`graphs._cores`). Rings as unlike as AN x Z2 and AN x Z17 share a
core, and so its searches. What a request prints must not depend on what
ran before it; a search cut short by its budget and a min-s interval are
never shared; the held cores' vertex counts sum to at most
DEFAULT_SIZE_CAP, the least recently used going first, and an evicted memo
is freed. The autouse fixture `empty_core_table` starts each test on an
empty table, as a fresh process starts.
"""

import contextlib
import gc
import io
import json
import random
import weakref
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beckring import build_graph, cli, dsl, graphs, ring_of, solvers
from beckring.errors import BudgetError
from beckring.graphs import BeckGraph, HeldTable, held_memo
from beckring.rings import DEFAULT_SIZE_CAP, make_product, make_zmod
from beckring.solvers import best_clique_split, chromatic_number, max_clique, min_s_optimal_coloring
from beckring.theorems import chi_bounds, omega_product_formula, pinch_product


def run(argv):
    """Exit code, stdout and stderr of one request, in this process."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    return rc, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def searches(monkeypatch):
    """The key (n, adjacency rows) of each clique search, and of each
    k-coloring search, as (n, adjacency rows, t < k), in order."""
    cliques, colorings = [], []
    clique_init, coloring_init = solvers._CliqueSearch.__init__, solvers._KColorSearch.__init__

    def counting_clique(self, n, adj, deadline, sq0_bits=0):
        if adj is not None:  # the square-zero floor's search takes its rows ranked
            cliques.append((n, tuple(adj)))
        clique_init(self, n, adj, deadline, sq0_bits)

    def counting_coloring(self, n, adj, k, clique, deadline, sq0_bits=0, t=None):
        colorings.append((n, tuple(adj), t is not None and t < k))
        coloring_init(self, n, adj, k, clique, deadline, sq0_bits, t)

    monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_clique)
    monkeypatch.setattr(solvers._KColorSearch, "__init__", counting_coloring)
    return SimpleNamespace(cliques=cliques, colorings=colorings)


@pytest.mark.isolated
def test_an_times_a_field_is_searched_once(searches, empty_factor_table):
    # AN x Z_p has one 23-vertex core for every prime p: the first request
    # searches it for omega and refutes k = omega, the rest read the memo;
    # the factors start unsolved, as in a fresh process
    exprs = ["AN x Z2", "AN x Z3", "AN x Z5", "AN x Z17"]
    cores = [build_graph(ring_of(expr)).core() for expr in exprs]
    assert {c.n for c in cores} == {23} and len({(tuple(c.adj), c.sq0_bits) for c in cores}) == 1
    key = (23, tuple(cores[0].adj))
    for i, expr in enumerate(exprs):
        assert run(["analyze", expr, "--json"])[0] == 0
        assert searches.cliques.count(key) == 1, expr
        assert [c[:2] for c in searches.colorings].count(key) == 1, expr
        if i == 0:
            first = (len(searches.cliques), len(searches.colorings))
    # no later request searched anything: the fields' cores are Z2's too
    assert (len(searches.cliques), len(searches.colorings)) == first


@pytest.mark.isolated
def test_min_s_on_a_shared_core_is_searched_once(searches, empty_factor_table):
    # three rings with one 66-vertex core: only the first restricted
    # k-coloring searches (t < k) run, and all three print s = 9
    exprs = ["AN x Z3 x Z4", "AN x Z2 x Z4", "AN x Z2 x Z2[t]/(t^2)"]
    restricted = []
    for expr in exprs:
        rc, out, _ = run(["analyze", expr, "--s-mode", "min", "--json"])
        assert rc == 0 and json.loads(out)["s"] == 9
        restricted.append(sum(t_below_k for _, _, t_below_k in searches.colorings))
    assert restricted[0] > 0 and restricted == [restricted[0]] * 3


def test_cores_alike_but_for_their_square_zero_flags_are_apart():
    # Z6, Z8 and Z9 have cores with one adjacency but 1, 2 and 3 square-zero
    # vertices: each has its own memo, split and least s
    graphs_ = [build_graph(ring_of(expr)) for expr in ("Z6", "Z8", "Z9")]
    cores = [g.core() for g in graphs_]
    assert len({(c.n, tuple(c.adj)) for c in cores}) == 1
    assert len({id(c.solved) for c in cores}) == 3
    assert [best_clique_split(g).b_size for g in graphs_] == [1, 2, 3]
    assert [min_s_optimal_coloring(g)[1].s for g in graphs_] == [1, 2, 3]


def test_a_graph_with_no_twins_keeps_its_own_memo_apart():
    # Z2 x Z2 has no twins; its core is a copy sharing its rows, whose memo
    # is the table's, so the graph's own answers stay out of the table
    g = build_graph(ring_of("Z2 x Z2"))
    core = g.core()
    assert core is not g and core.n == g.n and core.adj is g.adj and core.core() is core
    assert core.solved is not g.solved and core.factor_graphs == []
    assert max_clique(g).size == 3
    assert "omega" in g.solved and "clique" in core.solved and "clique" not in g.solved


def test_pinched_answers_never_reach_another_graph():
    # Z2 x Z2 x Z2 has no twins and its sandwich closes; the coloring the
    # pinch keeps is not the chi search's. A graph searched for omega, then
    # pinched, leaves the table only searches: a later graph of the ring,
    # asked for omega and then chi, gets what a fresh process gets
    ring = ring_of("Z2 x Z2 x Z2")
    g = BeckGraph(ring)
    max_clique(g)
    assert pinch_product(g, omega_product_formula(ring.factors), chi_bounds(ring.factors, "min_s"))
    def omega_then_chi(g):
        return max_clique(g), chromatic_number(g)

    later = omega_then_chi(BeckGraph(make_product(list(ring.factors))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "_cores", HeldTable())
        fresh = omega_then_chi(BeckGraph(make_product(list(ring.factors))))
    assert later == fresh and fresh[1] != chromatic_number(g)


# AN and Z_n factors, at most one AN, at most 576 elements
ATOMS = ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z12", "Z17"]


@st.composite
def products(draw):
    names = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3))
    if draw(st.booleans()):
        names.insert(draw(st.integers(0, len(names))), "AN")
    size = 1
    kept = []
    for name in names:
        n = 32 if name == "AN" else int(name[1:])
        if size * n <= 576:
            kept.append(name)
            size *= n
    return " x ".join(kept)


@st.composite
def request_lists(draw):
    out = []
    for expr in draw(st.lists(products(), min_size=2, max_size=5)):
        kind = draw(st.sampled_from(["analyze", "analyze-min", "bound-chi", "predict-omega"]))
        if kind == "analyze-min" and "AN" in expr:
            kind = "analyze"  # min-s on a 66-vertex AN core takes a second
        out.append({
            "analyze": ["analyze", expr, "--json"],
            "analyze-min": ["analyze", expr, "--s-mode", "min", "--json"],
            "bound-chi": ["bound-chi", expr, "--s-mode", "min", "--json"],
            "predict-omega": ["predict-omega", expr, "--json"],
        }[kind])
    return out


@pytest.mark.isolated
@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(request_lists())
def test_results_do_not_depend_on_request_order(monkeypatch, requests):
    # each request alone, on empty tables of factors and cores, then all in
    # one process forward and reversed, on tables that start empty
    alone = []
    for argv in requests:
        monkeypatch.setattr(dsl, "_factors", HeldTable())
        monkeypatch.setattr(graphs, "_cores", HeldTable())
        alone.append(run(argv))
    monkeypatch.setattr(dsl, "_factors", HeldTable())
    monkeypatch.setattr(graphs, "_cores", HeldTable())
    order = list(range(len(requests)))
    for label, seq in (("forward", order), ("reversed", order[::-1])):
        for i in seq:
            assert run(requests[i]) == alone[i], f"{label}: {requests[i]}"
    assert graphs._cores, "no core was held"


def test_a_cut_short_clique_search_is_never_shared():
    first, second = (build_graph(ring_of(expr)) for expr in ("AN x Z3", "AN x Z5"))
    with pytest.raises(BudgetError):
        max_clique(first, budget=0)
    assert second.core().solved is first.core().solved
    assert "clique" not in first.core().solved
    # the second ring's spent budget is not answered from the cut search
    with pytest.raises(BudgetError):
        best_clique_split(second, budget=0)
    with pytest.raises(BudgetError):
        chromatic_number(second, budget=0)
    # a finished search is shared: the first ring then answers with none
    omega = max_clique(second).size
    assert max_clique(first, budget=0).size == omega


def test_a_min_s_interval_is_never_shared():
    # chi is known, the floor search is not: budget 0 gives an interval,
    # kept nowhere, and the second ring of the same core gets one too
    first, second = (build_graph(ring_of(expr)) for expr in ("AN x Z3 x Z4", "AN x Z2 x Z4"))
    assert second.core().solved is first.core().solved
    chromatic_number(first)
    _, sz = min_s_optimal_coloring(first, budget=0)
    assert not sz.exact
    assert "min_s" not in first.solved and "min_s" not in first.core().solved
    _, sz = min_s_optimal_coloring(second, budget=0)
    assert not sz.exact and "min_s" not in second.solved
    # an exact answer is shared, lifted to each graph
    exact = min_s_optimal_coloring(second)[1]
    assert exact.exact and min_s_optimal_coloring(first, budget=0)[1] == exact


def plain(n: int, tag: int) -> SimpleNamespace:
    """A graph-like of n vertices with a key of its own."""
    return SimpleNamespace(n=n, adj=[tag] * n, sq0_bits=1)


def test_the_table_is_bounded_and_evicts_the_least_recently_used(empty_core_table):
    table = empty_core_table

    def held():
        assert table.total == sum(key[0] for key in table) <= DEFAULT_SIZE_CAP
        return [id(memo) for memo in table.values()]

    a, b = held_memo(plain(2000, 1)), held_memo(plain(2000, 2))
    assert held() == [id(a), id(b)]
    assert held_memo(plain(2000, 1)) is a  # used again: now the most recent
    assert held() == [id(b), id(a)]
    c = held_memo(plain(100, 3))  # 4100 vertices: b goes
    assert held() == [id(a), id(c)]
    # a core above the cap is never held
    assert held_memo(plain(DEFAULT_SIZE_CAP + 1, 4)) == {} and held() == [id(a), id(c)]
    # real cores hold to the bound too
    for expr in ("AN x Z3", "Z64 x Z64", "AN x Z8 x Z2", "Z16 x Z16 x Z16", "AN x Z12"):
        max_clique(build_graph(ring_of(expr)))
        held()


def test_an_evicted_memo_is_freed(empty_core_table):
    # the memo holds no graph or ring: once evicted and its core dropped,
    # it is freed without the cycle collector
    g = BeckGraph(make_product([make_zmod(4), make_zmod(9)]))
    max_clique(g)
    search = weakref.ref(g.core().solved["clique"])
    gc.disable()
    try:
        del g
        assert search() is not None  # held by the table
        held_memo(plain(DEFAULT_SIZE_CAP, 5))  # every other core goes
        assert search() is None, "the evicted memo outlived its eviction"
    finally:
        gc.enable()


def test_held_table_keeps_its_total_as_values_come_and_go():
    # against a model that re-sums and evicts from a plain list
    rng = random.Random(7)
    table, model = HeldTable(cap=50), []
    for _ in range(2000):
        key = rng.randrange(12)
        if rng.random() < 0.2:
            table.drop(key)
            model = [(k, s) for k, s in model if k != key]
        else:
            size = rng.randrange(1, 60)
            table.hold(key, str(key), size)
            model = [(k, s) for k, s in model if k != key]
            if size <= 50:
                model.append((key, size))
                while sum(s for _, s in model) > 50:
                    model.pop(0)
        assert list(table) == [k for k, _ in model] and table.total == sum(s for _, s in model)
    table.clear()
    assert table.total == 0 and not table


def test_both_tables_are_held_tables():
    assert isinstance(dsl._factors, HeldTable) and isinstance(graphs._cores, HeldTable)
    assert dsl._factors.cap == graphs._cores.cap == DEFAULT_SIZE_CAP
