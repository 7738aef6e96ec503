"""Exact solvers against brute-force oracles and frozen expected values."""

import pytest

from beckring import (
    BudgetError,
    Coloring,
    ContractError,
    best_clique_split,
    build_graph,
    chromatic_number,
    make_anderson_naseer,
    make_product,
    make_zmod,
    max_clique,
    min_s_optimal_coloring,
    ring_of,
    s_of,
    verify_clique,
    verify_coloring,
)
from beckring.catalog import CATALOG_EXPRS, catalog_rings
from beckring.oracle import (
    enumerate_maximum_cliques,
    exhaustive_chromatic_number,
    exhaustive_max_clique,
    max_b_over_maximum_cliques,
)
from beckring.solvers import _CliqueSearch, _Deadline


def graph(expr):
    return build_graph(ring_of(expr))


# -- maximum clique ---------------------------------------------------------


def test_z12_omega_is_3():
    g = graph("Z12")
    oracle_size, _ = exhaustive_max_clique(g)
    assert oracle_size == 3
    clique = max_clique(g)
    assert clique.size == 3
    assert verify_clique(g, clique.vertices)
    assert all(g.ring.mul(u, v) == 0 for u in clique.vertices for v in clique.vertices if u != v)


def test_z2_omega():
    clique = max_clique(graph("Z2"))
    assert clique.vertices == (0, 1)


def test_an_omega_is_5():
    assert max_clique(graph("AN")).size == 5


def test_clique_oracle_equivalence_small_graphs():
    for name, ring in catalog_rings().items():
        g = build_graph(ring)
        if g.n <= 16:
            assert max_clique(g).size == exhaustive_max_clique(g)[0], name


def test_max_clique_deterministic():
    g = graph("Z36")
    assert max_clique(g) == max_clique(g)
    assert best_clique_split(g) == best_clique_split(g)


def test_field_core_witness():
    # Z29 reduces to a single-vertex core; the witness is restored as {0, 1}
    g = graph("Z29")
    clique = max_clique(g)
    assert clique.vertices == (0, 1)
    chi, col = chromatic_number(g)
    assert chi == 2
    assert verify_coloring(g, col)


def test_zero_ring_solvers():
    g = graph("Z1")
    assert max_clique(g).vertices == (0,)
    chi, col = chromatic_number(g)
    assert chi == 1 and col.k == 1
    split = best_clique_split(g)
    assert split.b_part == (0,) and split.c_part == ()


# the fixed requests of bench/workloads.py's solve-hard workload
SOLVE_HARD_FIXED = (
    "AN x AN", "AN x Z8 x Z2", "AN x Z2", "AN x Z3", "AN x Z4", "AN x Z5", "AN x Z7", "AN x Z8",
    "AN x Z2 x Z2", "AN x Z2 x Z3", "AN x Z2 x Z2 x Z2", "AN x Z2[t]/(t^2)", "AN x Z2[t]/(t^2+t+1)",
)


@pytest.mark.parametrize("expr", CATALOG_EXPRS + SOLVE_HARD_FIXED)
def test_no_later_greedy_start_beats_the_first_on_these_cores(expr):
    # the clique search seeds its bound with one greedy clique, from the
    # vertex of the highest degree: on these cores none of the next seven
    # starts would have found a larger one
    core = graph(expr).core()
    search = _CliqueSearch(core.n, core.adj, _Deadline(float("inf")))
    search._setup()
    assert all(len(search._greedy_from(s)) <= len(search.best) for s in range(min(core.n, 8)))


# -- chromatic number -------------------------------------------------------


def test_z4_chi_2_with_dominating_singleton():
    g = graph("Z4")
    chi, col = chromatic_number(g)
    assert chi == 2
    classes = col.classes()
    assert [0] in classes
    assert sorted(sum(classes, [])) == [0, 1, 2, 3]


def test_an_chi_is_6():
    assert chromatic_number(graph("AN"))[0] == 6


def test_an_squared_has_chi_20_two_above_omega():
    # k = 18 and k = 19 are refuted by cliques whose domains hold too few colors
    g = graph("AN x AN")
    chi, coloring = chromatic_number(g, budget=10)
    assert chi == 20
    assert verify_coloring(g, coloring)
    assert max_clique(g, budget=10).size == 18


def test_an_z8_z2_chi_within_a_short_budget():
    g = graph("AN x Z8 x Z2")
    chi, coloring = chromatic_number(g, budget=3)
    assert chi == 12
    assert verify_coloring(g, coloring)


def test_z36_chi_equals_6():
    assert chromatic_number(graph("Z36"))[0] == 6


def test_chromatic_oracle_equivalence_small_graphs():
    for name, ring in catalog_rings().items():
        g = build_graph(ring)
        if g.n <= 10:
            assert chromatic_number(g)[0] == exhaustive_chromatic_number(g), name


def test_coloring_witness_is_proper_everywhere():
    for name, ring in catalog_rings().items():
        g = build_graph(ring)
        chi, col = chromatic_number(g)
        assert verify_coloring(g, col), name
        assert col.k == chi


# -- clique split -----------------------------------------------------------


def test_z2_split():
    split = best_clique_split(graph("Z2"))
    assert split.b_part == (0,)
    assert split.c_part == (1,)


def test_z4_split_unique_maximum_clique():
    split = best_clique_split(graph("Z4"))
    assert split.clique.vertices == (0, 2)
    assert split.b_part == (0, 2)
    assert split.c_part == ()


def test_z8_split_matches_enumeration():
    g = graph("Z8")
    split = best_clique_split(g)
    assert split.clique.size == 3
    assert split.b_size == 2 and split.c_size == 1
    assert split.b_size == max_b_over_maximum_cliques(g)


def test_split_b_maximal_over_enumeration_small():
    for name, ring in catalog_rings().items():
        g = build_graph(ring)
        if g.n <= 16:
            split = best_clique_split(g)
            cliques = enumerate_maximum_cliques(g)
            assert split.clique.size == len(cliques[0]), name
            assert split.b_size == max_b_over_maximum_cliques(g), name


def test_zero_always_in_b_part():
    for ring in catalog_rings().values():
        split = best_clique_split(build_graph(ring))
        assert 0 in split.b_part


# -- s statistic ------------------------------------------------------------


def test_s_of_z2():
    g = graph("Z2")
    chi, col = chromatic_number(g)
    assert s_of(g, col).s == 1


def test_s_of_z4():
    g = graph("Z4")
    _, col = chromatic_number(g)
    assert s_of(g, col).s == 2  # 0 and 2 land in distinct classes


def test_s_of_handmade_z8_coloring():
    g = graph("Z8")
    col = Coloring((0, 2, 2, 2, 1, 2, 2, 2), 3)  # {0}, {4}, rest
    assert verify_coloring(g, col)
    assert s_of(g, col).s == 2  # square-zero set is {0, 4}


def test_s_of_rejects_improper():
    g = graph("Z4")
    with pytest.raises(ContractError):
        s_of(g, Coloring((0, 0, 0, 0), 1))  # 0 adjacent to everything


@pytest.mark.parametrize(
    "expr", ["Z1", "Z2", "Z4", "Z7", "Z29", "Z2[t]/(t^2)", "Z2 x Z13", "AN x Z2"]
)
def test_core_preserves_omega_and_chi_exactly(expr):
    g = graph(expr)
    c = g.core()
    assert max_clique(c).size == max_clique(g).size
    assert chromatic_number(c)[0] == chromatic_number(g)[0]


def test_min_s_z4():
    g = graph("Z4")
    col, sz = min_s_optimal_coloring(g)
    assert sz.s == 2 and sz.exact
    assert verify_coloring(g, col)


def test_min_s_z9_forced_to_3():
    g = graph("Z9")
    col, sz = min_s_optimal_coloring(g)
    assert col.k == 3
    assert sz.s == 3 and sz.exact  # {0, 3, 6} is a square-zero triangle


@pytest.mark.parametrize("expr", ["Z6", "Z30", "Z2[t]/(t^2+t+1)"])
def test_min_s_reduced_ring_is_1(expr):
    g = graph(expr)
    _, sz = min_s_optimal_coloring(g)
    assert sz.s == 1


@pytest.mark.parametrize("expr, s", [("AN x Z2", 5), ("Z144", 12)])
def test_min_s_exact_on_cores_above_20_vertices(expr, s):
    # 23 and 21 core vertices; the restricted search refutes s - 1 on
    # AN x Z2, and on Z144 the square-zero clique floor meets the
    # chi-coloring's s
    g = graph(expr)
    assert g.core().n > 20
    col, sz = min_s_optimal_coloring(g)
    assert (sz.s, sz.lower) == (s, s) and sz.exact
    assert verify_coloring(g, col)
    assert s_of(g, col).s == sz.s


def test_min_s_cut_short_returns_the_interval_proved():
    # AN x AN: chi = 20 is proved well inside the budget, the square-zero
    # clique floor is 16 and the chi-coloring has s = 18; the search of
    # s <= 16 or s <= 17 does not end within it
    import time

    g = graph("AN x AN")
    t0 = time.monotonic()
    col, sz = min_s_optimal_coloring(g, budget=0.5)
    assert time.monotonic() - t0 < 1.5
    assert 16 <= sz.lower < sz.s == 18 and not sz.exact
    assert verify_coloring(g, col) and col.k == 20
    assert s_of(g, col).s == sz.s


# -- budgets ----------------------------------------------------------------


def test_budget_error_carries_lower_bound():
    g = graph("Z60")
    with pytest.raises(BudgetError) as exc:
        max_clique(g, budget=0)
    assert exc.value.lower >= 1
    assert exc.value.witness
    assert verify_clique(g, exc.value.witness)


@pytest.mark.isolated
def test_budget_error_chromatic_interval():
    # a new AN ring: the graph of the held one may already be solved
    g = build_graph(make_anderson_naseer(0))
    with pytest.raises(BudgetError) as exc:
        chromatic_number(g, budget=0)
    assert exc.value.lower <= 6 <= exc.value.upper


@pytest.mark.isolated
def test_min_s_budget_error_carries_bounds():
    # expiry before chi is known reaches the caller as a BudgetError with
    # certified bounds on s
    g = graph("Z8")
    with pytest.raises(BudgetError) as exc:
        min_s_optimal_coloring(g, budget=0)
    _, sz = min_s_optimal_coloring(g, budget=10)
    assert exc.value.lower <= sz.s <= exc.value.upper


def test_min_s_honours_the_budget():
    # one deadline covers the chromatic solve and the searches for s on a
    # 729-vertex core: either a BudgetError or a coloring with its interval
    import time

    g = graph("Z4 x Z4 x Z4 x Z4 x Z4 x Z4")
    t0 = time.monotonic()
    try:
        col, sz = min_s_optimal_coloring(g, budget=0.05)
        assert verify_coloring(g, col) and sz.lower <= sz.s
    except BudgetError:
        pass
    assert time.monotonic() - t0 < 0.3


@pytest.mark.parametrize("solve", [chromatic_number, min_s_optimal_coloring, max_clique])
def test_search_set_up_honours_the_budget(solve):
    # DSATUR and the clique search's set-up read the deadline too: Z2^12 is
    # its own core, 4096 vertices
    import time

    g = graph(" x ".join(["Z2"] * 12))
    t0 = time.monotonic()
    try:
        solve(g, budget=0.05)
    except BudgetError:
        pass
    assert time.monotonic() - t0 < 0.3


def test_hall_scan_honours_the_budget():
    # AN^3: omega = 67 on a 1387-vertex core. Within 1 s chi's searches
    # refute k = 67 and stop inside k = 68. In a min-s decision (square-zero
    # vertices held below the 64 colors of the floor, of k = 70) each Hall
    # check grows a clique from every vertex the last assignment shrank, a
    # few ms each on this core: it ticks the deadline once per seed, so
    # expiry cuts it before as many ticks as there are free vertices
    import time

    from beckring.solvers import _Deadline, _KColorSearch, _OutOfTime, _sq0_clique_floor

    g = build_graph(ring_of("AN x AN x AN", size_cap=40000))
    t0 = time.monotonic()
    with pytest.raises(BudgetError) as exc:
        chromatic_number(g, budget=1.0)
    assert time.monotonic() - t0 < 2.5
    assert 68 <= exc.value.lower <= exc.value.upper <= 70
    core = g.core()
    floor = _sq0_clique_floor(core, _Deadline(float("inf")))
    assert len(floor) == 64
    deadline = _Deadline(0.2)
    search = _KColorSearch(core.n, core.adj, 70, floor, deadline, core.sq0_bits, len(floor))
    t0 = time.monotonic()
    with pytest.raises(_OutOfTime):
        search.run()
    assert time.monotonic() - t0 < 1.0
    assert deadline.ticks % 64 == 0 and deadline.ticks < core.n - len(floor)


def test_deep_decision_search_restores_the_recursion_limit():
    # k = 1 on 1500 isolated vertices colors one vertex per node, 1500 deep,
    # on the search's own stack: the interpreter's limit stays as it was
    import sys

    from beckring.solvers import _Deadline, _KColorSearch

    limit = sys.getrecursionlimit()
    search = _KColorSearch(1500, [0] * 1500, 1, [], _Deadline(float("inf")))
    assert search.run() == [0] * 1500
    assert sys.getrecursionlimit() == limit


def _frame_depth() -> int:
    import sys

    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_searches_leave_the_recursion_limit_alone(monkeypatch):
    # with about 100 frames to spare, a clique search 1100 nodes deep, a
    # decision search 1500 deep, chi of AN x AN and min-s of AN x Z2 all
    # run; none may change the recursion limit
    import sys

    from beckring.solvers import _CliqueSearch, _Deadline, _KColorSearch

    def refuse(limit):
        raise AssertionError(f"a search set the recursion limit to {limit}")

    complete = [((1 << 1100) - 1) ^ (1 << v) for v in range(1100)]
    an_an, an_z2 = graph("AN x AN"), graph("AN x Z2")
    limit, set_limit = sys.getrecursionlimit(), sys.setrecursionlimit
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    set_limit(_frame_depth() + 100)
    try:
        assert _CliqueSearch(1100, complete, _Deadline(float("inf"))).run() == list(range(1100))
        assert _KColorSearch(1500, [0] * 1500, 1, [], _Deadline(float("inf"))).run() == [0] * 1500
        assert chromatic_number(an_an)[0] == 20
        coloring, sz = min_s_optimal_coloring(an_z2)
    finally:
        set_limit(limit)
    assert coloring.k == 7 and sz == (5, 5)


@pytest.mark.isolated
@pytest.mark.parametrize(
    "expr,clique_ticks,split_ticks,decisions",
    [
        ("AN", 3, 5, {5: (2, False)}),
        ("AN x AN", 13, 22, {18: (4, False), 19: (222, False)}),
        ("AN x Z8 x Z2", 3, 6, {11: (2, False), 12: (219, True)}),
        ("AN x Z12", 3, 6, {10: (3, False), 11: (160, True)}),
        ("Z8 x Z64 x Z8", 1, 1, {34: (95, True), 35: (95, True)}),
    ],
)
def test_search_trees_are_pinned(expr, clique_ticks, split_ticks, decisions):
    # one tick per node, the root included, plus one per Hall seed in the
    # k-coloring search: the counts pin each search tree node for node. The
    # clique search runs without square-zero marks, as for the floor of
    # min-s, and with them, as for omega and the split, where its result is
    # the same clique
    from beckring.solvers import _CliqueSearch, _Deadline, _KColorSearch

    core = graph(expr).core()
    deadline = _Deadline(float("inf"))
    plain = _CliqueSearch(core.n, core.adj, deadline).run()
    assert deadline.ticks == clique_ticks
    deadline = _Deadline(float("inf"))
    clique = _CliqueSearch(core.n, core.adj, deadline, core.sq0_bits).run()
    assert deadline.ticks == split_ticks
    assert clique == plain
    for k, (ticks, found) in decisions.items():
        deadline = _Deadline(float("inf"))
        coloring = _KColorSearch(core.n, core.adj, k, clique, deadline).run()
        assert (deadline.ticks, coloring is not None) == (ticks, found)


@pytest.mark.isolated
@pytest.mark.parametrize(
    "expr,chi_first,clique_first",
    [
        ("AN", [(20, 3), (0, 0)], [(5, 2), (15, 1)]),
        ("AN x Z12", [(75, 4), (0, 0)], [(6, 2), (69, 2)]),
        ("Z16 x Z16 x Z16", [(163, 4), (0, 0)], [(1, 2), (162, 2)]),
        (" x ".join(["Z2"] * 12), [(4097, 81), (0, 0)], [(1, 17), (4096, 64)]),
    ],
)
def test_deadline_reads_are_pinned(monkeypatch, expr, chi_first, clique_first):
    # (tick, check) calls of chromatic_number then max_clique on a fresh
    # graph, and of the two the other way round on another, each under an
    # empty table of cores: DSATUR ticks
    # once per pick, the clique search once per node, and a check reads the
    # clock at once, so expiry is found at the same points of the same work
    # whichever solve ranks the graph's vertices first. A tick's own read
    # every 64 ticks counts as a check
    from beckring import graphs
    from beckring.graphs import BeckGraph, HeldTable

    counts = [0, 0]
    tick, check = _Deadline.tick, _Deadline.check

    def counting_tick(self):
        counts[0] += 1
        tick(self)

    def counting_check(self):
        counts[1] += 1
        check(self)

    monkeypatch.setattr(_Deadline, "tick", counting_tick)
    monkeypatch.setattr(_Deadline, "check", counting_check)
    ring = ring_of(expr)
    for solves, want in (((chromatic_number, max_clique), chi_first), ((max_clique, chromatic_number), clique_first)):
        monkeypatch.setattr(graphs, "_cores", HeldTable())
        g, got = BeckGraph(ring), []
        for solve in solves:
            counts[:] = [0, 0]
            solve(g)
            got.append(tuple(counts))
        assert got == want


def test_malformed_budget_raises():
    from beckring.errors import PreconditionError

    for budget in (float("nan"), "abc", "nan"):
        with pytest.raises(PreconditionError):
            max_clique(graph("Z12"), budget=budget)
    assert max_clique(graph("Z12"), budget=float("inf")).size == 3


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("BECKRING_BUDGET", "0")
    with pytest.raises(BudgetError):
        max_clique(graph("Z60"))
    monkeypatch.delenv("BECKRING_BUDGET")
    assert max_clique(graph("Z60")).size == 4


# -- memoised graphs and solves ------------------------------------------------


def test_graph_and_core_are_built_once():
    r = ring_of("Z4 x Z16")
    g = build_graph(r)
    assert build_graph(r) is g
    assert g.core() is g.core()


def test_budget_error_is_not_memoised():
    g = graph("AN x AN")
    with pytest.raises(BudgetError):
        max_clique(g, budget=0)
    assert max_clique(g, budget=10).size == 18


def test_memo_goes_with_its_graph(empty_core_table):
    # the ring holds its graph weakly: once dropped, and its core's memo
    # evicted from the table of cores, a new graph searches again and
    # honors its own budget
    r = ring_of("AN x Z4")
    g = build_graph(r)
    assert max_clique(g).size == 9
    assert max_clique(g, budget=0).size == 9
    del g
    empty_core_table.clear()
    with pytest.raises(BudgetError):
        max_clique(build_graph(r), budget=0)


@pytest.mark.isolated
def test_each_work_graph_is_searched_once(monkeypatch):
    from beckring import solvers

    searched = []
    init = solvers._CliqueSearch.__init__

    def counting_init(self, n, adj, deadline, sq0_bits=0):
        searched.append((n, tuple(adj)))
        init(self, n, adj, deadline, sq0_bits)

    monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_init)
    # the clique search and DSATUR read one ranking (order, radj) of the core
    rankings, ranking = [], solvers._ranking
    monkeypatch.setattr(solvers, "_ranking", lambda *args: rankings.append(ranking(*args)) or rankings[-1])
    g = graph("Z8 x Z9")
    first = (max_clique(g), best_clique_split(g), chromatic_number(g))
    assert len(searched) == 1  # the core, for omega, the split and chi
    assert (max_clique(g), best_clique_split(g), chromatic_number(g)) == first
    assert len(searched) == 1
    assert len(rankings) == 2 and rankings[0] is rankings[1]
    search = g.core().solved["clique"]
    assert search.order is rankings[0][0] and search.radj is rankings[0][1]


def test_chi_coloring_is_lifted_once(monkeypatch):
    from beckring import solvers

    lifts = []
    lift = solvers._lift
    monkeypatch.setattr(solvers, "_lift", lambda *args: lifts.append(args) or lift(*args))
    g = build_graph(make_product([make_zmod(8), make_zmod(9)]))
    first = chromatic_number(g)
    assert chromatic_number(g) is first
    assert len(lifts) == 1


def test_chi_cut_short_is_not_memoised():
    g = build_graph(make_product([make_zmod(8), make_zmod(9)]))
    with pytest.raises(BudgetError):
        chromatic_number(g, budget=0)
    k, coloring = chromatic_number(g, budget=10)
    assert k == coloring.k and verify_coloring(g, coloring)
    assert chromatic_number(g, budget=0) == (k, coloring)


# -- verification helpers ---------------------------------------------------


def test_verify_coloring_rejects_wrong_shapes():
    g = graph("Z4")
    assert not verify_coloring(g, Coloring((0, 1, 1), 2))  # wrong length
    assert not verify_coloring(g, Coloring((0, 1, 1, 3), 4))  # empty class 2
    assert not verify_coloring(g, Coloring((0, 0, 1, 1), 2))  # improper edge 0-1


def test_verify_clique_rejects_non_cliques():
    g = graph("Z12")
    assert verify_clique(g, (0, 4, 6))
    assert not verify_clique(g, (0, 4, 5))
    assert not verify_clique(g, (4, 4))


def test_verify_clique_rejects_ids_outside_the_graph():
    # a negative id must not wrap around to a row from the end, and an id
    # past the last vertex is no vertex, not an IndexError
    g = graph("Z8")
    assert verify_clique(g, [0, 4]) and verify_clique(g, [])
    assert not verify_clique(g, [-1, 0])
    assert not verify_clique(g, [-8, 4])
    assert not verify_clique(g, [8, 0])
    assert not verify_clique(g, [0, 4, 0])


def test_twin_fusion_agrees_with_unfused_decision_search():
    # the production path runs the k-coloring decision search on the twin
    # quotient; cross-check both directions on the whole graph, where the
    # unfused search is still cheap
    from beckring.solvers import _CliqueSearch, _Deadline, _KColorSearch

    g = build_graph(ring_of("AN x Z2"))
    chi, col = chromatic_number(g)
    assert chi == 7
    clique = _CliqueSearch(g.n, g.adj, _Deadline(float("inf"))).run()
    assert _KColorSearch(g.n, g.adj, 6, clique, _Deadline(float("inf"))).run() is None
    assert _KColorSearch(g.n, g.adj, 7, clique, _Deadline(float("inf"))).run() is not None


def test_hard_products_complete_quickly():
    import time

    t0 = time.monotonic()
    assert chromatic_number(build_graph(ring_of("AN x Z8")))[0] == 11
    assert chromatic_number(build_graph(ring_of("AN x Z4 x Z2")))[0] == 11
    assert time.monotonic() - t0 < 30.0
