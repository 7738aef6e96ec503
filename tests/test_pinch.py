"""The pinch: a product's omega and chi from its factors, with no search of
the product, where the chromatic sandwich closes.

`solvers.pinch` keeps a clique and a coloring of one graph as its answers
only when both verify and their sizes meet; `theorems.pinch_product` hands
it the product formula's witness and the product coloring of the factors'
colorings exactly when every factor has chi_i = omega_i and least
s_i = |B_i|. A pinched `analyze` gives the values and checks of a direct
search of the product.
"""

import math
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beckring import BeckGraph, build_graph, graphs, report, ring_of, theorems
from beckring.graphs import HeldTable
from beckring.solvers import (
    Coloring,
    SZero,
    best_clique_split,
    chromatic_number,
    class_sq0_flags,
    max_clique,
    min_s_optimal_coloring,
    pinch,
    verify_clique,
    verify_coloring,
)
from beckring.theorems import chi_bounds, omega_product_formula, pinch_product

ATOMS = (
    "Z1", "Z2", "Z3", "Z4", "Z6", "Z8", "Z9", "Z12", "Z16", "Z25",
    "Z2[t]/(t^2)", "Z2[t]/(t^2+t+1)", "Z2[t]/(t^3)", "Z3[t]/(t^2)", "Z4[t]/(t^2)", "Z4[t]/(t^2+2)",
)
PRODUCT_CAP = 1024  # products of the atoms above
AN_PRODUCT_CAP = 256  # products with AN or AN2, whose direct min-s searches cost most
ANSWERS = {"omega", "coloring", "split", "min_s"}  # what a pinch keeps on a graph


@st.composite
def products(draw):
    """A product of 1 to 3 atoms, repeats and Z1 allowed, and one AN or AN2
    factor in two of three draws, anywhere, held to the caps by dropping
    the largest atoms; padded with Z1 to two factors."""
    names = draw(st.lists(st.sampled_from(ATOMS), min_size=1, max_size=3))
    an = draw(st.sampled_from((None, "AN", "AN2")))
    cap = PRODUCT_CAP if an is None else AN_PRODUCT_CAP // 32
    while math.prod(ring_of(name).size for name in names) > cap:
        names.remove(max(names, key=lambda name: ring_of(name).size))
    if an is not None:
        names.insert(draw(st.integers(0, len(names))), an)
    return " x ".join(names + ["Z1"] * (2 - len(names)))


def summary(rep: dict):
    """What a pinched analysis must share with a direct search."""
    return (rep["omega"]["value"], rep["chi"]["value"], len(rep["split"]["B"]), len(rep["split"]["C"]),
            rep["s"], rep["checks"])


def closes(factors) -> bool:
    """chi_i = omega_i and least s_i = |B_i| on every factor, each solved on
    a graph of its own."""
    fresh = [BeckGraph(f) for f in factors]
    return all(
        chromatic_number(g)[0] == max_clique(g).size
        and min_s_optimal_coloring(g)[1].s == best_clique_split(g).b_size
        for g in fresh
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(products())
def test_pinched_analyze_matches_a_direct_search(expr):
    for s_mode in ("any_optimal", "min_s"):
        got = report.analyze(expr, s_mode=s_mode)
        with mock.patch.object(report, "pinch_product", return_value=False):
            want = report.analyze(expr, s_mode=s_mode)
        assert summary(got) == summary(want)
        # the reported witness and classes hold on a graph the analysis never saw
        ring = ring_of(expr)
        g, index = BeckGraph(ring), {e: i for i, e in enumerate(ring.element_strs)}
        assert verify_clique(g, [index[e] for e in got["omega"]["witness"]])
        class_of = [0] * ring.size
        for c, members in enumerate(got["chi"]["classes"]):
            for e in members:
                class_of[index[e]] = c
        coloring = Coloring(tuple(class_of), got["chi"]["value"])
        assert verify_coloring(g, coloring) and sum(class_sq0_flags(g, coloring)) == got["s"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(products())
def test_the_pinch_fires_exactly_where_the_sandwich_closes(expr):
    ring = ring_of(expr)
    gp = build_graph(ring)
    pred = omega_product_formula(ring.factors)
    bounds = chi_bounds(ring.factors)
    fired = pinch_product(gp, pred, bounds)
    assert fired == closes(ring.factors)
    assert gp.solved.keys() & ANSWERS == (ANSWERS if fired else set())
    if fired:
        # the answers are the witness and the product coloring, each verified
        # on the product's graph, and the product's core is never searched:
        # built first here, under an empty table of cores (a factor's core
        # may share its key), it has no search in its memo
        coloring = chromatic_number(gp)[1]
        assert max_clique(gp) == pred.witness and coloring.k == pred.predicted == bounds.upper
        assert {(verify_clique, pred.witness.vertices), (verify_coloring, coloring)} <= gp.solved["verified"]
        assert best_clique_split(gp).b_size == min_s_optimal_coloring(gp)[1].s == math.prod(
            split.b_size for split in pred.splits
        )
        with mock.patch.object(graphs, "_cores", HeldTable()):
            assert not gp.core().solved.keys() & {"clique", "chromatic", "ranking"}


def test_a_factor_whose_least_s_exceeds_its_b_keeps_the_sandwich_open():
    # every factor of Z4 x Z9 has chi = omega and least s = |B|; reported one
    # above for Z9, the upper bound passes omega and nothing is pinned
    ring = ring_of("Z4 x Z9")
    gp = build_graph(ring)
    pred, bounds = omega_product_formula(ring.factors), chi_bounds(ring.factors)
    z9 = build_graph(ring.factors[1])
    real = theorems.min_s_optimal_coloring

    def one_above(g, budget=None):
        coloring, sz = real(g, budget)
        return (coloring, SZero(sz.s + 1, sz.lower + 1)) if g is z9 else (coloring, sz)

    with mock.patch.object(theorems, "min_s_optimal_coloring", one_above):
        assert not pinch_product(gp, pred, bounds)
    assert not gp.solved.keys() & ANSWERS
    assert pinch_product(gp, pred, bounds)


def test_an_factor_is_read_before_any_min_s():
    # chi(AN) = 6 > omega(AN) = 5: no factor's min-s is sought
    ring = ring_of("Z4 x AN")
    pred, bounds = omega_product_formula(ring.factors), chi_bounds(ring.factors)
    with mock.patch.object(theorems, "min_s_optimal_coloring", side_effect=AssertionError("min-s sought")):
        assert not pinch_product(build_graph(ring), pred, bounds)


def _pinchable(expr):
    """A graph with a maximum clique and a chi-coloring that meet, neither
    kept on it."""
    ring = ring_of(expr)
    pred, bounds = omega_product_formula(ring.factors), chi_bounds(ring.factors, "min_s")
    coloring = theorems.product_coloring(ring, [f.coloring for f in bounds.factors])
    return BeckGraph(ring), list(pred.witness.vertices), coloring


def _improper(clique, coloring):
    """`coloring` with the second clique member moved into the first's class."""
    class_of = list(coloring.class_of)
    class_of[clique[1]] = class_of[clique[0]]
    return Coloring(tuple(class_of), coloring.k)


def _one_more_class(g, coloring):
    """`coloring`, proper, with one vertex moved to a class of its own."""
    v = next(v for v in range(g.n) if coloring.classes()[coloring.class_of[v]] != [v])
    class_of = list(coloring.class_of)
    class_of[v] = coloring.k
    return Coloring(tuple(class_of), coloring.k + 1)


@pytest.mark.parametrize("mutation", ["non-clique", "improper coloring", "clique one short", "one class more"])
def test_a_broken_certificate_is_never_kept(mutation):
    g, clique, coloring = _pinchable("Z4 x Z8")
    if mutation == "non-clique":
        rest = clique[:-1]
        clique[-1] = next(v for v in range(g.n) if v not in clique and not all(g.has_edge(v, u) for u in rest))
    elif mutation == "improper coloring":
        coloring = _improper(clique, coloring)
    elif mutation == "clique one short":
        clique.pop()
    else:
        coloring = _one_more_class(g, coloring)
        assert verify_coloring(g, coloring)
    assert not pinch(g, clique, coloring)
    assert not g.solved.keys() & ANSWERS
    # the searches answer as before
    assert max_clique(g).size == chromatic_number(g)[0] == 5


def test_a_certificate_that_meets_is_kept():
    g, clique, coloring = _pinchable("Z4 x Z8")
    assert pinch(g, clique, coloring)
    assert max_clique(g).vertices == tuple(sorted(clique)) and chromatic_number(g) == (5, coloring)
    assert best_clique_split(g).b_size == min_s_optimal_coloring(g)[1].s == 4
    assert "clique" not in g.core().solved


def test_a_clique_with_fewer_square_zero_members_pins_omega_and_chi_only():
    # in Z12, {0, 3, 4} is a maximum clique with one square-zero member;
    # a chi-coloring has s = 2, as 0 and 6 square to zero and are adjacent
    g = BeckGraph(ring_of("Z12"))
    coloring = chromatic_number(BeckGraph(ring_of("Z12")))[1]
    assert pinch(g, [0, 3, 4], coloring)
    assert g.solved.keys() & ANSWERS == {"omega", "coloring"}
    assert best_clique_split(g).b_size == 2
