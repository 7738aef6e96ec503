"""Product formulas, bounds, constructions, and the counterexample family."""

import gc

import pytest

from beckring import (
    ContractError,
    InvalidModulusError,
    PreconditionError,
    build_graph,
    check_an_condition,
    chi_bounds,
    chromatic_number,
    counterexample_family,
    make_product,
    make_zmod,
    max_clique,
    nilradical_bound,
    omega_product_formula,
    product_coloring,
    reduced_theorem_check,
    ring_of,
    verify_clique,
    verify_coloring,
    zn_formula,
)
from beckring.oracle import exhaustive_max_clique
from beckring.theorems import an_condition_for


def rings_of(*texts):
    return [ring_of(t) for t in texts]


# -- clique number of products ----------------------------------------------


def test_omega_formula_z2_z2():
    pred = omega_product_formula(rings_of("Z2", "Z2"))
    assert pred.predicted == 3
    g = build_graph(make_product(rings_of("Z2", "Z2")))
    assert exhaustive_max_clique(g)[0] == 3
    assert verify_clique(g, pred.witness.vertices)
    assert pred.witness.vertices == (0, 1, 2)  # {0} x {0} box plus both axes


def test_omega_formula_z4_z4():
    factors = rings_of("Z4", "Z4")
    pred = omega_product_formula(factors)
    assert pred.predicted == 4
    assert pred.per_factor == [(2, 2, 0), (2, 2, 0)]
    product = make_product(factors)
    box = sorted(product.encode((a, b)) for a in (0, 2) for b in (0, 2))
    assert list(pred.witness.vertices) == box
    assert max_clique(build_graph(product)).size == 4


def test_omega_formula_z8_z8():
    factors = rings_of("Z8", "Z8")
    pred = omega_product_formula(factors)
    assert pred.predicted == 2 * 2 + 1 + 1 == 6
    assert max_clique(build_graph(make_product(factors))).size == 6


def test_omega_formula_single_factor_degenerates_to_omega():
    pred = omega_product_formula(rings_of("Z12"))
    assert pred.predicted == 3


def test_omega_formula_witness_is_a_clique_in_the_product():
    factors = rings_of("Z8", "Z9", "Z2")
    pred = omega_product_formula(factors)
    g = build_graph(make_product(factors))
    assert verify_clique(g, pred.witness.vertices)
    assert len(pred.witness.vertices) == pred.predicted
    assert pred.predicted == max_clique(g).size


# -- chromatic bounds ---------------------------------------------------------


def test_chi_bounds_z4_z4():
    bounds = chi_bounds(rings_of("Z4", "Z4"))
    assert bounds.lower == 3
    assert bounds.upper == 4
    exact = chromatic_number(build_graph(make_product(rings_of("Z4", "Z4"))))[0]
    assert exact == 4
    assert bounds.lower <= exact <= bounds.upper


def test_chi_bounds_all_reduced_collapse():
    bounds = chi_bounds(rings_of("Z2", "Z2", "Z2"))
    assert bounds.lower == bounds.upper == 4
    exact = chromatic_number(build_graph(make_product(rings_of("Z2", "Z2", "Z2"))))[0]
    assert exact == 4


def test_chi_bounds_z8_z8():
    bounds = chi_bounds(rings_of("Z8", "Z8"))
    assert bounds.lower == 5
    assert bounds.upper == 6
    assert chromatic_number(build_graph(make_product(rings_of("Z8", "Z8"))))[0] == 6


def test_chi_bounds_min_s_mode_never_looser():
    factors = rings_of("Z8", "Z9")
    any_mode = chi_bounds(factors, "any_optimal")
    min_mode = chi_bounds(factors, "min_s")
    assert min_mode.lower == any_mode.lower
    assert all(f.s_exact for f in min_mode.factors)
    assert min_mode.upper <= any_mode.upper


def test_chi_bounds_bad_mode():
    with pytest.raises(PreconditionError):
        chi_bounds(rings_of("Z4"), "median")


# -- the explicit product coloring --------------------------------------------


def test_product_coloring_z4_z2():
    r1, r2 = ring_of("Z4"), ring_of("Z2")
    _, c1 = chromatic_number(build_graph(r1))
    _, c2 = chromatic_number(build_graph(r2))
    col = product_coloring(r1, c1, r2, c2)
    assert col.k == 3
    assert verify_coloring(build_graph(make_product([r1, r2])), col)


def test_product_coloring_z2_z2_matches_exact():
    r = ring_of("Z2")
    _, c = chromatic_number(build_graph(r))
    col = product_coloring(r, c, r, c)
    assert col.k == 3
    assert chromatic_number(build_graph(make_product([r, r])))[0] == 3


def test_product_coloring_z9_z9_matches_zn_of_81():
    r = ring_of("Z9")
    _, c = chromatic_number(build_graph(r))
    col = product_coloring(r, c, r, c)
    assert col.k == 9
    assert zn_formula(81).value == 9


def test_product_coloring_rejects_improper_input():
    from beckring import Coloring

    r = ring_of("Z4")
    bad = Coloring((0, 0, 0, 0), 1)
    with pytest.raises(ContractError):
        product_coloring(r, bad, r, bad)


# -- Z_N closed form -----------------------------------------------------------


@pytest.mark.parametrize(
    "n,value",
    [(12, 3), (1, 1), (72, 7), (2, 2), (4, 2), (8, 3), (9, 3), (36, 6), (64, 8), (100, 10)],
)
def test_zn_formula_values(n, value):
    assert zn_formula(n).value == value


def test_zn_formula_factorization():
    res = zn_formula(72)
    assert res.factorization == ((2, 3), (3, 2))


def test_zn_formula_rejects_zero():
    with pytest.raises(InvalidModulusError):
        zn_formula(0)


def test_zn_formula_matches_solver_sample():
    for n in (6, 16, 30, 48):
        g = build_graph(make_zmod(n))
        value = zn_formula(n).value
        assert max_clique(g).size == value
        assert chromatic_number(g)[0] == value


# -- nilpotency-index bound ----------------------------------------------------


def test_nilradical_bound_z8():
    nb = nilradical_bound(rings_of("Z8"))
    assert nb.factors[0].parity == "odd" and nb.factors[0].param == 2
    assert nb.bound == 2 + 1 == 3
    assert nb.omega == 3 and nb.holds


def test_nilradical_bound_z4():
    nb = nilradical_bound(rings_of("Z4"))
    assert nb.factors[0].parity == "even" and nb.factors[0].param == 1
    assert nb.bound == 2
    assert nb.omega == 2 and nb.holds


def test_nilradical_bound_z4_z8():
    factors = rings_of("Z4", "Z8")
    nb = nilradical_bound(factors)
    assert nb.bound == 2 * 2 + 1 == 5
    assert nb.omega >= 5 and nb.holds
    # the product formula pins it exactly; not assumed
    assert omega_product_formula(factors).predicted == 5


def test_nilradical_bound_reduced_factor_contributes_plus_one():
    nb = nilradical_bound(rings_of("Z2"))
    assert nb.factors[0].parity == "odd" and nb.factors[0].power_size == 1
    assert nb.bound == 2  # 1 + r with r = 1


# -- the equality condition -----------------------------------------------------


def test_an_condition_z4():
    res = check_an_condition(ring_of("Z4"), "even", 1)
    assert res.holds and res.membership_ok and res.boundary_ok
    g = build_graph(ring_of("Z4"))
    assert max_clique(g).size == chromatic_number(g)[0] == 2


def test_an_condition_z8():
    res = check_an_condition(ring_of("Z8"), "odd", 2)
    assert res.holds
    assert res.boundary_ok is None


def test_an_condition_fails_on_an_ring():
    # equality fails for the counterexample ring, so the condition must too
    res = an_condition_for(ring_of("AN"))
    assert not res.holds
    assert res.witness is not None
    r = ring_of("AN")
    x, y = res.witness
    assert r.mul(x, y) == 0


def test_an_condition_parameter_validation():
    with pytest.raises(PreconditionError):
        check_an_condition(ring_of("Z4"), "odd", 1)
    with pytest.raises(PreconditionError):
        check_an_condition(ring_of("Z8"), "even", 1)
    with pytest.raises(PreconditionError):
        check_an_condition(ring_of("Z8"), "prime", 2)


# -- reduced rings ---------------------------------------------------------------


def test_reduced_theorem_z30():
    res = reduced_theorem_check(ring_of("Z30"))
    assert res.r_count == 3
    assert res.omega == res.chi == 4
    assert res.consistent


def test_reduced_theorem_z7():
    res = reduced_theorem_check(ring_of("Z7"))
    assert (res.r_count, res.omega, res.chi) == (1, 2, 2)


def test_reduced_theorem_product_of_three():
    res = reduced_theorem_check(ring_of("Z2 x Z2 x Z3"))
    assert res.r_count == 3 and res.omega == res.chi == 4


def test_reduced_theorem_rejects_non_reduced():
    with pytest.raises(PreconditionError):
        reduced_theorem_check(ring_of("Z4"))


# -- counterexample family --------------------------------------------------------


def test_family_an_alone():
    rep = counterexample_family([])
    assert (rep.omega, rep.chi, rep.gap) == (5, 6, 1)
    assert rep.direct_omega == 5


def test_family_with_z2():
    rep = counterexample_family(rings_of("Z2"))
    assert (rep.omega, rep.chi, rep.gap) == (6, 7, 1)
    assert rep.direct_omega == 6
    assert rep.constructed_colors == rep.chi_lower == 7


def test_family_with_z2_z3_direct_skipped():
    rep = counterexample_family(rings_of("Z2", "Z3"))
    assert (rep.omega, rep.chi, rep.gap) == (7, 8, 1)
    assert rep.product_size == 192
    assert rep.direct_omega is None


def test_family_builds_each_factor_graph_once(monkeypatch):
    # the formula, the chromatic loop and the product colorings share the
    # chain's factor graphs instead of rebuilding them
    from beckring import graphs
    from beckring.catalog import canonical_anderson_naseer

    # the cached AN ring's graph may still be held by a reference cycle, such
    # as an earlier test's exception traceback; free it so AN is built here
    gc.collect()

    chain = [canonical_anderson_naseer()] + rings_of("Z2", "Z3")
    built = []
    init = graphs.BeckGraph.__init__

    def counting_init(self, ring, to_ring=None):
        built.append((ring, to_ring is None))
        init(self, ring, to_ring)

    monkeypatch.setattr(graphs.BeckGraph, "__init__", counting_init)
    rep = counterexample_family(chain[1:])
    assert (rep.omega, rep.chi) == (7, 8)
    for f in chain:
        assert sum(1 for r, full in built if r is f and full) == 1
        assert sum(1 for r, full in built if r is f and not full) <= 1


@pytest.mark.parametrize("names", [("Z2", "Z3"), ("Z2", "Z2")], ids=" x ".join)
def test_family_builds_each_product_graph_once(monkeypatch, names):
    # each partial product's graph is built by the coloring step that
    # verifies on it and held for the next step; the direct omega solve
    # (AN x Z2 x Z2 has 128 elements) reuses the last one
    from beckring import graphs

    built = []
    init = graphs.BeckGraph.__init__

    def counting_init(self, ring, to_ring=None):
        if to_ring is None:
            built.append(ring.size)
        init(self, ring, to_ring)

    monkeypatch.setattr(graphs.BeckGraph, "__init__", counting_init)
    rep = counterexample_family(rings_of(*names))
    assert rep.gap == 1
    products = [size for size in built if size > 32]  # AN alone has 32 elements
    assert len(products) == len(set(products)) == len(names)


def test_family_rejects_non_reduced_factor():
    with pytest.raises(PreconditionError):
        counterexample_family(rings_of("Z4"))


def test_family_rejects_zero_ring_factor():
    with pytest.raises(PreconditionError):
        counterexample_family(rings_of("Z1"))


def test_omega_prediction_algebraic_identity():
    # prod(omega_i - |C_i|) + sum(omega_i - |B_i|) collapses to
    # prod |B_i| + sum |C_i| because each clique splits as B + C
    import math

    pred = omega_product_formula(rings_of("Z8", "Z9", "Z2"))
    lhs = math.prod(om - c for om, _, c in pred.per_factor) + sum(
        om - b for om, b, _ in pred.per_factor
    )
    assert lhs == pred.predicted
