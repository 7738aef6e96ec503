"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its headline numbers; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import time
from itertools import combinations_with_replacement

import pytest

from beckring import (
    build_graph,
    chromatic_number,
    counterexample_family,
    chi_bounds,
    make_anderson_naseer,
    make_product,
    make_zmod,
    max_clique,
    best_clique_split,
    omega_product_formula,
    product_coloring,
    ring_of,
    verify_coloring,
    zn_formula,
)
from beckring.catalog import FIELD_EXPRS, catalog_rings, catalog_tuples
from beckring.oracle import (
    exhaustive_chromatic_number,
    exhaustive_max_clique,
    max_b_over_maximum_cliques,
)
from beckring.theorems import an_condition_for, nilradical_bound


@pytest.fixture(scope="module")
def catalog():
    return catalog_rings()


def test_criterion_1_anderson_naseer_counterexample():
    t0 = time.monotonic()
    stats = {}
    for variant in (0, 2):
        g = build_graph(make_anderson_naseer(variant))
        stats[variant] = (max_clique(g).size, chromatic_number(g)[0])
    elapsed = time.monotonic() - t0
    hits = [v for v, oc in stats.items() if oc == (5, 6)]
    assert len(hits) == 1, f"exactly one variant must give (5, 6): {stats}"
    other = 2 if hits[0] == 0 else 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 PASS: variant z^2={hits[0]} has (omega, chi) = (5, 6); "
        f"other variant z^2={other} reported as {stats[other]}; {elapsed:.2f}s"
    )


def test_criterion_2_zn_closed_form():
    t0 = time.monotonic()
    for n in range(1, 101):
        g = build_graph(make_zmod(n))
        value = zn_formula(n).value
        assert max_clique(g).size == value, f"Z{n} omega"
        if n <= 60:
            assert chromatic_number(g)[0] == value, f"Z{n} chi"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: zn formula = omega for N <= 100, = chi for N <= 60; {elapsed:.2f}s")


def test_criterion_3_product_clique_formula(catalog):
    t0 = time.monotonic()
    tuples = catalog_tuples(catalog_rings(), 2, 256) + catalog_tuples(catalog_rings(), 3, 256)
    assert len(tuples) > 50
    for names in tuples:
        factors = [catalog[n] for n in names]
        pred = omega_product_formula(factors)
        direct = max_clique(build_graph(make_product(factors))).size
        assert pred.predicted == direct, f"{names}: {pred.predicted} != {direct}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 PASS: clique formula exact on {len(tuples)} products; {elapsed:.2f}s")


def test_criterion_4_chromatic_sandwich(catalog):
    t0 = time.monotonic()
    checked = 0
    for names in catalog_tuples(catalog_rings(), 2, 256):
        factors = [catalog[n] for n in names]
        product = make_product(factors)
        core_size = product.size - int(product.unit_mask.sum())
        if core_size > 64:
            continue
        bounds = chi_bounds(factors)
        exact = chromatic_number(build_graph(product))[0]
        assert bounds.lower <= exact <= bounds.upper, names
        col = product_coloring(
            factors[0], bounds.factors[0].coloring, factors[1], bounds.factors[1].coloring
        )
        assert col.k == bounds.upper, names
        assert verify_coloring(build_graph(product), col), names
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 25
    print(f"\nACCEPTANCE 4 PASS: sandwich and constructed coloring on {checked} pairs; {elapsed:.2f}s")


def test_criterion_5_reduced_equality():
    t0 = time.monotonic()
    fields = {name: ring_of(name) for name in FIELD_EXPRS}
    checked = 0
    for arity in (1, 2, 3):
        for names in combinations_with_replacement(sorted(fields), arity):
            factors = [fields[n] for n in names]
            ring = make_product(factors) if arity > 1 else factors[0]
            g = build_graph(ring)
            omega = max_clique(g).size
            chi = chromatic_number(g)[0]
            assert omega == chi == arity + 1, f"{names}: omega {omega} chi {chi}"
            checked += 1
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 5 PASS: chi = omega = factors + 1 on {checked} field products; {elapsed:.2f}s")


def test_criterion_6_counterexample_family():
    t0 = time.monotonic()
    for names in ((), ("Z2",), ("Z3",), ("Z2", "Z2")):
        factors = [ring_of(n) for n in names]
        rep = counterexample_family(factors)
        label = "AN" + "".join(f" x {n}" for n in names)
        assert rep.gap == 1, label
        assert rep.constructed_colors == rep.chi_lower, f"{label}: pinch failed"
        if rep.product_size <= 128:
            assert rep.direct_omega == rep.omega, f"{label}: direct omega mismatch"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 PASS: chi - omega = 1 with pinched chi on 4 factor lists; {elapsed:.2f}s")


def test_criterion_7_nilradical_bound(catalog):
    t0 = time.monotonic()
    conditions = {name: an_condition_for(ring).holds for name, ring in catalog.items()}
    equalities = 0
    for names in catalog_tuples(catalog_rings(), 2, 256) + catalog_tuples(catalog_rings(), 3, 256):
        factors = [catalog[n] for n in names]
        nb = nilradical_bound(factors, direct_cap=0)
        omega = omega_product_formula(factors).predicted
        direct = max_clique(build_graph(make_product(factors))).size
        assert omega == direct
        assert nb.bound <= direct, f"{names}: bound {nb.bound} > omega {direct}"
        if all(conditions[n] for n in names):
            assert nb.bound == direct, f"{names}: equality expected"
            equalities += 1
    # the named instances must be among the equality cases
    for names in combinations_with_replacement(("Z4", "Z8", "Z9"), 2):
        assert all(conditions[n] for n in names)
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 7 PASS: bound <= omega everywhere, equality on {equalities} instances; {elapsed:.2f}s")


def test_criterion_8_oracle_equivalence(catalog):
    t0 = time.monotonic()
    cliques = chromatics = splits = 0
    for name, ring in catalog.items():
        g = build_graph(ring)
        if g.n <= 16:
            assert max_clique(g).size == exhaustive_max_clique(g)[0], name
            split = best_clique_split(g)
            assert split.b_size == max_b_over_maximum_cliques(g), name
            cliques += 1
            splits += 1
        if g.n <= 10:
            assert chromatic_number(g)[0] == exhaustive_chromatic_number(g), name
            chromatics += 1
    elapsed = time.monotonic() - t0
    assert cliques >= 6 and chromatics >= 5
    print(
        f"\nACCEPTANCE 8 PASS: oracle equivalence on {cliques} clique, "
        f"{chromatics} chromatic, {splits} split instances; {elapsed:.2f}s"
    )


def test_criterion_9_structural_invariants(catalog):
    t0 = time.monotonic()
    for name, ring in catalog.items():
        ring.validate()
        g = build_graph(ring)
        full = (1 << g.n) - 1
        if g.n >= 2:
            assert g.adj[0] == full ^ 1, f"{name}: 0 must dominate"
        for v in range(1, g.n):
            if not ring.zero_divisor_mask[v]:
                assert g.adj[v] == 1, f"{name}: unit degree != 1"
        omega = max_clique(g, use_core=False).size
        chi = chromatic_number(g, use_core=False)[0]
        assert omega <= chi, name
        assert max_clique(g.core()).size == omega, f"{name}: core broke omega"
        assert chromatic_number(g.core())[0] == chi, f"{name}: core broke chi"
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 9 PASS: structural invariants on {len(catalog)} rings; {elapsed:.2f}s")
