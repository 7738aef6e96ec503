"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each criterion runs the verify-suite check functions that cover it
(criterion 1 solves both z^2 variants of AN) and asserts that they
checked exactly the expected number of instances with no failure. Each
test prints a single PASS line with its headline numbers; run with
`pytest tests/test_acceptance.py -v -s` to see them.
"""

import time
from itertools import combinations_with_replacement

import pytest

from beckring import build_graph
from beckring.catalog import an_variant_stats, catalog_rings, catalog_tuples, field_rings
from beckring.rings import AN_VARIANT
from beckring.theorems import an_condition_for
from beckring.verify import (
    FAMILY_FACTORS,
    FIELD_PRODUCT_LIMIT,
    ORACLE_CHI_LIMIT,
    ORACLE_CLIQUE_LIMIT,
    PRODUCT_SIZE_LIMIT,
    ZN_CHI_LIMIT,
    ZN_OMEGA_LIMIT,
    chi_sandwich,
    core_preservation,
    counterexample_family,
    graph_invariants,
    nilradical_bound,
    omega_le_chi,
    oracle_equivalence,
    product_omega_formula,
    reduced_equality,
    ring_axioms,
    small_core_pairs,
    solved_products,
    zn_closed_form,
)


@pytest.fixture(scope="module")
def catalog():
    return catalog_rings()


@pytest.fixture
def graphs(catalog):
    return {name: build_graph(ring) for name, ring in catalog.items()}


def assert_passed(check, count: int):
    assert check.failed == 0, f"{check.name}: {check.failures}"
    assert check.passed == count, f"{check.name}: {check.passed} passed, expected {count}"


def test_criterion_1_anderson_naseer_counterexample():
    # AN's z^2 is fixed in the code; this solve is what holds it there
    t0 = time.monotonic()
    stats = an_variant_stats()
    elapsed = time.monotonic() - t0
    assert stats == {0: (5, 6), 2: (8, 8)}
    hits = [v for v, oc in stats.items() if oc == (5, 6)]
    assert hits == [AN_VARIANT]
    other = 2 if hits[0] == 0 else 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 1 PASS: variant z^2={hits[0]} has (omega, chi) = (5, 6); "
        f"other variant z^2={other} reported as {stats[other]}; {elapsed:.2f}s"
    )


def test_criterion_2_zn_closed_form():
    t0 = time.monotonic()
    check = zn_closed_form(range(1, ZN_OMEGA_LIMIT + 1), ZN_CHI_LIMIT)
    elapsed = time.monotonic() - t0
    assert_passed(check, 160)  # omega for N <= 100, chi for N <= 60
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2 PASS: zn formula = omega for N <= 100, = chi for N <= 60; {elapsed:.2f}s")


def test_criterion_3_product_clique_formula(catalog):
    t0 = time.monotonic()
    products = solved_products(catalog, PRODUCT_SIZE_LIMIT)
    check = product_omega_formula(products)
    elapsed = time.monotonic() - t0
    assert len(products) == 97
    assert_passed(check, len(products))
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3 PASS: clique formula exact on {len(products)} products; {elapsed:.2f}s")


def test_criterion_4_chromatic_sandwich(catalog):
    t0 = time.monotonic()
    pairs = small_core_pairs(solved_products(catalog, PRODUCT_SIZE_LIMIT))
    check = chi_sandwich(pairs)
    elapsed = time.monotonic() - t0
    assert len(pairs) == 27
    assert_passed(check, 2 * len(pairs))  # the sandwich and the constructed coloring
    print(f"\nACCEPTANCE 4 PASS: sandwich and constructed coloring on {len(pairs)} pairs; {elapsed:.2f}s")


def test_criterion_5_reduced_equality():
    t0 = time.monotonic()
    field_products = catalog_tuples(field_rings(), (1, 2, 3), FIELD_PRODUCT_LIMIT)
    check = reduced_equality(field_products)
    elapsed = time.monotonic() - t0
    assert len(field_products) == 55
    assert_passed(check, len(field_products))
    print(
        f"\nACCEPTANCE 5 PASS: chi = omega = factors + 1 on {len(field_products)} field products; "
        f"{elapsed:.2f}s"
    )


def test_criterion_6_counterexample_family():
    t0 = time.monotonic()
    check = counterexample_family(FAMILY_FACTORS)
    elapsed = time.monotonic() - t0
    # the gap, the pinch and the direct omega of each of the 4 factor lists
    assert_passed(check, 12)
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(
        f"\nACCEPTANCE 6 PASS: chi - omega = 1 with pinched chi on {len(FAMILY_FACTORS)} "
        f"factor lists; {elapsed:.2f}s"
    )


def test_criterion_7_nilradical_bound(catalog):
    t0 = time.monotonic()
    products = solved_products(catalog, PRODUCT_SIZE_LIMIT)
    check = nilradical_bound(products)
    elapsed = time.monotonic() - t0
    # one bound check per product, plus one equality check where the
    # condition holds for every factor
    equalities = check.passed - len(products)
    assert len(products) == 97
    assert_passed(check, len(products) + 69)
    # the named instances must be among the equality cases
    named = list(combinations_with_replacement(("Z4", "Z8", "Z9"), 2))
    assert {" x ".join(names) for names in named} <= products.keys()
    for names in named:
        assert all(an_condition_for(catalog[n]).holds for n in names)
    print(f"\nACCEPTANCE 7 PASS: bound <= omega everywhere, equality on {equalities} instances; {elapsed:.2f}s")


def test_criterion_8_oracle_equivalence(graphs):
    t0 = time.monotonic()
    check = oracle_equivalence(graphs)
    elapsed = time.monotonic() - t0
    cliques = sum(g.n <= ORACLE_CLIQUE_LIMIT for g in graphs.values())
    chromatics = sum(g.n <= ORACLE_CHI_LIMIT for g in graphs.values())
    assert (cliques, chromatics) == (7, 6)
    # a clique and a split check per clique instance, one per chromatic
    assert_passed(check, 2 * cliques + chromatics)
    print(
        f"\nACCEPTANCE 8 PASS: oracle equivalence on {cliques} clique, "
        f"{chromatics} chromatic, {cliques} split instances; {elapsed:.2f}s"
    )


def test_criterion_9_structural_invariants(catalog, graphs):
    t0 = time.monotonic()
    assert_passed(ring_axioms(catalog), 8)
    assert_passed(graph_invariants(graphs), 53)
    assert_passed(core_preservation(graphs), 8)
    assert_passed(omega_le_chi(graphs), 8)
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 9 PASS: structural invariants on {len(catalog)} rings; {elapsed:.2f}s")
