"""Catalog-wide property suite behind the verify-suite command.

Each check is a module-level function that runs over the instance set it
is given and records per-instance failures in a CheckResult; the suite
passes only when every check has zero failures. `run_suite` runs them over
the built-in catalog (or an injected ring set), and the acceptance tests
call the same functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import theorems
from .catalog import CATALOG_EXPRS, FIELD_EXPRS, catalog_rings, catalog_tuples, field_rings
from .dsl import parse, print_expr, ring_of
from .errors import BeckringError
from .graphs import BeckGraph, build_graph
from .oracle import exhaustive_chromatic_number, exhaustive_max_clique, max_b_over_maximum_cliques
from .report import analyze
from .rings import FiniteRing, ProductRing, make_product
from .solvers import (
    _chromatic,
    _Deadline,
    best_clique_split,
    chromatic_number,
    max_clique,
    min_s_optimal_coloring,
    s_of,
)

PRODUCT_SIZE_LIMIT = 256
SANDWICH_CORE_LIMIT = 64
FIELD_PRODUCT_LIMIT = 400
ZN_OMEGA_LIMIT = 100
ZN_CHI_LIMIT = 60
ORACLE_CLIQUE_LIMIT = 16
ORACLE_CHI_LIMIT = 10
FAMILY_FACTORS = ((), ("Z2",), ("Z3",), ("Z2", "Z2"))
DSL_EXPRS = CATALOG_EXPRS + FIELD_EXPRS + ("Z4 x Z3", "AN0 x Z2", "Z6[t]/(t^3+5t+1)")
ISOMORPHIC_PAIRS = (("Z6", "Z2 x Z3"), ("Z12", "Z4 x Z3"), ("Z10", "Z2 x Z5"))


@dataclass
class CheckResult:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ok(self):
        self.passed += 1

    def fail(self, instance: str):
        self.failed += 1
        self.failures.append(instance)

    def require(self, condition: bool, instance: str):
        if condition:
            self.ok()
        else:
            self.fail(instance)


@dataclass
class SuiteResult:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.failed == 0 for c in self.checks)


def solved_products(rings: dict[str, FiniteRing], max_product: int, budget: float | None = None):
    """label -> (factors, omega) for the pairs, then triples, of catalog_tuples,
    omega from one direct solve that product_omega_formula and nilradical_bound share."""
    return {
        label: (factors, max_clique(build_graph(make_product(factors)), budget).size)
        for label, factors in catalog_tuples(rings, (2, 3), max_product).items()
    }


def small_core_pairs(rings: dict[str, FiniteRing], max_product: int) -> dict[str, ProductRing]:
    """label -> product for the pairs of catalog_tuples with at most
    SANDWICH_CORE_LIMIT non-units."""
    out = {}
    for label, factors in catalog_tuples(rings, (2,), max_product).items():
        product = make_product(factors)
        if product.size - int(product.unit_mask.sum()) <= SANDWICH_CORE_LIMIT:
            out[label] = product
    return out


def ring_axioms(rings: dict[str, FiniteRing]) -> CheckResult:
    check = CheckResult("ring_axioms")
    for name, ring in rings.items():
        try:
            ring.validate()
            check.ok()
        except BeckringError as e:
            check.fail(f"{name}: {e}")
    return check


def graph_invariants(graphs: dict[str, BeckGraph]) -> CheckResult:
    """0 dominates, every non-zero-divisor has degree 1, no self loops."""
    check = CheckResult("graph_invariants")
    for name, g in graphs.items():
        ring = g.ring
        full = (1 << g.n) - 1
        if g.n >= 2:
            check.require(g.adj[0] == full ^ 1, f"{name}: vertex 0 not dominating")
        for v in range(1, g.n):
            if not ring.zero_divisor_mask[v]:
                check.require(
                    g.adj[v] == 1, f"{name}: non-zero-divisor {ring.element_str(v)} degree != 1"
                )
        check.require(all((g.adj[u] >> u) & 1 == 0 for u in range(g.n)), f"{name}: self loop")
    return check


def _omega_chi(g: BeckGraph, budget: float | None) -> tuple[int, int]:
    return max_clique(g, budget).size, chromatic_number(g, budget)[0]


def core_preservation(graphs: dict[str, BeckGraph], budget: float | None = None) -> CheckResult:
    """The core, the twin quotient, has exactly the (omega, chi) of the graph.
    The graph's chi comes from the unreduced search, since chromatic_number
    itself searches the core."""
    check = CheckResult("core_preservation")
    for name, g in graphs.items():
        whole = max_clique(g, budget).size, _chromatic(g, _Deadline(budget))[0]
        same = _omega_chi(g.core(), budget) == whole
        check.require(same, f"{name}: core reduction changed (omega, chi)")
    return check


def omega_le_chi(graphs: dict[str, BeckGraph], budget: float | None = None) -> CheckResult:
    check = CheckResult("omega_le_chi")
    for name, g in graphs.items():
        omega, chi = _omega_chi(g, budget)
        check.require(omega <= chi, f"{name}: omega > chi")
    return check


def oracle_equivalence(graphs: dict[str, BeckGraph], budget: float | None = None) -> CheckResult:
    """Clique number and best split against subset enumeration on graphs of
    at most ORACLE_CLIQUE_LIMIT vertices, chromatic number against
    set-partition search on at most ORACLE_CHI_LIMIT."""
    check = CheckResult("oracle_equivalence")
    for name, g in graphs.items():
        if g.n <= ORACLE_CLIQUE_LIMIT:
            omega = max_clique(g, budget).size
            check.require(exhaustive_max_clique(g)[0] == omega, f"{name}: clique oracle mismatch")
            same = best_clique_split(g, budget).b_size == max_b_over_maximum_cliques(g)
            check.require(same, f"{name}: split |B| differs from enumeration")
        if g.n <= ORACLE_CHI_LIMIT:
            same = exhaustive_chromatic_number(g) == chromatic_number(g, budget)[0]
            check.require(same, f"{name}: chromatic oracle mismatch")
    return check


def product_omega_formula(products: dict, budget: float | None = None) -> CheckResult:
    """prod |B_i| + sum |C_i| equals the directly solved clique number."""
    check = CheckResult("product_omega_formula")
    for label, (factors, omega) in products.items():
        pred = theorems.omega_product_formula(factors, budget).predicted
        check.require(pred == omega, f"{label}: predicted {pred} direct {omega}")
    return check


def nilradical_bound(products: dict, budget: float | None = None) -> CheckResult:
    """The nilradical bound is at most the clique number, and equal to it
    when every factor meets the zero-product membership condition."""
    check = CheckResult("nilradical_bound")
    for label, (factors, omega) in products.items():
        bound = theorems.nilradical_bound(factors, budget, direct_cap=0).bound
        check.require(bound <= omega, f"{label}: bound {bound} > omega {omega}")
        if all(theorems.an_condition_for(f).holds for f in factors):
            check.require(bound == omega, f"{label}: condition holds but bound {bound} != {omega}")
    return check


def chi_sandwich(pairs: dict[str, ProductRing], budget: float | None = None) -> CheckResult:
    """chi lies in the sandwich, and the explicit product coloring meets its
    upper end."""
    check = CheckResult("chi_sandwich")
    for label, product in pairs.items():
        factors = product.factors
        bounds = theorems.chi_bounds(factors, "any_optimal", budget)
        lo, hi = bounds.lower, bounds.upper
        chi, _ = chromatic_number(build_graph(product), budget)
        check.require(lo <= chi <= hi, f"{label}: chi {chi} outside [{lo}, {hi}]")
        col = theorems.product_coloring(
            factors[0], bounds.factors[0].coloring, factors[1], bounds.factors[1].coloring
        )
        check.require(col.k == hi, f"{label}: constructed {col.k} colors, upper {hi}")
    return check


def zn_closed_form(moduli, chi_limit: int, budget: float | None = None) -> CheckResult:
    """The closed form equals omega(Z_N) for every N in `moduli`, and
    chi(Z_N) for those up to `chi_limit`."""
    check = CheckResult("zn_closed_form")
    for n in moduli:
        g = build_graph(ring_of(f"Z{n}"))
        value = theorems.zn_formula(n).value
        omega = max_clique(g, budget).size
        check.require(value == omega, f"Z{n}: formula {value} omega {omega}")
        if n <= chi_limit:
            chi, _ = chromatic_number(g, budget)
            check.require(value == chi, f"Z{n}: formula {value} chi {chi}")
    return check


def reduced_equality(field_products: dict, budget: float | None = None) -> CheckResult:
    """chi = omega = (number of field factors) + 1 on products of fields."""
    check = CheckResult("reduced_equality")
    for label, factors in field_products.items():
        ring = make_product(factors) if len(factors) > 1 else factors[0]
        res = theorems.reduced_theorem_check(ring, budget)
        check.require(
            res.consistent and res.omega == len(factors) + 1,
            f"{label}: omega {res.omega} chi {res.chi} r {res.r_count}",
        )
    return check


def counterexample_family(factor_names, budget: float | None = None) -> CheckResult:
    """AN times each list of reduced factors has chi - omega = 1, chi pinched
    by the constructed coloring and omega cross-checked by a direct solve
    where the family report has one."""
    check = CheckResult("counterexample_family")
    for names in factor_names:
        label = " x ".join(("AN",) + tuple(names))
        rep = theorems.counterexample_family([ring_of(n) for n in names], budget)
        check.require(rep.gap == 1, f"{label}: gap {rep.gap}")
        check.require(
            rep.constructed_colors == rep.chi_lower,
            f"{label}: pinch failed ({rep.constructed_colors} vs {rep.chi_lower})",
        )
        if rep.direct_omega is not None:
            check.require(
                rep.direct_omega == rep.omega,
                f"{label}: direct omega {rep.direct_omega} formula {rep.omega}",
            )
    return check


def dsl_round_trip(exprs, isomorphic_pairs, budget: float | None = None) -> CheckResult:
    """Printing then parsing gives back the same syntax tree, and rings the
    Chinese remainder theorem makes isomorphic agree on (omega, chi)."""
    check = CheckResult("dsl_round_trip")
    for expr in exprs:
        ast = parse(expr)
        check.require(parse(print_expr(ast)) == ast, f"{expr}: round trip broke")
    for pair in isomorphic_pairs:
        a, b = (build_graph(ring_of(t)) for t in pair)
        same = _omega_chi(a, budget) == _omega_chi(b, budget)
        check.require(same, f"{pair}: isomorphic rings disagree")
    return check


def report_json_round_trip(exprs, budget: float | None = None) -> CheckResult:
    check = CheckResult("report_json_round_trip")
    for expr in exprs:
        rep = analyze(expr, budget=budget)
        check.require(
            json.loads(json.dumps(rep)) == rep, f"{expr}: JSON round trip changed the report"
        )
    return check


def s_statistic(graphs: dict[str, BeckGraph], budget: float | None = None) -> CheckResult:
    """A reduced ring has s = 1 under min-s; any ring has s >= 1."""
    check = CheckResult("s_statistic")
    for name, g in graphs.items():
        if g.ring.is_reduced():
            _, sz = min_s_optimal_coloring(g, budget)
            check.require(sz.s == 1, f"{name}: reduced ring with min s = {sz.s}")
        else:
            _, col = chromatic_number(g, budget)
            check.require(s_of(g, col).s >= 1, f"{name}: s < 1")
    return check


def run_suite(
    max_size: int | None = None,
    budget: float | None = None,
    rings: dict | None = None,
    progress=None,
) -> SuiteResult:
    def limit(default: int) -> int:
        return min(default, max_size) if max_size is not None else default

    ring_map = dict(rings) if rings is not None else dict(catalog_rings())
    checks: list[CheckResult] = []

    def emit(check: CheckResult):
        checks.append(check)
        if progress:
            status = "PASS" if check.failed == 0 else "FAIL"
            progress(f"{check.name}: {check.passed} passed, {check.failed} failed ... {status}")

    axioms = ring_axioms(ring_map)
    emit(axioms)
    if axioms.failed:
        return SuiteResult(checks)

    # held to the end, so every check shares each catalog graph's solves
    graphs = {name: build_graph(ring) for name, ring in ring_map.items()}
    emit(graph_invariants(graphs))
    emit(core_preservation(graphs, budget))
    emit(omega_le_chi(graphs, budget))
    emit(oracle_equivalence(graphs, budget))
    products = solved_products(ring_map, limit(PRODUCT_SIZE_LIMIT), budget)
    emit(product_omega_formula(products, budget))
    emit(chi_sandwich(small_core_pairs(ring_map, limit(PRODUCT_SIZE_LIMIT)), budget))
    emit(nilradical_bound(products, budget))
    emit(zn_closed_form(range(1, limit(ZN_OMEGA_LIMIT) + 1), limit(ZN_CHI_LIMIT), budget))
    fields = catalog_tuples(field_rings(), (1, 2, 3), limit(FIELD_PRODUCT_LIMIT))
    emit(reduced_equality(fields, budget))
    emit(counterexample_family(FAMILY_FACTORS, budget))
    emit(dsl_round_trip(DSL_EXPRS, ISOMORPHIC_PAIRS, budget))
    emit(report_json_round_trip(ring_map, budget))
    emit(s_statistic(graphs, budget))
    return SuiteResult(checks)
