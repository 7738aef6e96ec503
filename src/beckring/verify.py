"""Catalog-wide property suite behind the verify-suite command.

Each check is a module-level function that runs over the instance set it
is given and records per-instance failures in a CheckResult; the suite
passes only when every check has zero failures. `run_suite` runs them over
the built-in catalog, and the acceptance tests call the same functions;
they keep no copy of a check the theorem layer makes.
"""

from __future__ import annotations

import json
import math
import weakref
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

from . import theorems
from .catalog import CATALOG_EXPRS, FIELD_EXPRS, catalog_rings, catalog_tuples, field_rings
from .dsl import ProductExpr, elaborate_factors, parse, print_expr, ring_of
from .errors import BeckringError, CapacityError
from .graphs import BeckGraph, build_graph, held_memo
from .oracle import exhaustive_chromatic_number, exhaustive_max_clique, max_b_over_maximum_cliques
from .report import _dumps, analyze
from .rings import DEFAULT_SIZE_CAP, FiniteRing, ProductRing, make_product
from .solvers import Budget, _Deadline, best_clique_split, chromatic_number, max_clique

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


class ProductTable:
    """The products of one suite run by label, the factor names joined with
    " x ". A label in more than one of `label_groups` is built once and held,
    with its graph, to the end of the run; any other is built where it is
    read and not held."""

    def __init__(self, *label_groups):
        counts = Counter(label for group in label_groups for label in group)
        self.shared = {label for label, n in counts.items() if n > 1}
        self.held: dict[str, BeckGraph] = {}

    def ring(self, label: str, factors: list[FiniteRing]) -> FiniteRing:
        if label in self.held:
            return self.held[label].ring
        ring = make_product(factors) if len(factors) > 1 else factors[0]
        if label in self.shared:
            self.held[label] = build_graph(ring)
        return ring


class SolvedProduct(NamedTuple):
    """A product solved for omega. `held` is its graph if chi_sandwich checks
    it (`small_core_pairs`), kept so that the two share its solves; the
    graph of any other product goes once omega is solved."""

    factors: list[FiniteRing]
    omega: int
    held: BeckGraph | None
    ref: weakref.ref

    @property
    def graph(self) -> BeckGraph | None:
        """The product's graph while anything holds it."""
        return self.ref()


def solved_products(rings: dict[str, FiniteRing], max_product: int, budget: Budget = None,
                    table: ProductTable | None = None):
    """label -> SolvedProduct for the pairs, then triples, of catalog_tuples,
    each product from `table`, omega from one direct solve of its graph;
    product_omega_formula and nilradical_bound share omega, and chi_sandwich
    the graphs held for the pairs with at most SANDWICH_CORE_LIMIT non-units."""
    table = table or ProductTable()
    out = {}
    for label, factors in catalog_tuples(rings, (2, 3), max_product).items():
        g = build_graph(table.ring(label, factors))
        small_core = len(factors) == 2 and g.n - int(g.ring.unit_mask.sum()) <= SANDWICH_CORE_LIMIT
        held = g if small_core else None
        out[label] = SolvedProduct(factors, max_clique(g, budget).size, held, weakref.ref(g))
    return out


def small_core_pairs(products: dict[str, SolvedProduct]) -> dict[str, ProductRing]:
    """label -> product for the pairs among `products` (solved_products)
    with at most SANDWICH_CORE_LIMIT non-units, whose graphs they hold."""
    return {label: p.held.ring for label, p in products.items() if p.held is not None}


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


def _omega_chi(g, budget: Budget) -> tuple[int, int]:
    return max_clique(g, budget).size, chromatic_number(g, budget)[0]


def core_preservation(graphs: dict[str, BeckGraph], budget: Budget = None) -> CheckResult:
    """The core, the twin quotient, has exactly the (omega, chi) of the graph.
    max_clique and chromatic_number search a Beck graph's core, so the whole
    graph is searched as a plain graph-like: its adjacency alone, with no
    square-zero tie-break, and a memo that the table of cores shares only
    with equal plain graphs, whose square-zero bits, 0, no core has (`ring`
    names it in traces)."""
    check = CheckResult("core_preservation")
    deadline = _Deadline(budget)
    for name, g in graphs.items():
        plain = SimpleNamespace(n=g.n, adj=g.adj, sq0_bits=0, ring=g.ring)
        plain.solved = held_memo(plain)
        whole = _omega_chi(plain, deadline)
        same = _omega_chi(g.core(), deadline) == whole
        check.require(same, f"{name}: core reduction changed (omega, chi)")
    return check


def omega_le_chi(graphs: dict[str, BeckGraph], budget: Budget = None) -> CheckResult:
    check = CheckResult("omega_le_chi")
    for name, g in graphs.items():
        omega, chi = _omega_chi(g, budget)
        check.require(omega <= chi, f"{name}: omega > chi")
    return check


def oracle_equivalence(graphs: dict[str, BeckGraph], budget: Budget = None) -> CheckResult:
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


def product_omega_formula(products: dict, budget: Budget = None) -> CheckResult:
    """prod |B_i| + sum |C_i| equals the directly solved clique number."""
    check = CheckResult("product_omega_formula")
    for label, (factors, omega, *_) in products.items():
        pred = theorems.omega_product_formula(factors, budget).predicted
        check.require(pred == omega, f"{label}: predicted {pred} direct {omega}")
    return check


def nilradical_bound(products: dict) -> CheckResult:
    """The nilradical bound is at most the clique number, and equal to it
    when every factor meets the zero-product membership condition."""
    check = CheckResult("nilradical_bound")
    for label, (factors, omega, *_) in products.items():
        bound = theorems.nilradical_bound(factors).bound
        check.require(bound <= omega, f"{label}: bound {bound} > omega {omega}")
        if all(theorems.an_condition_for(f).holds for f in factors):
            check.require(bound == omega, f"{label}: condition holds but bound {bound} != {omega}")
    return check


def chi_sandwich(pairs: dict[str, ProductRing], budget: Budget = None) -> CheckResult:
    """chi lies in the sandwich, and the explicit product coloring meets its
    upper end."""
    check = CheckResult("chi_sandwich")
    for label, product in pairs.items():
        g = build_graph(product)  # holds the factors' graphs through the bounds and the coloring
        bounds = theorems.chi_bounds(product.factors, "any_optimal", budget)
        lo, hi = bounds.lower, bounds.upper
        chi, _ = chromatic_number(g, budget)
        check.require(lo <= chi <= hi, f"{label}: chi {chi} outside [{lo}, {hi}]")
        col = theorems.product_coloring(product, [f.coloring for f in bounds.factors])
        check.require(col.k == hi, f"{label}: constructed {col.k} colors, upper {hi}")
    return check


def zn_closed_form(moduli, chi_limit: int, budget: Budget = None) -> CheckResult:
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


def reduced_equality(field_products: dict, budget: Budget = None, table: ProductTable | None = None) -> CheckResult:
    """chi = omega = (number of field factors) + 1 on products of fields,
    each product from `table`."""
    check = CheckResult("reduced_equality")
    table = table or ProductTable()
    for label, factors in field_products.items():
        res = theorems.reduced_theorem_check(table.ring(label, factors), budget)
        check.require(
            res.consistent and res.omega == len(factors) + 1,
            f"{label}: omega {res.omega} chi {res.chi} r {res.r_count}",
        )
    return check


def counterexample_family(
    factor_names, budget: Budget = None, max_product: int = DEFAULT_SIZE_CAP
) -> CheckResult:
    """AN times each list of reduced factors of at most `max_product`
    elements has chi - omega = 1, chi pinched by the constructed coloring and
    omega cross-checked by a direct solve where the family report has one.
    A chain above `max_product` is refused before it is solved, and left out."""
    check = CheckResult("counterexample_family")
    for names in factor_names:
        label = " x ".join(("AN",) + tuple(names))
        try:
            factors = elaborate_factors(map(parse, names), max_product)  # equal names: one ring
            rep = theorems.counterexample_family(factors, budget, max_product)
        except CapacityError:
            continue
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


def dsl_round_trip(exprs, isomorphic_pairs, budget: Budget = None) -> CheckResult:
    """Printing then parsing gives back the same syntax tree, and rings the
    Chinese remainder theorem makes isomorphic agree on (omega, chi); each
    pair is a dict of two expressions and their rings."""
    check = CheckResult("dsl_round_trip")
    for expr in exprs:
        ast = parse(expr)
        check.require(parse(print_expr(ast)) == ast, f"{expr}: round trip broke")
    for pair in isomorphic_pairs:
        a, b = (build_graph(ring) for ring in pair.values())
        same = _omega_chi(a, budget) == _omega_chi(b, budget)
        check.require(same, f"{tuple(pair)}: isomorphic rings disagree")
    return check


def isomorphic_rings(pair, size_cap: int, table: ProductTable) -> dict[str, FiniteRing]:
    """expr -> ring for both expressions of `pair`, each a product from
    `table` of atoms from the table of factors; {} if either is above
    `size_cap`."""
    rings = {}
    for expr in pair:
        ast = parse(expr)
        try:
            factors = elaborate_factors(ast.atoms if isinstance(ast, ProductExpr) else (ast,), size_cap)
        except CapacityError:
            return {}
        if math.prod(f.size for f in factors) > size_cap:
            return {}
        rings[expr] = table.ring(expr, factors)
    return rings


def report_json_round_trip(exprs, budget: Budget = None) -> CheckResult:
    """Each report's JSON text, written by the encoder `--json` prints
    with (`report._dumps`), parses back to the same report."""
    check = CheckResult("report_json_round_trip")
    for expr in exprs:
        rep = analyze(expr, budget=budget)
        check.require(
            json.loads(_dumps(rep)) == rep, f"{expr}: JSON round trip changed the report"
        )
    return check


def s_statistic(graphs: dict[str, BeckGraph], budget: Budget = None) -> CheckResult:
    """A reduced ring has s = 1 under min-s; any ring has s >= 1, each
    from theorems.factor_coloring, which re-verifies the coloring."""
    check = CheckResult("s_statistic")
    for name, g in graphs.items():
        reduced = g.ring.is_reduced()
        s = theorems.factor_coloring(g.ring, "min_s" if reduced else "any_optimal", budget).s
        if reduced:
            check.require(s == 1, f"{name}: reduced ring with min s = {s}")
        else:
            check.require(s >= 1, f"{name}: s < 1")
    return check


def run_suite(
    max_size: int = DEFAULT_SIZE_CAP,
    budget: Budget = None,
    progress=None,
) -> SuiteResult:
    """Every check over the catalog; `max_size` is the one ring size cap: no
    ring above it is built or checked, and it clamps every sweep."""
    deadline = _Deadline(budget)  # the whole suite runs on one budget
    def limit(default: int) -> int:
        return min(default, max_size)

    ring_map = catalog_rings(max_size)
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

    graphs = {name: build_graph(ring) for name, ring in ring_map.items()}
    emit(graph_invariants(graphs))
    emit(core_preservation(graphs, deadline))
    emit(omega_le_chi(graphs, deadline))
    emit(oracle_equivalence(graphs, deadline))
    # the catalog's products, the field products and the isomorphic pairs
    # name some products alike (Z2 x Z3 in all three): one table builds each
    field_products = catalog_tuples(field_rings(max_size), (1, 2, 3), limit(FIELD_PRODUCT_LIMIT))
    table = ProductTable(catalog_tuples(ring_map, (2, 3), limit(PRODUCT_SIZE_LIMIT)), field_products,
                         [expr for pair in ISOMORPHIC_PAIRS for expr in pair])
    products = solved_products(ring_map, limit(PRODUCT_SIZE_LIMIT), deadline, table)
    emit(product_omega_formula(products, deadline))
    emit(chi_sandwich(small_core_pairs(products), deadline))
    emit(nilradical_bound(products))
    emit(zn_closed_form(range(1, limit(ZN_OMEGA_LIMIT) + 1), limit(ZN_CHI_LIMIT), deadline))
    emit(reduced_equality(field_products, deadline, table))
    emit(counterexample_family(FAMILY_FACTORS, deadline, max_size))
    pairs = [isomorphic_rings(pair, max_size, table) for pair in ISOMORPHIC_PAIRS]
    emit(dsl_round_trip(DSL_EXPRS, [pair for pair in pairs if pair], deadline))
    emit(report_json_round_trip(ring_map, deadline))
    emit(s_statistic(graphs, deadline))
    return SuiteResult(checks)
