"""Catalog-wide property suite behind the verify-suite command.

Each check runs over the built-in catalog (or an injected ring set) and
records per-instance failures; the suite passes only when every check has
zero failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .catalog import CATALOG_EXPRS, FIELD_EXPRS, catalog_rings, catalog_tuples, field_rings
from .dsl import parse, print_expr, ring_of
from .errors import BeckringError
from .graphs import build_graph
from .oracle import (
    exhaustive_chromatic_number,
    exhaustive_max_clique,
    max_b_over_maximum_cliques,
)
from .report import analyze
from .rings import make_product
from .solvers import (
    best_clique_split,
    chromatic_number,
    max_clique,
    min_s_optimal_coloring,
    s_of,
)
from .theorems import (
    an_condition_for,
    chi_bounds,
    counterexample_family,
    nilradical_bound,
    omega_product_formula,
    product_coloring,
    reduced_theorem_check,
    zn_formula,
)

PRODUCT_SIZE_LIMIT = 256
SANDWICH_CORE_LIMIT = 64
ZN_OMEGA_LIMIT = 100
ZN_CHI_LIMIT = 60
FAMILY_FACTORS = ((), ("Z2",), ("Z3",), ("Z2", "Z2"))


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

    # ring axioms
    axioms = CheckResult("ring_axioms")
    for name, ring in ring_map.items():
        try:
            ring.validate()
            axioms.ok()
        except BeckringError as e:
            axioms.fail(f"{name}: {e}")
    emit(axioms)
    if axioms.failed:
        return SuiteResult(checks)

    graphs = {name: build_graph(ring) for name, ring in ring_map.items()}

    # structural graph invariants
    structural = CheckResult("graph_invariants")
    for name, g in graphs.items():
        ring = g.ring
        full = (1 << g.n) - 1
        if g.n >= 2:
            structural.require(g.adj[0] == full ^ 1, f"{name}: vertex 0 not dominating")
        for v in range(1, g.n):
            if not ring.zero_divisor_mask[v]:
                structural.require(
                    g.adj[v] == 1, f"{name}: non-zero-divisor {ring.element_str(v)} degree != 1"
                )
        structural.require(
            all((g.adj[u] >> u) & 1 == 0 for u in range(g.n)), f"{name}: self loop"
        )
    emit(structural)

    # solved invariants per catalog ring, core agreement, omega <= chi
    solved: dict[str, tuple[int, int]] = {}
    core_check = CheckResult("core_preservation")
    order_check = CheckResult("omega_le_chi")
    for name, g in graphs.items():
        omega_full = max_clique(g, budget, use_core=False).size
        chi_full, col_full = chromatic_number(g, budget, use_core=False)
        solved[name] = (omega_full, chi_full)
        order_check.require(omega_full <= chi_full, f"{name}: omega > chi")
        omega_core = max_clique(g.core(), budget).size
        chi_core, _ = chromatic_number(g.core(), budget)
        core_check.require(
            (omega_core, chi_core) == (omega_full, chi_full),
            f"{name}: core reduction changed (omega, chi)",
        )
    emit(core_check)
    emit(order_check)

    # oracle equivalence on small graphs
    oracle_check = CheckResult("oracle_equivalence")
    for name, g in graphs.items():
        if g.n <= 16:
            size, _ = exhaustive_max_clique(g)
            oracle_check.require(size == solved[name][0], f"{name}: clique oracle mismatch")
            split = best_clique_split(g, budget)
            oracle_check.require(
                split.b_size == max_b_over_maximum_cliques(g),
                f"{name}: split |B| differs from enumeration",
            )
        if g.n <= 10:
            oracle_check.require(
                exhaustive_chromatic_number(g) == solved[name][1],
                f"{name}: chromatic oracle mismatch",
            )
    emit(oracle_check)

    # clique number of products
    formula_check = CheckResult("product_omega_formula")
    nil_check = CheckResult("nilradical_bound")
    tuples = catalog_tuples(ring_map, 2, limit(PRODUCT_SIZE_LIMIT)) + catalog_tuples(
        ring_map, 3, limit(PRODUCT_SIZE_LIMIT)
    )
    for names in tuples:
        factors = [ring_map[n] for n in names]
        label = " x ".join(names)
        pred = omega_product_formula(factors, budget)
        direct = max_clique(build_graph(make_product(factors)), budget).size
        formula_check.require(
            pred.predicted == direct, f"{label}: predicted {pred.predicted} direct {direct}"
        )
        nb = nilradical_bound(factors, budget, direct_cap=0)
        nil_check.require(nb.bound <= direct, f"{label}: bound {nb.bound} > omega {direct}")
        if all(an_condition_for(f).holds for f in factors):
            nil_check.require(
                nb.bound == direct, f"{label}: condition holds but bound {nb.bound} != {direct}"
            )
    emit(formula_check)

    # chromatic sandwich on pairs with small cores
    sandwich = CheckResult("chi_sandwich")
    for names in catalog_tuples(ring_map, 2, limit(PRODUCT_SIZE_LIMIT)):
        factors = [ring_map[n] for n in names]
        label = " x ".join(names)
        product = make_product(factors)
        core_size = product.size - int(product.unit_mask.sum())
        if core_size > SANDWICH_CORE_LIMIT:
            continue
        bounds = chi_bounds(factors, "any_optimal", budget)
        chi_exact, _ = chromatic_number(build_graph(product), budget)
        sandwich.require(
            bounds.lower <= chi_exact <= bounds.upper,
            f"{label}: chi {chi_exact} outside [{bounds.lower}, {bounds.upper}]",
        )
        col = product_coloring(
            factors[0], bounds.factors[0].coloring, factors[1], bounds.factors[1].coloring
        )
        sandwich.require(
            col.k == bounds.upper, f"{label}: constructed {col.k} colors, upper {bounds.upper}"
        )
    emit(sandwich)
    emit(nil_check)

    # Z_N closed form
    zn_check = CheckResult("zn_closed_form")
    for n in range(1, limit(ZN_OMEGA_LIMIT) + 1):
        g = build_graph(ring_of(f"Z{n}"))
        value = zn_formula(n).value
        omega = max_clique(g, budget).size
        zn_check.require(value == omega, f"Z{n}: formula {value} omega {omega}")
        if n <= limit(ZN_CHI_LIMIT):
            chi, _ = chromatic_number(g, budget)
            zn_check.require(value == chi, f"Z{n}: formula {value} chi {chi}")
    emit(zn_check)

    # reduced rings: products of fields
    reduced = CheckResult("reduced_equality")
    fields = field_rings()
    for arity in (1, 2, 3):
        for names in catalog_tuples(fields, arity, limit(400)):
            factors = [fields[n] for n in names]
            ring = make_product(factors) if len(factors) > 1 else factors[0]
            res = reduced_theorem_check(ring, budget)
            reduced.require(
                res.consistent and res.omega == len(factors) + 1,
                f"{' x '.join(names)}: omega {res.omega} chi {res.chi} r {res.r_count}",
            )
    emit(reduced)

    # the counterexample family
    family_check = CheckResult("counterexample_family")
    for names in FAMILY_FACTORS:
        factors = [ring_of(n) for n in names]
        label = "AN" + ("" if not names else " x " + " x ".join(names))
        rep = counterexample_family(factors, budget)
        family_check.require(rep.gap == 1, f"{label}: gap {rep.gap}")
        family_check.require(
            rep.constructed_colors == rep.chi_lower,
            f"{label}: pinch failed ({rep.constructed_colors} vs {rep.chi_lower})",
        )
        if rep.direct_omega is not None:
            family_check.require(
                rep.direct_omega == rep.omega,
                f"{label}: direct omega {rep.direct_omega} formula {rep.omega}",
            )
    emit(family_check)

    # DSL round trips and CRT sanity
    dsl_check = CheckResult("dsl_round_trip")
    for expr in CATALOG_EXPRS + FIELD_EXPRS + ("Z4 x Z3", "AN0 x Z2", "Z6[t]/(t^3+5t+1)"):
        ast = parse(expr)
        dsl_check.require(parse(print_expr(ast)) == ast, f"{expr}: round trip broke")
    for pair in (("Z6", "Z2 x Z3"), ("Z12", "Z4 x Z3"), ("Z10", "Z2 x Z5")):
        a, b = (build_graph(ring_of(t)) for t in pair)
        same = (
            max_clique(a, budget).size == max_clique(b, budget).size
            and chromatic_number(a, budget)[0] == chromatic_number(b, budget)[0]
        )
        dsl_check.require(same, f"{pair}: isomorphic rings disagree")
    emit(dsl_check)

    # report JSON round trip and witness re-verification
    json_check = CheckResult("report_json_round_trip")
    for name in ring_map:
        rep = analyze(name, budget=budget)
        json_check.require(
            json.loads(json.dumps(rep)) == rep, f"{name}: JSON round trip changed the report"
        )
    emit(json_check)

    # s statistic sanity: any reduced catalog ring has s = 1 under min-s
    s_check = CheckResult("s_statistic")
    for name, g in graphs.items():
        if g.ring.is_reduced():
            _, sz = min_s_optimal_coloring(g, budget)
            s_check.require(sz.s == 1, f"{name}: reduced ring with min s = {sz.s}")
        else:
            _, col = chromatic_number(g, budget)
            s_check.require(s_of(g, col).s >= 1, f"{name}: s < 1")
    emit(s_check)

    return SuiteResult(checks)
