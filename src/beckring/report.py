"""Full analysis reports with re-verified witnesses and theorem checks.

The JSON schema is fixed, with stable key order for diff-ability:

    {ring, size, local, reduced, units, zero_divisors,
     nilradical: {size, index, power_sizes},
     omega: {value, witness}, chi: {value, classes},
     split: {B, C}, s, checks: [{name, expected, actual, pass}]}

Witness elements are rendered in coordinate-tuple form, never as raw
indices. The coloring and s come from theorems.factor_coloring, the
reduced-ring checks from theorems.reduced_theorem_check.
"""

from __future__ import annotations

from .dsl import ProductExpr, ZmodAtom, elaborate, parse, print_expr
from .errors import InternalCheckError
from .graphs import build_graph
from .rings import DEFAULT_SIZE_CAP
from .solvers import Budget, _Deadline, best_clique_split, chromatic_number, max_clique, verify_clique
from .theorems import (
    _check_s_mode,
    an_condition_for,
    chi_bounds,
    factor_coloring,
    nilradical_bound,
    omega_product_formula,
    reduced_theorem_check,
    zn_formula,
)


def _check(name: str, expected, actual, ok: bool) -> dict:
    return {"name": name, "expected": expected, "actual": actual, "pass": bool(ok)}


def analyze(
    expr_text: str,
    budget: Budget = None,
    s_mode: str = "any_optimal",
    size_cap: int = DEFAULT_SIZE_CAP,
) -> dict:
    """Analyze the ring denoted by `expr_text` and return the report dict.

    The whole call runs on one deadline, which each solve and theorem
    check is handed."""
    deadline = _Deadline(budget)
    _check_s_mode(s_mode)
    ast = parse(expr_text)
    ring = elaborate(ast, size_cap=size_cap)
    g = build_graph(ring)

    clique = max_clique(g, deadline)
    chi_val = chromatic_number(g, deadline)[0]
    split = best_clique_split(g, deadline)

    if not verify_clique(g, clique.vertices):
        raise InternalCheckError("clique witness failed re-verification")
    if not verify_clique(g, split.clique.vertices):
        raise InternalCheckError("split witness failed re-verification")

    profile = ring.nilradical()
    omega_val = clique.size

    checks = [_check("omega_le_chi", True, omega_val <= chi_val, omega_val <= chi_val)]
    if isinstance(ast, ZmodAtom):
        zn = zn_formula(ast.n)
        checks.append(_check("zn_formula_omega", zn.value, omega_val, zn.value == omega_val))
        checks.append(_check("zn_formula_chi", zn.value, chi_val, zn.value == chi_val))
    if ring.is_reduced():
        reduced = reduced_theorem_check(ring, deadline)
        expect = reduced.r_count + 1
        checks.append(_check("reduced_omega", expect, reduced.omega, expect == reduced.omega))
        checks.append(_check("reduced_chi", expect, reduced.chi, expect == reduced.chi))
    if ring.size >= 2:
        # the nilpotency-index bound presumes a nonzero ring
        bound = nilradical_bound([ring]).bound
        checks.append(_check("nilradical_lower_bound", bound, omega_val, omega_val >= bound))
        condition = an_condition_for(ring)
        if condition.holds:
            checks.append(
                _check(
                    "an_condition_equality",
                    bound,
                    omega_val,
                    omega_val == chi_val == bound,
                )
            )
    if isinstance(ast, ProductExpr):
        # g holds the factors' graphs, so both checks share their solves
        pred = omega_product_formula(ring.factors, deadline, size_cap)
        checks.append(
            _check("product_omega_formula", pred.predicted, omega_val, pred.predicted == omega_val)
        )
        bounds = chi_bounds(ring.factors, s_mode, deadline)
        checks.append(_check("chi_lower_bound", bounds.lower, chi_val, chi_val >= bounds.lower))
        checks.append(_check("chi_upper_bound", bounds.upper, chi_val, chi_val <= bounds.upper))

    # the reported coloring last: min-s, cut short by the budget, still
    # answers, with the chi-coloring and an upper bound on s, so it must
    # not take the time of the checks above
    final = factor_coloring(ring, s_mode, deadline)

    els = ring.element_strs
    return {
        "ring": print_expr(ast),
        "size": ring.size,
        "local": ring.is_local(),
        "reduced": ring.is_reduced(),
        "units": int(ring.unit_mask.sum()),
        "zero_divisors": int(ring.zero_divisor_mask.sum()),
        "nilradical": {
            "size": profile.power_sizes[0],
            "index": profile.index_of_nilpotency,
            "power_sizes": list(profile.power_sizes),
        },
        "omega": {"value": omega_val, "witness": list(map(els.__getitem__, clique.vertices))},
        "chi": {"value": chi_val, "classes": [list(map(els.__getitem__, c)) for c in final.coloring.classes()]},
        "split": {"B": list(map(els.__getitem__, split.b_part)), "C": list(map(els.__getitem__, split.c_part))},
        "s": final.s,
        "checks": checks,
    }


def render_report(report: dict) -> str:
    lines = [
        f"ring {report['ring']}: {report['size']} elements, "
        f"local={'yes' if report['local'] else 'no'}, reduced={'yes' if report['reduced'] else 'no'}",
        f"units {report['units']}, zero-divisors {report['zero_divisors']}",
        "nilradical size {size}, index {index}, power sizes {power_sizes}".format(**report["nilradical"]),
        f"omega = {report['omega']['value']}, witness {{{', '.join(report['omega']['witness'])}}}",
        f"chi = {report['chi']['value']}",
    ]
    for i, cls in enumerate(report["chi"]["classes"]):
        lines.append(f"  class {i}: {{{', '.join(cls)}}}")
    lines.append(
        f"split |B|={len(report['split']['B'])} |C|={len(report['split']['C'])}: "
        f"B={{{', '.join(report['split']['B'])}}} C={{{', '.join(report['split']['C'])}}}"
    )
    lines.append(f"s = {report['s']}")
    for chk in report["checks"]:
        verdict = "PASS" if chk["pass"] else "FAIL"
        lines.append(
            f"check {chk['name']}: expected {chk['expected']}, actual {chk['actual']} ... {verdict}"
        )
    return "\n".join(lines)
