"""Full analysis reports with re-verified witnesses and theorem checks.

The JSON schema is fixed, with stable key order for diff-ability:

    {ring, size, local, reduced, units, zero_divisors,
     nilradical: {size, index, power_sizes},
     omega: {value, witness}, chi: {value, classes},
     split: {B, C}, s, checks: [{name, expected, actual, pass}]}

Witness elements are rendered in coordinate-tuple form, never as raw
indices. `_dumps` writes the JSON text that every command's --json prints,
and verify-suite's report_json_round_trip reads it back. The coloring and s come from theorems.factor_coloring, the
reduced-ring checks from theorems.reduced_theorem_check.

omega, chi, the split and s are read from the solvers' memo on the ring's
graph. A product's formula and sandwich are evaluated first, from its
factors: where the sandwich closes, theorems.pinch_product keeps the
formula's witness and the product coloring there as those answers, after
verifying both on the product's graph, and the product is not searched.
Elsewhere the solvers search its core, as they do any other ring's.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .dsl import ProductExpr, ZmodAtom, elaborate, parse, print_expr
from .errors import InternalCheckError
from .graphs import build_graph
from .rings import DEFAULT_SIZE_CAP
from .solvers import (
    Budget,
    _Deadline,
    _verified_once,
    best_clique_split,
    chromatic_number,
    max_clique,
    verify_clique,
)
from .theorems import (
    _check_s_mode,
    an_condition_for,
    chi_bounds,
    factor_coloring,
    nilradical_bound,
    omega_product_formula,
    pinch_product,
    reduced_theorem_check,
    zn_formula,
)


# the JSON text of each scalar type, as json.dumps writes it
_LITERALS = {True: "true", False: "false", None: "null"}
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, bool: _LITERALS.get, type(None): _LITERALS.get}


def _dumps(x, pad: str = "\n") -> str:
    """The bytes of `json.dumps(x, indent=2)`, its later lines indented by
    `pad` less its newline. The stdlib's indenting encoder is pure Python,
    so a list of strings (an analysis's color classes) is joined here in
    one pass. Anything but a list, a str-keyed dict and a plain scalar is
    left to the stdlib, re-indented: JSON text holds no raw newline."""
    kind = type(x)
    if kind in _SCALARS:
        return _SCALARS[kind](x)
    if kind is list or kind is dict and set(map(type, x)) <= {str}:
        if not x:
            return "[]" if kind is list else "{}"
        inner = pad + "  "
        if kind is list and set(map(type, x)) == {str}:
            items = map(encode_basestring_ascii, x)
        elif kind is list:
            items = [_SCALARS[type(v)](v) if type(v) in _SCALARS else _dumps(v, inner) for v in x]
        else:
            items = [encode_basestring_ascii(k) + ": " + (_SCALARS[type(v)](v) if type(v) in _SCALARS else _dumps(v, inner))
                     for k, v in x.items()]
        opening, closing = "[]" if kind is list else "{}"
        return opening + inner + ("," + inner).join(items) + pad + closing
    return json.dumps(x, indent=2).replace("\n", pad)


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

    if isinstance(ast, ProductExpr):
        # the formula and the sandwich first, from the factors' solves (g
        # holds their graphs): where the sandwich closes they pin omega,
        # chi, the split and min-s on g, and its core is not searched
        pred = omega_product_formula(ring.factors, deadline, size_cap)
        bounds = chi_bounds(ring.factors, s_mode, deadline)
        pinch_product(g, pred, bounds, deadline)

    clique = max_clique(g, deadline)
    chi_val = chromatic_number(g, deadline)[0]
    split = best_clique_split(g, deadline)

    if not _verified_once(g, verify_clique, clique.vertices):
        raise InternalCheckError("clique witness failed re-verification")
    if not _verified_once(g, verify_clique, split.clique.vertices):
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
        checks.append(
            _check("product_omega_formula", pred.predicted, omega_val, pred.predicted == omega_val)
        )
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
