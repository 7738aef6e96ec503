"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 parse error, 3 capacity exceeded,
4 budget exhausted, 5 verification failure. One deadline, from --budget,
else BECKRING_BUDGET, else 60 s, bounds every solve a command makes;
export takes no --budget, and only analyze and bound-chi take --s-mode.
One size cap, --max-size, else 4096, holds every ring a command builds
where it is built, AN and the counterexample product included; above it,
predict-omega and bound-chi skip their direct solve and still answer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from .dsl import ProductExpr, elaborate, elaborate_factors, parse, print_expr, ring_of
from .errors import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, BeckringError
from .graphs import build_graph, export_graph
from .report import analyze, render_report
from .rings import DEFAULT_SIZE_CAP, make_product
from .solvers import _Deadline, chromatic_number, max_clique
from .theorems import (
    DEFAULT_DIRECT_CAP,
    chi_bounds,
    counterexample_family,
    omega_product_formula,
    zn_formula,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_flags(p: _Parser, report: bool = True, s_mode: bool = False):
    if report:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--budget", type=float, default=None, help="command time budget in seconds")
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_CAP, help="override the ring size cap")
    if s_mode:
        p.add_argument("--s-mode", choices=["any", "min"], default="any",
                       help="pick s from any optimal coloring or minimize it")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: argparse reads the
    terminal size on every add_argument, which costs each in-process call
    of main() milliseconds. Parsing leaves it unchanged."""
    parser = _Parser(prog="beckring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full invariant report for a ring expression")
    p.add_argument("expr")
    _add_flags(p, s_mode=True)

    p = sub.add_parser("predict-omega", help="product clique formula vs direct solve")
    p.add_argument("expr")
    _add_flags(p)

    p = sub.add_parser("bound-chi", help="chromatic bounds of a product")
    p.add_argument("expr")
    _add_flags(p, s_mode=True)

    p = sub.add_parser("zn", help="closed form for Z_N vs direct solve")
    p.add_argument("n", type=int)
    _add_flags(p)

    p = sub.add_parser("counterexample", help="clique/chromatic gap of the built-in family")
    p.add_argument("factors", nargs="*", help="reduced factor expressions")
    _add_flags(p)

    p = sub.add_parser("export", help="write the Beck graph in DIMACS or JSON form")
    p.add_argument("expr")
    p.add_argument("--format", choices=["dimacs", "json"], default="dimacs")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    _add_flags(p, report=False)

    p = sub.add_parser("verify-suite", help="run the catalog property suite")
    _add_flags(p)

    return parser


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


def _emit(payload: dict, as_json: bool, text: str | None, ok: bool) -> int:
    print(_dumps(payload) if as_json else text)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_analyze(args) -> int:
    report = analyze(args.expr, budget=args.budget, s_mode=args.s_mode, size_cap=args.max_size)
    text = None if args.json else render_report(report)
    return _emit(report, args.json, text, all(c["pass"] for c in report["checks"]))


def _direct_graph(factors, cap: int):
    """The graph of the product of `factors` when its direct solve is due
    (at most DEFAULT_DIRECT_CAP elements and the cap), else None. Built
    before the factors are solved: it holds their graphs, so the formula or
    the bounds and the direct solve share them."""
    if math.prod(f.size for f in factors) > min(DEFAULT_DIRECT_CAP, cap):
        return None
    return build_graph(make_product(factors, size_cap=cap) if len(factors) > 1 else factors[0])


def _cmd_predict_omega(args) -> int:
    ast = parse(args.expr)
    if not isinstance(ast, ProductExpr) or len(ast.atoms) < 2:
        raise _UsageError("predict-omega needs a product of at least two factors")
    factors = elaborate_factors(ast.atoms, args.max_size)
    gp = _direct_graph(factors, args.max_size)
    pred = omega_product_formula(factors, args.budget, args.max_size)
    direct = None if gp is None else max_clique(gp, args.budget).size
    ok = direct is None or direct == pred.predicted
    payload = {
        "ring": print_expr(ast),
        "factors": [
            {"ring": print_expr(a), "omega": om, "B": b, "C": c}
            for a, (om, b, c) in zip(ast.atoms, pred.per_factor)
        ],
        "predicted_omega": pred.predicted,
        "direct_omega": direct,
        "pass": ok,
    }
    lines = [f"ring {payload['ring']}"]
    for f in payload["factors"]:
        lines.append(f"  factor {f['ring']}: omega={f['omega']} |B|={f['B']} |C|={f['C']}")
    lines.append(f"predicted omega = {pred.predicted}")
    lines.append(
        f"direct omega = {direct} ... {'PASS' if ok else 'FAIL'}"
        if direct is not None
        else "direct solve skipped (product too large)"
    )
    return _emit(payload, args.json, "\n".join(lines), ok)


def _cmd_bound_chi(args) -> int:
    ast = parse(args.expr)
    atoms = ast.atoms if isinstance(ast, ProductExpr) else (ast,)
    factors = elaborate_factors(atoms, args.max_size)
    gp = _direct_graph(factors, args.max_size)
    bounds = chi_bounds(factors, args.s_mode, args.budget)
    exact = None if gp is None else chromatic_number(gp, args.budget)[0]
    ok = exact is None or bounds.lower <= exact <= bounds.upper
    payload = {
        "ring": print_expr(ast),
        "s_mode": bounds.s_mode,
        "factors": [
            {"ring": print_expr(a), "chi": f.chi, "s": f.s, "s_exact": f.s_exact}
            for a, f in zip(atoms, bounds.factors)
        ],
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact_chi": exact,
        "pass": ok,
    }
    lines = [f"ring {payload['ring']} (s-mode {bounds.s_mode})"]
    for f in payload["factors"]:
        note = "" if f["s_exact"] else " (achieved, not proven minimal)"
        lines.append(f"  factor {f['ring']}: chi={f['chi']} s={f['s']}{note}")
    lines.append(f"bounds: {bounds.lower} <= chi <= {bounds.upper}")
    if exact is not None:
        lines.append(f"exact chi = {exact} ... {'PASS' if ok else 'FAIL'}")
    else:
        lines.append("exact chi skipped (product too large)")
    return _emit(payload, args.json, "\n".join(lines), ok)


def _cmd_zn(args) -> int:
    # Z_N first, so that N is held to the size cap before it is factored;
    # the formula refuses N < 1
    ring = ring_of(f"Z{args.n}", size_cap=args.max_size) if args.n >= 1 else None
    res = zn_formula(args.n)
    g = build_graph(ring)
    omega = max_clique(g, args.budget).size
    chi, _ = chromatic_number(g, args.budget)
    ok = res.value == omega == chi
    payload = {
        "n": args.n,
        "factorization": [[p, e] for p, e in res.factorization],
        "formula": res.value,
        "omega": omega,
        "chi": chi,
        "pass": ok,
    }
    text = (
        f"Z{args.n}: formula {res.value}, solver omega {omega}, solver chi {chi}"
        f" ... {'PASS' if ok else 'FAIL'}"
    )
    return _emit(payload, args.json, text, ok)


def _cmd_counterexample(args) -> int:
    factors = elaborate_factors(map(parse, args.factors), args.max_size)
    rep = counterexample_family(factors, args.budget, args.max_size)
    ok = rep.gap == 1 and rep.constructed_colors == rep.chi_lower and (
        rep.direct_omega is None or rep.direct_omega == rep.omega
    )
    payload = {
        "an_variant": rep.an_variant,
        "factors": list(rep.factor_names),
        "size": rep.product_size,
        "omega": rep.omega,
        "chi": rep.chi,
        "gap": rep.gap,
        "chi_lower": rep.chi_lower,
        "constructed_colors": rep.constructed_colors,
        "direct_omega": rep.direct_omega,
        "pass": ok,
    }
    label = "AN" + ("".join(f" x {n}" for n in rep.factor_names))
    lines = [
        f"ring {label}: {rep.product_size} elements",
        f"omega = {rep.omega}" + (f" (direct solve {rep.direct_omega})" if rep.direct_omega is not None else ""),
        f"chi = {rep.chi} (lower bound {rep.chi_lower} = constructed coloring {rep.constructed_colors})",
        f"gap chi - omega = {rep.gap} ... {'PASS' if ok else 'FAIL'}",
    ]
    return _emit(payload, args.json, "\n".join(lines), ok)


def _cmd_export(args) -> int:
    ring = elaborate(parse(args.expr), size_cap=args.max_size)
    text = export_graph(build_graph(ring), args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as f:
                f.write(text + "\n")
        except OSError as e:
            print(f"error: cannot write {args.output}: {e.strerror or e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        print(text)
    return EXIT_OK


def _cmd_verify_suite(args) -> int:
    from .verify import run_suite  # only this command loads the suite and its oracles

    result = run_suite(max_size=args.max_size, budget=args.budget, progress=None if args.json else print)
    payload = {
        "checks": [
            {"name": c.name, "passed": c.passed, "failed": c.failed, "failures": c.failures}
            for c in result.checks
        ],
        "pass": result.ok,
    }
    lines = [f"    failing instance: {f}" for c in result.checks for f in c.failures[:5]]
    lines.append("suite: " + ("ALL PASS" if result.ok else "FAILURES PRESENT"))
    return _emit(payload, args.json, "\n".join(lines), result.ok)


_COMMANDS = {
    "analyze": _cmd_analyze,
    "predict-omega": _cmd_predict_omega,
    "bound-chi": _cmd_bound_chi,
    "zn": _cmd_zn,
    "counterexample": _cmd_counterexample,
    "export": _cmd_export,
    "verify-suite": _cmd_verify_suite,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.max_size < 1:  # a cap that holds no ring at all
            raise _UsageError(f"argument --max-size: expected a positive integer, got {args.max_size}")
        if "budget" in args:  # one deadline per command
            args.budget = _Deadline(args.budget)
        if "s_mode" in args:  # the library's spelling of --s-mode any|min
            args.s_mode = {"any": "any_optimal", "min": "min_s"}[args.s_mode]
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BeckringError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


def run() -> None:
    """The console entry point. A reader that closes stdout early (`| head`)
    ends the command with exit 1 and no traceback, by the recipe of Python's
    `signal` docs: stdout goes to devnull, so the last flush cannot fail."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    run()
