"""Command-line front end.

Exit codes: 0 success, 1 usage, 2 parse error, 3 capacity exceeded,
4 budget exhausted, 5 verification failure. One deadline, from --budget,
else BECKRING_BUDGET, else 60 s, bounds every solve a command makes;
export takes no --budget, and only analyze and bound-chi take --s-mode.
One size cap, --max-size, else 4096, holds every ring a command builds
where it is built, AN and the counterexample product included; above it,
predict-omega and bound-chi skip their direct solve and still answer.

One table, `_COMMANDS`, gives each command its handler, help line and
arguments, and `_ARGS` each argument its type, default, help line and
choices; parsing, dispatch, -h/--help and every usage error read them.
`parse_args` reads an argv as argparse did for these commands: a unique
prefix of a flag names it (`--js`), `--flag=value` joins a value, `--`
ends the flags, a repeated flag keeps its last value, a negative number
is a value or a positional (`--budget -1`, `zn -5`), values are converted
by `int` and `float` themselves, and a rejected argv gets argparse's
message. A parse keeps nothing from one call to the next.
"""

from __future__ import annotations

import math
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .dsl import ProductExpr, elaborate, elaborate_factors, parse, print_expr, ring_of
from .errors import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, BeckringError
from .graphs import build_graph, export_graph
from .report import _dumps, analyze, render_report
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


class _Help(Exception):
    """-h or --help was given: the help text to print."""


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


class _Arg(NamedTuple):
    """A positional, named without dashes, or a flag. `type` converts the
    text given, or is None for a switch, which is True when given; a `many`
    positional takes every positional of its run."""

    type: Callable | None
    default: object
    help: str
    choices: tuple[str, ...] = ()
    many: bool = False


class _Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    help: str
    args: tuple[str, ...]  # keys of _ARGS: the positional, then the flags


_ARGS = {
    "expr": _Arg(str, None, 'a ring expression, such as "Z4 x Z8"'),
    "n": _Arg(int, None, "the modulus N of Z_N"),
    "factors": _Arg(str, None, "reduced factor expressions", many=True),
    "--json": _Arg(None, False, "emit a JSON report"),
    "--budget": _Arg(float, None, "command time budget in seconds (default: BECKRING_BUDGET, else 60)"),
    "--max-size": _Arg(int, DEFAULT_SIZE_CAP, "override the ring size cap"),
    "--s-mode": _Arg(str, "any", "pick s from any optimal coloring or minimize it", ("any", "min")),
    "--format": _Arg(str, "dimacs", "the graph file format", ("dimacs", "json")),
    "--output": _Arg(str, None, "output path (default stdout)"),
}
_REPORT = ("--json", "--budget", "--max-size")
_COMMANDS = {
    "analyze": _Command(_cmd_analyze, "full invariant report for a ring expression", ("expr", *_REPORT, "--s-mode")),
    "predict-omega": _Command(_cmd_predict_omega, "product clique formula vs direct solve", ("expr", *_REPORT)),
    "bound-chi": _Command(_cmd_bound_chi, "chromatic bounds of a product", ("expr", *_REPORT, "--s-mode")),
    "zn": _Command(_cmd_zn, "closed form for Z_N vs direct solve", ("n", *_REPORT)),
    "counterexample": _Command(_cmd_counterexample, "clique/chromatic gap of the built-in family", ("factors", *_REPORT)),
    "export": _Command(_cmd_export, "write the Beck graph in DIMACS or JSON form",
                       ("expr", "--format", "--output", "--max-size")),
    "verify-suite": _Command(_cmd_verify_suite, "run the catalog property suite", _REPORT),
}
_HELP = ("-h", "--help")  # the program's and every command's
# argparse's test for a negative number, which is a positional or a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _choices(names) -> str:
    return ", ".join(map(repr, names))


def _option(arg: str, options: tuple[str, ...]):
    """How `arg` reads among `options`: None for a positional, else the pair
    (option, text joined to it or None), the option None if unknown. A
    unique prefix of a long option names it; a one-dash option takes text
    joined to it."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in options:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in options:
        return name, value
    if arg[1] == "-":
        found = [(o, value if eq else None) for o in options if o.startswith(name)]
    else:
        found = [(o, arg[2:] if o == arg[:2] else None) for o in options if o == arg[:2] or o.startswith(arg)]
    if len(found) > 1:
        raise _UsageError(f"ambiguous option: {arg} could match {', '.join(o for o, _ in found)}")
    if found:
        return found[0]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _take_help(option: str, joined: str | None, command: str | None):
    """Raise _Help with the help of `command`, or of every command. Text
    joined to -h reads as more one-letter flags, of which there is only -h;
    any other is an error."""
    if joined is not None:
        rest = joined.lstrip("h") if option == "-h" and joined else joined
        if rest or not joined:
            raise _UsageError(f"argument -h/--help: ignored explicit argument {rest!r}")
    raise _Help(_help_text(command))


def _convert(name: str, text: str):
    arg = _ARGS[name]
    try:
        value = arg.type(text)
    except ValueError:
        raise _UsageError(f"argument {name}: invalid {arg.type.__name__} value: {text!r}") from None
    if arg.choices and value not in arg.choices:
        raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {_choices(arg.choices)})")
    return value


def parse_args(argv) -> SimpleNamespace:
    """`command` and one attribute per argument of that command, read from
    `argv` by the table. Raises _Help for -h/--help, and _UsageError with
    argparse's message for an argv argparse refused."""
    argv = list(argv)
    extras = []  # unknown flags, reported once the command parsed
    for i, arg in enumerate(argv):
        kind = None if arg == "--" else _option(arg, _HELP)
        if kind is None:
            break
        if kind[0] is None:
            extras.append(arg)
        else:
            _take_help(*kind, None)
    else:
        i = len(argv)
    if i == len(argv) or argv[i:] == ["--"]:
        raise _UsageError("the following arguments are required: command")
    name, args = argv[i], argv[i + 1:]
    if name not in _COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {name!r} (choose from {_choices(_COMMANDS)})")
    spec = _COMMANDS[name].args
    positional = spec[0] if spec and spec[0][0] != "-" else None
    options = _HELP + (spec[1:] if positional else spec)
    sep = args.index("--") if "--" in args else None  # no flag after it
    kinds = [_option(arg, options) for arg in args[:sep]]
    values = {"command": name, **{_dest(a): _ARGS[a].default for a in spec}}
    k = 0
    while k < len(args):
        if k < len(kinds) and kinds[k] is not None:
            option, joined = kinds[k]
            if option is None:
                extras.append(args[k])
            elif option in _HELP:
                _take_help(option, joined, name)
            elif _ARGS[option].type is None:
                if joined is not None:
                    raise _UsageError(f"argument {option}: ignored explicit argument {joined!r}")
                values[_dest(option)] = True
            else:
                if joined is None:
                    if k + 1 >= len(kinds) or kinds[k + 1] is not None:
                        raise _UsageError(f"argument {option}: expected one argument")
                    k += 1
                    joined = args[k]
                values[_dest(option)] = _convert(option, joined)
            k += 1
            continue
        j = k  # a run of positionals, up to the next flag
        while j < len(args) and (j >= len(kinds) or kinds[j] is None):
            j += 1
        if positional is None:
            extras += args[k:j]
        elif _ARGS[positional].many:  # the whole run, less the --
            values[_dest(positional)] = [_convert(positional, a) for m, a in enumerate(args[k:j], k) if m != sep]
            positional = None
        else:  # one positional, with a -- just before or after it
            a = k + (k == sep)
            if a < j:
                stop = a + 1 + (a + 1 == sep)
                values[_dest(positional)] = _convert(positional, args[a])
                positional = None
                k = stop
            extras += args[k:j]
        k = j
    if positional is not None:
        if not _ARGS[positional].many:
            raise _UsageError(f"the following arguments are required: {positional}")
        values[_dest(positional)] = []
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _synopsis(name: str) -> str:
    """How argument `name` is written: `EXPR`, `--budget BUDGET`, `--json`."""
    arg = _ARGS[name]
    meta = "{" + ",".join(arg.choices) + "}" if arg.choices else _dest(name).upper()
    if name[0] != "-":
        return f"[{meta} ...]" if arg.many else meta
    return name if arg.type is None else f"{name} {meta}"


def _help_text(name: str | None) -> str:
    """The help of command `name`: its usage and help line, then each
    argument's help and default; with no name, every command's."""
    if name is None:
        return "\n\n".join([
            "usage: beckring COMMAND [ARGS]; beckring COMMAND --help shows one command\n"
            "exit codes: 0 success, 1 usage, 2 parse error, 3 capacity exceeded,\n"
            "4 budget exhausted, 5 verification failure",
            *map(_help_text, _COMMANDS),
        ])
    command = _COMMANDS[name]
    words = [_synopsis(a) if a[0] != "-" else f"[{_synopsis(a)}]" for a in command.args]
    lines = [f"usage: beckring {name} {' '.join(words)}".rstrip(), f"  {command.help}"]
    for a in command.args:
        arg = _ARGS[a]
        default = "" if arg.default is None or arg.type is None else f" (default: {arg.default})"
        lines.append(f"  {_synopsis(a):<24}{arg.help}{default}")
    lines.append(f"  {'-h, --help':<24}show this help")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.max_size < 1:  # a cap that holds no ring at all
            raise _UsageError(f"argument --max-size: expected a positive integer, got {args.max_size}")
        if hasattr(args, "budget"):  # one deadline per command
            args.budget = _Deadline(args.budget)
        if hasattr(args, "s_mode"):  # the library's spelling of --s-mode any|min
            args.s_mode = {"any": "any_optimal", "min": "min_s"}[args.s_mode]
        return _COMMANDS[args.command].run(args)
    except _Help as e:
        print(e)
        return EXIT_OK
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
