"""The command table's parser against argparse.

The oracle is the argparse parser the command line was built with before
the table replaced it, kept here as it was. For each drawn argv both must
accept or refuse alike, with the same values or the same usage-error line,
and both must stop at -h/--help; only the help text itself differs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beckring import cli
from beckring.rings import DEFAULT_SIZE_CAP

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
COMMANDS = ("analyze", "predict-omega", "bound-chi", "zn", "counterexample", "export", "verify-suite")


class _OracleError(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _OracleError(message)


def _add_flags(p, report=True, s_mode=False):
    if report:
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--budget", type=float, default=None, help="command time budget in seconds")
    p.add_argument("--max-size", type=int, default=DEFAULT_SIZE_CAP, help="override the ring size cap")
    if s_mode:
        p.add_argument("--s-mode", choices=["any", "min"], default="any",
                       help="pick s from any optimal coloring or minimize it")


@functools.cache
def oracle_parser() -> _OracleParser:
    parser = _OracleParser(prog="beckring")
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


def _values(namespace) -> dict:
    # repr tells 1 from 1.0 and lets nan equal nan
    return {name: repr(value) for name, value in vars(namespace).items()}


def _quoted_choices(message: str) -> str:
    """`message` with its choices quoted: later argparse releases print
    choices with str() where 3.10 and 3.11 print repr()."""
    def quote(m):
        names = m.group(1).split(", ")
        if all(n[:1] == "'" for n in names):
            return m.group(0)
        return "(choose from " + ", ".join(map(repr, names)) + ")"
    return re.sub(r"\(choose from (.*)\)$", quote, message)


def by_oracle(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "ok", _values(oracle_parser().parse_args(argv))
    except _OracleError as e:
        return "error", _quoted_choices(str(e))
    except SystemExit as e:
        assert e.code == 0
        return "help", None


def by_table(argv):
    try:
        return "ok", _values(cli.parse_args(argv))
    except cli._UsageError as e:
        return "error", str(e)
    except cli._Help:
        return "help", None


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# each flag's good values, then its bad ones, and positionals: ints and floats
# in every spelling int() and float() take, bad ints, floats and choices, and
# negative numbers. A negative-looking word outside argparse's -\d+ and
# -\d*.\d+ (say -1e3 or -1_0) is left out: later argparse releases read it
# as a number, 3.10 and 3.11 as a flag
VALUES = {
    "--budget": (("3", "0", "-1", "inf", "-inf", "nan", "1e-3", " 2 ", "1_0", "-.5"), ("abc", "", "0x1")),
    "--max-size": (("8", "1_0", " 12 ", "4096", "+7", "٣", "0", "-1"), ("x", "1.5", "")),
    "--s-mode": (("any", "min"), ("max", "MIN", "")),
    "--format": (("dimacs", "json"), ("png",)),
    "--output": (("out.txt", "-", "", "a b"), ()),
}
FLAGS = ("--json", *VALUES)
POSITIONALS = ("Z4", "AN x Z3", "12", "-5", "-1", "1_0", " 12 ", "x", "", "-", "0", "-.5", "inf", "Z2")
ODD_WORDS = ("--frob", "-x", "--jsonx", "--=x", "--json=1", "--help=x", "-h=x", "-hh", "--max-size=", "-- x",
             "-h", "--help", "--he")


@st.composite
def flag_words(draw) -> list[str]:
    """A flag in full or as a prefix of 3 characters or more, with a good or
    a bad value after it or joined by '='."""
    flag = draw(st.sampled_from(FLAGS))
    name = draw(st.sampled_from([flag[:k] for k in range(3, len(flag) + 1)]))
    if flag == "--json":
        return [name]
    good, bad = VALUES[flag]
    value = draw(st.sampled_from(good) | st.sampled_from(bad or good))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


word_lists = st.one_of(
    flag_words(),
    flag_words(),
    st.sampled_from(POSITIONALS).map(lambda w: [w]),
    st.sampled_from(POSITIONALS).map(lambda w: [w]),
    st.sampled_from(ODD_WORDS).map(lambda w: [w]),
    st.just(["--"]),
)


@st.composite
def argvs(draw) -> list[str]:
    """A command, now and then a bad one or none, mostly with nothing before it, then
    its words: at most one `--`, whose handling later argparse releases
    changed."""
    before = draw(st.sampled_from([[]] * 6 + [["--json"], ["-x"], ["--max-size"], ["8"]]))
    command = draw(st.sampled_from(COMMANDS * 4 + ("frobnicate", "an", "", "-5", None)))
    words = [w for ws in draw(st.lists(word_lists, max_size=6)) for w in ws]
    if words.count("--") > 1:
        words = [w for i, w in enumerate(words) if w != "--" or i == words.index("--")]
    return before + ([command] if command is not None else []) + words


@st.composite
def command_argvs(draw) -> list[str]:
    """A command with its own flags only, each a good value in some
    spelling, in any order and repeated, and its positional, negative
    numbers and `--` included: mostly argv that parse."""
    command = draw(st.sampled_from(COMMANDS))
    spec = cli._COMMANDS[command].args
    flags = [a for a in spec if a[0] == "-"]
    words = []
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5)):
        name = draw(st.sampled_from([flag[:k] for k in range(3, len(flag) + 1)]))
        if flag == "--json":
            words.append([name])
        else:
            value = draw(st.sampled_from(VALUES[flag][0]))
            words.append([f"{name}={value}"] if draw(st.booleans()) else [name, value])
    words = draw(st.permutations(words))
    if spec and spec[0][0] != "-":
        many = cli._ARGS[spec[0]].many
        positional = draw(st.lists(st.sampled_from(("Z4", "12", "-5", "1_0", " 7 ", "Z2 x Z3")),
                                   min_size=1 - many, max_size=1 + many))
        if draw(st.booleans()):  # after a --, so last
            words.append(["--", *positional])
        else:
            words.insert(draw(st.integers(0, len(words))), positional)
    return [command, *(w for ws in words for w in ws)]


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_argvs())
def test_table_reads_each_commands_own_argv_as_argparse_did(argv):
    assert by_table(argv) == by_oracle(argv), argv


@settings(max_examples=1500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_table_reads_argv_as_argparse_did(argv):
    want = by_oracle(argv)
    assert by_table(argv) == want, argv
    if want[0] == "error":
        assert run_main(argv) == (1, "", f"usage error: {want[1]}\n"), argv


@pytest.mark.parametrize("argv", [
    ["zn", "1_0", "--js"], ["zn", " 12 ", "--max=8"], ["analyze", "Z4", "--s", "min", "--budget", "-1"],
    ["analyze", "--budget=inf", "--", "Z4"], ["zn", "-5"], ["zn", "--", "-5"], ["counterexample", "--", "Z2", "Z3"],
    ["analyze", "Z4", "--max-size", "8", "--max-size", "16"], ["export", "Z4", "--f", "json", "--o=x.json"],
    ["bound-chi", "--json", "--s-mode", "min", "Z4 x Z4 x Z3"], ["counterexample"], ["verify-suite", "--max", "1_6"],
])
def test_accepted_spellings(argv):
    state, values = by_table(argv)
    assert state == "ok" and (state, values) == by_oracle(argv)


@pytest.mark.parametrize("argv,message", [
    (["counterexample", "Z2", "--json", "Z3"], "unrecognized arguments: Z3"),
    (["export", "Z4", "--json"], "unrecognized arguments: --json"),
    (["analyze", "Z4", "--budget"], "argument --budget: expected one argument"),
    (["analyze", "Z4", "--s-mode", "max"], "argument --s-mode: invalid choice: 'max' (choose from 'any', 'min')"),
    ([], "the following arguments are required: command"),
    (["zn"], "the following arguments are required: n"),
    (["zn", "x"], "argument n: invalid int value: 'x'"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate' (choose from 'analyze', 'predict-omega', "
                     "'bound-chi', 'zn', 'counterexample', 'export', 'verify-suite')"),
    (["analyze", "Z4", "--=1"], "ambiguous option: --=1 could match --help, --json, --budget, --max-size, --s-mode"),
    (["analyze", "Z4", "--json=yes"], "argument --json: ignored explicit argument 'yes'"),
])
def test_refused_argv(argv, message):
    assert by_oracle(argv) == ("error", message)
    assert run_main(argv) == (1, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["zn", "-1_0"], "the following arguments are required: n"),
    (["analyze", "Z4", "--budget", "-1e3"], "argument --budget: expected one argument"),
    (["analyze", "Z4", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["analyze", "-hh=x"], "argument -h/--help: ignored explicit argument '=x'"),
    (["zn", "-h x"], "argument -h/--help: ignored explicit argument ' x'"),
    (["zn", "-h=h"], None),
])
def test_spellings_later_argparse_releases_read_otherwise(argv, message):
    # as argparse 3.10 to 3.12 read them, on every Python: a negative-looking
    # word that is not -\d+ or -\d*.\d+ is a flag, and text joined to -h
    # reads as more one-letter flags, of which only -h exists
    if message is None:
        assert run_main(argv)[:2] == (0, run_main([argv[0], "-h"])[1])
    else:
        assert run_main(argv) == (1, "", f"usage error: {message}\n")


def test_main_returns_0_with_help_on_stdout():
    # -h and --help print the table's help and return; main raises no SystemExit
    rc, out, err = run_main(["--help"])
    assert (rc, err) == (0, "")
    for name, command in cli._COMMANDS.items():
        assert f"usage: beckring {name}" in out and command.help in out
    for name, arg in cli._ARGS.items():
        assert cli._synopsis(name) in out and arg.help in out
        assert all(choice in out for choice in arg.choices)
        if arg.type is not None and arg.default is not None:
            assert f"(default: {arg.default})" in out
    rc, one, err = run_main(["zn", "-h"])
    assert (rc, err) == (0, "")
    assert one.startswith("usage: beckring zn N ") and one in out and "export" not in one
    assert run_main(["analyze", "Z4", "--he"])[:2] == (0, run_main(["analyze", "--help"])[1])


def test_importing_the_cli_loads_no_argparse():
    code = "import sys, beckring.cli; print('argparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout == "False\n"
