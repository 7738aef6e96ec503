"""The table of factors: atoms held across requests in one process.

`dsl.held_factor` keeps each factor atom's ring and graph, and so its
finished solves, from one request to the next. What a request prints must
not depend on what ran before it in the process; the size cap and the
budget hold on held factors as on new ones; the held rings' sizes sum to
at most DEFAULT_SIZE_CAP, the least recently used going first, and an
evicted graph is freed without the cycle collector.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
import weakref

import pytest

from beckring import build_graph, cli, dsl, graphs, solvers
from beckring.graphs import HeldTable
from beckring.dsl import ANAtom, ZmodAtom, elaborate_factors, held_factor, parse, ring_of
from beckring.rings import DEFAULT_SIZE_CAP

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every command, both s-modes, a spent budget and a ring above the cap; the
# budget-0 product is AN's, whose sandwich stays open, so that its own core
# is searched, and cut, whatever its factors' graphs already hold
REQUESTS = (
    ["analyze", "Z4 x Z8 x Z8", "--json"],
    ["analyze", "AN x Z3", "--s-mode", "min"],
    ["analyze", "Z8"],
    ["predict-omega", "Z4 x Z8 x AN"],
    ["bound-chi", "Z4 x Z9 x Z3", "--s-mode", "min", "--json"],
    ["counterexample", "Z2", "Z3", "--json"],
    ["zn", "72"],
    ["export", "Z8 x Z2[t]/(t^2)", "--format", "json", "--output", "{out}"],
    ["verify-suite", "--max-size", "16"],
    ["verify-suite", "--json"],
    ["analyze", "AN x Z8 x Z2", "--budget", "0"],
    ["analyze", "Z16 x Z1", "--max-size", "8"],
)


def run(argv, tmp_path, tag):
    """Exit code, stdout and export file of one request, in this process."""
    out_path = tmp_path / f"{tag}.out"
    argv = [arg.format(out=out_path) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    exported = out_path.read_bytes() if out_path.exists() else None
    return rc, stdout.getvalue(), exported


@pytest.mark.isolated
def test_results_do_not_depend_on_request_order(monkeypatch, tmp_path, empty_factor_table):
    alone = {}
    for i, argv in enumerate(REQUESTS):
        monkeypatch.setattr(dsl, "_factors", HeldTable())
        monkeypatch.setattr(graphs, "_cores", HeldTable())
        alone[i] = run(argv, tmp_path, f"alone{i}")
    monkeypatch.setattr(dsl, "_factors", empty_factor_table)
    monkeypatch.setattr(graphs, "_cores", HeldTable())
    order = list(range(len(REQUESTS)))
    for label, seq in (("forward", order), ("reversed", order[::-1])):
        for i in seq:
            assert run(REQUESTS[i], tmp_path, f"{label}{i}") == alone[i], f"{label}: {REQUESTS[i]}"
    assert empty_factor_table, "no factor was held"
    assert [rc for rc, _, _ in alone.values()][-2:] == [4, 3]


def test_a_held_ring_above_the_cap_is_refused(capsys, empty_factor_table):
    # the cap is read before the table: a held Z16, AN or quotient above
    # --max-size exits 3 with the message a new ring gets
    for warm, refused, message in (
        ("Z16 x Z2", "Z16 x Z1", "ring size 16 exceeds cap 8"),
        ("AN x Z2", "AN x Z1", "ring size 32 exceeds cap 8"),
        ("Z2[t]/(t^4) x Z2", "Z2[t]/(t^4) x Z1", "ring size 16 exceeds cap 8"),
    ):
        assert cli.main(["analyze", warm]) == 0
        assert parse(warm).atoms[0] in empty_factor_table
        capsys.readouterr()
        assert cli.main(["analyze", "--max-size", "8", refused]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert parse(warm).atoms[0] in empty_factor_table  # still held


def cut_short(g) -> list[str]:
    """The memo entries of `g` and its core that a budget cut short."""
    bad = []
    for where, memo in (("graph", g.solved), ("core", g.core().solved)):
        search = memo.get("clique")
        if search is not None and (search.result is None or search.split is None):
            bad.append(f"{where}: clique search")
        if "min_s" in memo and memo["min_s"][1].lower != memo["min_s"][1].s:
            bad.append(f"{where}: min-s interval")
    return bad


@pytest.mark.isolated
def test_a_spent_budget_leaves_no_cut_short_solve_on_held_factors(capsys, empty_factor_table):
    expr = "AN x Z8 x Z2"
    for argv in (["bound-chi", expr, "--s-mode", "min", "--budget", "0"],
                 ["analyze", expr, "--budget", "0"],
                 ["analyze", expr, "--budget", "0.001", "--s-mode", "min"]):
        assert cli.main(argv) in (0, 4)
    capsys.readouterr()
    assert len(empty_factor_table) == 3
    for g in empty_factor_table.values():
        assert cut_short(g) == []
    # a later request prints what a fresh process prints
    argv = ["bound-chi", expr, "--s-mode", "min", "--json"]
    assert cli.main(argv) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    fresh = subprocess.run([sys.executable, "-m", "beckring.cli", *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert (fresh.returncode, fresh.stdout) == (0, capsys.readouterr().out)


def test_a_spent_budget_on_solved_factors_answers_or_stops(capsys, empty_factor_table):
    # a budget bounds the work a request does: with its factors solved, a
    # product whose sandwich closes needs no search, so a spent budget may
    # still answer, and then with what an unbudgeted request prints
    argv = ["analyze", "Z4 x Z8", "--json"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    rc = cli.main([*argv, "--budget", "0"])
    assert (rc, capsys.readouterr().out) in ((0, want), (4, ""))


def test_held_factors_are_solved_once_across_requests(monkeypatch, empty_factor_table):
    searched = []
    init = solvers._CliqueSearch.__init__

    def counting_init(self, n, adj, deadline, sq0_bits=0):
        searched.append(n)
        init(self, n, adj, deadline, sq0_bits)

    monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_init)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["predict-omega", "Z4 x Z8 x Z9"]) == 0
        first = len(searched)
        # the product is solved again, its factors are not
        assert cli.main(["predict-omega", "Z9 x Z4 x Z8"]) == 0
    assert first == 4 and len(searched) == 5


def test_the_table_is_bounded_and_evicts_the_least_recently_used(empty_factor_table):
    table = empty_factor_table

    def held():
        assert sum(g.n for g in table.values()) <= DEFAULT_SIZE_CAP
        return [e.n for e in table]

    big = 10 * DEFAULT_SIZE_CAP
    elaborate_factors([parse("Z1024"), parse("Z2048")], big)
    assert held() == [1024, 2048]
    held_factor(ZmodAtom(1024), big)  # used again: now the most recent
    assert held() == [2048, 1024]
    graph_ref = weakref.ref(table[ZmodAtom(2048)])
    gc.disable()
    try:
        held_factor(ZmodAtom(1500), big)  # 4572 elements: Z2048 goes
        assert held() == [1024, 1500]
        assert graph_ref() is None, "the evicted graph outlived its eviction"
    finally:
        gc.enable()
    elaborate_factors([parse("Z3000")], big)  # both others go
    assert held() == [3000]
    # a factor above DEFAULT_SIZE_CAP is never held, nor a whole ring or a product
    ring = held_factor(ZmodAtom(DEFAULT_SIZE_CAP + 1), big)
    assert ring.size == DEFAULT_SIZE_CAP + 1 and held() == [3000]
    ring_of("Z8")
    ring_of("Z3 x Z5")
    assert held() == [3000, 3, 5]


def test_an_is_held_with_the_factors(empty_factor_table):
    an = ring_of("AN")
    assert an is ring_of("AN x Z2").factors[0] is held_factor(ANAtom(None))
    assert repr(an) == "AN" and build_graph(an) is empty_factor_table[ANAtom(None)]
    # AN0 is the same ring as AN, held apart under its own name
    assert repr(ring_of("AN0 x Z2").factors[0]) == "AN0"
