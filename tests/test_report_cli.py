"""Analysis reports, JSON schema stability, CLI behavior, and exit codes."""

import json
import os
import subprocess
import sys
import time

import pytest

import beckring
from beckring.cli import main, parse_args
from beckring.report import analyze, render_report
from beckring.verify import run_suite
from beckring import build_graph, make_product, make_structure_ring, make_zmod, ring_of
from beckring.rings import DEFAULT_SIZE_CAP, ProductRing, StructureRing, ZmodRing
from beckring.errors import NotARingError, PreconditionError
from beckring.theorems import counterexample_family, reduced_theorem_check

SRC = os.path.dirname(os.path.dirname(os.path.abspath(beckring.__file__)))

EXPECTED_KEYS = [
    "ring",
    "size",
    "local",
    "reduced",
    "units",
    "zero_divisors",
    "nilradical",
    "omega",
    "chi",
    "split",
    "s",
    "checks",
]


def test_analyze_z12_fields():
    rep = analyze("Z12")
    assert list(rep) == EXPECTED_KEYS
    assert rep["ring"] == "Z12"
    assert rep["size"] == 12
    assert rep["local"] is False and rep["reduced"] is False
    assert rep["units"] == 4 and rep["zero_divisors"] == 7
    assert rep["nilradical"] == {"size": 2, "index": 2, "power_sizes": [2, 1]}
    assert rep["omega"]["value"] == 3
    assert rep["chi"]["value"] == 3
    assert rep["s"] == 2
    assert all(c["pass"] for c in rep["checks"])


def test_analyze_an_report():
    rep = analyze("AN")
    assert rep["omega"]["value"] == 5
    assert rep["chi"]["value"] == 6
    assert rep["local"] is True
    assert rep["units"] == 16
    assert all(c["pass"] for c in rep["checks"])


def test_analyze_witnesses_in_tuple_form():
    rep = analyze("Z2 x Z2")
    assert rep["omega"]["witness"] == ["(0,0)", "(1,0)", "(0,1)"]
    for cls in rep["chi"]["classes"]:
        for el in cls:
            assert el.startswith("(") and el.endswith(")")


def test_analyze_json_round_trip():
    for expr in ("Z12", "Z4 x Z3", "AN", "Z2[t]/(t^2)"):
        rep = analyze(expr)
        assert json.loads(json.dumps(rep)) == rep


def test_analyze_product_checks_present():
    rep = analyze("Z4 x Z4")
    names = {c["name"] for c in rep["checks"]}
    assert "product_omega_formula" in names
    assert "chi_lower_bound" in names and "chi_upper_bound" in names
    assert all(c["pass"] for c in rep["checks"])


@pytest.mark.isolated
def test_analyze_searches_each_graph_once(monkeypatch):
    # the split and chi of a ring share one clique search on its core, the
    # two product checks share each factor's solves, and equal factors are
    # one ring with one graph. Where the sandwich closes, the product's own
    # core gets no clique search and no DSATUR; an AN product's stays open
    # and its core is searched once. Each analysis starts from empty
    # tables of factors and cores, so that it solves its factors itself
    from beckring import dsl, graphs, solvers
    from beckring.graphs import HeldTable

    searched, colored = [], []
    init, dsatur = solvers._CliqueSearch.__init__, solvers._dsatur

    def counting_init(self, n, adj, deadline, sq0_bits=0):
        searched.append((n, tuple(adj)))
        init(self, n, adj, deadline, sq0_bits)

    def counting_dsatur(n, adj, deadline, memo=None):
        colored.append((n, tuple(adj)))
        return dsatur(n, adj, deadline, memo)

    monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_init)
    monkeypatch.setattr(solvers, "_dsatur", counting_dsatur)
    for expr, pinched in (("Z4 x Z256", True), ("Z4 x Z16 x Z16", True), ("AN x Z3", False)):
        searched.clear()
        colored.clear()
        monkeypatch.setattr(dsl, "_factors", HeldTable())
        monkeypatch.setattr(graphs, "_cores", HeldTable())
        rep = analyze(expr)
        assert all(c["pass"] for c in rep["checks"])
        core = build_graph(ring_of(expr)).core()
        product_core = (core.n, tuple(core.adj))
        # the core of each distinct factor, then the product's if open
        assert searched.count(product_core) == colored.count(product_core) == (not pinched)
        assert len(searched) == len(set(searched)) == 2 + (not pinched)
        assert colored == searched


def test_greedy_seed_stops_at_the_first_start(monkeypatch):
    # the clique search seeds its bound with one greedy clique, on the cores
    # of this product, whose sandwich stays open, and of its factors alike
    from beckring import solvers

    searches, starts = [], []
    init = solvers._CliqueSearch.__init__
    greedy_from = solvers._CliqueSearch._greedy_from

    def counting_init(self, n, adj, deadline, sq0_bits=0):
        searches.append(n)
        init(self, n, adj, deadline, sq0_bits)

    def counting_from(self, s):
        starts.append(self.n)
        return greedy_from(self, s)

    monkeypatch.setattr(solvers._CliqueSearch, "__init__", counting_init)
    monkeypatch.setattr(solvers._CliqueSearch, "_greedy_from", counting_from)
    rep = analyze("AN x Z8")
    assert (rep["omega"]["value"], rep["chi"]["value"]) == (10, 11)
    # every search, the 46-vertex core of the product last,
    # makes exactly one greedy start
    assert searches[-1] == 46 and starts == searches


def _cli(*argv):
    def call():
        assert main(list(argv)) == 0

    return call


@pytest.mark.isolated
@pytest.mark.parametrize(
    "call",
    [
        lambda: analyze("AN x AN", budget=5),
        _cli("counterexample", "Z2", "Z3"),
        _cli("zn", "72"),
        _cli("predict-omega", "Z8 x Z25"),
        _cli("bound-chi", "Z8 x Z9", "--s-mode", "min"),
        _cli("verify-suite", "--max-size", "16"),
        lambda: counterexample_family([make_zmod(2), make_zmod(3)], budget=5),
        lambda: reduced_theorem_check(make_product([make_zmod(2), make_zmod(3)]), budget=5),
    ],
    ids=[
        "analyze AN x AN",
        "counterexample Z2 Z3",
        "zn 72",
        "predict-omega Z8 x Z25",
        "bound-chi Z8 x Z9 --s-mode min",
        "verify-suite --max-size 16",
        "counterexample_family",
        "reduced_theorem_check",
    ],
)
def test_runs_on_one_budget(call, monkeypatch, capsys):
    # every solve and theorem check of one call is handed the deadline the
    # call started with: each deadline made during it keeps that end time
    from beckring import solvers

    ends = []
    init = solvers._Deadline.__init__

    def recording_init(self, budget):
        init(self, budget)
        ends.append(self.at)

    monkeypatch.setattr(solvers._Deadline, "__init__", recording_init)
    call()
    assert len(ends) > 1
    assert set(ends) == {ends[0]}


def test_analyze_min_s_mode():
    rep = analyze("Z4", s_mode="min_s")
    assert rep["s"] == 2


@pytest.mark.parametrize("expr", ["Z4", "Z4 x Z2"])
def test_analyze_rejects_unknown_s_mode_before_solving(expr, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before s_mode was checked")

    monkeypatch.setattr("beckring.report.max_clique", no_solve)
    # the library spells the modes any_optimal and min_s alone; the CLI's
    # --s-mode any|min maps onto them
    for s_mode in ("bogus", "min", "MIN_S"):
        with pytest.raises(PreconditionError):
            analyze(expr, s_mode=s_mode)


def test_render_report_mentions_key_numbers():
    text = render_report(analyze("Z12"))
    assert "omega = 3" in text
    assert "chi = 3" in text
    assert "PASS" in text and "FAIL" not in text


# -- CLI ----------------------------------------------------------------------


def test_cli_analyze_json(capsys):
    rc = main(["analyze", "Z12", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["omega"]["value"] == 3


def test_cli_analyze_text(capsys):
    rc = main(["analyze", "AN"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "omega = 5" in out and "chi = 6" in out


def test_cli_parse_error_exit_2(capsys):
    assert main(["analyze", "Z0"]) == 2
    assert "invalid modulus" in capsys.readouterr().err


def test_cli_capacity_exit_3(capsys):
    assert main(["analyze", "Z8192"]) == 3


def test_cli_budget_exit_4(capsys):
    assert main(["analyze", "Z60", "--budget", "0"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "Z4 x Z2"],
        ["analyze", "Z4 x Z2", "--s-mode", "min"],
        ["predict-omega", "Z4 x Z2"],
        ["bound-chi", "Z4 x Z2"],
        ["bound-chi", "Z4 x Z2", "--s-mode", "min"],
        ["zn", "12"],
        ["counterexample", "Z2"],
        ["verify-suite", "--max-size", "16"],
    ],
    ids=" ".join,
)
def test_cli_budget_zero_answers_or_exits_4(argv):
    # every path answers or raises BudgetError: no private exception may
    # escape as a traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beckring.cli", *argv, "--budget", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (0, 4), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["export", "Z16 x Z16 x Z16", "--format", "dimacs"], ["analyze", "Z16 x Z16 x Z16", "--json"]],
    ids=" ".join,
)
def test_cli_reader_that_closes_the_pipe_early_gets_no_traceback(argv):
    # `beckring ... | head -1`: the reader takes one line and closes the
    # pipe while the command still writes (each output is larger than a
    # pipe's buffer); the command ends with exit 1 and nothing on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "beckring.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() in (b"p edge 4096 55264\n", b"{\n")
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_budget_holds_on_ring_predicates(capsys):
    # Z2^10: 1024 elements and ten field factors; the ring predicates of a
    # product run before any budgeted solver and must not outlast the budget
    start = time.monotonic()
    assert main(["analyze", "--json", "--budget", "2", " x ".join(["Z2"] * 10)]) in (0, 4)
    assert time.monotonic() - start < 10


def test_cli_analyze_an_squared_certified(capsys):
    assert main(["analyze", "--json", "--budget", "3", "AN x AN"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["omega"]["value"], payload["chi"]["value"]) == (18, 20)
    assert all(chk["pass"] for chk in payload["checks"])


def test_cli_usage_exit_1(capsys):
    assert main(["predict-omega", "Z2"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["zn"]) == 1


def test_cli_parses_after_a_usage_error(capsys):
    # a parse keeps nothing from one call to the next: an error halfway
    # through a command's options leaves its defaults as they were
    assert main(["export", "Z4", "--max-size", "3", "--format", "png"]) == 1
    args = parse_args(["export", "Z4"])
    assert (args.command, args.expr, args.format) == ("export", "Z4", "dimacs")
    assert (args.max_size, args.output) == (DEFAULT_SIZE_CAP, None)
    # export reads no --json, --budget or --s-mode, so it takes none
    assert not {"json", "budget", "s_mode"} & set(vars(args))
    assert main(["export", "Z4"]) == 0
    assert capsys.readouterr().out == "p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n"


def test_cli_predict_omega(capsys):
    rc = main(["predict-omega", "Z4 x Z4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted omega = 4" in out and "PASS" in out


@pytest.mark.parametrize("expr,omega", [("Z64 x Z128", 65), ("AN x AN x AN", 67)])
def test_cli_predict_omega_above_the_size_cap(expr, omega, capsys):
    # the formula builds no graph of the product, so it takes no size cap
    assert main(["predict-omega", "--json", expr]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["predicted_omega"], payload["direct_omega"]) == (omega, None)


def test_cli_predict_omega_holds_the_witness_to_the_size_cap(capsys):
    # Z64 has |B| = 8, so the witness has 8^5 = 32768 vertices: it is
    # refused at once under the default cap and answered under a raised one
    expr = "Z64 x Z64 x Z64 x Z64 x Z64"
    assert main(["predict-omega", expr]) == 3
    assert "witness clique of 32768 vertices exceeds cap 4096" in capsys.readouterr().err
    assert main(["predict-omega", "--json", "--max-size", "32768", expr]) == 0
    assert json.loads(capsys.readouterr().out)["predicted_omega"] == 32768


def test_cli_predict_omega_triple(capsys):
    rc = main(["predict-omega", "Z2 x Z2 x Z2"])
    assert rc == 0
    assert "predicted omega = 4" in capsys.readouterr().out


def test_cli_bound_chi(capsys):
    rc = main(["bound-chi", "Z8 x Z8", "--s-mode", "min"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "5 <= chi <= 6" in out and "exact chi = 6" in out


def test_cli_bound_chi_above_the_size_cap(capsys):
    # the bounds need only the factors; the product is built only for the direct solve
    assert main(["bound-chi", "--json", "Z64 x Z128"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_chi"] is None and payload["pass"]
    assert [(f["ring"], f["chi"], f["s"]) for f in payload["factors"]] == [("Z64", 8, 8), ("Z128", 9, 8)]
    assert (payload["lower"], payload["upper"]) == (16, 65)


@pytest.mark.parametrize("factor,s", [("Z21", 1), ("Z22", 1), ("Z23", 1), ("Z24", 2)])
def test_cli_bound_chi_min_s_exact_on_small_cores(factor, s, capsys):
    # 21 to 24 elements, but at most 20 core vertices: the min-s search is exhaustive
    rc = main(["bound-chi", "--json", "--s-mode", "min", f"{factor} x Z2"])
    assert rc == 0
    first = json.loads(capsys.readouterr().out)["factors"][0]
    assert first["ring"] == factor
    assert (first["s"], first["s_exact"]) == (s, True)


def test_cli_zn(capsys):
    rc = main(["zn", "72"])
    assert rc == 0
    assert "formula 7, solver omega 7, solver chi 7 ... PASS" in capsys.readouterr().out


def test_cli_zn_checks_the_cap_before_factoring(monkeypatch, capsys):
    # N = 10^17 + 3 is past the size cap, and its trial division would run
    # for minutes: Z_N is refused (exit 3) before N is factored
    from beckring import cli

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(cli, "zn_formula", no_factoring)
    assert main(["zn", "100000000000000003"]) == 3
    assert "ring size 100000000000000003 exceeds cap 4096" in capsys.readouterr().err


def test_cli_zn_and_export_under_a_raised_cap(capsys):
    # --max-size is the one cap: the graph of a ring built under it has no
    # cap of its own
    assert main(["zn", "5000", "--max-size", "10000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["formula"], payload["omega"], payload["chi"], payload["pass"]) == (51, 51, 51, True)
    assert main(["export", "Z5000", "--max-size", "10000"]) == 0
    assert capsys.readouterr().out.startswith("p edge 5000 ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["counterexample", "Z7", "--max-size", "100"], "product size 224 exceeds cap 100"),
        (["counterexample", "--max-size", "16"], "ring size 32 exceeds cap 16"),
    ],
    ids=["AN x Z7", "AN alone"],
)
def test_cli_counterexample_holds_its_product_to_the_cap(argv, message, capsys):
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_counterexample_under_a_raised_cap(capsys):
    assert main(["counterexample", "--json", "Z7", "Z7", "Z7", "--max-size", "20000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["size"], payload["omega"], payload["chi"], payload["pass"]) == (10976, 8, 9, True)


@pytest.mark.parametrize(
    "argv",
    [["analyze", "AN"], ["analyze", "AN0"], ["analyze", "AN2"], ["bound-chi", "AN"],
     ["predict-omega", "AN x Z2"], ["export", "AN"]],
    ids=" ".join,
)
def test_cli_holds_every_an_atom_to_the_cap(argv, capsys):
    assert main(argv + ["--max-size", "16"]) == 3
    assert capsys.readouterr().err == "error: ring size 32 exceeds cap 16\n"


@pytest.mark.parametrize(
    "argv",
    [["verify-suite", "--max-size", "0", "--json"], ["analyze", "Z4", "--max-size", "-1"],
     ["export", "Z4", "--max-size", "0"]],
    ids=" ".join,
)
def test_cli_max_size_is_a_positive_integer(argv, capsys):
    # a cap below 1 holds no ring at all: a usage error, not an empty suite
    # that passes or a capacity error on every ring
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: argument --max-size: expected a positive integer, got ")


def test_cli_direct_solves_are_skipped_above_the_cap(capsys):
    # the product is above the cap, not its factors: the formula and the
    # bounds answer, and the direct solve, which would build it, is skipped
    assert main(["predict-omega", "--json", "Z16 x Z16", "--max-size", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["predicted_omega"], payload["direct_omega"], payload["pass"]) == (16, None, True)
    assert main(["bound-chi", "--json", "Z4 x Z8", "--max-size", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["lower"], payload["upper"], payload["exact_chi"], payload["pass"]) == (4, 5, None, True)


def _recording(init, built):
    def record(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    return record


@pytest.mark.isolated
@pytest.mark.parametrize(
    "argv", [["analyze", "Z8 x Z64 x Z8"], ["zn", "1500"], ["predict-omega", "Z8 x Z25"]]
)
def test_cli_builds_no_n_by_n_zero_relation(argv, monkeypatch, capsys):
    # products and Z_N read the zero relation by annihilator class: no ring
    # built on the way holds the n x n matrix
    built = []
    for kind in (ZmodRing, ProductRing, StructureRing):
        monkeypatch.setattr(kind, "__init__", _recording(kind.__init__, built))
    assert main(argv) == 0
    assert built
    assert not [ring for ring in built if "zero_rel_matrix" in vars(ring)]


def test_cli_counterexample(capsys):
    rc = main(["counterexample", "Z2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gap chi - omega = 1 ... PASS" in out


def test_cli_export_stdout(capsys):
    rc = main(["export", "Z4", "--format", "dimacs"])
    assert rc == 0
    assert capsys.readouterr().out == "p edge 4 3\ne 1 2\ne 1 3\ne 1 4\n"


def test_cli_export_file(tmp_path, capsys):
    path = tmp_path / "z2.dimacs"
    rc = main(["export", "Z2", "--format", "dimacs", "--output", str(path)])
    assert rc == 0
    data = path.read_bytes()
    assert data == b"p edge 2 1\ne 1 2\n"
    assert b"\r" not in data


def test_cli_export_to_an_unwritable_path_exits_1(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.txt", tmp_path):  # no such directory; a directory
        assert main(["export", "Z4", "--output", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_cli_export_json_format(capsys):
    rc = main(["export", "Z4", "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}


def test_cli_verify_suite_restricted(capsys):
    rc = main(["verify-suite", "--max-size", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "suite: ALL PASS" in out


def _recording_built(init, built):
    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    return record


@pytest.mark.isolated
def test_suite_builds_no_ring_above_the_cap(monkeypatch, empty_factor_table):
    # --max-size holds every ring the suite builds: no catalog or field ring,
    # isomorphic pair or counterexample chain above it is built or graphed,
    # and AN, above it, is not built. The table of factors starts empty, so
    # that the catalog rings are built here
    from beckring import graphs

    built, graphed = [], []
    for kind in (ZmodRing, ProductRing, StructureRing):
        monkeypatch.setattr(kind, "__init__", _recording_built(kind.__init__, built))
    monkeypatch.setattr(graphs.BeckGraph, "__init__", _recording_built(graphs.BeckGraph.__init__, graphed))
    result = run_suite(max_size=8)
    assert result.ok
    assert built and max(ring.size for ring in built) <= 8
    assert graphed and max(g.ring.size for g in graphed) <= 8
    passed = {c.name: c.passed for c in result.checks}
    # 5 catalog rings (Z9, Z12 and AN are left out); 16 expressions round-trip,
    # and of the isomorphic pairs only Z6 and Z2 x Z3 fit
    assert passed["ring_axioms"] == 5
    assert passed["dsl_round_trip"] == 17
    assert passed["counterexample_family"] == 0


@pytest.mark.isolated
def test_chi_sandwich_builds_each_product_graph_once(monkeypatch):
    # each pair's graph, built and solved for omega by solved_products, holds
    # its factors' graphs through the bounds, the chi solve and the product
    # coloring, which is verified on that graph: no second graph or ring of
    # a product is built
    from beckring import graphs, verify
    from beckring.catalog import catalog_rings

    graphed, products = [], []
    monkeypatch.setattr(graphs.BeckGraph, "__init__", _recording_built(graphs.BeckGraph.__init__, graphed))
    monkeypatch.setattr(ProductRing, "__init__", _recording_built(ProductRing.__init__, products))
    solved = verify.solved_products(catalog_rings(), verify.PRODUCT_SIZE_LIMIT)
    pairs = verify.small_core_pairs(solved)
    check = verify.chi_sandwich(pairs)
    assert (check.passed, check.failed) == (2 * len(pairs), 0)
    product_graphs = [g.ring for g in graphed if isinstance(g.ring, ProductRing) and g.n == g.ring.size]
    assert len(pairs) == 27
    assert sorted(map(id, product_graphs)) == sorted(map(id, products))
    kept = [p.graph.ring for p in solved.values() if p.graph is not None]
    assert sorted(map(id, kept)) == sorted(map(id, pairs.values()))
    assert set(map(id, pairs.values())) <= set(map(id, products))


def test_cli_verify_suite_holds_the_catalog_to_the_cap(capsys):
    # --max-size is the ring size cap here too: AN's 32 elements and the
    # counterexample chains on it are left out, the 7 smaller catalog rings
    # are checked
    assert main(["verify-suite", "--max-size", "16", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    passed = {c["name"]: c["passed"] for c in payload["checks"]}
    assert payload["pass"]
    assert passed["ring_axioms"] == passed["report_json_round_trip"] == passed["s_statistic"] == 7
    assert passed["counterexample_family"] == 0


_SETUP_CONTENTS = """
import sys
from beckring import rings, solvers

built, searches = [], []
init, clique_init, dsatur = rings.StructureRing.__init__, solvers._CliqueSearch.__init__, solvers._dsatur

def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

def counting_clique_init(self, *args, **kwargs):
    searches.append("clique")
    clique_init(self, *args, **kwargs)

def counting_dsatur(*args):
    searches.append("dsatur")
    return dsatur(*args)

rings.StructureRing.__init__ = counting_init
solvers._CliqueSearch.__init__ = counting_clique_init
solvers._dsatur = counting_dsatur
import beckring.cli
from beckring.catalog import canonical_anderson_naseer
from beckring.dsl import ring_of
assert ring_of("AN") is canonical_anderson_naseer()

import dataclasses
loaded = [name for name in sys.modules if name.startswith("beckring")]
print(sorted({"beckring.verify", "beckring.oracle"} & set(loaded)))
print(sorted(
    f"{name}.{cls.__name__}" for name in loaded for cls in vars(sys.modules[name]).values()
    if isinstance(cls, type) and cls.__module__ == name and dataclasses.is_dataclass(cls)
))
print(len(built))
print(searches)
"""


def test_cli_set_up_contents():
    # what every CLI call pays before its request, in a fresh process: the
    # suite and its oracles stay unloaded, no dataclass code is generated,
    # AN's one ring is built once, shared by every parse of "AN", and
    # nothing is solved
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _SETUP_CONTENTS],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:4] == ["[]", "[]", "1", "[]"]


def test_verify_suite_generates_no_dataclass_code():
    # loading the suite for verify-suite decorates nothing: its result
    # records are plain classes
    import dataclasses

    from beckring import verify

    assert not [name for name, cls in vars(verify).items()
                if isinstance(cls, type) and cls.__module__ == verify.__name__ and dataclasses.is_dataclass(cls)]


_NEW_NUMPY_MODULES = """
import contextlib, io, sys
import beckring.cli
from beckring.catalog import canonical_anderson_naseer
canonical_anderson_naseer()

before = set(sys.modules)
for expr in ("AN x Z8 x Z2", "Z8 x Z64 x Z8"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert beckring.cli.main(["analyze", expr, "--json"]) == 0
print(sorted(name for name in set(sys.modules) - before if name.startswith("numpy")))
"""


def test_analyze_loads_no_numpy_module_after_set_up():
    # a numpy module first loaded by a request (np.unique loads three) adds
    # to every CLI call's time and memory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NEW_NUMPY_MODULES],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "[]"


def test_import_leaves_the_recursion_limit_alone():
    # the package sets no interpreter state at import; its searches loop
    # over explicit stacks and never change the limit at all
    code = "import sys; a = sys.getrecursionlimit(); import beckring; print(a, sys.getrecursionlimit())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert before == after


def test_cli_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("BECKRING_BUDGET", "0")
    assert main(["analyze", "Z60"]) == 4


def test_cli_flag_overrides_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("BECKRING_BUDGET", "0")
    assert main(["analyze", "Z60", "--budget", "30"]) == 0


@pytest.mark.parametrize(
    "budget_env,argv",
    [
        ("abc", ["zn", "12"]),
        ("nan", ["zn", "12"]),
        (None, ["analyze", "AN x AN", "--s-mode", "min", "--budget", "nan"]),
    ],
    ids=["env-abc", "env-nan", "flag-nan"],
)
def test_cli_rejects_a_malformed_budget(budget_env, argv):
    # a budget that is no number is outside input, and NaN would never
    # expire (the min-s search on AN x AN then runs on and on): both exit 1
    # at once, with no traceback
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.pop("BECKRING_BUDGET", None)
    if budget_env is not None:
        env["BECKRING_BUDGET"] = budget_env
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "beckring.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=30)
    assert time.monotonic() - t0 < 10
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: budget ") and "Traceback" not in proc.stderr


# -- suite failure surfaces -----------------------------------------------------


def _broken_catalog():
    # u*u = v, u*v = 1, v*v = 0 is not associative; validation is deferred so
    # the suite trips over it instead of the constructor
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(beckring.rings, "DEFAULT_VALIDATION_CAP", 0)
        bad = make_structure_ring(
            (2, 2, 2),
            (1, 0, 0),
            {
                (0, 0): (1, 0, 0),
                (0, 1): (0, 1, 0),
                (0, 2): (0, 0, 1),
                (1, 1): (0, 0, 1),
                (1, 2): (1, 0, 0),
                (2, 2): (0, 0, 0),
            },
        )
    return {"Z4": make_zmod(4), "bad": bad}


def test_suite_surfaces_not_a_ring(monkeypatch):
    import beckring.verify as verify_mod

    monkeypatch.setattr(verify_mod, "catalog_rings", lambda size_cap: _broken_catalog())
    result = run_suite(max_size=16)
    assert not result.ok
    axioms = next(c for c in result.checks if c.name == "ring_axioms")
    assert axioms.failed == 1
    assert "bad" in axioms.failures[0]


def test_suite_exit_5_through_cli(monkeypatch, capsys):
    import beckring.verify as verify_mod

    monkeypatch.setattr(verify_mod, "catalog_rings", lambda size_cap: _broken_catalog())
    rc = main(["verify-suite", "--max-size", "16"])
    assert rc == 5
    assert "FAILURES PRESENT" in capsys.readouterr().out


def test_broken_ring_validation_names_axiom():
    with pytest.raises(NotARingError) as exc:
        _broken_catalog()["bad"].validate()
    assert exc.value.axiom in ("associativity", "distributivity")
