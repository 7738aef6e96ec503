"""Golden digests of CLI output: refactors must not change a single byte.

Each case runs `beckring` in-process and compares the sha256 of its stdout
with a stored digest. The digests pin the witnesses, the colorings and the
theorem checks of `analyze --json` (both s-modes), both export formats,
and the JSON of every theorem command and of `verify-suite`.
To regenerate them after a deliberate output change, run this file as a
script from the repository root:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib

import pytest

from beckring.cli import main

ANALYZE_RINGS = (
    "Z1", "Z2", "Z4", "Z12", "Z29", "Z2[t]/(t^2)", "AN", "AN0", "AN x Z2",
    "AN x AN", "Z4 x Z256", "Z8 x Z64 x Z8", "AN2 x Z36", "Z5 x Z2 x Z2 x Z2 x Z3 x Z3 x Z3",
)
MIN_S_RINGS = ("Z1", "Z2", "Z4", "Z12", "Z29", "Z2[t]/(t^2)", "AN", "AN0", "AN x Z2")
EXPORT_RING = "Z4 x Z256"

CASES = (
    [("analyze", ring, "--json", "--budget", "60") for ring in ANALYZE_RINGS]
    + [("analyze", ring, "--json", "--budget", "60", "--s-mode", "min") for ring in MIN_S_RINGS]
    + [("export", EXPORT_RING, "--format", fmt) for fmt in ("dimacs", "json")]
    + [
        ("bound-chi", "AN x Z2", "--json", "--s-mode", "min"),
        ("bound-chi", "Z8 x Z9", "--json", "--s-mode", "min"),
        ("bound-chi", "Z4 x Z6", "--json"),
        ("predict-omega", "Z8 x Z25", "--json"),
        ("counterexample", "Z2", "Z3", "--json"),
        ("zn", "72", "--json"),
        ("verify-suite", "--json"),
    ]
)

DIGESTS = {
    "analyze Z1 --json --budget 60":
        "fd7d8ed71d4972c572eb804983c2f1b1afd9bd525e3963642ecf3fdc7028fd33",
    "analyze Z2 --json --budget 60":
        "5a4d4423354b53d1437d3b7d4c5d40c167bbf7902a8ed2bb7077bdc4bf093372",
    "analyze Z4 --json --budget 60":
        "efb06fcd80b91d15fa62ecb557dfeb74776fd2cf191d50b08357a17a7bed98e9",
    "analyze Z12 --json --budget 60":
        "2b7d3975237af4f64470a9c6651f46a4c4e1095075dc3c317243ba11c1c10af8",
    "analyze Z29 --json --budget 60":
        "93593eddf56863e73a8faa6c1e1b73c576920d44376797c764eb2ee4b60166a9",
    "analyze Z2[t]/(t^2) --json --budget 60":
        "06e746e52101681826dc2ebd933e4e3bba6671808c5ee54ff8ce965e98e7ef03",
    "analyze AN --json --budget 60":
        "0d093e83d1a8908c110620129934e8d814e04140f8724abf1720dc22b8db26b6",
    "analyze AN0 --json --budget 60":
        "e1c13070eb54efe2ef749433b6f20d19faf6d7a047581b08a042107a768463d4",
    "analyze AN x Z2 --json --budget 60":
        "252907f8b2044c81755ae20b0df993ad0ba922019e61fe60941dab0522baf7ed",
    "analyze AN x AN --json --budget 60":
        "9ebc4e48d70fef9650883bc32cdd8d3383830cbdcf1a8cc0c3144d5bf8721dcc",
    "analyze Z4 x Z256 --json --budget 60":
        "0a2119de032ea581460a20a3d1d7b2b1d8f559ef7cb8fe812f1966491f918853",
    "analyze Z8 x Z64 x Z8 --json --budget 60":
        "b069f147ca80f3f3ffcf94bdbea10bc7693208538110e6650803d43b0cb0a842",
    "analyze AN2 x Z36 --json --budget 60":
        "ed3c23492b863a2a6c72e1618ed31d9e780efbf6550973c10d24dace1bd9d9d9",
    "analyze Z5 x Z2 x Z2 x Z2 x Z3 x Z3 x Z3 --json --budget 60":
        "88563428573a94a3d4845aceccf1d9e40e8c7b607ec6e8e8dcb7f05a6e41c410",
    "analyze Z1 --json --budget 60 --s-mode min":
        "fd7d8ed71d4972c572eb804983c2f1b1afd9bd525e3963642ecf3fdc7028fd33",
    "analyze Z2 --json --budget 60 --s-mode min":
        "5a4d4423354b53d1437d3b7d4c5d40c167bbf7902a8ed2bb7077bdc4bf093372",
    "analyze Z4 --json --budget 60 --s-mode min":
        "efb06fcd80b91d15fa62ecb557dfeb74776fd2cf191d50b08357a17a7bed98e9",
    "analyze Z12 --json --budget 60 --s-mode min":
        "2b7d3975237af4f64470a9c6651f46a4c4e1095075dc3c317243ba11c1c10af8",
    "analyze Z29 --json --budget 60 --s-mode min":
        "93593eddf56863e73a8faa6c1e1b73c576920d44376797c764eb2ee4b60166a9",
    "analyze Z2[t]/(t^2) --json --budget 60 --s-mode min":
        "06e746e52101681826dc2ebd933e4e3bba6671808c5ee54ff8ce965e98e7ef03",
    "analyze AN --json --budget 60 --s-mode min":
        "b00b1fa1a0e5f4e36127b9f37be61eac2a63e8d23fc3fe370df09e8be89648ed",
    "analyze AN0 --json --budget 60 --s-mode min":
        "295b143f146183ed229b7d1a00c51293d80b79cf71d6ad4f93aad1b966857579",
    "analyze AN x Z2 --json --budget 60 --s-mode min":
        "252907f8b2044c81755ae20b0df993ad0ba922019e61fe60941dab0522baf7ed",
    "export Z4 x Z256 --format dimacs":
        "acc7fa74aadf00765910d92fac109d7f458a223394de97db7df1595a4b0ef46c",
    "export Z4 x Z256 --format json":
        "c32f23941e2a1f66344241e21acdd481ad89b9169839d0de0e918f1790313e70",
    "bound-chi AN x Z2 --json --s-mode min":
        "f3c85d7d884331a4c12c1033c3c348dd0d1ee2f49ec00db31c10e3ff1d84f3ac",
    "bound-chi Z8 x Z9 --json --s-mode min":
        "ad86cf2b48e30794e7e5361b2d8f8abd18eaeb5b404bc65db693799b89bf270e",
    "bound-chi Z4 x Z6 --json":
        "9c9f5f69b031f61f2de196c39a2d454795336f1c91a2c4f5ea6f1345a427134e",
    "predict-omega Z8 x Z25 --json":
        "f41ea328398db2e277a7d29516844bea9a8dee889857a5468e189a10898fa887",
    "counterexample Z2 Z3 --json":
        "1294a06777f9cda55e8fb1afc91b7d4619f1f25985bbd68cb1097033a4f00c52",
    "zn 72 --json":
        "c562d1f46c99fb5e7027880153f20417336518696697db41ba0ea374e7177424",
    "verify-suite --json":
        "312e862647fbb773c64b983993728e71f025df6cf84e20b7e6795d3de01113e1",
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden_digest(argv, capsys):
    assert main(list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    for argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        print(f'    "{" ".join(argv)}":\n        "{hashlib.sha256(out.getvalue().encode()).hexdigest()}",')
