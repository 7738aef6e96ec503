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
    "Z3[t]/(t^5)", "Z4[t]/(t^2+t+1) x Z3",
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
        ("bound-chi", "Z144 x Z2", "--json", "--s-mode", "min"),
        ("bound-chi", "Z4 x Z6", "--json"),
        ("predict-omega", "Z8 x Z25", "--json"),
        ("counterexample", "Z2", "Z3", "--json"),
        ("zn", "72", "--json"),
        ("verify-suite", "--json"),
        # repeated atoms, whose graphs, splits, min-s and verified witnesses
        # are shared within the request
        ("bound-chi", "AN x AN x Z3", "--json", "--s-mode", "min"),
        ("predict-omega", "Z4 x Z8 x Z8", "--json"),
        ("counterexample", "Z2", "Z2", "--json"),
        ("analyze", "AN x Z12", "--json", "--s-mode", "min"),
        # equal factors that are products: each is a ring of its own
        ("counterexample", "Z2 x Z3", "Z2 x Z3", "--json"),
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
        "d216f85635b8a67f327d9e825242e2a2d70ce1e5ca4e018ee8472ccf3c06bc7a",
    "analyze AN0 --json --budget 60":
        "b4ff1621df23d3207d22a45d43956565d8d7d431f5bf9c2a7bbf6ad0bf3ca346",
    "analyze AN x Z2 --json --budget 60":
        "dcda831d14ca58bedeb11e2ffe065ea87ecf2c91bc644ed9bd3a0a9462774192",
    "analyze AN x AN --json --budget 60":
        "486a6dd56951c059662cd628b6980e16bf01dfbb6153a9bfdc42fd8e1f69cc4a",
    "analyze Z4 x Z256 --json --budget 60":
        "77fd97fac7f3eb1b4eb756469aa16bfcbb2b7d5ac2caee8f65b70920118a5970",
    "analyze Z8 x Z64 x Z8 --json --budget 60":
        "f3ff05f729a745d9b434c17b6f5088c751ffa702c1611c7e6932aa1a633c0df9",
    "analyze AN2 x Z36 --json --budget 60":
        "6cac6e1f4001a36b0e39819cd17ea134fa0604c830d66bd6fc617b532b8b2cd9",
    "analyze Z5 x Z2 x Z2 x Z2 x Z3 x Z3 x Z3 --json --budget 60":
        "1e733d4e9f20a7866ac4c240cca969dc487e5cf09dfe76a10bef10e1afc38cde",
    "analyze Z3[t]/(t^5) --json --budget 60":
        "a1db0a9a34f490663b0d35a625f26785524e85027e6152e0c6876043908021e9",
    "analyze Z4[t]/(t^2+t+1) x Z3 --json --budget 60":
        "2dad3b6728e1bd50fb33fda8775f05bb55c76cfc46d297d892b3e25ca0a4300c",
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
        "d216f85635b8a67f327d9e825242e2a2d70ce1e5ca4e018ee8472ccf3c06bc7a",
    "analyze AN0 --json --budget 60 --s-mode min":
        "b4ff1621df23d3207d22a45d43956565d8d7d431f5bf9c2a7bbf6ad0bf3ca346",
    "analyze AN x Z2 --json --budget 60 --s-mode min":
        "dcda831d14ca58bedeb11e2ffe065ea87ecf2c91bc644ed9bd3a0a9462774192",
    "export Z4 x Z256 --format dimacs":
        "acc7fa74aadf00765910d92fac109d7f458a223394de97db7df1595a4b0ef46c",
    "export Z4 x Z256 --format json":
        "c32f23941e2a1f66344241e21acdd481ad89b9169839d0de0e918f1790313e70",
    "bound-chi AN x Z2 --json --s-mode min":
        "f3c85d7d884331a4c12c1033c3c348dd0d1ee2f49ec00db31c10e3ff1d84f3ac",
    "bound-chi Z8 x Z9 --json --s-mode min":
        "ad86cf2b48e30794e7e5361b2d8f8abd18eaeb5b404bc65db693799b89bf270e",
    "bound-chi Z144 x Z2 --json --s-mode min":
        "f3665f986cb1a538a3c5783ccf934e7505490d4a5984cac1e8e9e60df9ab2067",
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
    "bound-chi AN x AN x Z3 --json --s-mode min":
        "d0c1483e34c4b58eb8fa1cc7f2b003541b8f72aba90eaa0dfac920f9813aef99",
    "predict-omega Z4 x Z8 x Z8 --json":
        "8bd73f57a9c6fe51d9332e49acd1125ca45ba53f160ae5c7ee3384e3b76cade6",
    "counterexample Z2 Z2 --json":
        "b0f4612340b1cd4213bfda700de4f7ed39869973719726a610b010263646c89f",
    "analyze AN x Z12 --json --s-mode min":
        "4c3388f5558667b281b2b1dd11bc3b616f9ffa65fe4f894f18ab5a477533f98c",
    "counterexample Z2 x Z3 Z2 x Z3 --json":
        "5572d2b7321602d27eb0d9708855b5e99926ad41f4af9da4725648693af627b0",
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
