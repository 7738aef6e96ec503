"""Seeded request lists for the three workloads.

A workload is a list of fixed requests plus slots. Each slot names a
command and a pool of ring expressions of similar cost, and the list draws
`count` unused expressions from every slot's pool, one from each of `count`
equal strata of the pool ordered by ring size, so that every seed draws the
same spread of sizes. The seed decides which pool members are drawn, their factor order where the slot allows it, and
the request order. The same (workload, seed) always gives the same argv
list, and no ring is requested twice within it (a counterexample's ring is
AN times its factors, `zn N`'s is Z_N). Fixed requests appear in every list
whatever the seed. `--seconds` sets how many passes a run makes over the
list: one per `pass_seconds` of the workload.

The program receives only the argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations_with_replacement

EXPORT_DIR = "bench/out/export"  # relative to the checkout root
SOLVE_BUDGET = "3"


@dataclass(frozen=True)
class Slot:
    command: str  # analyze | export | solve | counterexample | predict-omega | bound-chi | zn | verify-suite
    count: int  # draws per list
    pool: tuple[str, ...]  # ring expressions ("Z2 x Z3"), zn moduli ("72"), or factor lists
    permute: bool = True  # shuffle the factor order of each drawn expression


def _atom_size(atom: str) -> int:
    """Elements of an atom: "AN*" 32, "Zn[t]/(t^d...)" n^d, "Zn" n."""
    if atom.startswith("AN"):
        return 32
    if "[t]" in atom:
        degree = int(atom.split("t^")[1].split(")")[0].split("+")[0])
        return int(atom[1:atom.index("[")]) ** degree
    return int(atom[1:])


def _size(expr: str) -> int:
    size = 1
    for atom in expr.split(" x "):
        size *= _atom_size(atom)
    return size


def _lists(atoms, max_len: int, max_size: int, min_len: int = 1, min_size: int = 1) -> tuple[str, ...]:
    """Products of min_len..max_len atoms (repeats allowed) with min_size to
    max_size elements."""
    return tuple(
        e
        for k in range(min_len, max_len + 1)
        for e in (" x ".join(combo) for combo in combinations_with_replacement(atoms, k))
        if min_size <= _size(e) <= max_size
    )


# reduced atoms (finite fields and squarefree Z_n) and small local rings
REDUCED_ATOMS = (
    "Z2", "Z3", "Z5", "Z7", "Z2[t]/(t^2+t+1)", "Z6", "Z10", "Z11", "Z13", "Z14", "Z15",
    "Z3[t]/(t^2+1)", "Z2[t]/(t^3+t+1)", "Z17", "Z19", "Z21", "Z22", "Z23", "Z26", "Z29", "Z30",
)
LOCAL_ATOMS = ("Z4", "Z8", "Z9", "Z16", "Z25", "Z27", "Z2[t]/(t^2)", "Z3[t]/(t^2)", "Z4[t]/(t^2+2)", "AN")


# Each workload's list is sized for one pass of about pass_seconds; a run
# makes one pass per pass_seconds of its --seconds.
WORKLOADS: dict[str, dict] = {
    "analyze-large": {
        "pass_seconds": 10,
        "fixed": (),
        "slots": (
            # structure-constant factor, 1152 to 1280 elements: above 1024
            # elements no multiplication table is kept and mul_many runs its
            # einsum over n^2 pairs; each 1.5 to 1.9 s
            Slot("analyze", 1, (
                "AN2 x Z36", "AN2 x Z2 x Z18", "AN2 x Z4 x Z9", "AN2 x Z3 x Z12",
                "AN2 x Z4 x Z10", "AN2 x Z2 x Z2 x Z9",
            )),
            # three Z_n factors, 4096 elements, each 1.7 to 2.1 s: sets the peak memory
            Slot("analyze", 1, (
                "Z16 x Z16 x Z16", "Z2 x Z32 x Z64", "Z4 x Z16 x Z64", "Z8 x Z8 x Z64",
                "Z4 x Z8 x Z128", "Z4 x Z4 x Z256", "Z8 x Z16 x Z32",
            )),
            # reduced, seven field factors: field_factor_count's scalar loop; each 1.4 to 1.9 s
            Slot("analyze", 1, (
                "Z2 x Z2 x Z2 x Z2 x Z3 x Z5 x Z7", "Z2 x Z2 x Z2 x Z2 x Z3 x Z3 x Z11",
                "Z2 x Z2 x Z2 x Z2 x Z2 x Z3 x Z13", "Z2 x Z2 x Z2 x Z2 x Z2 x Z3 x Z17",
                "Z2 x Z2 x Z2 x Z2 x Z3 x Z3 x Z7", "Z2 x Z2 x Z2 x Z3 x Z3 x Z3 x Z5",
            )),
            # Z_n products of 1024 elements, each 0.14 to 0.21 s: the median request
            Slot("analyze", 16, (
                "Z4 x Z256", "Z2 x Z2 x Z256", "Z2 x Z4 x Z128", "Z2 x Z8 x Z64",
                "Z2 x Z16 x Z32", "Z4 x Z4 x Z64", "Z4 x Z8 x Z32", "Z4 x Z16 x Z16",
                "Z8 x Z8 x Z16", "Z2 x Z2 x Z2 x Z128", "Z2 x Z2 x Z4 x Z64", "Z2 x Z2 x Z8 x Z32",
                "Z2 x Z4 x Z4 x Z32", "Z2 x Z4 x Z8 x Z16", "Z2 x Z8 x Z8 x Z8",
                "Z4 x Z4 x Z4 x Z16", "Z4 x Z4 x Z8 x Z8",
            )),
            # graph export instead of analysis, 6 of the 25 requests; each
            # 0.15 to 0.22 s, the cost band of the analyze slot above. With 22 of
            # the 25 requests in one band, drawn from narrow pools, the median and
            # the tail both fall inside it.
            Slot("export", 6, (
                "AN2 x Z4 x Z4", "AN2 x Z2 x Z2 x Z4", "Z2[t]/(t^2) x Z16 x Z12",
                "Z2[t]/(t^2) x Z4 x Z48", "Z4[t]/(t^2+2) x Z4 x Z12", "Z4[t]/(t^2) x Z48",
                "Z2[t]/(t^3) x Z2 x Z48", "Z4[t]/(t^2) x Z4 x Z12", "Z4[t]/(t^2) x Z2 x Z24",
            )),
        ),
    },
    "solve-hard": {
        "pass_seconds": 10,
        "fixed": (
            # budget-bound: the exact chromatic search stops at a certified interval
            ("solve", "AN x AN"), ("solve", "AN x Z8 x Z2"),
            # AN times at most 8 elements, each 0.01 to 0.1 s: the eleven
            # cheapest requests of every list
            ("solve", "AN x Z2"), ("solve", "AN x Z3"), ("solve", "AN x Z4"), ("solve", "AN x Z5"),
            ("solve", "AN x Z7"), ("solve", "AN x Z8"), ("solve", "AN x Z2 x Z2"),
            ("solve", "AN x Z2 x Z3"), ("solve", "AN x Z2 x Z2 x Z2"), ("solve", "AN x Z2[t]/(t^2)"),
            ("solve", "AN x Z2[t]/(t^2+t+1)"),
        ),
        "slots": (
            # certified well inside the budget, each 0.14 to 0.26 s: 11 of the
            # 24 requests, between the fixed cheap ones and the budget-bound
            # ones, so the median and the tail (p58.3 of 24) fall inside this band
            Slot("solve", 11, (
                "AN x Z9", "AN x Z12", "AN x Z15", "AN x Z4 x Z3", "AN x Z3[t]/(t^2)",
                "AN x Z2 x Z2 x Z2 x Z2", "AN x Z2[t]/(t^2) x Z3", "AN x Z2[t]/(t^2) x Z2",
                "AN x Z4 x Z2", "AN x Z3 x Z5", "AN x Z2 x Z2 x Z3", "AN x Z14", "AN x Z13",
                "AN x Z2 x Z7", "AN x Z2[t]/(t^2+t+1) x Z3", "AN x Z17",
            ), permute=False),
        ),
    },
    "theorem-sweep": {
        "pass_seconds": 9,
        "fixed": (
            ("verify-suite", ""),
            # AN times 16 to 25 reduced elements, each 0.2 to 0.35 s, in a
            # fixed factor order: the tail requests. Every list holds all
            # twelve, and every drawn request below is cheaper, so the tail's
            # rank falls on the same rings whatever the seed.
            ("counterexample", "Z17"), ("counterexample", "Z19"), ("counterexample", "Z21"),
            ("counterexample", "Z22"), ("counterexample", "Z23"), ("counterexample", "Z5 x Z5"),
            ("counterexample", "Z2 x Z2 x Z5"), ("counterexample", "Z2 x Z3 x Z3"),
            ("counterexample", "Z2 x Z2 x Z2[t]/(t^2+t+1)"), ("counterexample", "Z2 x Z2 x Z2 x Z2"),
            ("counterexample", "Z2 x Z2 x Z6"), ("counterexample", "Z2[t]/(t^2+t+1) x Z2[t]/(t^2+t+1)"),
        ),
        "slots": (
            # AN times reduced factors of at most 12 elements, each under 0.17 s
            Slot("counterexample", 8, _lists(REDUCED_ATOMS, 3, 12)),
            # local products of 64 to 256 elements, AN ones included, each under 0.15 s
            Slot("predict-omega", 24, _lists(LOCAL_ATOMS, 3, 256, min_len=2, min_size=64)),
            Slot("bound-chi", 50, _lists(LOCAL_ATOMS + REDUCED_ATOMS[:6], 3, 256, min_len=2, min_size=16)),
            Slot("zn", 80, tuple(str(n) for n in range(50, 1500, 7))),
        ),
    },
}


def _factors(expr: str) -> list[str]:
    return [f.strip() for f in expr.split(" x ")]


def canonical(expr: str) -> str:
    """Factor order does not change the ring up to isomorphism."""
    return " x ".join(sorted(_factors(expr)))


def _argv(command: str, expr: str, output: str | None = None) -> list[str]:
    if command == "analyze":
        return ["analyze", "--json", expr]
    if command == "solve":
        return ["analyze", "--json", "--budget", SOLVE_BUDGET, expr]
    if command == "export":
        return ["export", "--format", output.rsplit(".", 1)[1], "--output", output, expr]
    if command == "counterexample":
        return ["counterexample", "--json", *_factors(expr)]
    if command == "predict-omega":
        return ["predict-omega", "--json", expr]
    if command == "bound-chi":
        return ["bound-chi", "--json", "--s-mode", "min", expr]
    if command == "zn":
        return ["zn", "--json", expr]
    if command == "verify-suite":
        return ["verify-suite", "--json"]
    raise ValueError(f"unknown command {command!r}")


def ring_key(command: str, expr: str) -> str:
    """The ring a request works on, up to factor order."""
    if command == "zn":
        return f"Z{expr}"
    if command == "counterexample":
        return canonical("AN x " + expr)
    return canonical(expr)


def reference_key(command: str, expr: str) -> str | None:
    """Key of the reference table entry that checks this request; zn and
    verify-suite answers are checked without the table."""
    if command in ("zn", "verify-suite"):
        return None
    return ring_key(command, expr)


def _request(command: str, expr: str, output: str | None = None) -> dict:
    return {"command": command, "expr": expr, "output": output,
            "argv": _argv(command, expr, output), "ref": reference_key(command, expr)}


def _cost_proxy(command: str, expr: str) -> int:
    """Elements of the ring a request works on, the order the strata follow."""
    return int(expr) if command == "zn" else _size(expr)


def _stratified(rng: random.Random, pool: list[str], count: int, command: str) -> list[str]:
    """One draw from each of `count` equal strata of the pool sorted by size,
    so every seed draws the same spread of costs."""
    ranked = sorted(pool, key=lambda e: _cost_proxy(command, e))
    bounds = [i * len(ranked) // count for i in range(count + 1)]
    return [ranked[rng.randrange(lo, hi)] for lo, hi in zip(bounds, bounds[1:])]


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one pass; a pure function of its arguments."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    used = {ring_key(command, expr) for command, expr in spec["fixed"]}
    out = [_request(command, expr) for command, expr in spec["fixed"]]
    for slot in spec["slots"]:
        fresh = [e for e in slot.pool if ring_key(slot.command, e) not in used]
        for expr in _stratified(rng, fresh, slot.count, slot.command):
            used.add(ring_key(slot.command, expr))
            if slot.permute:
                parts = _factors(expr)
                rng.shuffle(parts)
                expr = " x ".join(parts)
            output = None
            if slot.command == "export":
                output = f"{EXPORT_DIR}/{len(out)}.{rng.choice(('dimacs', 'json'))}"
            out.append(_request(slot.command, expr, output))
    rng.shuffle(out)
    for i, req in enumerate(out):
        req["index"] = i
    return out


def passes(workload: str, seconds: float) -> int:
    """Passes over the request list that fit in `seconds`, at least one."""
    return max(1, round(seconds / WORKLOADS[workload]["pass_seconds"]))


def reference_keys() -> set[str]:
    """Every reference key any seed can ask for."""
    keys = set()
    for spec in WORKLOADS.values():
        requests = list(spec["fixed"]) + [(slot.command, e) for slot in spec["slots"] for e in slot.pool]
        keys.update(reference_key(command, expr) for command, expr in requests)
    keys.discard(None)
    return keys
