"""Regenerate bench/reference.json, the (omega, chi) table the gate checks.

    python3 bench/make_reference.py

Covers every ring any seed of any workload can request. Entries already in
the table are kept and only missing ones are computed; entries no pool
reaches any more are dropped. Delete reference.json to recompute them all.
Values come from direct solves with generous budgets; where the exact
chromatic search does not finish, the entry keeps the certified interval.
Before writing, every entry passes the independent checks in reference.py
(closed form for Z_N, r + 1 for reduced rings, gap 1 for the AN family). A
fresh table takes about a quarter of an hour.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

CHI_BUDGET = 30.0  # per chromatic solve; budget-bound rings keep an interval


def entry(key: str) -> dict:
    from beckring import BudgetError, build_graph, chromatic_number, max_clique, ring_of
    from beckring.theorems import counterexample_family

    ring = ring_of(key)
    g = build_graph(ring)
    out = {"size": ring.size, "omega": max_clique(g, 600).size, "edges": g.edge_count()}
    factors = key.split(" x ")
    if factors.count("AN") == 1 and all(reference.reduced_rank(f) for f in factors if f != "AN"):
        # the family's chi is pinned by its constructed coloring, no search needed
        rest = list(factors)
        rest.remove("AN")
        rep = counterexample_family([ring_of(f) for f in rest])
        out["chi_lo"] = out["chi_hi"] = rep.chi
        return out
    try:
        chi, _ = chromatic_number(g, CHI_BUDGET)
        out["chi_lo"] = out["chi_hi"] = chi
    except BudgetError as e:
        out["chi_lo"], out["chi_hi"] = e.lower, e.upper
    return out


def main() -> int:
    path = os.path.join(HERE, "reference.json")
    old = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = json.load(f)
    table = {}
    for key in sorted(workloads.reference_keys()):
        table[key] = old[key] if key in old else entry(key)
        print(key, table[key], flush=True)
    problems = reference.validate(table)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
