"""The correctness gate: every request's output against reference.json.

The table's entries are themselves checked by closed forms written here,
apart from the program: the Z_N formula, omega = chi = r + 1 for reduced
rings with r field factors, and chi = omega + 1 for the AN family (AN times
reduced rings).
"""

from __future__ import annotations

import json
import os

from stats import parse_budget_interval

HERE = os.path.dirname(os.path.abspath(__file__))

# Z_p[t]/(f) with f irreducible over Z_p: fields
FIELD_QUOTIENTS = {"Z2[t]/(t^2+t+1)", "Z2[t]/(t^3+t+1)", "Z3[t]/(t^2+1)"}


def factorize(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def zn_closed_form(n: int) -> int:
    """omega = chi of Z_N: prod p^floor(e/2) plus the number of odd exponents."""
    value = 1
    odd = 0
    for p, e in factorize(n):
        value *= p ** (e // 2)
        odd += e % 2
    return value + odd


def reduced_rank(factor: str) -> int:
    """Number of field factors of a reduced ring expression atom; 0 if the
    atom is not reduced."""
    if factor in FIELD_QUOTIENTS:
        return 1
    if factor.startswith("Z") and factor[1:].isdigit():
        fs = factorize(int(factor[1:]))
        return len(fs) if fs and all(e == 1 for _, e in fs) else 0
    return 0


def validate(table: dict) -> list[str]:
    """Closed-form cross-checks of every entry; returns the problems found."""
    problems = []
    for key, e in table.items():
        factors = key.split(" x ")
        omega, lo, hi = e["omega"], e["chi_lo"], e["chi_hi"]
        if not omega <= lo <= hi:
            problems.append(f"{key}: omega {omega} and chi interval [{lo}, {hi}] disagree")
        if len(factors) == 1 and factors[0][1:].isdigit():
            z = zn_closed_form(int(factors[0][1:]))
            if not omega == lo == hi == z:
                problems.append(f"{key}: Z_N closed form {z}, table {omega}/[{lo}, {hi}]")
        ranks = [reduced_rank(f) for f in factors]
        if all(ranks):
            r = sum(ranks)
            if not omega == lo == hi == r + 1:
                problems.append(f"{key}: reduced with r={r}, table {omega}/[{lo}, {hi}]")
        rest = [reduced_rank(f) for f in factors if f != "AN"]
        if factors.count("AN") == 1 and all(rest):
            if not lo == hi == omega + 1:
                problems.append(f"{key}: AN family needs chi = omega + 1, table {omega}/[{lo}, {hi}]")
    return problems


def load() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        table = json.load(f)
    problems = validate(table)
    if problems:
        raise ValueError("reference table fails its cross-checks:\n" + "\n".join(problems))
    return table


def _chi_ok(value, ref: dict) -> bool:
    return value is not None and ref["chi_lo"] <= value <= ref["chi_hi"]


def _check_export(req: dict, ref: dict, root: str) -> str | None:
    path = os.path.join(root, req["output"])
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return f"export file unreadable: {e}"
    finally:
        if os.path.exists(path):
            os.remove(path)
    if path.endswith(".dimacs"):
        lines = text.splitlines()
        head = lines[0].split() if lines else []
        if head[:2] != ["p", "edge"] or head[2:] != [str(ref["size"]), str(ref["edges"])]:
            return f"dimacs header {lines[:1]} != p edge {ref['size']} {ref['edges']}"
        if len(lines) != ref["edges"] + 1 or not all(line.startswith("e ") for line in lines[1:]):
            return "dimacs body does not list the edges"
        return None
    payload = json.loads(text)
    if payload["n"] != ref["size"] or len(payload["edges"]) != ref["edges"]:
        return f"json export n={payload['n']} m={len(payload['edges'])}"
    return None


def check(req: dict, rec: dict, table: dict, root: str) -> tuple[str, str, int | None]:
    """(status, detail, open gap) for one request.

    status is "ok", "budget" (exit 4 with a certified interval consistent
    with the table), "wrong" (an answer disagrees) or "error" (raised or
    exited nonzero otherwise).
    """
    if rec["exception"]:
        return "error", rec["exception"].strip().splitlines()[-1], None
    ref = table.get(req["ref"]) if req["ref"] is not None else None
    if rec["rc"] == 4 and req["command"] == "solve":
        interval = parse_budget_interval(rec["stderr"])
        if interval is None:
            return "wrong", "budget exit without a certified interval", None
        lo, hi = interval
        if lo > ref["chi_hi"] or (hi is not None and (hi < ref["chi_lo"] or hi < lo)):
            return "wrong", f"certified [{lo}, {hi}] excludes chi in [{ref['chi_lo']}, {ref['chi_hi']}]", None
        return "budget", f"[{lo}, {hi}]", None if hi is None else hi - lo
    if rec["rc"] != 0:
        return "error", f"exit {rec['rc']}: {rec['stderr'].strip()[-200:]}", None
    try:
        problem = _check_answer(req, rec, ref, root)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        problem = f"malformed output: {e!r}"
    return ("wrong", problem, None) if problem else ("ok", "", None)


def _check_answer(req: dict, rec: dict, ref: dict | None, root: str) -> str | None:
    """None if the request's answer agrees with the reference, else why not."""
    cmd = req["command"]
    if cmd == "export":
        return _check_export(req, ref, root)
    out = json.loads(rec["stdout"])
    if cmd in ("analyze", "solve"):
        bad = [c["name"] for c in out["checks"] if not c["pass"]]
        ok = (
            not bad
            and out["size"] == ref["size"]
            and out["omega"]["value"] == ref["omega"] == len(out["omega"]["witness"])
            and _chi_ok(out["chi"]["value"], ref)
            and len(out["chi"]["classes"]) == out["chi"]["value"]
        )
        detail = f"omega {out['omega']['value']} chi {out['chi']['value']} failing {bad}"
    elif cmd == "counterexample":
        ok = (
            out["pass"] and out["gap"] == 1 and out["size"] == ref["size"]
            and out["omega"] == ref["omega"] and _chi_ok(out["chi"], ref)
        )
        detail = f"omega {out['omega']} chi {out['chi']} gap {out['gap']}"
    elif cmd == "predict-omega":
        ok = out["pass"] and out["predicted_omega"] == ref["omega"] and out["direct_omega"] in (None, ref["omega"])
        detail = f"predicted {out['predicted_omega']} direct {out['direct_omega']}"
    elif cmd == "bound-chi":
        ok = (
            out["pass"] and out["lower"] <= ref["chi_lo"] and ref["chi_hi"] <= out["upper"]
            and (out["exact_chi"] is None or _chi_ok(out["exact_chi"], ref))
        )
        detail = f"[{out['lower']}, {out['upper']}] exact {out['exact_chi']}"
    elif cmd == "zn":
        z = zn_closed_form(int(req["expr"]))
        ok = out["pass"] and out["formula"] == out["omega"] == out["chi"] == z
        detail = f"formula {out['formula']} omega {out['omega']} chi {out['chi']} closed form {z}"
    elif cmd == "verify-suite":
        failing = [c["name"] for c in out["checks"] if c["failed"]]
        ok = out["pass"] and out["checks"] and not failing
        detail = f"failing checks {failing}"
    else:
        raise ValueError(f"unknown command {cmd}")
    return None if ok else detail
