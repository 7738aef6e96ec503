"""Ring-expression language.

Grammar ("x"/"X" separates product factors):

    expr := atom ( "x" atom )*
    atom := "Z" INT | "Z" INT "[t]/(" poly ")" | "AN" | "AN0" | "AN2"
    poly := term ( ("+"|"-") term )*
    term := INT | INT? "t" ("^" INT)?

Whitespace may separate tokens, but never splits a number or "AN"; "AN 0"
is "AN0". Numbers are runs of at most 4300 decimal digits.
Quotient polynomials must be monic of degree >= 1; coefficients fold into
canonical residues mod the base modulus, so "t^2-2" over Z4 is "t^2+2".
f is kept as its terms, so its degree costs nothing before the size cap.
"AN" is the 32-element built-in with z^2 = rings.AN_VARIANT (0), the
variant with clique number 5 and chromatic number 6; "AN0"/"AN2" force
the variant.

The atoms of products, of the counterexample family and of the built-in
catalog are realized through one process-wide table of factors: each atom
is one ring with one graph, which keeps its finished solves from one
request to the next. The held rings' sizes sum to at most
DEFAULT_SIZE_CAP, the least recently used going first; a whole-ring atom
other than AN (`analyze Z8`, `zn`'s Z_N) and a product are never held.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import CapacityError, ParseError
from .graphs import HeldTable, build_graph
from .rings import (
    AN_SIZE,
    AN_VARIANT,
    DEFAULT_SIZE_CAP,
    FiniteRing,
    make_anderson_naseer,
    make_product,
    make_quotient,
    make_zmod,
)


class ZmodAtom(NamedTuple):
    n: int


class QuotAtom(NamedTuple):
    """Z_n[t]/(f); f's terms as ascending (exponent, coefficient mod n)
    pairs, zero coefficients left out but the leading (d, 1), or (d, 0)
    over Z1."""

    n: int
    terms: tuple[tuple[int, int], ...]


class ANAtom(NamedTuple):
    """variant None = AN, the fixed variant rings.AN_VARIANT, else 0 or 2."""

    variant: int | None


class ProductExpr(NamedTuple):
    atoms: tuple[RingExpr, ...]


RingExpr = ZmodAtom | QuotAtom | ANAtom | ProductExpr  # a parsed ring expression

# tuple equality compares fields alone (AN2 would equal Z2); nodes also compare kinds
for _kind in (ZmodAtom, QuotAtom, ANAtom, ProductExpr):
    _kind.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    _kind.__ne__ = lambda a, b: not a == b
del _kind


# a token is AN with its optional variant digit, a run of decimal digits or
# any other single character; the whitespace before each is skipped
_TOKEN = re.compile(r"\s*(AN(?:\s*[02])?|\d+|\S)")
_Tokens = list[tuple[str, int]]  # (token, offset) pairs, the next one last


def _tokens(text: str) -> _Tokens:
    """The tokens of `text` above an end marker "" at offset len(text)."""
    toks = [(m[1], m.start(1)) for m in _TOKEN.finditer(text)]
    toks.append(("", len(text)))
    return toks[::-1]


def _take(toks: _Tokens, lit: str | None) -> tuple[str | int, int] | None:
    """Pop the next token and its offset if it is `lit`, or a number (as an
    int) for None; else None."""
    tok, off = toks[-1]
    if tok == lit or lit is None and tok.isdecimal():
        if lit is None and len(tok) > 4300:  # Python 3.11+ reads no longer digit run as an int
            raise ParseError(f"number of {len(tok)} digits exceeds 4300", off)
        toks.pop()
        return tok if lit else int(tok), off
    return None


def _expect(toks: _Tokens, lit: str | None, what: str = "") -> tuple[str | int, int]:
    got = _take(toks, lit)
    if got is None:
        raise ParseError(f"expected {what or repr(lit)}", toks[-1][1])
    return got


def _parse_poly(toks: _Tokens, n: int, start: int) -> dict[int, int]:
    coeffs: dict[int, int] = {}
    degree = 0
    sign = 1
    while True:
        coeff = _take(toks, None)
        if _take(toks, "t"):
            exp = 1
            if _take(toks, "^"):
                exp, _ = _expect(toks, None, "exponent after '^'")
        elif coeff:
            exp = 0
        else:
            raise ParseError("expected polynomial term", toks[-1][1])
        coeffs[exp] = coeffs.get(exp, 0) + sign * (coeff[0] if coeff else 1)
        degree = max(degree, exp)
        if _take(toks, "+"):
            sign = 1
        elif _take(toks, "-"):
            sign = -1
        else:
            break
    if degree < 1:
        raise ParseError("quotient polynomial must have degree >= 1", start)
    if n > 1 and coeffs[degree] % n != 1:
        raise ParseError(
            f"quotient polynomial must be monic (leading coefficient {coeffs[degree] % n} mod {n})",
            start,
        )
    return {e: c % n for e, c in coeffs.items() if c % n or e == degree}


def _parse_atom(toks: _Tokens) -> RingExpr:
    tok, off = toks[-1]
    if tok.startswith("AN"):
        toks.pop()
        return ANAtom(int(tok[-1]) if len(tok) > 2 else None)
    if _take(toks, "Z"):
        n, n_off = _expect(toks, None, "modulus after 'Z'")
        if n == 0:
            raise ParseError("invalid modulus Z0", n_off)
        if _take(toks, "["):
            for lit in "t]/":
                _expect(toks, lit)
            # the polynomial's errors point just past its "("
            terms = _parse_poly(toks, n, _expect(toks, "(")[1] + 1)
            _expect(toks, ")")
            return QuotAtom(n, tuple(sorted(terms.items())))
        return ZmodAtom(n)
    raise ParseError("expected a ring atom (Zn, Zn[t]/(...), AN, AN0, AN2)", off)


def parse(text: str) -> RingExpr:
    """Parse a ring expression; raises ParseError at a character offset."""
    toks = _tokens(text)
    atoms = [_parse_atom(toks)]
    while _take(toks, "x") or _take(toks, "X"):
        atoms.append(_parse_atom(toks))
    if toks[-1][0]:
        raise ParseError("unexpected trailing input", toks[-1][1])
    if len(atoms) == 1:
        return atoms[0]
    return ProductExpr(tuple(atoms))


def _poly_str(terms: tuple[tuple[int, int], ...]) -> str:
    # the leading term prints monic also over Z1, where its coefficient
    # reads 0, so that the text parses back to the same degree
    out = []
    for e, c in reversed(terms):
        c = c if out else 1
        power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        out.append(power if c == 1 and e else f"{c}{power}")
    return "+".join(out)


def print_expr(e: RingExpr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    if isinstance(e, ZmodAtom):
        return f"Z{e.n}"
    if isinstance(e, QuotAtom):
        return f"Z{e.n}[t]/({_poly_str(e.terms)})"
    if isinstance(e, ANAtom):
        return "AN" if e.variant is None else f"AN{e.variant}"
    if isinstance(e, ProductExpr):
        return " x ".join(print_expr(a) for a in e.atoms)
    raise TypeError(f"not a ring expression: {e!r}")


def _atom_ring(e: RingExpr, size_cap: int) -> FiniteRing:
    """A new ring for the atom `e`, held to `size_cap` where it is built."""
    if isinstance(e, ZmodAtom):
        return make_zmod(e.n, size_cap=size_cap)
    if isinstance(e, QuotAtom):
        ring = make_quotient(e.n, dict(e.terms), size_cap=size_cap)
        ring.name = print_expr(e)  # named once accepted
        return ring
    if isinstance(e, ANAtom):
        # AN, AN0 and AN2 are held to the cap here, before the ring is built
        if AN_SIZE > size_cap:
            raise CapacityError(f"ring size {AN_SIZE} exceeds cap {size_cap}")
        ring = make_anderson_naseer(AN_VARIANT if e.variant is None else e.variant)
        ring.name = print_expr(e)
        return ring
    raise TypeError(f"not a ring expression: {e!r}")


# the table of factors: parsed atom -> the graph of its ring, least recently
# used first. The graph holds its ring, which holds it back only weakly
# (graphs.build_graph), so an evicted pair is freed at once, without gc.
_factors = HeldTable()


def held_factor(e: RingExpr, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """The ring of the atom `e` from the table of factors, built and held on
    first use. Its graph, and so every finished solve on it, serves each
    later request. A held ring above `size_cap` is built again, and so
    refused as a new one is. A ring above DEFAULT_SIZE_CAP is never held,
    and the least recently used go once the held sizes sum past it."""
    g = _factors.get(e)
    if g is None or g.n > size_cap:
        ring = _atom_ring(e, size_cap)
        if ring.size > _factors.cap:
            return ring
        g = build_graph(ring)
    _factors.hold(e, g, g.n)
    return g.ring


def canonical_anderson_naseer() -> FiniteRing:
    """AN: the variant AN_VARIANT, named "AN", held in the table of factors,
    so that every request shares one ring and what its graph keeps."""
    return held_factor(ANAtom(None))


def elaborate(e: RingExpr, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Realize a parsed expression as a validated ring, each ring on the
    way held to `size_cap` where it is built: a product's atoms and AN come
    from the table of factors, any other atom is built anew."""
    if isinstance(e, ProductExpr):
        return make_product(elaborate_factors(e.atoms, size_cap), size_cap=size_cap)
    return held_factor(e, size_cap) if e == ANAtom(None) else _atom_ring(e, size_cap)


def elaborate_factors(exprs, size_cap: int = DEFAULT_SIZE_CAP) -> list[FiniteRing]:
    """`exprs` realized in order, equal ones as one ring with one graph;
    each atom from the table of factors."""
    built: dict[RingExpr, FiniteRing] = {}
    out = []
    for e in exprs:
        if e not in built:
            built[e] = elaborate(e, size_cap) if isinstance(e, ProductExpr) else held_factor(e, size_cap)
        out.append(built[e])
    return out


def ring_of(text: str, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    return elaborate(parse(text), size_cap=size_cap)
