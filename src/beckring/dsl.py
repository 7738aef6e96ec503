"""Ring-expression language.

Grammar (whitespace-insensitive, "x"/"X" separates product factors):

    expr := atom ( "x" atom )*
    atom := "Z" INT | "Z" INT "[t]/(" poly ")" | "AN" | "AN0" | "AN2"
    poly := term ( ("+"|"-") term )*
    term := INT | INT? "t" ("^" INT)?

Quotient polynomials must be monic of degree >= 1; coefficients fold into
canonical residues mod the base modulus, so "t^2-2" over Z4 is "t^2+2".
"AN" picks whichever z^2 variant of the 32-element built-in has clique
number 5 and chromatic number 6; "AN0"/"AN2" force the variant.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapacityError, ParseError
from .rings import (
    AN_SIZE,
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
    """Z_n[t]/(f); coeffs ascending c_0..c_d, reduced mod n, c_d monic."""

    n: int
    coeffs: tuple[int, ...]


class ANAtom(NamedTuple):
    """variant None = canonical (resolved by computation), else 0 or 2."""

    variant: int | None


class ProductExpr(NamedTuple):
    atoms: tuple[RingExpr, ...]


RingExpr = ZmodAtom | QuotAtom | ANAtom | ProductExpr  # a parsed ring expression

# tuple equality compares fields alone (AN2 would equal Z2); nodes also compare kinds
for _kind in (ZmodAtom, QuotAtom, ANAtom, ProductExpr):
    _kind.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    _kind.__ne__ = lambda a, b: not a == b
del _kind


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_lit(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect_lit(self, lit: str):
        if not self.try_lit(lit):
            raise ParseError(f"expected {lit!r}", self.pos)

    def try_int(self) -> tuple[int, int] | None:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        return int(self.text[start : self.pos]), start

    def expect_int(self, what: str) -> tuple[int, int]:
        got = self.try_int()
        if got is None:
            raise ParseError(f"expected {what}", self.pos)
        return got


def _parse_poly(sc: _Scanner, n: int) -> tuple[int, ...]:
    coeffs: dict[int, int] = {}
    degree = 0
    sign = 1
    start = sc.pos
    while True:
        c_val, c_off = 1, sc.pos
        got = sc.try_int()
        has_coeff = got is not None
        if has_coeff:
            c_val, c_off = got
        if sc.try_lit("t"):
            exp = 1
            if sc.try_lit("^"):
                exp, _ = sc.expect_int("exponent after '^'")
        elif has_coeff:
            exp = 0
        else:
            raise ParseError("expected polynomial term", sc.pos)
        coeffs[exp] = coeffs.get(exp, 0) + sign * c_val
        degree = max(degree, exp)
        if sc.try_lit("+"):
            sign = 1
        elif sc.try_lit("-"):
            sign = -1
        else:
            break
    if degree < 1:
        raise ParseError("quotient polynomial must have degree >= 1", start)
    out = tuple(coeffs.get(e, 0) % n for e in range(degree + 1))
    if n > 1 and out[degree] != 1:
        raise ParseError(
            f"quotient polynomial must be monic (leading coefficient {out[degree]} mod {n})",
            start,
        )
    return out


def _parse_atom(sc: _Scanner) -> RingExpr:
    sc.skip_ws()
    if sc.try_lit("AN"):
        if sc.try_lit("0"):
            return ANAtom(0)
        if sc.try_lit("2"):
            return ANAtom(2)
        return ANAtom(None)
    if sc.try_lit("Z"):
        n, n_off = sc.expect_int("modulus after 'Z'")
        if n == 0:
            raise ParseError("invalid modulus Z0", n_off)
        if sc.try_lit("["):
            sc.expect_lit("t")
            sc.expect_lit("]")
            sc.expect_lit("/")
            sc.expect_lit("(")
            coeffs = _parse_poly(sc, n)
            sc.expect_lit(")")
            return QuotAtom(n, coeffs)
        return ZmodAtom(n)
    raise ParseError("expected a ring atom (Zn, Zn[t]/(...), AN, AN0, AN2)", sc.pos)


def parse(text: str) -> RingExpr:
    """Parse a ring expression; raises ParseError with a byte offset."""
    sc = _Scanner(text)
    atoms = [_parse_atom(sc)]
    while True:
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] in "xX":
            sc.pos += 1
            atoms.append(_parse_atom(sc))
        else:
            break
    if not sc.at_end():
        raise ParseError("unexpected trailing input", sc.pos)
    if len(atoms) == 1:
        return atoms[0]
    return ProductExpr(tuple(atoms))


def _poly_str(coeffs: tuple[int, ...]) -> str:
    # the leading term prints monic also over Z1, where every coefficient
    # reads 0, so that the text parses back to the same degree
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e] if terms else 1
        power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        if c:
            terms.append(power if c == 1 and e else f"{c}{power}")
    return "+".join(terms)


def print_expr(e: RingExpr) -> str:
    """Canonical text form; parse(print_expr(e)) == e."""
    if isinstance(e, ZmodAtom):
        return f"Z{e.n}"
    if isinstance(e, QuotAtom):
        return f"Z{e.n}[t]/({_poly_str(e.coeffs)})"
    if isinstance(e, ANAtom):
        return "AN" if e.variant is None else f"AN{e.variant}"
    if isinstance(e, ProductExpr):
        return " x ".join(print_expr(a) for a in e.atoms)
    raise TypeError(f"not a ring expression: {e!r}")


def elaborate(e: RingExpr, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    """Realize a parsed expression as a validated ring, each ring on the
    way held to `size_cap` where it is built."""
    if isinstance(e, ZmodAtom):
        return make_zmod(e.n, size_cap=size_cap)
    if isinstance(e, QuotAtom):
        return make_quotient(e.n, e.coeffs, name=print_expr(e), size_cap=size_cap)
    if isinstance(e, ANAtom):
        # AN, AN0 and AN2 are held to the cap here, before the ring is
        # built or AN resolved
        if AN_SIZE > size_cap:
            raise CapacityError(f"ring size {AN_SIZE} exceeds cap {size_cap}")
        if e.variant is None:
            from .catalog import canonical_anderson_naseer

            return canonical_anderson_naseer()
        return make_anderson_naseer(e.variant)
    if isinstance(e, ProductExpr):
        return make_product([elaborate(a, size_cap) for a in e.atoms], size_cap=size_cap)
    raise TypeError(f"not a ring expression: {e!r}")


def ring_of(text: str, size_cap: int = DEFAULT_SIZE_CAP) -> FiniteRing:
    return elaborate(parse(text), size_cap=size_cap)
