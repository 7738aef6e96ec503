"""Ring-expression parsing, printing, and elaboration.

The parser cuts its text into tokens with one regular expression. It is
checked against the character scanner it replaced, kept here as an oracle.
"""

import numpy as np
import pytest

from beckring import ParseError, build_graph, chromatic_number, max_clique, parse, print_expr, ring_of
from beckring.cli import main
from beckring.dsl import ANAtom, ProductExpr, QuotAtom, ZmodAtom

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # a test-only dependency: the property test below skips
    given = None


def test_parse_zmod():
    assert parse("Z12") == ZmodAtom(12)


def test_parse_product():
    assert parse("Z4 x Z3") == ProductExpr((ZmodAtom(4), ZmodAtom(3)))
    assert parse("Z4xZ3") == ProductExpr((ZmodAtom(4), ZmodAtom(3)))
    assert parse("Z4 X Z3 x Z2") == ProductExpr((ZmodAtom(4), ZmodAtom(3), ZmodAtom(2)))


def test_parse_quotient():
    assert parse("Z2[t]/(t^2)") == QuotAtom(2, ((2, 1),))
    assert parse("Z2[t]/(t^2+t+1)") == QuotAtom(2, ((0, 1), (1, 1), (2, 1)))
    assert parse(" Z3 [ t ] / ( t ^ 2 + 2 t ) ") == QuotAtom(3, ((1, 2), (2, 1)))


def test_parse_negative_coefficients_fold():
    assert parse("Z4[t]/(t^2-2)") == parse("Z4[t]/(t^2+2)")
    assert parse("Z2[t]/(t^2-t)") == QuotAtom(2, ((1, 1), (2, 1)))


def test_parse_an_atoms():
    assert parse("AN") == ANAtom(None)
    assert parse("AN0") == ANAtom(0)
    assert parse("AN2") == ANAtom(2)
    assert parse("AN0 x Z2") == ProductExpr((ANAtom(0), ZmodAtom(2)))


def test_nodes_of_different_kinds_differ():
    # the nodes are tuples, and tuple equality reads fields alone
    assert parse("AN2") != parse("Z2") and not parse("AN2") == parse("Z2")
    assert ANAtom(0) != ZmodAtom(0)
    assert parse("Z4 x Z3") == ProductExpr((ZmodAtom(4), ZmodAtom(3)))
    assert parse("AN2 x Z3") != ProductExpr((ZmodAtom(2), ZmodAtom(3)))
    assert len({ANAtom(2), ZmodAtom(2), parse("Z2")}) == 2


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse("Z0")
    assert exc.value.offset == 1
    with pytest.raises(ParseError) as exc:
        parse("Z4 y Z3")
    assert exc.value.offset == 3
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("Z")
    with pytest.raises(ParseError):
        parse("Z4 x")


def test_parse_non_monic_rejected():
    with pytest.raises(ParseError) as exc:
        parse("Z3[t]/(2t^2+1)")
    assert "monic" in str(exc.value)
    # degree collapse: coefficients sum to 0 mod 2 at the top exponent
    with pytest.raises(ParseError):
        parse("Z2[t]/(t^2+t^2)")


def test_parse_degree_zero_rejected():
    with pytest.raises(ParseError):
        parse("Z5[t]/(3)")


@pytest.mark.parametrize(
    "text",
    [
        "Z12",
        "Z1",
        "Z2[t]/(t^2)",
        "Z2[t]/(t^2+t+1)",
        "Z4[t]/(t^3+2t+3)",
        "AN",
        "AN0",
        "AN2",
        "Z4 x Z3",
        "AN2 x Z2 x Z9[t]/(t^2+3)",
    ],
)
def test_print_parse_round_trip(text):
    ast = parse(text)
    assert parse(print_expr(ast)) == ast


def test_elaborate_gf4_is_a_field():
    r = ring_of("Z2[t]/(t^2+t+1)")
    assert r.size == 4
    for a in r.elements():
        if a != 0:
            assert r.unit_mask[a]


def test_elaborate_z3_dual_numbers():
    r = ring_of("Z3[t]/(t^2)")
    assert r.size == 9
    t = r.encode((0, 1))
    two_t = r.encode((0, 2))
    assert np.flatnonzero(r.nil_power_masks[0]).tolist() == sorted([0, t, two_t])
    assert r.nilradical().index_of_nilpotency == 2


def test_elaborate_an_product():
    r = ring_of("AN x Z2")
    assert r.size == 64
    # equal atoms elaborate to one ring, so equal factors share one graph
    a, b, c = ring_of("Z16 x Z16 x Z16").factors
    assert a is b is c


def test_elaborate_canonical_an():
    r = ring_of("AN")
    g = build_graph(r)
    assert max_clique(g).size == 5
    assert chromatic_number(g)[0] == 6


def test_quotient_rewrite_consistency():
    # t^3 = t * t^2 under the rewrite t^2 -> -(t + 1) in GF(4):
    # t^2 = t + 1, t^3 = t^2 + t = 1
    r = ring_of("Z2[t]/(t^2+t+1)")
    t = r.encode((0, 1))
    assert r.mul(t, r.mul(t, t)) == r.unity


@pytest.mark.parametrize("a,b", [("Z6", "Z2 x Z3"), ("Z12", "Z4 x Z3"), ("Z10", "Z2 x Z5")])
def test_crt_isomorphic_invariants(a, b):
    ga, gb = build_graph(ring_of(a)), build_graph(ring_of(b))
    assert max_clique(ga).size == max_clique(gb).size
    assert chromatic_number(ga)[0] == chromatic_number(gb)[0]


def test_elaborated_rings_pass_validation():
    for text in ("Z12", "Z2[t]/(t^2)", "Z2[t]/(t^2+t+1)", "Z4[t]/(t^2-2)", "AN"):
        ring_of(text).validate()


def test_elaborate_propagates_capacity():
    from beckring import CapacityError

    with pytest.raises(CapacityError):
        ring_of("Z2[t]/(t^13)")  # 2^13 elements exceeds the cap


def test_z1_quotient_prints_a_form_that_parses():
    # over Z1 every coefficient reads 0, the leading one too: the printed
    # form keeps the monic leading term, so it parses back to the same node
    ast = parse("Z1[t]/(t^2+t+1)")
    assert ast == QuotAtom(1, ((2, 0),))
    assert print_expr(ast) == "Z1[t]/(t^2)"
    assert parse(print_expr(ast)) == ast
    ring = ring_of("Z1[t]/(t^2+t+1)")
    assert (ring.size, repr(ring), ring.element_str(0)) == (1, "Z1[t]/(t^2)", "(0)")
    assert parse(repr(ring)) == ast


# -- the tokenizer against the character scanner it replaced -------------------


class _OracleScanner:
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

    def try_int(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            return None
        return int(self.text[start : self.pos]), start

    def expect_int(self, what: str):
        got = self.try_int()
        if got is None:
            raise ParseError(f"expected {what}", self.pos)
        return got


def _oracle_poly(sc, n):
    coeffs = {}
    degree = 0
    sign = 1
    start = sc.pos
    while True:
        c_val = 1
        got = sc.try_int()
        has_coeff = got is not None
        if has_coeff:
            c_val, _ = got
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
    return tuple((e, c) for e, c in enumerate(out) if c or e == degree)


def _oracle_atom(sc):
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
            coeffs = _oracle_poly(sc, n)
            sc.expect_lit(")")
            return QuotAtom(n, coeffs)
        return ZmodAtom(n)
    raise ParseError("expected a ring atom (Zn, Zn[t]/(...), AN, AN0, AN2)", sc.pos)


def oracle_parse(text):
    """The character scanner's parse: it reads any `str.isdigit` run as a
    number, so a superscript digit raised ValueError from `int`."""
    sc = _OracleScanner(text)
    atoms = [_oracle_atom(sc)]
    while True:
        sc.skip_ws()
        if sc.pos < len(sc.text) and sc.text[sc.pos] in "xX":
            sc.pos += 1
            atoms.append(_oracle_atom(sc))
        else:
            break
    if not sc.at_end():
        raise ParseError("unexpected trailing input", sc.pos)
    if len(atoms) == 1:
        return atoms[0]
    return ProductExpr(tuple(atoms))


def _outcome(parser, text):
    """("ast", node), ("parse error", message, offset) or ("raised", type)."""
    try:
        return ("ast", parser(text))
    except ParseError as e:
        return ("parse error", str(e), e.offset)
    except Exception as e:  # the oracle's ValueError on non-decimal digits
        return ("raised", type(e))


def assert_matches_the_oracle(text):
    want, got = _outcome(oracle_parse, text), _outcome(parse, text)
    if want[0] == "raised":
        assert got[0] == "parse error", (text, want, got)
    else:
        assert got == want, text


# pieces of ring expressions, whitespace of several kinds, AN with digit
# runs after it, and digits that are not decimal (superscripts) or not ASCII
_PIECES = [
    "Z", "A", "N", "AN", "AN 0", "AN 02", "AN20", "AN\t2", "x", "X", "t", "[", "]", "/",
    "(", ")", "^", "+", "-", "0", "1", "2", "3", "12", "007", "Z4[t]/(", "Z9",
    " ", "  ", "\t", "\n", "\xa0", "\u2003", "\x1c", "\u00b2", "\u00b3", "\u0663", "y",
]


@pytest.mark.parametrize(
    "text",
    [
        "Z4 x Z3", " Z3 [ t ] / ( t ^ 2 + 2 t ) ", "AN\n0 X Z\u06632", "Z5[t]/( 3)",
        "Z4[t]/(t^", "Z4[t]/(2t^2 )", "AN 02", "Z1 2", "Z\u00b2", "Z4[t]/(t^\u00b2)",
        "Z12\u00b3", "AN5", "", "   ", "Z4 x", "Z4[t]/(t^2-t^2+1)",
    ],
)
def test_parse_matches_the_oracle_on_named_texts(text):
    assert_matches_the_oracle(text)


if given is not None:

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
    def test_parse_matches_the_oracle(text):
        assert_matches_the_oracle(text)


def test_whitespace_separates_tokens_but_splits_no_number_or_an():
    assert parse("AN 0") == ANAtom(0)
    for text, offset, message in [
        ("AN02", 3, "unexpected trailing input"),
        ("Z1 2", 3, "unexpected trailing input"),
        ("A N", 0, "expected a ring atom"),
        ("Z\u00b2", 1, "expected modulus after 'Z'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.offset, str(exc.value).startswith(message)) == (offset, True), text


@pytest.mark.parametrize("text,offset", [("Z\u00b2", 1), ("Z4[t]/(t^\u00b2)", 9)])
def test_non_decimal_digits_are_parse_errors_at_the_cli(text, offset, capsys):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert main(["analyze", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text,offset",
    [("Z" + "9" * 5000, 1), ("Z2[t]/(t^" + "9" * 5000 + ")", 9), ("Z2[t]/(t^2+" + "9" * 5000 + "t)", 11)],
    ids=["modulus", "exponent", "coefficient"],
)
def test_numbers_longer_than_4300_digits_are_parse_errors(text, offset, capsys):
    # Python 3.11+ converts no longer digit run to an int; the tokenizer
    # refuses one on every Python, at the number's offset
    with pytest.raises(ParseError, match="number of 5000 digits exceeds 4300") as exc:
        parse(text)
    assert exc.value.offset == offset
    assert main(["analyze", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
