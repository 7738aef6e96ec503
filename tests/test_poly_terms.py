"""The one form of a quotient polynomial: its terms, from parse to table.

`parse` keeps f as ascending (exponent, coefficient) pairs and
`make_quotient` takes them as a mapping, reading only the leading term
before the size cap, so a ring's degree costs nothing until it is
accepted. The dense coefficient tuple, its printer and the
shift-and-reduce loop they replaced are kept here as oracles.
"""

import re
import tracemalloc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st
from test_ring_predicates import PROPERTY

from beckring import CapacityError, DescriptorError, make_quotient, parse, print_expr, ring_of
from beckring.cli import main
from beckring.dsl import QuotAtom
from beckring.rings import DEFAULT_SIZE_CAP


def shift_and_reduce_rows(n, dense):
    """t^e in the basis 1, t, ..., t^(d-1) for e < 2d - 1, each t^e from
    t^(e-1) by a shift and the rewrite t^d -> -(c_0 + ... + c_{d-1} t^(d-1))."""
    d = len(dense) - 1
    coeffs = tuple(c % n for c in dense)
    rep = [[0] * d for _ in range(2 * d - 1)]
    for e in range(min(d, 2 * d - 1)):
        rep[e][e] = 1
    for e in range(d, 2 * d - 1):
        prev = rep[e - 1]
        cur = [0] * d
        for i in range(d - 1):
            cur[i + 1] = prev[i]
        top = prev[d - 1]
        if top:
            for i in range(d):
                cur[i] = (cur[i] - top * coeffs[i]) % n
        rep[e] = cur
    return rep


def dense_poly_str(terms):
    """The printer of the dense coefficient tuple c_0..c_d, of f's terms."""
    coeffs = [0] * (terms[-1][0] + 1)
    for e, c in terms:
        coeffs[e] = c
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e] if terms else 1
        power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        if c:
            terms.append(power if c == 1 and e else f"{c}{power}")
    return "+".join(terms)


@st.composite
def monic_polys(draw):
    """(n, f) for n in 1..16 and a monic f of degree d with n^d within the
    cap, as a mapping with unreduced coefficients and some explicit zeros."""
    n = draw(st.integers(1, 16))
    degree = draw(st.integers(1, max(d for d in range(1, 13) if n**d <= DEFAULT_SIZE_CAP)))
    lower = draw(st.dictionaries(st.integers(0, degree - 1), st.integers(-40, 40)))
    return n, lower | {degree: 1 + n * draw(st.integers(-2, 2))}


@PROPERTY
@given(monic_polys())
def test_structure_constants_match_the_shift_and_reduce_loop(spec):
    n, poly = spec
    ring = make_quotient(n, poly)
    if n == 1:  # the zero ring, on one coordinate
        assert ring._tensor.tolist() == [[0]]
        return
    d = max(poly)
    rows = shift_and_reduce_rows(n, [poly.get(e, 0) for e in range(d + 1)])
    want = [rows[i + j] for i in range(d) for j in range(d)]
    assert (ring.size, ring._tensor.tolist()) == (n**d, want)


@st.composite
def poly_texts(draw):
    """(n, text, terms): a monic f written term by term, with exponents up
    to 10^12, repeated exponents whose coefficients may cancel, and its
    terms as parse should keep them."""
    n = draw(st.integers(1, 16))
    degree = draw(st.one_of(st.integers(1, 30), st.integers(1, 10**12)))
    lead = 1 + n * draw(st.integers(0, 3))
    lower = draw(st.lists(st.tuples(st.integers(0, degree - 1), st.integers(-40, 40)), max_size=8))
    pieces = [(degree, lead - 1)] + lower + lower[:2] + [(e, -c) for e, c in lower[:2]]
    text, sums = f"t^{degree}", {degree: 1}
    for e, c in pieces:
        power = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        text += f"{'-' if c < 0 else '+'}{abs(c)}{power}"
        sums[e] = sums.get(e, 0) + c
    terms = tuple((e, c % n) for e, c in sorted(sums.items()) if c % n or e == degree)
    return n, f"Z{n}[t]/({text})", terms


@PROPERTY
@given(poly_texts())
def test_parse_keeps_the_terms_and_print_parses_back(spec):
    n, text, terms = spec
    ast = parse(text)
    assert ast == QuotAtom(n, terms)
    assert parse(print_expr(ast)) == ast
    if terms[-1][0] <= 30:
        assert print_expr(ast) == f"Z{n}[t]/({dense_poly_str(terms)})"


@pytest.mark.parametrize("text", ["Z6[t]/(t^3+5t+1)", "Z1[t]/(t^2+t+1)", "Z4[t]/(t^2-2)", "Z7[t]/(1+t)"])
def test_named_quotients_print_as_the_dense_printer(text):
    ast = parse(text)
    assert print_expr(ast) == f"Z{ast.n}[t]/({dense_poly_str(ast.terms)})"


def test_degree_costs_nothing_before_the_cap():
    # no step before the cap grows with the degree: a dense form of f
    # would hold 10^7 coefficients here
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"ring size 2\^10000000 exceeds cap 4096"):
            ring_of("Z2[t]/(t^10000000)")
        refused = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ring = ring_of("Z1[t]/(t^10000000)")
        zero_ring = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refused < 1 << 20 and zero_ring < 1 << 20
    assert (ring.size, ring.orders, repr(ring)) == (1, (1,), "Z1[t]/(t^10000000)")


@pytest.mark.parametrize("digits", [400, 4000, 4300])
def test_long_exponents_exit_3_at_the_cli(digits, capsys):
    exponent = "9" * digits
    assert main(["analyze", f"Z2[t]/(t^{exponent})"]) == 3
    err = capsys.readouterr().err
    assert err == f"error: ring size 2^{exponent} exceeds cap 4096\n"


def test_an_exponent_too_long_to_print_is_shown_by_its_bit_length():
    # Python prints no int of more than 4300 digits in decimal, so the cap
    # message names such an exponent by its length
    with pytest.raises(CapacityError, match=r"^ring size 2\^d \(d of 16610 bits\) exceeds cap 4096$"):
        make_quotient(2, {10**5000: 1})


@pytest.mark.parametrize("exponent", [-1, 1.5, "2"])
def test_make_quotient_rejects_an_exponent_that_is_not_a_natural_number(exponent):
    with pytest.raises(DescriptorError, match=re.escape(f"exponent {exponent!r} is not an integer >= 0")):
        make_quotient(3, {exponent: 1, 2: 1})
