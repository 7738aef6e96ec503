"""Ring-expression parsing, printing, and elaboration."""

import numpy as np
import pytest

from beckring import ParseError, build_graph, chromatic_number, max_clique, parse, print_expr, ring_of
from beckring.dsl import ANAtom, ProductExpr, QuotAtom, ZmodAtom


def test_parse_zmod():
    assert parse("Z12") == ZmodAtom(12)


def test_parse_product():
    assert parse("Z4 x Z3") == ProductExpr((ZmodAtom(4), ZmodAtom(3)))
    assert parse("Z4xZ3") == ProductExpr((ZmodAtom(4), ZmodAtom(3)))
    assert parse("Z4 X Z3 x Z2") == ProductExpr((ZmodAtom(4), ZmodAtom(3), ZmodAtom(2)))


def test_parse_quotient():
    assert parse("Z2[t]/(t^2)") == QuotAtom(2, (0, 0, 1))
    assert parse("Z2[t]/(t^2+t+1)") == QuotAtom(2, (1, 1, 1))
    assert parse(" Z3 [ t ] / ( t ^ 2 + 2 t ) ") == QuotAtom(3, (0, 2, 1))


def test_parse_negative_coefficients_fold():
    assert parse("Z4[t]/(t^2-2)") == parse("Z4[t]/(t^2+2)")
    assert parse("Z2[t]/(t^2-t)") == QuotAtom(2, (0, 1, 1))


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
    assert ast == QuotAtom(1, (0, 0, 0))
    assert print_expr(ast) == "Z1[t]/(t^2)"
    assert parse(print_expr(ast)) == ast
    ring = ring_of("Z1[t]/(t^2+t+1)")
    assert (ring.size, repr(ring), ring.element_str(0)) == (1, "Z1[t]/(t^2)", "(0)")
    assert parse(repr(ring)) == ast
