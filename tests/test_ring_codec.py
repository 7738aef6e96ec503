"""Element text and the mixed-radix codec against per-element formulas.

A ring renders its elements from one cached table per kind, and a
mixed-radix ring decodes index arrays with one vector codec, which a
product's vector operations share. The oracles below take each element
alone: its text from its kind's formula, its coordinates from the scalar
`decode`, and a product's sum and product from its factors' scalar
operations.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st
from test_ring_predicates import PROPERTY, atoms, products, quotients

from beckring import ElementError, make_product, make_quotient
from beckring.catalog import catalog_rings
from beckring.rings import ProductRing, ZmodRing

Z1_QUOTIENT = make_quotient(1, {3: 1})


def text_of(ring, a):
    """An element's text by its kind's formula: Z_n's index, a product's
    factor texts and a structure ring's coordinates, in parentheses."""
    if isinstance(ring, ZmodRing):
        return str(a)
    if isinstance(ring, ProductRing):
        return "(" + ",".join(text_of(f, p) for f, p in zip(ring.factors, ring.decode(a))) + ")"
    return "(" + ",".join(str(c) for c in ring.decode(a)) + ")"


@st.composite
def nested_products(draw):
    """A product with a product among its factors, at most 32 * 64 elements."""
    factors = [draw(products(max_size=32)), draw(st.one_of(atoms(), st.just(Z1_QUOTIENT)))]
    if draw(st.booleans()):
        factors.reverse()
    return make_product(factors)


def mixed_radix_rings():
    return st.one_of(quotients(), st.just(Z1_QUOTIENT), products(), nested_products())


def assert_texts_match(ring):
    want = [text_of(ring, a) for a in ring.elements()]
    assert ring.element_strs == want
    assert [ring.element_str(a) for a in ring.elements()] == want
    for bad in (-1, ring.size):
        with pytest.raises(ElementError):
            ring.element_str(bad)


def test_catalog_element_texts_match_the_per_element_formulas():
    for ring in catalog_rings().values():
        assert_texts_match(ring)


@PROPERTY
@given(ring=st.one_of(atoms(), mixed_radix_rings()))
def test_element_texts_match_the_per_element_formulas(ring):
    assert_texts_match(ring)


@st.composite
def operands(draw, size):
    """Index arrays of one ring: 0-d, 1-d, and a column against a row."""
    index = st.integers(0, size - 1)
    n = draw(st.integers(1, 12))
    xs, ys = (np.array(draw(st.lists(index, min_size=n, max_size=n)), dtype=np.int64) for _ in range(2))
    return [(np.int64(draw(index)), np.array(draw(index))), (xs, ys), (xs[:, None], ys[None, :])]


@PROPERTY
@given(ring=mixed_radix_rings(), data=st.data())
def test_vector_codec_and_product_ops_match_the_scalar_codec(ring, data):
    for a, b in data.draw(operands(ring.size)):
        for x in (a, b):
            coords, k = ring._decode_many(x), len(ring.radices)
            assert coords.shape == np.shape(x) + (k,)
            assert coords.reshape(-1, k).tolist() == [list(ring.decode(int(v))) for v in np.ravel(x)]
        if not isinstance(ring, ProductRing):
            continue
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        want_add, want_mul = [], []
        for x, y in zip(*(np.broadcast_to(x, shape).ravel() for x in (a, b))):
            pa, pb = ring.decode(int(x)), ring.decode(int(y))
            want_add.append(ring.encode(tuple(f.add(u, v) for f, u, v in zip(ring.factors, pa, pb))))
            want_mul.append(ring.encode(tuple(f.mul(u, v) for f, u, v in zip(ring.factors, pa, pb))))
        for got, want in ((ring.add_many(a, b), want_add), (ring.mul_many(a, b), want_mul)):
            assert np.shape(got) == shape and np.ravel(got).tolist() == want
