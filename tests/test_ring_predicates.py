"""Structural ring predicates against exhaustive scans.

A product's zero relation is kept as one row per annihilator class, the
Kronecker product of its factors' rows, and its unit, nilpotent and
idempotent masks are Kronecker products of its factors' masks; units are
the nonzero non-zero-divisors; locality and the field-factor count come
from the number of idempotents. The scans below derive each predicate from
the definition alone, on random products of catalog atoms and monic
quotients Z_n[t]/(f). The powers of a product's nilradical are built from
its factors' and Z_n's from a closed form; the generic path spans J from
the nilpotents and generates each next power from products of generators.
`ideal_generate` and `ideal_power`, on membership masks, meet the same scan.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beckring import (
    field_factor_count,
    ideal_generate,
    ideal_power,
    make_anderson_naseer,
    make_product,
    make_quotient,
    make_zmod,
)
from beckring.rings import _span

MAX_SIZE = 1100
BLOCK = 128

ZMOD_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 25, 27, 30)


@st.composite
def quotients(draw):
    """Z_n[t]/(f) for a random monic f of degree 1 to 3, at most 64 elements."""
    n = draw(st.sampled_from((2, 3, 4, 5, 6, 8)))
    degree = draw(st.integers(1, 3).filter(lambda d: n**d <= 64))
    lower = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
    return make_quotient(n, dict(enumerate(lower)) | {degree: 1})


def atoms():
    return st.one_of(
        st.sampled_from(ZMOD_ORDERS).map(make_zmod),
        st.sampled_from((0, 2)).map(make_anderson_naseer),
        quotients(),
    )


def reduced_atoms():
    """Z1, fields, squarefree Z_n, GF(4), GF(8), GF(9) and Z2[t]/(t^2+t) = Z2 x Z2."""
    quotient_specs = ((2, {0: 1, 1: 1, 2: 1}), (2, {0: 1, 1: 1, 3: 1}), (3, {0: 1, 2: 1}), (2, {1: 1, 2: 1}))
    return st.one_of(
        st.sampled_from((1, 2, 3, 5, 6, 7, 10, 11, 15, 30)).map(make_zmod),
        st.sampled_from(quotient_specs).map(lambda spec: make_quotient(*spec)),
    )


@st.composite
def products(draw, atom=None, max_size=MAX_SIZE):
    """Products of two to five atoms, at most max_size elements; an atom that
    would pass the cap is skipped."""
    atom = atoms() if atom is None else atom
    factors = [draw(atom)]
    for _ in range(draw(st.integers(1, 4))):
        f = draw(atom)
        if np.prod([g.size for g in factors]) * f.size <= max_size:
            factors.append(f)
    return make_product(factors)


def rings(max_size=MAX_SIZE):
    """Atoms and products of at most max_size elements."""
    rings = st.one_of(atoms(), products(max_size=max_size))
    return rings if max_size == MAX_SIZE else rings.filter(lambda ring: ring.size <= max_size)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


# -- oracles ------------------------------------------------------------------


def multiplication_table(ring):
    """Every product a*b, computed in blocks of rows by the ring's own arithmetic."""
    v = np.arange(ring.size, dtype=np.int64)
    return np.vstack([ring.mul_many(v[lo:lo + BLOCK, None], v[None, :]) for lo in range(0, ring.size, BLOCK)])


def partner_scan_units(table, unity):
    """a is a unit iff some b has a*b = unity."""
    return (table == unity).any(axis=1)


def squaring_nilpotents(ring):
    """x nilpotent iff x^(2^k) = 0 for 2^k >= size."""
    v = np.arange(ring.size, dtype=np.int64)
    for _ in range(max(1, (ring.size - 1).bit_length())):
        v = ring.mul_many(v, v)
    return v == 0


def nonunits_closed_under_addition(ring, units):
    nonunits = np.flatnonzero(~units).astype(np.int64)
    return not units[ring.add_many(nonunits[:, None], nonunits[None, :])].any()


def primitive_idempotent_count(ring):
    """Nonzero idempotents e with no split e = e1 + e2, e1*e2 = 0, e1 and e2
    nonzero idempotents."""
    v = np.arange(ring.size, dtype=np.int64)
    idem = np.flatnonzero((ring.mul_many(v, v) == v) & (v != 0)).astype(np.int64)
    orthogonal = ring.mul_many(idem[:, None], idem[None, :]) == 0
    sums = ring.add_many(idem[:, None], idem[None, :])
    return sum(1 for e in idem.tolist() if not (orthogonal & (sums == e)).any())


def generic_nil_powers(ring):
    """Masks of J, J^2, ..., {0} on the ring itself: J spanned from the
    nilpotents of the squaring scan, and J^(k+1) spanned by the products of
    J^k's generators with J's, one scalar product at a time."""
    gens, mask = _span(ring, np.flatnonzero(squaring_nilpotents(ring)).tolist())
    powers, power = [mask], gens
    while powers[-1].sum() > 1:
        power, mask = _span(ring, sorted({ring.mul(a, b) for a in power for b in gens}))
        powers.append(mask)
    return powers


def assert_nil_powers_match(ring, powers):
    assert [m.tolist() for m in ring.nil_power_masks] == [p.tolist() for p in powers]
    profile = ring.nilradical()
    assert profile.index_of_nilpotency == len(powers)
    assert profile.power_sizes == tuple(int(p.sum()) for p in powers)


# -- properties ---------------------------------------------------------------


def assert_ann_classes_match(ring, table):
    """One pairwise distinct row per annihilator class, gathering to the table's zeros."""
    cls, rows = ring.ann_classes
    assert len({row.tobytes() for row in rows}) == len(rows)
    assert np.array_equal(rows[cls], table == 0)
    assert np.array_equal(ring.zero_rel_matrix, table == 0)


@PROPERTY
@given(rings())
def test_zero_relation_units_and_locality_match_scans(ring):
    table = multiplication_table(ring)
    assert_ann_classes_match(ring, table)
    units = partner_scan_units(table, ring.unity)
    assert np.array_equal(ring.unit_mask, units)
    nonzero = np.arange(ring.size) != 0
    zd = ring.zero_divisor_mask
    assert not (units & zd).any()
    assert np.array_equal((units | zd) & nonzero, nonzero)
    assert ring.is_local() == nonunits_closed_under_addition(ring, units)


@PROPERTY
@given(rings())
def test_nilpotents_match_repeated_squaring(ring):
    assert np.array_equal(ring.nilpotent_mask, squaring_nilpotents(ring))


@PROPERTY
@given(rings())
def test_nil_powers_match_the_generic_path(ring):
    powers = generic_nil_powers(ring)
    assert_nil_powers_match(ring, powers)
    assert np.array_equal(ideal_generate(ring, powers[0]), powers[0])
    for k, mask in enumerate(powers, 1):
        assert np.array_equal(ideal_power(ring, powers[0], k), mask)


def test_zmod_nil_powers_match_the_generic_path():
    # J^k = (gcd(rad(n)^k, n)), generated by rad(n) unless n is squarefree
    for n in range(1, 601):
        ring = make_zmod(n)
        assert_nil_powers_match(ring, generic_nil_powers(ring))


@PROPERTY
@given(products(reduced_atoms()))
def test_field_factor_count_matches_primitive_idempotents(ring):
    assert ring.is_reduced()
    assert field_factor_count(ring) == primitive_idempotent_count(ring)


def test_zmod_zero_relation_matches_the_table():
    # Z_N builds one row per divisor of N and gathers; checked row block by
    # row block, as the 4096-element table would not fit in one piece
    for n in [*range(1, 301), 4096]:
        ring = make_zmod(n)
        v = np.arange(n, dtype=np.int64)
        for lo in range(0, n, BLOCK):
            table = ring.mul_many(v[lo:lo + BLOCK, None], v[None, :])
            assert np.array_equal(ring.zero_rel_matrix[lo:lo + BLOCK], table == 0), n


def multiplied_zmod_classes(n):
    """Z_N's classes and rows by the d(N) x N multiply-mod the closed form replaced."""
    v = np.arange(n, dtype=np.int64)
    divisors = np.flatnonzero(n % np.arange(1, n + 1) == 0) + 1
    cls = np.searchsorted(divisors, np.gcd(v, n))
    return cls, make_zmod(n).mul_many(divisors[:, None], v[None, :]) == 0


def test_zmod_classes_in_closed_form_match_the_multiply_mod():
    # row d holds the multiples of N/d: byte for byte the multiply-mod's rows
    for n in range(1, 1501):
        got, want = make_zmod(n).ann_classes, multiplied_zmod_classes(n)
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), n


def test_kronecker_layout_puts_the_first_factor_innermost():
    ring = make_product([make_zmod(4), make_zmod(3), make_zmod(2)])
    assert_ann_classes_match(ring, multiplication_table(ring))
    with_z1 = make_product([make_zmod(4), make_zmod(1), make_anderson_naseer(2)])
    assert_ann_classes_match(with_z1, multiplication_table(with_z1))
    assert ring.unit_mask[ring.encode((1, 2, 1))]
    assert not ring.unit_mask[ring.encode((2, 1, 1))]
    assert ring.nilpotent_mask[ring.encode((2, 0, 0))]


def test_zero_ring_predicates():
    z1 = make_zmod(1)
    assert z1.unit_mask.tolist() == [True]
    assert z1.is_local()
    assert field_factor_count(z1) == 0
    ring = make_product([z1, make_zmod(6)])
    assert np.array_equal(ring.unit_mask, partner_scan_units(multiplication_table(ring), ring.unity))
    assert field_factor_count(ring) == 2
