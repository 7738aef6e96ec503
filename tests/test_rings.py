"""Ring construction, arithmetic, predicates, and ideal machinery."""

import random

import numpy as np
import pytest

from beckring import (
    CapacityError,
    DescriptorError,
    ElementError,
    InvalidModulusError,
    NotARingError,
    PreconditionError,
    field_factor_count,
    ideal_generate,
    ideal_power,
    ideal_product,
    make_anderson_naseer,
    make_product,
    make_quotient,
    make_structure_ring,
    make_zmod,
)
from beckring import rings
from beckring.catalog import catalog_rings


def test_zmod_basics():
    r = make_zmod(12)
    assert r.size == 12
    assert r.unity == 1
    assert r.mul(4, 3) == 0
    assert r.add(7, 8) == 3


def test_zmod_zero_ring():
    r = make_zmod(1)
    assert r.size == 1
    assert r.unity == 0
    assert r.mul(0, 0) == 0


def test_zmod_invalid_modulus():
    with pytest.raises(InvalidModulusError):
        make_zmod(0)


def test_zmod_size_cap():
    with pytest.raises(CapacityError):
        make_zmod(5000)


def test_quotient_size_cap_checked_before_any_table():
    # Z2[t]/(t^200) has 2^200 elements: it is refused before its 200 x 399
    # power rows and 20100 structure constants are built
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"ring size {2**200} exceeds cap 4096"):
            make_quotient(2, {200: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # past the interpreter's 4300-digit limit on printing an int
    with pytest.raises(CapacityError, match=r"ring size 2\^20000 exceeds cap 4096"):
        make_quotient(2, {20000: 1})


def test_quotient_size_cap_checked_before_the_coefficients_are_reduced():
    # only the leading coefficient is read before the cap: the others,
    # which no modulus reduces, are never touched
    with pytest.raises(CapacityError, match=f"ring size {2**20} exceeds cap 4096"):
        make_quotient(2, dict.fromkeys(range(20)) | {20: 1})
    with pytest.raises(DescriptorError, match="must be monic, leading coefficient 0"):
        make_quotient(2, dict.fromkeys(range(20)) | {20: 2})


def test_z1_quotient_is_one_coordinate_zero_ring():
    # Z1[t]/(t^400) is the zero ring: built on one coordinate, not 400, so
    # no 400 x 799 power rows or 80200 structure constants are built
    import tracemalloc

    tracemalloc.start()
    try:
        r = make_quotient(1, {400: 1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert (r.size, r.unity, r.orders, r.mul(0, 0), r.element_str(0)) == (1, 0, (1,), 0, "(0)")
    with pytest.raises(CapacityError, match="ring size 1 exceeds cap 0"):
        make_quotient(1, {1: 1}, size_cap=0)


def test_z4_unique_nonzero_nilpotent():
    r = make_zmod(4)
    # exhaustive multiplication table: 2 is the only nonzero x with x^2 = 0
    square_zero = [a for a in r.elements() if r.mul(a, a) == 0]
    assert square_zero == [0, 2]
    assert np.flatnonzero(r.nilpotent_mask).tolist() == [0, 2]


def test_product_componentwise():
    r = make_product([make_zmod(2), make_zmod(2)])
    a = r.encode((1, 0))
    b = r.encode((0, 1))
    assert r.mul(a, b) == r.encode((0, 0)) == 0
    assert r.element_str(a) == "(1,0)"


def test_product_empty_rejected():
    with pytest.raises(DescriptorError):
        make_product([])


def test_product_capacity():
    with pytest.raises(CapacityError):
        make_product([make_zmod(100), make_zmod(100)])


def test_product_encoding_factor1_fastest():
    r = make_product([make_zmod(4), make_zmod(3)])
    # index = a1 + 4 * a2
    assert r.encode((3, 2)) == 11
    assert r.decode(5) == (1, 1)
    assert r.encode((0, 0)) == 0


def test_product_projection_recovers_factor_arithmetic():
    f1, f2 = make_zmod(4), make_zmod(3)
    r = make_product([f1, f2])
    for a in r.elements():
        for b in r.elements():
            pa, pb = r.decode(a), r.decode(b)
            assert r.decode(r.mul(a, b)) == (f1.mul(pa[0], pb[0]), f2.mul(pa[1], pb[1]))
            assert r.decode(r.add(a, b)) == (f1.add(pa[0], pb[0]), f2.add(pa[1], pb[1]))


def test_element_index_out_of_range():
    r = make_zmod(6)
    with pytest.raises(ElementError):
        r.mul(6, 0)
    with pytest.raises(ElementError):
        r.add(0, -1)


def test_structure_ring_z4_adjoin_sqrt2():
    # basis {1, t} over (4, 4) with t*t = 2: Z4[t]/(t^2 - 2), 16 elements
    r = make_quotient(4, {0: -2, 2: 1})
    assert r.size == 16
    r.validate()
    t = r.encode((0, 1))
    assert r.mul(t, t) == r.encode((2, 0))


def test_structure_ring_dual_numbers():
    r = make_quotient(2, {2: 1})  # Z2[t]/(t^2)
    assert r.size == 4
    t = r.encode((0, 1))
    assert r.mul(t, t) == 0
    assert np.flatnonzero(r.nil_power_masks[0]).tolist() == [0, t]
    assert r.nilradical().index_of_nilpotency == 2


def test_structure_ring_missing_table_entry():
    with pytest.raises(DescriptorError):
        make_structure_ring((2, 2), (1, 0), {(0, 0): (1, 0), (0, 1): (0, 1)})


def test_structure_ring_pair_given_both_ways():
    # (0, 1) and (1, 0) must agree after reduction mod the orders: a
    # conflicting pair would pass as commutative, as only one is kept
    products = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (1, 1), (1, 1): (0, 0)}
    with pytest.raises(DescriptorError, match=r"basis pair \(0, 1\) has two structure constants"):
        make_structure_ring([2, 2], [1, 0], products)
    products[(1, 0)] = (2, 3)  # (0, 1) again, mod 2
    assert make_structure_ring([2, 2], [1, 0], products).mul(1, 2) == 2


def test_structure_ring_key_outside_the_basis():
    with pytest.raises(DescriptorError, match=r"\(3, 7\) names no basis pair in \[0, 1\)"):
        make_structure_ring([2], [1], {(0, 0): (1,), (3, 7): (1,)})


def test_structure_ring_associativity_violation():
    # u*u = v, u*v = 1, v*v = 0 breaks (uu)v = u(uv)
    products = {
        (0, 0): (1, 0, 0),
        (0, 1): (0, 1, 0),
        (0, 2): (0, 0, 1),
        (1, 1): (0, 0, 1),
        (1, 2): (1, 0, 0),
        (2, 2): (0, 0, 0),
    }
    with pytest.raises(NotARingError) as exc:
        make_structure_ring((2, 2, 2), (1, 0, 0), products)
    assert exc.value.axiom in ("associativity", "distributivity")


def test_structure_ring_unity_violation():
    products = {(0, 0): (1, 0), (0, 1): (1, 0), (1, 1): (0, 0)}
    with pytest.raises(NotARingError):
        make_structure_ring((2, 2), (1, 0), products)


def _first_failing_triple(add, mul):
    """The associativity and distributivity check as a loop over the first
    operand a, associativity first: (axiom, (a, b, c)) or None."""
    for a in range(len(mul)):
        for axiom, left, right in (
            ("associativity", mul[mul[a], :], mul[a][mul]),
            ("distributivity", mul[a][add], add[mul[a][:, None], mul[a][None, :]]),
        ):
            bad = np.argwhere(left != right)
            if len(bad):
                return axiom, (a, int(bad[0][0]), int(bad[0][1]))
    return None


def _corrupted(ring, rng, table_name):
    """`ring` with one symmetric entry pair of its addition or multiplication
    table changed, away from the rows of 0 and the unity that the earlier
    axiom checks read; returns the tables validate will see."""
    v = np.arange(ring.size, dtype=np.int64)
    tables = {"add": ring.add_many(v[:, None], v[None, :]), "mul": ring.mul_many(v[:, None], v[None, :])}
    t = tables[table_name]
    spare = [x for x in range(ring.size) if x not in (0, ring.unity)]
    x, y = rng.choice(spare), rng.choice(spare)
    t[x, y] = t[y, x] = (t[x, y] + rng.randrange(1, ring.size)) % ring.size
    ring.add_many = lambda a, b: tables["add"]
    ring.mul_many = lambda a, b: tables["mul"]
    return tables["add"], tables["mul"]


@pytest.mark.parametrize("block_bytes", [None, 1, 3 * 8 * 32 * 32])
def test_validate_reports_the_first_failing_triple_of_the_loop(monkeypatch, block_bytes):
    # corrupted tables of rings of 16, 32 and 64 elements fail associativity
    # or distributivity; the blocked check names the same axiom and the same
    # first (a, b, c) as a loop over a, with the default blocks of first
    # operands and with blocks of one and of three
    if block_bytes:
        monkeypatch.setattr(rings, "_VALIDATE_BLOCK_BYTES", block_bytes)
    rng = random.Random(0)
    seen = set()
    for _ in range(150):
        ring = rng.choice([make_quotient(4, {0: -2, 2: 1}), make_anderson_naseer(0), make_zmod(64)])
        add, mul = _corrupted(ring, rng, rng.choice(["add", "mul"]))
        want = _first_failing_triple(add, mul)
        if want is None:
            ring.validate()
            continue
        with pytest.raises(NotARingError) as exc:
            ring.validate()
        axiom, triple = want
        assert exc.value.axiom == axiom
        assert exc.value.witness == tuple(ring.element_str(x) for x in triple)
        seen.add(axiom)
    assert seen == {"associativity", "distributivity"}


def test_validate_of_corrupted_structure_constants(monkeypatch):
    # AN's basis products x, y, z with one of them changed: every failure
    # names the axiom and the first (a, b, c) of the loop over a
    an = make_anderson_naseer(0)
    monkeypatch.setattr(rings, "DEFAULT_VALIDATION_CAP", 0)  # validate on demand only
    failed = 0
    table = {(i, j): tuple(an._tensor[i * an.k + j].tolist()) for i in range(an.k) for j in range(i, an.k)}
    for (i, j), val in table.items():
        if i == 0:
            continue  # products with 1 decide the unity check first
        for shift in range(1, 4):
            products = dict(table)
            products[(i, j)] = ((val[0] + shift) % 4,) + val[1:]
            ring = make_structure_ring(an.orders, (1, 0, 0, 0), products)
            v = np.arange(ring.size, dtype=np.int64)
            want = _first_failing_triple(ring.add_many(v[:, None], v[None, :]), ring.mul_many(v[:, None], v[None, :]))
            if want is None:
                ring.validate()
                continue
            with pytest.raises(NotARingError) as exc:
                ring.validate()
            assert (exc.value.axiom, exc.value.witness) == (want[0], tuple(ring.element_str(x) for x in want[1]))
            failed += 1
    assert failed


def test_anderson_naseer_variants():
    for z2 in (0, 2):
        r = make_anderson_naseer(z2)
        assert r.size == 32
        r.validate()
        assert int(r.unit_mask.sum()) == 16
        assert r.is_local()
        # units are exactly the elements with odd constant coordinate
        for a in r.elements():
            assert r.unit_mask[a] == (r.decode(a)[0] % 2 == 1)
    with pytest.raises(DescriptorError):
        make_anderson_naseer(1)


def test_anderson_naseer_relations():
    r = make_anderson_naseer(0)
    x, y, z = r.encode((0, 1, 0, 0)), r.encode((0, 0, 1, 0)), r.encode((0, 0, 0, 1))
    two = r.encode((2, 0, 0, 0))
    assert r.mul(x, y) == 0
    assert r.mul(x, z) == 0
    assert r.mul(x, x) == two
    assert r.mul(y, y) == two
    assert r.mul(y, z) == two
    assert r.mul(z, z) == 0
    assert make_anderson_naseer(2).mul(z, z) == two


@pytest.mark.parametrize("n,zd,unit", [(12, 6, 5), (12, 2, 7), (8, 6, 3)])
def test_zero_divisor_and_unit_predicates(n, zd, unit):
    r = make_zmod(n)
    assert r.zero_divisor_mask[zd]
    assert not r.unit_mask[zd]
    assert r.unit_mask[unit]
    assert not r.zero_divisor_mask[unit]


@pytest.mark.parametrize("n,poly", [(4, {0: 1, 1: 2, 3: 3, 5: 1}), (2, {0: 1, 3: 1, 10: 1})])
def test_mul_many_matches_scalar_mul_on_a_1024_element_quotient(n, poly):
    # pairs, a column against a row, and one operand a scalar: each product
    # as scalar mul computes it from the structure constants
    ring = make_quotient(n, poly)
    assert ring.size == 1024
    rng = random.Random(1024)
    a = np.array([rng.randrange(1024) for _ in range(300)], dtype=np.int64)
    b = np.array([rng.randrange(1024) for _ in range(300)], dtype=np.int64)
    assert ring.mul_many(a, b).tolist() == [ring.mul(int(x), int(y)) for x, y in zip(a, b)]
    table = ring.mul_many(a[:24, None], b[None, :24])
    assert table.tolist() == [[ring.mul(int(x), int(y)) for y in b[:24]] for x in a[:24]]
    assert ring.mul_many(a, b[0]).tolist() == [ring.mul(int(x), int(b[0])) for x in a]
    assert int(ring.mul_many(a[0], b[0])) == ring.mul(int(a[0]), int(b[0]))


def test_nilpotent_power_iteration():
    r = make_zmod(8)
    assert r.nilpotent_mask[2]
    assert r.nilpotent_mask[6]  # 6^3 = 216 = 0 mod 8
    assert not r.nilpotent_mask[3]
    assert r.nilpotent_mask[0]


@pytest.mark.parametrize(
    "n,members,index,sizes",
    [
        (4, [0, 2], 2, (2, 1)),
        (8, [0, 2, 4, 6], 3, (4, 2, 1)),
        (6, [0], 1, (1,)),
    ],
)
def test_nilradical_profiles(n, members, index, sizes):
    r = make_zmod(n)
    prof = r.nilradical()
    assert np.flatnonzero(r.nil_power_masks[0]).tolist() == members
    assert prof.index_of_nilpotency == index
    assert prof.power_sizes == sizes


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_prime_power_nilradical(p, k):
    r = make_zmod(p**k)
    prof = r.nilradical()
    expected = list(range(0, p**k, p)) if k > 1 else [0]
    assert np.flatnonzero(r.nil_power_masks[0]).tolist() == expected
    assert prof.index_of_nilpotency == k


def members(ring, *elements):
    mask = np.zeros(ring.size, dtype=bool)
    mask[list(elements)] = True
    return mask


def test_ideal_generation_and_powers():
    r = make_zmod(8)
    i = ideal_generate(r, members(r, 2))
    assert np.flatnonzero(i).tolist() == [0, 2, 4, 6]
    assert np.flatnonzero(ideal_power(r, i, 2)).tolist() == [0, 4]
    assert np.flatnonzero(ideal_power(r, i, 3)).tolist() == [0]
    assert np.flatnonzero(ideal_product(r, i, ideal_generate(r, members(r, 4)))).tolist() == [0]
    assert np.flatnonzero(ideal_generate(r, members(r, 0))).tolist() == [0]
    with pytest.raises(PreconditionError):
        ideal_power(r, i, 0)


def test_ideal_closure_properties():
    r = make_zmod(12)
    els = np.flatnonzero(ideal_generate(r, members(r, 8))).tolist()  # (8) = (4) in Z12
    assert els == [0, 4, 8]
    for a in els:
        for b in els:
            assert r.add(a, b) in els
        for x in r.elements():
            assert r.mul(a, x) in els


def test_ideal_product_cross_ring_rejected():
    # a mask of Z4 has the wrong length for Z8
    r = make_zmod(8)
    i = ideal_generate(r, members(r, 2))
    j = members(make_zmod(4), 2)
    with pytest.raises(PreconditionError):
        ideal_product(r, i, j)
    with pytest.raises(PreconditionError):
        ideal_generate(r, j)
    with pytest.raises(PreconditionError):
        ideal_power(r, j, 2)


def test_is_local():
    assert make_zmod(4).is_local()
    assert not make_zmod(6).is_local()  # 2 + 3 = 5 is a unit
    assert make_anderson_naseer(0).is_local()
    assert not make_zmod(12).is_local()


def test_is_reduced_matches_nilpotency_index():
    for ring in catalog_rings().values():
        assert ring.is_reduced() == (ring.nilradical().index_of_nilpotency == 1)


def test_field_factor_count():
    assert field_factor_count(make_zmod(30)) == 3
    assert field_factor_count(make_zmod(7)) == 1
    assert field_factor_count(make_product([make_zmod(2), make_zmod(2)])) == 2
    with pytest.raises(PreconditionError):
        field_factor_count(make_zmod(4))


def test_field_factor_count_matches_prime_factors_of_squarefree_n():
    for n, k in [(2, 1), (6, 2), (10, 2), (15, 2), (30, 3), (105, 3), (210, 4)]:
        assert field_factor_count(make_zmod(n)) == k


def test_primitive_idempotents_of_z30():
    r = make_zmod(30)
    idem = [e for e in r.elements() if r.mul(e, e) == e]
    assert sorted(idem) == [0, 1, 6, 10, 15, 16, 21, 25]
    # the three primitive ones named by the factor decomposition
    for e in (6, 10, 15):
        assert e in idem


def test_catalog_rings_validate():
    for ring in catalog_rings().values():
        ring.validate()


def test_unit_count_matches_euler_phi():
    from math import gcd

    for n in (2, 6, 12, 30, 36):
        r = make_zmod(n)
        phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert int(r.unit_mask.sum()) == phi
