"""The zero-product membership condition against a row-by-row scan.

`check_an_condition` decides both of its checks with boolean-matrix
expressions over the zero relation. The scan below walks the relation one
row at a time, as the definition reads, on the catalog rings and on random
products of up to 1100 elements, Anderson-Naseer factors included. Its
J^p and J^(p+1) are `ideal_power` masks spanned from the nilpotents of a
squaring scan, not the ring's own `nil_power_masks`.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given

from test_ring_predicates import PROPERTY, rings, squaring_nilpotents

from beckring import ideal_power, make_product, ring_of
from beckring.catalog import catalog_rings
from beckring.theorems import an_condition_for, check_an_condition, classify_nil_factor


def scanned_an_condition(ring, kind, param):
    """(membership_ok, boundary_ok, witness), walking every x with its zero-product partners."""
    nilradical = squaring_nilpotents(ring)
    in_jp, in_jp1 = (ideal_power(ring, nilradical, k) for k in (param, param + 1))
    membership_ok = True
    boundary_ok = True if kind == "even" else None
    witness = None
    for x in range(ring.size):
        ys = np.flatnonzero(ring.zero_rel_matrix[x])
        bad = ys[~in_jp[ys]]
        if not bad.size:
            continue
        if not in_jp[x]:
            membership_ok = False
            witness = witness or (x, int(bad[0]))
        if kind == "even" and not in_jp1[x]:
            boundary_ok = False
            witness = witness or (x, int(bad[0]))
    return membership_ok, boundary_ok, witness


def assert_matches_scan(ring):
    info = classify_nil_factor(ring)
    res = check_an_condition(ring)
    assert (res.kind, res.param) == (info.parity, info.param)
    membership_ok, boundary_ok, witness = scanned_an_condition(ring, info.parity, info.param)
    assert (res.membership_ok, res.boundary_ok, res.witness) == (membership_ok, boundary_ok, witness)
    assert res.holds == (membership_ok and boundary_ok is not False)
    assert an_condition_for(ring) == res


@pytest.mark.parametrize("expr", ["Z4 x Z4", "Z8 x Z2", "AN x Z2", "Z9 x Z3", "Z16"])
def test_an_condition_matches_scan_on_named_rings(expr):
    assert_matches_scan(ring_of(expr))


def test_an_condition_matches_scan_on_catalog():
    rings_ = list(catalog_rings().values())
    for ring in rings_:
        assert_matches_scan(ring)
    for a in rings_:
        for b in rings_:
            if a.size * b.size <= 256:
                assert_matches_scan(make_product([a, b]))


@PROPERTY
@given(rings())
def test_an_condition_matches_scan_on_random_rings(ring):
    if ring.size >= 2:
        assert_matches_scan(ring)
