"""The element-sized steps of `analyze` against the Python loops they replaced.

Grouping a graph's vertices into twin classes, packing its adjacency,
lifting a coloring of its core, re-verifying a coloring, rendering every
element's text and writing the indented JSON report each take time in
proportion to the ring, not to its core. Each now runs in builtins or
numpy; the loop it replaced is kept here, as it was, and the two must
agree on rings of up to 4096 elements, on their cores and on graphs
induced on random sets of elements. The coloring check must also reject
every broken coloring that the loop rejects, and the JSON writer must
write the same bytes as `json.dumps(x, indent=2)`.
"""

import itertools
import json
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_ring_predicates import PROPERTY, atoms, products

from beckring import BeckGraph, Coloring, ring_of, verify_coloring
from beckring.cli import _dumps
from beckring.graphs import _pack_rows
from beckring.rings import ProductRing, StructureRing
from beckring.solvers import _Deadline, _dsatur, _lift

LARGE = 4096
STEPS = settings(PROPERTY, max_examples=25)


# -- the loops ----------------------------------------------------------------


def loop_core_grouping(g):
    class_of, reps, group = {}, [], []
    for v, (c, s) in enumerate(zip(g._cls.tolist(), g._sq0.tolist())):
        # a square-zero vertex is a class of its own: key ~v < 0
        c = class_of.setdefault(~v if s else c, len(reps))
        if c == len(reps):
            reps.append(v)
        group.append(c)
    return group, reps


def loop_adj(g):
    packed = _pack_rows(g._rows)
    own = zip(g._cls.tolist(), g._sq0.tolist())
    return [packed[c] ^ (1 << v) if s else packed[c] for v, (c, s) in enumerate(own)]


def loop_lift(color, group, k):
    return Coloring(tuple(color[c] for c in group), k)


def loop_verify_coloring(g, coloring):
    if len(coloring.class_of) != g.n or coloring.k < 0:
        return False
    members = [0] * coloring.k
    for v, c in enumerate(coloring.class_of):
        if not 0 <= c < coloring.k:
            return False
        members[c] |= 1 << v
    if not all(members):
        return False
    return not any(g.adj[v] & members[c] for v, c in enumerate(coloring.class_of))


def loop_element_strs(ring):
    if isinstance(ring, ProductRing):
        tables = [f.element_strs for f in reversed(ring.factors)]
        return ["(" + ",".join(parts[::-1]) + ")" for parts in itertools.product(*tables)]
    if isinstance(ring, StructureRing):
        return ["(" + ",".join(map(str, c)) + ")" for c in ring._decode_many(np.arange(ring.size)).tolist()]
    return [str(a) for a in range(ring.size)]


# -- graphs -------------------------------------------------------------------


@st.composite
def graphs(draw):
    """Beck's graph of a ring of up to LARGE elements, of its core, or
    induced on a random list of its elements in random order."""
    ring = draw(st.one_of(atoms(), products(max_size=LARGE)))
    g = BeckGraph(ring)
    kind = draw(st.sampled_from(("whole", "core", "induced")))
    if kind == "core":
        return g.core()
    if kind == "induced":
        rng = random.Random(draw(st.integers(0, 2**32)))
        return BeckGraph(ring, rng.sample(range(ring.size), rng.randint(0, ring.size)))
    return g


def proper_coloring(g):
    """DSATUR on the core, lifted by the loop."""
    core = g.core()
    color = _dsatur(core.n, core.adj, _Deadline(float("inf")))
    return loop_lift(color, g.group, max(color, default=-1) + 1)


def assert_grouping_adjacency_and_lift_match(g):
    group, reps = loop_core_grouping(g)
    assert g.adj == loop_adj(g)
    core = g.core()
    assert (g.group, g.reps) == (group, reps)
    assert core.to_ring == [g.to_ring[v] for v in reps]
    color = list(range(core.n))[::-1]
    assert _lift(color, g.group, core.n) == loop_lift(color, group, core.n)


def assert_verify_coloring_matches(g, rng):
    proper = proper_coloring(g)
    assert verify_coloring(g, proper) and loop_verify_coloring(g, proper)
    k = rng.randint(0, proper.k + 1)
    drawn = Coloring(tuple(rng.randint(-1, k) for _ in range(g.n)), k)
    assert verify_coloring(g, drawn) == loop_verify_coloring(g, drawn)
    # a proper coloring with one vertex recolored at random
    if g.n:
        v = rng.randrange(g.n)
        cls = list(proper.class_of)
        cls[v] = rng.randint(-1, proper.k)
        recolored = Coloring(tuple(cls), proper.k)
        assert verify_coloring(g, recolored) == loop_verify_coloring(g, recolored)


@STEPS
@given(graphs())
def test_grouping_adjacency_and_lift_match_the_loops(g):
    assert_grouping_adjacency_and_lift_match(g)


@STEPS
@given(graphs(), st.integers(0, 2**32))
def test_verify_coloring_matches_the_loop(g, seed):
    assert_verify_coloring_matches(g, random.Random(seed))


@pytest.mark.parametrize("expr", ["Z16 x Z16 x Z16", " x ".join(["Z2"] * 12), "AN x Z2 x Z64"])
def test_steps_match_the_loops_at_the_size_cap(expr):
    ring, rng = ring_of(expr), random.Random(expr)
    assert ring.size == LARGE
    g = BeckGraph(ring)
    for h in (g, g.core(), BeckGraph(ring, rng.sample(range(LARGE), LARGE // 2))):
        assert_grouping_adjacency_and_lift_match(h)
        assert_verify_coloring_matches(h, rng)
    assert type(ring).element_strs.func(ring) == loop_element_strs(ring)


def broken_colorings(g, proper):
    """A proper coloring broken each way the check must catch: one vertex
    moved into a neighbour's class, a class index out of range either way,
    a class left empty, and one entry too few or too many."""
    cls, k = list(proper.class_of), proper.k
    for v in range(g.n):
        for u in range(g.n):
            if g.has_edge(u, v):
                yield "moved", Coloring(tuple(cls[:v] + [cls[u]] + cls[v + 1:]), k)
                break
    for v in range(g.n):
        for bad in (-1, k):
            yield "out of range", Coloring(tuple(cls[:v] + [bad] + cls[v + 1:]), k)
    yield "empty class", Coloring(proper.class_of, k + 1)
    yield "short", Coloring(proper.class_of[:-1], k)
    yield "long", Coloring(proper.class_of + (0,), k)


@pytest.mark.parametrize("expr", ["Z12", "AN", "Z2 x Z3 x Z4", "Z8 x Z9"])
def test_verify_coloring_rejects_every_broken_coloring(expr):
    for g in (BeckGraph(ring_of(expr)), BeckGraph(ring_of(expr)).core()):
        proper = proper_coloring(g)
        assert verify_coloring(g, proper)
        kinds = set()
        for kind, broken in broken_colorings(g, proper):
            assert not verify_coloring(g, broken), (expr, kind, broken)
            assert not loop_verify_coloring(g, broken)
            kinds.add(kind)
        assert kinds == {"moved", "out of range", "empty class", "short", "long"}


# -- element text -------------------------------------------------------------


@STEPS
@given(st.one_of(atoms(), products(max_size=LARGE)))
def test_element_strs_match_the_loop(ring):
    want = loop_element_strs(ring)
    assert type(ring).element_strs.func(ring) == want
    for f in ring.factors:
        assert f.element_strs == loop_element_strs(f)


# -- the JSON report ----------------------------------------------------------

ESCAPES = "\"\\/\b\f\n\r\t\x00\x1f\x7f é \U0001f600"
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), st.text(),
    st.sampled_from(list(ESCAPES)),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6), st.lists(st.text(), max_size=6), st.dictionaries(st.text(), inner, max_size=6),
    ),
    max_leaves=40,
)


@settings(PROPERTY, max_examples=100)
@given(JSON_VALUES)
@example([])
@example({})
@example([[], {}, [""], {"": []}])
@example({"classes": [list(ESCAPES), ["(0,1)", "(1,0)"]], "s": 1.5, "pass": True, "n": None})
@example({1: "int key", None: [1.0, float("nan")], "t": (1, "tuple")})
def test_dumps_writes_the_bytes_of_the_stdlib(x):
    assert _dumps(x) == json.dumps(x, indent=2)
