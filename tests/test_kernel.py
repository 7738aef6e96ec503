"""k-coloring decisions on a kernel: low-degree and dominated vertices off.

`_kernel_k_coloring` removes free vertices with fewer live neighbours than
colors they may take, and free vertices a live non-neighbour dominates,
runs `_KColorSearch` on what is left and puts the removed vertices back in
reverse order. Its decision must be the plain search's on every graph, and
every coloring it puts together must be proper, keep the square-zero
vertices below t and keep the pre-colored clique on the colors below its
size. Four small graphs pin each rule's edge: a peel at exactly as many
neighbours as colors, a dominator that may take a color the dominated
vertex may not, a clique vertex that the rules would take out, and a
dominated vertex whose dominator goes after it.
"""

import contextlib
import io
import random
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ring_predicates import PROPERTY

from beckring import build_graph, cli, ring_of
from beckring.solvers import (
    SZero,
    _Deadline,
    _kernel_k_coloring,
    _KColorSearch,
    class_sq0_flags,
    min_s_optimal_coloring,
    verify_coloring,
)

FOREVER = float("inf")


def _graph(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@st.composite
def decisions(draw):
    """A k-coloring decision on a random graph of at most 16 vertices: a
    random square-zero mask, k, t <= k and a random clique, pre-colored and
    made a clique by adding its edges. With t < k the clique is square-zero
    and has at most t members, as min-s asks."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 16))
    density = draw(st.sampled_from((0.2, 0.4, 0.6, 0.8)))
    k = draw(st.integers(1, 6))
    t = draw(st.integers(0, k))
    clique = sorted(rng.sample(range(n), draw(st.integers(0, min(n, t)))))
    edges = [(u, v) for u in range(n) for v in range(u) if rng.random() < density]
    adj = _graph(n, edges + [(u, v) for u in clique for v in clique if u < v])
    sq0 = rng.getrandbits(n) if n else 0
    if t < k:
        sq0 |= sum(1 << v for v in clique)
    return n, adj, k, clique, sq0, t


def assert_decides_as_plain(n, adj, k, clique, sq0, t):
    plain = _KColorSearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t).run()
    color = _kernel_k_coloring(n, adj, k, clique, _Deadline(FOREVER), sq0, t)
    assert (color is None) == (plain is None)
    if color is not None:
        assert len(color) == n and all(0 <= c < k for c in color)
        assert all(color[v] < t for v in range(n) if sq0 >> v & 1)
        assert not any(adj[v] >> u & 1 and color[u] == color[v] for v in range(n) for u in range(v))
        assert sorted(color[v] for v in clique) == list(range(len(clique)))


@settings(PROPERTY, max_examples=500)
@given(decisions())
def test_kernel_decides_as_the_plain_search(decision):
    assert_decides_as_plain(*decision)


@pytest.mark.parametrize(
    "n,edges,k,clique,sq0,t",
    [
        # a triangle at k = 2: each vertex has exactly 2 neighbours, too many to peel
        (3, [(0, 1), (1, 2), (0, 2)], 2, [], 0, 2),
        # square-zero 2 may take only color 0, which 3 takes once 1 has
        # color 1 next to 0; 1 covers 2's neighbour 3 but may take color 1
        (4, [(0, 1), (2, 3), (1, 3)], 2, [0], 0b0101, 1),
        # the clique {0, 1} stays in: the kernel colors it 0 and 1
        (3, [(0, 1), (1, 2), (0, 2)], 4, [0, 1], 0, 4),
        # a 4-cycle at k = 2: 2 dominates 0, then 1, 2 and 3 are peeled; 0
        # takes 2's color only after 2 is back
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2, [], 0, 2),
    ],
    ids=["peel-at-k", "dominator-domain", "clique-stays", "put-back-order"],
)
def test_each_rule_at_its_edge(n, edges, k, clique, sq0, t):
    assert_decides_as_plain(n, _graph(n, edges), k, clique, sq0, t)


@pytest.mark.parametrize("expr,chi", [("AN x Z12", 11), ("AN x Z2 x Z8", 12)])
def test_min_s_closes_on_the_kernel(expr, chi):
    # the refutation of s <= 8 runs on kernels of 21 and 22 vertices
    g = build_graph(ring_of(expr))
    coloring, sz = min_s_optimal_coloring(g, budget=5)
    assert sz == SZero(9, 9) and coloring.k == chi
    assert verify_coloring(g, coloring) and sum(class_sq0_flags(g, coloring)) == 9


def test_analyze_of_an_cubed_keeps_its_budget():
    # a 1387-vertex core: chi's decisions above omega 67 build their kernel
    # on it, and the whole request still stops within the budget
    t0 = time.monotonic()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["analyze", "--max-size", "40000", "--budget", "2", "AN x AN x AN"])
    assert rc == 4 and time.monotonic() - t0 < 3.5
