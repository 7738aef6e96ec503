"""The solvers' inner loops against the loops they replaced.

The Hall check, the vertex pick and the domain update of the k-coloring
search, DSATUR and the clique search's greedy seed walk their candidate
bits inline and compare plain ints. Each one must make the same choice at
every step as the loop it replaced, which compared tuple keys or walked
the `_bits` generator: a copy of each old loop is kept here, and on random
graphs with random domains, free sets and seeds the two must give the same
verdicts, picks, Hall seeds, colorings, cliques and deadline ticks.

DSATUR keeps saturations as bit planes over the vertices' ranks. It is
checked against two older loops: one with a bitmask per saturation level
and a neighbour walk per edge, and the `_bits` walk before it.

The k-coloring search makes no Hall scan from every free vertex before its
first node. A copy of the old `run`, which always scanned, is kept too:
with a maximum clique pre-colored and k >= omega the scan never fires, and
skipping it changes the ticks by exactly its seed count; with square-zero
vertices held below t < k, skipping it changes no verdict.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from test_ring_predicates import PROPERTY

from beckring import build_graph, ring_of
from beckring.solvers import _bits, _CliqueSearch, _Deadline, _dsatur, _KColorSearch

FOREVER = float("inf")
STATES = settings(PROPERTY, max_examples=150)


# -- the old loops ------------------------------------------------------------


def _pick_by_tuple_key(self) -> int:
    pick, key = -1, None
    for v in _bits(self.free):
        k = (self.dom[v].bit_count(), -self.deg[v], v)
        if pick == -1 or k < key:
            pick, key = v, k
    return pick


def _hall_by_tuple_key(self, seeds) -> bool:
    adj, dom, free = self.adj, self.dom, self.free
    for s in seeds:
        self.deadline.tick()
        size, union = 1, dom[s]
        cand = adj[s] & free
        while size <= union.bit_count() and cand:
            pick, key = -1, None
            for u in _bits(cand):
                kk = ((union | dom[u]).bit_count(), -(adj[u] & cand).bit_count())
                if pick == -1 or kk < key:
                    pick, key = u, kk
            size += 1
            union |= dom[pick]
            cand &= adj[pick]
        if size > union.bit_count():
            return True
    return False


class _TupleKeySearch(_KColorSearch):
    _pick = _pick_by_tuple_key
    _hall_violated = _hall_by_tuple_key


def _solve_by_generator(self) -> bool:
    stack, used = [], self.start_used
    t, low = self.t, (1 << self.t) - 1
    while True:
        self.deadline.tick()
        v = self._pick()
        if v == -1:
            return True
        self.free ^= 1 << v
        fresh = ((used & low) + 1) & low | (((used >> t) + 1) << t) & ((1 << self.k) - 1)
        stack.append((v, used, _bits(self.dom[v] & (used | fresh)), []))
        while stack:
            v, used, colors, changed = stack[-1]
            for u in changed:
                self.dom[u] |= 1 << self.color[v]
            changed.clear()
            c = next(colors, -1)
            if c == -1:
                self.color[v] = -1
                self.free ^= 1 << v
                stack.pop()
                continue
            self.color[v] = c
            bit = 1 << c
            for u in _bits(self.adj[v] & self.free):
                if self.dom[u] & bit:
                    self.dom[u] &= ~bit
                    changed.append(u)
            if not self._hall_violated(changed):
                used |= bit
                break
        else:
            return False


def _run_with_root_scan(self) -> list[int] | None:
    self.deadline.check()
    if not self._hall_violated(_bits(self.free)) and self._solve():
        return self.color
    return None


class _SeedRecordingSearch(_KColorSearch):
    """Records the seeds of each Hall check, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seed_lists = []

    def _hall_violated(self, seeds) -> bool:
        seeds = list(seeds)
        self.seed_lists.append(seeds)
        return super()._hall_violated(seeds)


class _GeneratorWalkSearch(_SeedRecordingSearch):
    _solve = _solve_by_generator


def _dsatur_with_max(n: int, adj: list[int], deadline: _Deadline) -> list[int]:
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    color = [-1] * n
    neigh = [0] * n
    level = [(1 << n) - 1] + [0] * n
    sat = [0] * n
    top = 0
    uncolored = (1 << n) - 1
    for _ in range(n):
        deadline.tick()
        while not level[top]:
            top -= 1
        low = level[top] & -level[top]
        level[top] ^= low
        pick = order[low.bit_length() - 1]
        uncolored ^= 1 << pick
        c = 0
        used = neigh[pick]
        while (used >> c) & 1:
            c += 1
        color[pick] = c
        bit = 1 << c
        for u in _bits(adj[pick] & uncolored):
            if not neigh[u] & bit:
                neigh[u] |= bit
                r = 1 << rank[u]
                level[sat[u]] ^= r
                sat[u] += 1
                level[sat[u]] |= r
                top = max(top, sat[u])
    return color


def _dsatur_by_levels(n: int, adj: list[int], deadline: _Deadline) -> list[int]:
    order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    color = [-1] * n
    neigh = [0] * n
    level = [(1 << n) - 1] + [0] * n  # saturation -> uncolored ranks
    sat = [0] * n
    top = 0
    uncolored = (1 << n) - 1
    for _ in range(n):
        deadline.tick()
        while not level[top]:
            top -= 1
        low = level[top] & -level[top]
        level[top] ^= low
        pick = order[low.bit_length() - 1]
        uncolored ^= 1 << pick
        c = 0
        used = neigh[pick]
        while (used >> c) & 1:
            c += 1
        color[pick] = c
        bit = 1 << c
        rest = adj[pick] & uncolored
        while rest:
            u = rest.bit_length() - 1
            rest ^= 1 << u
            if not neigh[u] & bit:
                neigh[u] |= bit
                r = 1 << rank[u]
                s = sat[u]
                level[s] ^= r
                s += 1
                sat[u] = s
                level[s] |= r
                if s > top:
                    top = s
    return color


def _greedy_by_generator(radj: list[int], s: int) -> list[int]:
    clique = [s]
    cand = radj[s]
    while cand:
        pick, best_deg = -1, -1
        for v in _bits(cand):
            d = (radj[v] & cand).bit_count()
            if d > best_deg:
                pick, best_deg = v, d
        clique.append(pick)
        cand &= radj[pick]
    return clique


# -- random states ------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, density: float) -> list[int]:
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@st.composite
def search_states(draw, max_n=48):
    """A graph, a number of colors k, a domain in [0, k) per vertex (full,
    empty or random, so that ties are common), a free set and the Hall
    seeds, a subset of the free set in ascending order, as `_solve` passes
    them."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, max_n))
    adj = _random_graph(rng, n, draw(st.sampled_from((0.2, 0.5, 0.8, 0.95))))
    k = draw(st.integers(1, 12))
    full = (1 << k) - 1
    dom = [rng.choice((full, 0, rng.getrandbits(k), full & ~(1 << rng.randrange(k)))) for _ in range(n)]
    free = sum(1 << v for v in range(n) if rng.random() < 0.8)
    seeds = [v for v in _bits(free) if rng.random() < 0.3]
    return n, adj, k, dom, free, seeds


def _search(cls, state):
    n, adj, k, dom, free, _ = state
    search = cls(n, adj, k, [], _Deadline(FOREVER))
    search.dom, search.free = list(dom), free
    return search


@st.composite
def decisions(draw):
    """A k-coloring decision on a random graph of up to 20 vertices: k near
    the size of a pre-colored clique, and with some square-zero vertices held
    to the colors below t, the clique then square-zero with at most t
    members, as min-s asks."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 20))
    adj = _random_graph(rng, n, draw(st.sampled_from((0.3, 0.5, 0.7, 0.85))))
    clique = _CliqueSearch(n, adj, _Deadline(FOREVER)).run()
    k = max(1, len(clique) + draw(st.integers(-1, 2)))
    sq0, t = 0, k
    if draw(st.booleans()):
        sq0 = sum(1 << v for v in range(n) if rng.random() < 0.5)
        t = draw(st.integers(1, k))
        clique = []
        for v in _bits(sq0):
            if len(clique) < t and all(adj[u] >> v & 1 for u in clique):
                clique.append(v)
    return n, adj, k, clique[:k], sq0, t


@st.composite
def plain_decisions(draw):
    """A k-coloring decision as chi's searches make it: a maximum clique
    pre-colored and k >= omega, on a random graph of up to 24 vertices."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 24))
    adj = _random_graph(rng, n, draw(st.sampled_from((0.2, 0.5, 0.7, 0.85, 0.95))))
    clique = _CliqueSearch(n, adj, _Deadline(FOREVER)).run()
    return n, adj, max(1, len(clique) + draw(st.integers(0, 3))), clique


@st.composite
def min_s_decisions(draw):
    """A k-coloring decision as min-s makes it: k >= omega and k >= 2, a
    random half of the vertices square-zero and held to the colors below
    t < k, and a square-zero clique of at most t vertices pre-colored."""
    n, adj, k, _ = draw(plain_decisions())
    rng = random.Random(draw(st.integers(0, 2**32)))
    k = max(k, 2)
    sq0 = sum(1 << v for v in range(n) if rng.random() < 0.5)
    t = draw(st.integers(1, k - 1))
    floor = []
    for v in _bits(sq0):
        if len(floor) < t and all(adj[u] >> v & 1 for u in floor):
            floor.append(v)
    return n, adj, k, floor, sq0, t


# -- the equivalences ---------------------------------------------------------


@pytest.mark.isolated
@STATES
@given(search_states())
def test_hall_check_matches_the_old_loop(state):
    seeds = state[5]
    new, old = _search(_KColorSearch, state), _search(_TupleKeySearch, state)
    assert new._hall_violated(seeds) == old._hall_violated(seeds)
    assert new.deadline.ticks == old.deadline.ticks
    new_all, old_all = new._hall_violated(_bits(new.free)), old._hall_violated(_bits(old.free))
    assert (new_all, new.deadline.ticks) == (old_all, old.deadline.ticks)


@pytest.mark.isolated
def test_hall_check_matches_the_old_loop_on_a_full_tie():
    # from seed 0 (color 0), candidates 1..4 all widen the union to two
    # colors and each has one neighbour among them: 1 (color 1) leads to 3
    # (color 1), three vertices on two colors; 4 (color 2) would lead to 2
    # (color 1), three vertices on three colors
    adj = [0b11110, 0b01001, 0b10001, 0b00011, 0b00101]
    dom = [0b001, 0b010, 0b010, 0b010, 0b100]
    state = (5, adj, 3, dom, 0b11111, [0])
    for cls in (_KColorSearch, _TupleKeySearch):
        assert _search(cls, state)._hall_violated([0])


@pytest.mark.isolated
@STATES
@given(search_states())
def test_pick_matches_the_old_loop(state):
    new, old = _search(_KColorSearch, state), _search(_TupleKeySearch, state)
    assert new._pick() == old._pick()


@pytest.mark.isolated
@STATES
@given(decisions())
def test_decision_search_matches_the_old_loops(case):
    n, adj, k, clique, sq0, t = case
    new = _KColorSearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t)
    old = _TupleKeySearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t)
    assert new.run() == old.run()
    assert new.deadline.ticks == old.deadline.ticks


@pytest.mark.isolated
@STATES
@given(decisions())
def test_domain_walk_matches_the_old_loop(case):
    n, adj, k, clique, sq0, t = case
    new = _SeedRecordingSearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t)
    old = _GeneratorWalkSearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t)
    assert new.run() == old.run()
    assert new.seed_lists == old.seed_lists
    assert new.deadline.ticks == old.deadline.ticks


@pytest.mark.isolated
@STATES
@given(plain_decisions())
def test_root_hall_scan_cannot_fire_at_k_at_least_omega(case):
    n, adj, k, clique = case
    scan = _KColorSearch(n, adj, k, clique, _Deadline(FOREVER))
    assert not scan._hall_violated(_bits(scan.free))
    new, old = (_KColorSearch(n, adj, k, clique, _Deadline(FOREVER)) for _ in range(2))
    assert new.run() == _run_with_root_scan(old)
    assert old.deadline.ticks - new.deadline.ticks == n - len(clique)  # the root seeds


@pytest.mark.isolated
@STATES
@given(min_s_decisions())
def test_skipping_the_root_hall_scan_changes_no_min_s_verdict(case):
    n, adj, k, clique, sq0, t = case
    new, old = (_KColorSearch(n, adj, k, clique, _Deadline(FOREVER), sq0, t) for _ in range(2))
    assert new.run() == _run_with_root_scan(old)


@pytest.mark.isolated
def test_an_empty_domain_refutes_min_s_at_the_first_node():
    # square-zero vertices 0 and 2 held below t = 1 of k = 2 colors, with 0
    # the pre-colored floor: 2, next to 0, has no color left. It is the first
    # pick, so the first node refutes the decision, in 1 tick and with no
    # Hall check, where the old root scan took 2 ticks
    adj = [0b110, 0b001, 0b001]
    search = _SeedRecordingSearch(3, adj, 2, [0], _Deadline(FOREVER), 0b101, 1)
    assert search.run() is None and search.deadline.ticks == 1
    assert search.seed_lists == []
    old = _KColorSearch(3, adj, 2, [0], _Deadline(FOREVER), 0b101, 1)
    assert _run_with_root_scan(old) is None and old.deadline.ticks == 2
    assert _KColorSearch(3, adj, 2, [0], _Deadline(FOREVER), 0b101, 2).run() == [0, 1, 1]


@pytest.mark.isolated
@STATES
@given(search_states(max_n=80))
def test_dsatur_matches_the_old_loop(state):
    n, adj = state[:2]
    new, old = _Deadline(FOREVER), _Deadline(FOREVER)
    assert _dsatur(n, adj, new) == _dsatur_with_max(n, adj, old)
    assert new.ticks == old.ticks


def _same_dsatur(n: int, adj: list[int]) -> list[int]:
    new, old = _Deadline(FOREVER), _Deadline(FOREVER)
    color = _dsatur(n, adj, new)
    assert color == _dsatur_by_levels(n, adj, old)
    assert new.ticks == old.ticks == n
    return color


@pytest.mark.isolated
@STATES
@given(search_states(max_n=150))
def test_dsatur_bit_planes_match_the_level_masks(state):
    _same_dsatur(*state[:2])


@pytest.mark.isolated
@pytest.mark.parametrize("n", [0, 1, 65, 100, 130])
def test_dsatur_bit_planes_on_complete_graphs(n):
    # from 65 vertices on, more than 64 colors; at 130, saturations up to
    # 129 take 8 planes
    assert _same_dsatur(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)]) == list(range(n))


@pytest.mark.isolated
@pytest.mark.parametrize("expr", ["Z16 x Z16 x Z16", "AN x AN", "AN2 x Z36", " x ".join(["Z2"] * 12)])
def test_dsatur_bit_planes_on_ring_graphs(expr):
    # the cores of three products, and the whole graph of Z2^12, 4096
    # vertices and its own core
    g = build_graph(ring_of(expr))
    if g.n < 4096:
        g = g.core()
    _same_dsatur(g.n, g.adj)


@pytest.mark.isolated
@STATES
@given(search_states(max_n=80))
def test_greedy_clique_matches_the_old_loop(state):
    n, adj = state[:2]
    search = _CliqueSearch(n, adj, _Deadline(FOREVER))
    search.radj = adj
    assert [search._greedy_from(s) for s in range(n)] == [_greedy_by_generator(adj, s) for s in range(n)]
