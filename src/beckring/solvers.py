"""Exact clique and coloring solvers with verifiable certificates.

All searches are deterministic: vertices are ordered by descending degree
with ties broken by id, candidate sets are walked lowest-bit-first, and no
result depends on timing. Budgets abort a search with the bounds certified
so far instead of returning an unproven answer: each public entry builds
one `_Deadline` from its budget, every search it runs ticks that deadline
once per node, as DSATUR does once per pick and the clique search's set-up
once per vertex and per greedy start, and expiry anywhere comes back to the
caller as a BudgetError carrying the bounds found so far.

The chromatic number and min-s are searched on the core of a Beck graph,
its twin quotient (see `BeckGraph.core`), and the coloring is lifted back
by giving each vertex the color of its class. The maximum clique and the
split are searched on the graph given, and witnesses are its vertex ids,
which for the graph of a whole ring are ring-element ids. Graph-likes that
carry only `n` and `adj` are searched as given.

One clique branch and bound serves omega, the split and the square-zero
floor of min-s. It maximises (clique size, square-zero count), and the
split search reuses the finished maximum-clique search of its graph. Its
set-up works per twin class: vertices with equal rows share their degree,
their remapped row and their greedy score, so a graph of 1024 vertices and
a hundred distinct rows is set up at the cost of its classes.

DSATUR keeps the uncolored vertices of each saturation level as one bitmask
over their rank in (degree desc, id) order, so a pick is the lowest bit of
the highest nonempty level and each neighbour update moves one bit.

The k-coloring decision search prunes with Hall's condition on cliques: if
a clique U of uncolored vertices has fewer colors left in the union of its
domains than it has vertices, the node has no completion, since the members
of U need |U| distinct colors. This is the clique bound of DSATUR-based
branch and bound (San Segundo, "A new DSATUR-based algorithm for exact
vertex coloring", 2012; Furini, Gabrel and Ternier, "An improved
DSATUR-based branch-and-bound algorithm for the vertex coloring problem",
Networks 2017) on the graph where each used color is merged into one vertex.

Each graph is searched once. The finished maximum-clique search (vertex
order, remapped adjacency, result), the best split and the chromatic
number with its coloring are memoised in the `solved` dict of the graph
they ran on, so one analysis that asks for omega, the split and chi of the
same graph, or solves the same factor for two theorem checks, pays for
each search once; chi reuses the core's maximum-clique search.
A search cut short by its budget is never memoised: the BudgetError goes
to the caller, and a later call, with a larger budget, searches again.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass

from .errors import BudgetError, ContractError, InternalCheckError
from .graphs import BeckGraph

DEFAULT_BUDGET = 60.0
MIN_S_EXHAUSTIVE_CAP = 20

# decision searches recurse once per vertex; cores can exceed the default limit
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


def solver_budget(budget: float | None) -> float:
    if budget is not None:
        return float(budget)
    env = os.environ.get("BECKRING_BUDGET")
    if env:
        return float(env)
    return DEFAULT_BUDGET


class _OutOfTime(Exception):
    pass


class _Deadline:
    """The clock of one solve, `budget` seconds (see solver_budget) from now.

    `tick()` is called once per search node and reads the clock every 64
    ticks, often enough for the k-coloring search, whose Hall check can take
    milliseconds a node; `check()` reads it at once. Both raise _OutOfTime
    once the budget is spent. `left()` is the budget still unspent, which a
    caller that runs several solves under one budget hands to each.
    """

    def __init__(self, budget: float | None):
        self.at = time.monotonic() + solver_budget(budget)
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % 64 == 0:
            self.check()

    def check(self) -> None:
        if time.monotonic() > self.at:
            raise _OutOfTime()

    def left(self) -> float:
        return self.at - time.monotonic()


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _remap(mask: int, pos) -> int:
    """`mask` with each vertex v moved to bit pos[v]."""
    m = 0
    for v in _bits(mask):
        m |= 1 << pos[v]
    return m


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clique:
    """Pairwise-adjacent vertex set, sorted by vertex id (ring-element id on
    the graph of a whole ring)."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CliqueSplit:
    """A maximum clique partitioned into square-zero (B) and square-nonzero (C) members."""

    clique: Clique
    b_part: tuple[int, ...]
    c_part: tuple[int, ...]

    @property
    def b_size(self) -> int:
        return len(self.b_part)

    @property
    def c_size(self) -> int:
        return len(self.c_part)


@dataclass(frozen=True)
class Coloring:
    """Proper coloring: class_of[v] is the class index of vertex v, in [0, k)."""

    class_of: tuple[int, ...]
    k: int

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.class_of):
            out[c].append(v)
        return out


@dataclass(frozen=True)
class SZero:
    """Count of color classes containing a square-zero element; `exact` is False
    when it is only a best-effort upper bound from local search."""

    s: int
    exact: bool = True


# ---------------------------------------------------------------------------
# verification (independent of solver internals)
# ---------------------------------------------------------------------------


def verify_clique(g, vertices) -> bool:
    vs = list(vertices)
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if u == v or not g.has_edge(u, v):
                return False
    return True


def verify_coloring(g, coloring: Coloring) -> bool:
    """True iff the coloring covers every vertex, uses each of its k classes,
    and no vertex has a neighbour in its own class (checked against one
    bitmask per class)."""
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


# ---------------------------------------------------------------------------
# maximum clique
# ---------------------------------------------------------------------------


class _CliqueSearch:
    """Branch and bound for the lexicographically largest (clique size,
    square-zero count), with a greedy-coloring bound (bitset sets); with no
    square-zero vertices, a plain maximum-clique search.

    Candidates come in non-increasing color order and each try shrinks the
    candidate set, so the first candidate whose bound cannot beat the best
    ends the node. `seed`, a finished search on the same graph, lends its
    order, remapped adjacency and best clique.

    The graph must be simple (symmetric rows, no loops). Its set-up works
    one twin class, a class of vertices with equal rows, at a time: each
    class's degree is taken once for the order, each distinct row is
    remapped once by walking its classes, and the greedy first clique
    scores one member per class. The order, the remapped rows and the
    greedy clique are those of a vertex-by-vertex set-up, so the search
    and its witnesses do not change.
    """

    def __init__(self, n: int, adj: list[int], deadline: _Deadline, sq0_bits: int = 0, seed=None):
        self.n, self.adj, self.sq0_bits, self.deadline, self.seed = n, adj, sq0_bits, deadline, seed
        # vertex 0 alone is the clique known until run() has set up
        self.order, self.best, self.result = range(n), [0] if n else [], None

    def _setup(self) -> None:
        """Order and remapped adjacency, lent by the seed or built reading
        the deadline once per vertex of the order, then a first best clique."""
        if self.seed:
            self.order, self.pos, self.radj = self.seed.order, self.seed.pos, self.seed.radj
            self.best = list(self.seed.best)
        else:
            twins = self._order_by_twin_class()
            self.best = self._greedy_clique([twins[v] for v in self.order])
        self.sq0 = _remap(self.sq0_bits, self.pos)
        self.best_b = sum((self.sq0 >> v) & 1 for v in self.best)

    def _order_by_twin_class(self) -> list[int]:
        """Set `order`, `pos` and `radj`, one class of equal rows at a time,
        and return each vertex's class remapped to positions.

        Vertices with equal rows are twins, and in a simple graph every row
        is a union of such classes (u ~ x and N(x) = N(x') give u ~ x'), so
        each distinct row is remapped by walking its classes, and the order
        by (degree desc, id) takes each class's degree once.
        """
        members: dict[int, int] = {}
        for v, row in enumerate(self.adj):
            members[row] = members.get(row, 0) | (1 << v)
        by_degree: dict[int, int] = {}
        for row, mask in members.items():
            d = row.bit_count()
            by_degree[d] = by_degree.get(d, 0) | mask
        self.order = [v for d in sorted(by_degree, reverse=True) for v in _bits(by_degree[d])]
        self.pos = [0] * self.n
        for i, v in enumerate(self.order):
            self.pos[v] = i
        cls = [0] * self.n  # the members of each vertex's class, as vertices
        twins = [0] * self.n  # the same, as positions
        for mask in members.values():
            moved = _remap(mask, self.pos)
            for v in _bits(mask):
                cls[v], twins[v] = mask, moved
        remapped: dict[int, int] = {}
        self.radj = []
        for v in self.order:
            self.deadline.tick()
            row = self.adj[v]
            if row not in remapped:
                m, rest = 0, row
                while rest:
                    u = (rest & -rest).bit_length() - 1
                    m |= twins[u]
                    rest ^= cls[u]
                remapped[row] = m
            self.radj.append(remapped[row])
        return twins

    def _greedy_clique(self, twins: list[int]) -> list[int]:
        """From each of the first 8 vertices, add the candidate with the
        most candidate neighbours, the first in order on ties. Candidates
        are unions of twin classes (`twins`, by position) and twins tie, so
        only the first member of each class is scored."""
        best: list[int] = []
        for s in range(min(self.n, 8)):
            self.deadline.check()
            clique = [s]
            cand = self.radj[s]
            while cand:
                pick, best_deg = -1, -1
                rest = cand
                while rest:
                    v = (rest & -rest).bit_length() - 1
                    d = (self.radj[v] & cand).bit_count()
                    if d > best_deg:
                        pick, best_deg = v, d
                    rest &= ~twins[v]
                clique.append(pick)
                cand &= self.radj[pick]
            if len(clique) > len(best):
                best = clique
        return best

    @staticmethod
    def _color_sort(p: int, radj: list[int]) -> list[tuple[int, int]]:
        out = []
        uncolored = p
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                out.append((v, color))
                avail &= ~radj[v]
                avail ^= b
                uncolored ^= b
        return out

    def _expand(self, r: list[int], rb: int, p: int):
        self.deadline.tick()
        order = self._color_sort(p, self.radj)
        for v, c in reversed(order):
            bound = len(r) + c
            if bound < len(self.best) or (
                bound == len(self.best) and rb + (p & self.sq0).bit_count() <= self.best_b
            ):
                return
            v_b = rb + ((self.sq0 >> v) & 1)
            r.append(v)
            np_ = p & self.radj[v]
            if np_:
                self._expand(r, v_b, np_)
            elif (len(r), v_b) > (len(self.best), self.best_b):
                self.best, self.best_b = r.copy(), v_b
            r.pop()
            p ^= 1 << v

    def run(self) -> list[int]:
        """The best clique in vertex ids, sorted; also kept as `result`."""
        if self.n:
            self._setup()
            self.deadline.check()
            self._expand([], 0, (1 << self.n) - 1)
        self.result = sorted(self.order[v] for v in self.best)
        return self.result


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------


def _dsatur(n: int, adj: list[int], deadline: _Deadline) -> list[int]:
    """Greedy DSATUR coloring: each pick is an uncolored vertex of the
    highest saturation, then the highest degree, then the lowest id. The
    uncolored vertices of each saturation level are kept as a bitmask over
    their rank in (degree desc, id) order, so a pick is the lowest bit of
    the highest nonempty level. Reads the deadline once per pick."""
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
        for u in _bits(adj[pick] & uncolored):
            if not neigh[u] & bit:
                neigh[u] |= bit
                r = 1 << rank[u]
                level[sat[u]] ^= r
                sat[u] += 1
                level[sat[u]] |= r
                top = max(top, sat[u])
    return color


class _KColorSearch:
    """Decision search for a proper k-coloring, symmetry-broken by a
    pre-colored maximum clique plus a lowest-fresh-color rule, and pruned
    by Hall's condition on cliques of uncolored vertices."""

    def __init__(self, n, adj, k, clique, deadline):
        self.n = n
        self.adj = adj
        self.k = k
        self.deadline = deadline
        self.deg = [adj[v].bit_count() for v in range(n)]
        self.color = [-1] * n
        self.dom = [(1 << k) - 1] * n
        self.free = (1 << n) - 1
        self.start_used = len(clique)
        for i, v in enumerate(sorted(clique)):
            self.color[v] = i
            self.free ^= 1 << v
            for u in _bits(adj[v]):
                self.dom[u] &= ~(1 << i)

    def _pick(self) -> int:
        pick, key = -1, None
        for v in _bits(self.free):
            k = (self.dom[v].bit_count(), -self.deg[v], v)
            if pick == -1 or k < key:
                pick, key = v, k
        return pick

    def _hall_violated(self, seeds) -> bool:
        """True when some clique U of uncolored vertices grown greedily from
        a seed has |U| > |union of the domains of U|: its vertices need
        more distinct colors than they have left, so no completion exists.

        Each step adds the common neighbour that widens the color union
        least, ties broken by the most neighbours among the remaining
        candidates, then by the lowest id.
        """
        adj, dom, free = self.adj, self.dom, self.free
        for s in seeds:
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

    def _solve(self, used: int) -> bool:
        self.deadline.tick()
        v = self._pick()
        if v == -1:
            return True
        self.free ^= 1 << v
        allowed = self.dom[v] & ((1 << min(used + 1, self.k)) - 1)
        for c in _bits(allowed):
            self.color[v] = c
            bit = 1 << c
            changed = []
            for u in _bits(self.adj[v] & self.free):
                if self.dom[u] & bit:
                    self.dom[u] &= ~bit
                    changed.append(u)
            if not self._hall_violated(changed) and self._solve(max(used, c + 1)):
                return True
            for u in changed:
                self.dom[u] |= bit
            self.color[v] = -1
        self.free ^= 1 << v
        return False

    def run(self) -> list[int] | None:
        self.deadline.check()
        if self._hall_violated(_bits(self.free)):
            return None
        if self._solve(self.start_used):
            return self.color
        return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _solved(work) -> dict:
    """The memo of finished solves on a graph; a throwaway dict for
    graph-likes that carry none."""
    return getattr(work, "solved", {})


def _core(g):
    """The core of `g` and the map of its vertices onto it: the twin
    quotient of a Beck graph; any other graph-like is its own core."""
    if isinstance(g, BeckGraph):
        return g.core(), g.group
    return g, range(g.n)


def _lift(color: list[int], group, k: int) -> Coloring:
    """A coloring of the core lifted to the graph: each vertex takes the
    color of its class."""
    return Coloring(tuple(color[c] for c in group), k)


def _clique_search(work, deadline: _Deadline) -> _CliqueSearch:
    """The maximum-clique search on `work`, run once per graph. A search the
    deadline cuts short comes back unmemoised, with result None and its best
    clique so far."""
    memo = _solved(work)
    if "clique" not in memo:
        search = _CliqueSearch(work.n, work.adj, deadline)
        try:
            search.run()
        except _OutOfTime:
            return search
        memo["clique"] = search
    return memo["clique"]


def max_clique(g, budget: float | None = None) -> Clique:
    """Exact maximum clique of the graph given, with witness; deterministic
    across runs."""
    search = _clique_search(g, _Deadline(budget))
    if search.result is None:
        lb_w = sorted(search.order[v] for v in search.best)
        raise BudgetError("max_clique", len(lb_w), witness=lb_w)
    return Clique(tuple(search.result))


def best_clique_split(g, budget: float | None = None) -> CliqueSplit:
    """Among all maximum cliques of the graph given, one maximizing the
    square-zero part."""
    memo = _solved(g)
    if "split" not in memo:
        deadline = _Deadline(budget)
        base = _clique_search(g, deadline)
        if base.result is None:
            raise BudgetError("best_clique_split", len(base.best))
        try:
            search = _CliqueSearch(g.n, g.adj, deadline, g.sq0_bits, seed=base)
            memo["split"] = search.run()
        except _OutOfTime:
            raise BudgetError("best_clique_split", len(base.best)) from None
    verts = memo["split"]
    b = tuple(v for v in verts if (g.sq0_bits >> v) & 1)
    c = tuple(v for v in verts if not (g.sq0_bits >> v) & 1)
    return CliqueSplit(Clique(tuple(verts)), b, c)


def chromatic_number(g, budget: float | None = None) -> tuple[int, Coloring]:
    """Exact chromatic number and a proper coloring witness.

    The search runs on the core of `g` and its coloring is lifted back, each
    vertex taking the color of its class. DSATUR supplies the upper bound,
    a maximum clique the lower bound, and any gap is closed by iterated
    k-coloring decision searches, symmetry-broken by pre-coloring the
    clique. Each search prunes a node when a greedily grown clique of
    uncolored vertices has more members than colors left in the union of
    their domains (Hall's condition; the clique bound of San Segundo 2012
    and Furini, Gabrel and Ternier 2017). That cut is sound, since a clique
    needs as many distinct colors as it has vertices, and it refutes k = 18
    and k = 19 on AN x AN, whose chi is 20.
    """
    work, group = _core(g)
    k, color = _chromatic(work, _Deadline(budget))
    return k, _lift(color, group, k)


def _chromatic(work, deadline: _Deadline) -> tuple[int, list[int]]:
    """chi of `work` and a chi-coloring of its vertices, memoised on `work`;
    see chromatic_number."""
    memo = _solved(work)
    if "chromatic" not in memo:
        memo["chromatic"] = _chromatic_on(work, deadline)
    return memo["chromatic"]


def _chromatic_on(work, deadline: _Deadline) -> tuple[int, list[int]]:
    try:
        greedy = _dsatur(work.n, work.adj, deadline)
    except _OutOfTime:
        raise BudgetError("chromatic_number", 1) from None
    ub = max(greedy) + 1 if greedy else 0
    clique_search = _clique_search(work, deadline)
    if clique_search.result is None:
        if len(clique_search.best) == ub:
            # the partial clique already pins chi even though the
            # clique search itself was cut short
            return ub, greedy
        raise BudgetError("chromatic_number", len(clique_search.best), ub)
    lb = len(clique_search.result)
    for k in range(lb, ub):
        search = _KColorSearch(work.n, work.adj, k, clique_search.result, deadline)
        try:
            found = search.run()
        except _OutOfTime:
            raise BudgetError("chromatic_number", k, ub) from None
        if found is not None:
            return k, found
    return ub, greedy


def class_sq0_flags(g, coloring: Coloring) -> list[bool]:
    """Per class of the coloring, whether it holds a square-zero element."""
    flags = [False] * coloring.k
    mask = g.ring.square_zero_mask
    for v in range(g.n):
        if mask[g.element_of(v)]:
            flags[coloring.class_of[v]] = True
    return flags


def s_of(g, coloring: Coloring) -> SZero:
    """Number of classes of a proper coloring containing a square-zero element."""
    if not verify_coloring(g, coloring):
        raise ContractError("s_of requires a proper coloring of the given graph")
    return SZero(sum(class_sq0_flags(g, coloring)))


class _MinSSearch:
    """Exhaustive scan of all proper k-colorings of a small graph, keeping
    one with the fewest square-zero-bearing classes."""

    def __init__(self, n, adj, sq0_bits, k, s_floor, deadline):
        self.n = n
        self.adj = adj
        self.sq0 = sq0_bits
        self.k = k
        self.s_floor = s_floor
        self.deadline = deadline
        self.order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
        self.color = [-1] * n
        self.best: list[int] | None = None
        self.best_s = n + 1

    def _go(self, idx: int, used: int, class_sq0: int, s: int):
        self.deadline.tick()
        if s >= self.best_s:
            return
        if idx == self.n:
            self.best = self.color.copy()
            self.best_s = s
            return
        v = self.order[idx]
        sq = (self.sq0 >> v) & 1
        forbidden = 0
        for u in _bits(self.adj[v]):
            if self.color[u] != -1:
                forbidden |= 1 << self.color[u]
        for c in range(min(used + 1, self.k)):
            if (forbidden >> c) & 1:
                continue
            marks = sq and not ((class_sq0 >> c) & 1)
            self.color[v] = c
            self._go(
                idx + 1,
                max(used, c + 1),
                class_sq0 | (1 << c) if marks else class_sq0,
                s + (1 if marks else 0),
            )
            self.color[v] = -1
            if self.best_s <= self.s_floor:
                return

    def run(self):
        self._go(0, 0, 0, 0)
        return self.best, self.best_s


def _local_min_s(work, color: list[int], k: int, deadline: _Deadline) -> tuple[list[int], int]:
    """Greedy improvement: try to empty whole classes of their square-zero
    members by recoloring; never increases the class count. Reads the
    deadline once per vertex it tries to move."""
    color = color.copy()
    sq0 = work.sq0_bits
    improved = True
    while improved:
        improved = False
        flags = [0] * k
        for v in range(work.n):
            if (sq0 >> v) & 1:
                flags[color[v]] += 1
        bearing = [c for c in range(k) if flags[c] > 0]
        for c in sorted(bearing, key=lambda c: flags[c]):
            movers = [v for v in range(work.n) if color[v] == c and (sq0 >> v) & 1]
            plan = {}
            ok = True
            for v in movers:
                deadline.check()
                choice = -1
                for d in bearing:
                    if d == c or flags[d] == 0:
                        continue
                    if all(color[u] != d or u in plan for u in _bits(work.adj[v])):
                        if all(plan.get(u) != d for u in _bits(work.adj[v])):
                            choice = d
                            break
                if choice == -1:
                    ok = False
                    break
                plan[v] = choice
            if ok and movers and any(color[u] == c for u in range(work.n) if u not in plan):
                for v, d in plan.items():
                    color[v] = d
                improved = True
                break
    s = len({color[v] for v in range(work.n) if (sq0 >> v) & 1})
    return color, s


def min_s_optimal_coloring(g, budget: float | None = None) -> tuple[Coloring, SZero]:
    """Among proper colorings with exactly chi classes, minimize the number
    of classes containing a square-zero element.

    Exact (exhaustive over the core) when the core has at most
    MIN_S_EXHAUSTIVE_CAP vertices; otherwise a best-effort local search
    whose achieved s is reported with exact=False. A class of the core
    shares its square-zero flag and, lifted, its color, so the core's s is
    the whole graph's. One deadline covers the chromatic solve and either
    search.
    """
    work, group = _core(g)
    deadline = _Deadline(budget)
    k, color = _chromatic(work, deadline)
    baseline = _lift(color, group, k)
    base_s = s_of(g, baseline).s
    if work.n <= MIN_S_EXHAUSTIVE_CAP:
        # vertex 0 squares to zero, so some class always bears one
        s_floor = 1
        try:
            s_floor = _sq0_clique_floor(work, deadline)
            if base_s <= s_floor:
                return baseline, SZero(base_s)
            search = _MinSSearch(work.n, work.adj, work.sq0_bits, k, s_floor, deadline)
            best, best_s = search.run()
        except _OutOfTime:
            raise BudgetError("min_s_optimal_coloring", s_floor, base_s) from None
        if best is None:
            raise InternalCheckError("min-s search found no proper coloring at chi")
        return _lift(best, group, k), SZero(best_s)
    try:
        improved, s = _local_min_s(work, color, k, deadline)
    except _OutOfTime:
        raise BudgetError("min_s_optimal_coloring", 1, base_s) from None
    if s >= base_s:
        return baseline, SZero(base_s, exact=False)
    return _lift(improved, group, k), SZero(s, exact=False)


def _sq0_clique_floor(work, deadline: _Deadline) -> int:
    """Any clique of square-zero vertices forces that many distinct classes."""
    verts = list(_bits(work.sq0_bits))
    if not verts:
        return 0
    idx = {v: i for i, v in enumerate(verts)}
    sub = [_remap(work.adj[v] & work.sq0_bits, idx) for v in verts]
    return len(_CliqueSearch(len(verts), sub, deadline).run())
