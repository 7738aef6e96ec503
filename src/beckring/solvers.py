"""Exact clique and coloring solvers with verifiable certificates.

All searches are deterministic: vertices are ordered by descending degree
with ties broken by id, candidate sets are walked in a fixed bit order,
ties go to the lowest id, and no result depends on timing. The clique and
k-coloring searches loop over explicit stacks: no search recurses or
touches the interpreter's recursion limit, whatever the graph's size.
Budgets abort a search with the bounds certified so far instead of
returning an unproven answer: each public entry builds one `_Deadline`
from its budget (seconds, or a running deadline whose end time it keeps),
every search it runs ticks that deadline once per node, as DSATUR does
once per pick and the Hall check once per seed, the clique search's
set-up reads it once per block of 256 adjacency rows, and expiry anywhere
comes back to the caller as a BudgetError carrying the bounds found so far.

Every search on a Beck graph runs on its core, the twin quotient (see
`BeckGraph.core`). A coloring of the core is lifted back by giving each
vertex the color of its class. A clique of the core, for omega, the split
or a budget-cut partial clique, is lifted through the class
representatives: each member becomes the first vertex, in order, of its
class, which on the graph of a whole ring is the class's first ring
element. Graph-likes that carry only `n` and `adj` are searched as given.

One clique branch and bound serves omega, the split and the square-zero
floor of min-s. It maximises (clique size, square-zero count), and one
search of a graph yields both omega's witness, the first clique of the
largest size it finds, and the best split.

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
Its seeds are the vertices whose domain the last assignment shrank; no
check runs before the first node. The same search decides min-s: "is
s <= t" asks for a chi-coloring whose square-zero vertices all take
colors below t, so their domains start as [0, t), the lowest-fresh-color
rule runs apart in [0, t) and [t, k), and the pre-colored clique is a
largest square-zero clique, whose size is also the floor of s.

Each graph is searched once. The finished clique search (vertex order,
remapped adjacency, omega's witness and the split) and the chromatic
number with its coloring are memoised in the `solved` dict of the core
they ran on, so one analysis that asks for omega, the split and chi of the
same graph, or solves the same factor for two theorem checks, pays for
one clique search: omega, the split and chi's lower bound share it. The
chi-coloring lifted to a graph is memoised on that graph, so it is lifted
once however often chi is asked.
A search cut short by its budget is never memoised: the BudgetError goes
to the caller, and a later call, with a larger budget, searches again. The
one answer short of its goal is min-s once chi is known: it comes back with
the interval of s proved so far.
"""

from __future__ import annotations

import math
import operator
import os
import time
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, ContractError, PreconditionError
from .graphs import BeckGraph, _pack_rows

DEFAULT_BUDGET = 60.0
_PERMUTE_BLOCK = 256  # adjacency rows per numpy block in _permute


class _OutOfTime(Exception):
    pass


class _Deadline:
    """The clock of one request. `budget` is seconds from now (None: the
    BECKRING_BUDGET environment variable, else DEFAULT_BUDGET), or a
    running _Deadline, whose end time `at` it keeps: an entry that makes
    several solves builds one deadline at its start and hands it to each.
    inf never expires; a non-number or NaN raises PreconditionError.

    `tick()` is called once per search node and once per seed of the
    k-coloring search's Hall check, and reads the clock every 64 ticks;
    `check()` reads it at once. Both raise _OutOfTime once the budget is spent.
    """

    def __init__(self, budget: Budget):
        if budget is None:
            budget = os.environ.get("BECKRING_BUDGET") or DEFAULT_BUDGET
        try:  # `__class__`, not the module-level name, which a test may replace
            self.at = budget.at if isinstance(budget, __class__) else time.monotonic() + float(budget)
        except (TypeError, ValueError):
            self.at = math.nan
        if math.isnan(self.at):  # it would never expire
            raise PreconditionError(f"budget {budget!r} is not a number of seconds (inf: no limit)")
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % 64 == 0:
            self.check()

    def check(self) -> None:
        if time.monotonic() > self.at:
            raise _OutOfTime()


Budget = float | _Deadline | None  # what every budgeted entry takes


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


def _permute(adj: list[int], order, deadline: _Deadline) -> list[int]:
    """The rows of the vertices in `order`, each cut to the columns in
    `order` and renumbered by position there: bit j of row i is set iff
    order[j] is in adj[order[i]]. Rows go through numpy 256 at a time, as
    bytes unpacked to one byte per column, so the Python work is O(rows)
    and the temporaries stay at 256 x len(adj) bytes; the deadline is read
    once per block."""
    width = (len(adj) + 7) // 8
    cols = np.asarray(order, dtype=np.intp)
    out: list[int] = []
    for start in range(0, len(cols), _PERMUTE_BLOCK):
        deadline.check()
        rows = b"".join(adj[v].to_bytes(width, "little") for v in order[start : start + _PERMUTE_BLOCK])
        bits = np.unpackbits(
            np.frombuffer(rows, dtype=np.uint8).reshape(-1, width), axis=1, count=len(adj), bitorder="little"
        )
        packed = np.packbits(np.take(bits, cols, axis=1), axis=1, bitorder="little")
        step, buf = packed.shape[1], packed.tobytes()
        out.extend(int.from_bytes(buf[i : i + step], "little") for i in range(0, len(buf), step))
    return out


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------


class Clique(NamedTuple):
    """Pairwise-adjacent vertex set, sorted by vertex id (ring-element id on
    the graph of a whole ring)."""

    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


class CliqueSplit(NamedTuple):
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


class Coloring(NamedTuple):
    """Proper coloring: class_of[v] is the class index of vertex v, in [0, k)."""

    class_of: tuple[int, ...]
    k: int

    def classes(self) -> list[list[int]]:
        # a plain loop: map(list.append, ...) and a numpy argsort both ran slower, small or large
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.class_of):
            out[c].append(v)
        return out


class SZero(NamedTuple):
    """Count s of the color classes containing a square-zero element, and
    `lower`, a certified lower bound on the least s over the colorings in
    question: `exact` when the two meet."""

    s: int
    lower: int

    @property
    def exact(self) -> bool:
        return self.lower == self.s


# ---------------------------------------------------------------------------
# verification (independent of solver internals)
# ---------------------------------------------------------------------------


def verify_clique(g, vertices) -> bool:
    """True iff the vertices are distinct ids in [0, n) and pairwise
    adjacent: each member's row, with its own bit, covers the whole set."""
    vs = [operator.index(u) for u in vertices]
    mask = 0
    for u in vs:
        if not 0 <= u < g.n or (mask >> u) & 1:
            return False
        mask |= 1 << u
    return all((g.adj[u] | 1 << u) & mask == mask for u in vs)


def verify_coloring(g, coloring: Coloring) -> bool:
    """True iff the coloring covers every vertex, uses each of its k classes,
    and no vertex has a neighbour in its own class (checked against one
    bitmask per class, packed from the k x n membership matrix)."""
    cls, k = coloring.class_of, coloring.k
    if len(cls) != g.n or k < 0 or cls and not 0 <= min(cls) <= max(cls) < k:
        return False
    masks = _pack_rows(np.fromiter(cls, np.intp, g.n) == np.arange(k)[:, None])
    return all(masks) and not any(map(operator.and_, g.adj, map(masks.__getitem__, cls)))


# ---------------------------------------------------------------------------
# maximum clique
# ---------------------------------------------------------------------------


class _CliqueSearch:
    """Branch and bound for the lexicographically largest (clique size,
    square-zero count), with a greedy-coloring bound (bitset sets); with no
    square-zero vertices, a plain maximum-clique search.

    Candidates come in non-increasing color order and each try shrinks the
    candidate set, so the first candidate whose bound cannot beat the best
    ends the node; `_expand` keeps the open nodes on a stack. One search
    keeps two cliques: `best`, the lexicographic best, and `first`, the
    first clique found of each new size. `first` is the clique of the plain
    search: the tie-break only opens subtrees whose color bound equals the
    best size, and such a subtree holds no larger clique.

    The set-up orders the vertices by (degree desc, id), permutes the
    adjacency rows into that order in numpy blocks (`_permute`),
    color-sorts the whole graph once for the root node, and grows a greedy
    first clique from the first vertex, of the highest degree. On a twin
    quotient, where equal rows come at most in pairs, a set-up per class
    of equal rows saves nothing.
    """

    def __init__(self, n: int, adj: list[int], deadline: _Deadline, sq0_bits: int = 0):
        self.n, self.adj, self.sq0_bits, self.deadline = n, adj, sq0_bits, deadline
        # vertex 0 alone is the clique known until run() has set up
        self.order, self.result, self.split = range(n), None, None
        self.best = self.first = [0] if n else []

    def _setup(self) -> None:
        """Order and remapped adjacency, then a first best clique."""
        self.order = sorted(range(self.n), key=lambda v: (-self.adj[v].bit_count(), v))
        self.pos = [0] * self.n
        for i, v in enumerate(self.order):
            self.pos[v] = i
        self.radj = _permute(self.adj, self.order, self.deadline)
        self.sq0 = _remap(self.sq0_bits, self.pos)
        self.best = self.first = self._greedy_from(0)
        self.best_b = sum((self.sq0 >> v) & 1 for v in self.best)

    def _greedy_from(self, s: int) -> list[int]:
        """A clique grown from vertex s, each step adding the candidate with
        the most candidate neighbours, the first in order on ties."""
        radj = self.radj
        clique = [s]
        cand = radj[s]
        while cand:
            pick, best_deg = -1, -1
            rest = cand
            while rest:  # highest first, so that ties go to the last visited
                v = rest.bit_length() - 1
                rest ^= 1 << v
                d = (radj[v] & cand).bit_count()
                if d >= best_deg:
                    pick, best_deg = v, d
            clique.append(pick)
            cand &= radj[pick]
        return clique

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

    def _expand(self) -> None:
        """Branch and bound over a stack of open nodes [candidates p,
        square-zero count of the clique r so far, untried candidates in
        color order], r holding one vertex per node below the root. A tried
        vertex leaves p as its child opens: p is read after the child closes."""
        r: list[int] = []
        self.deadline.tick()
        full = (1 << self.n) - 1
        stack = [[full, 0, self._color_sort(full, self.radj)]]
        while stack:
            node = stack[-1]
            p, rb, order = node
            v, c = order.pop() if order else (-1, 0)
            bound = len(r) + c
            if v == -1 or bound < len(self.best) or (
                bound == len(self.best) and rb + (p & self.sq0).bit_count() <= self.best_b
            ):
                stack.pop()  # no candidate left can beat the best
                del r[-1:]  # the root has no vertex in r
                continue
            node[0] = p ^ (1 << v)
            v_b = rb + ((self.sq0 >> v) & 1)
            np_ = p & self.radj[v]
            if np_:
                self.deadline.tick()
                r.append(v)
                stack.append([np_, v_b, self._color_sort(np_, self.radj)])
            elif (len(r) + 1, v_b) > (len(self.best), self.best_b):
                if len(r) >= len(self.best):
                    self.first = r + [v]
                self.best, self.best_b = r + [v], v_b

    def run(self) -> list[int]:
        """The first maximum clique, in vertex ids, sorted; kept as `result`,
        and the best clique as `split`."""
        if self.n:
            self._setup()
            self.deadline.check()
            self._expand()
        self.result = sorted(self.order[v] for v in self.first)
        self.split = sorted(self.order[v] for v in self.best)
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


class _KColorSearch:
    """Decision search for a proper k-coloring whose square-zero vertices
    (`sq0_bits`) use only the colors below t (t = k: any proper k-coloring),
    pruned by Hall's condition on cliques of uncolored vertices.

    Symmetry is broken by a pre-colored clique, colored 0, 1, ... in vertex
    order, and a lowest-fresh-color rule kept apart in [0, t) and [t, k):
    the unused colors of one range are interchangeable at every node, those
    of two ranges are not. With t < k the clique must be square-zero and
    have at most t vertices, so that its colors lie below t. `_solve` keeps
    the colored vertices, with the colors used before each, on a stack.

    The Hall check runs after each assignment, from the vertices whose
    domains it shrank, and only prunes. A free vertex the pre-colored
    clique left with no color is the first pick, so it refutes at the
    first node.
    """

    def __init__(self, n, adj, k, clique, deadline, sq0_bits=0, t=None):
        self.adj, self.k, self.t, self.deadline = adj, k, k if t is None else t, deadline
        self.deg = [adj[v].bit_count() for v in range(n)]
        self.color = [-1] * n
        self.dom = [(1 << (self.t if (sq0_bits >> v) & 1 else k)) - 1 for v in range(n)]
        self.free = (1 << n) - 1
        self.start_used = (1 << len(clique)) - 1
        for i, v in enumerate(sorted(clique)):
            self.color[v] = i
            self.free ^= 1 << v
            for u in _bits(adj[v]):
                self.dom[u] &= ~(1 << i)

    def _pick(self) -> int:
        """The free vertex with the smallest domain, then the highest
        degree, then the lowest id; -1 when none is free."""
        dom, deg = self.dom, self.deg
        pick, best_size, best_deg = -1, self.k + 1, -1
        rest = self.free
        while rest:  # highest first, so that ties go to the last visited
            v = rest.bit_length() - 1
            rest ^= 1 << v
            size = dom[v].bit_count()
            if size < best_size or (size == best_size and deg[v] >= best_deg):
                pick, best_size, best_deg = v, size, deg[v]
        return pick

    def _hall_violated(self, seeds) -> bool:
        """True when some clique U of uncolored vertices grown greedily from
        a seed has |U| > |union of the domains of U|: its vertices need
        more distinct colors than they have left, so no completion exists.

        Each step adds the common neighbour that widens the color union
        least, ties broken by the most neighbours among the remaining
        candidates, then by the lowest id. The candidates are walked highest
        id first, so a full tie goes to the last one visited. Each one's
        widened union is counted first, and its neighbours among the
        candidates only when that widening is no larger than the best so
        far, since only then can it win. Ticks the deadline once per seed.
        """
        adj, dom, free, tick = self.adj, self.dom, self.free, self.deadline.tick
        wider = self.k + 1  # than any union of domains
        for s in seeds:
            tick()
            size, union = 1, dom[s]
            width = union.bit_count()
            cand = adj[s] & free
            while size <= width and cand:
                pick, best_width, best_deg = -1, wider, -1
                rest = cand
                while rest:
                    u = rest.bit_length() - 1
                    rest ^= 1 << u
                    w = (union | dom[u]).bit_count()
                    if w <= best_width:
                        d = (adj[u] & cand).bit_count()
                        if w < best_width or d >= best_deg:
                            pick, best_width, best_deg = u, w, d
                size += 1
                union |= dom[pick]
                width = best_width
                cand &= adj[pick]
            if size > width:
                return True
        return False

    def _solve(self) -> bool:
        """Depth first over a stack of colored vertices (v, the colors used
        before v, its untried colors, the domains its color shrank), whose
        domains are restored after a Hall cut or a failed child of v."""
        stack, used, dom = [], self.start_used, self.dom
        t, low = self.t, (1 << self.t) - 1
        while True:
            self.deadline.tick()
            v = self._pick()
            if v == -1:
                return True
            self.free ^= 1 << v
            fresh = ((used & low) + 1) & low | (((used >> t) + 1) << t) & ((1 << self.k) - 1)
            stack.append((v, used, _bits(dom[v] & (used | fresh)), []))
            while stack:
                v, used, colors, changed = stack[-1]
                for u in changed:
                    dom[u] |= 1 << self.color[v]
                changed.clear()
                c = next(colors, -1)
                if c == -1:  # every color of v failed
                    self.color[v] = -1
                    self.free ^= 1 << v
                    stack.pop()
                    continue
                self.color[v] = c
                bit = 1 << c
                rest = self.adj[v] & self.free
                while rest:  # lowest first: `changed` orders the Hall seeds
                    b = rest & -rest
                    rest ^= b
                    u = b.bit_length() - 1
                    if dom[u] & bit:
                        dom[u] ^= bit
                        changed.append(u)
                if not self._hall_violated(changed):
                    used |= bit
                    break
            else:
                return False

    def run(self) -> list[int] | None:
        self.deadline.check()
        return self.color if self._solve() else None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def _solved(work) -> dict:
    """The memo of finished solves on a graph; a throwaway dict for
    graph-likes that carry none."""
    return getattr(work, "solved", {})


def _core(g):
    """The core of `g`, the map of its vertices onto it (`group`) and the
    vertex of `g` that stands for each core vertex (`reps`): the twin
    quotient of a Beck graph; any other graph-like is its own core."""
    if isinstance(g, BeckGraph):
        return g.core(), g.group, g.reps
    return g, range(g.n), range(g.n)


def _lift(color: list[int], group, k: int) -> Coloring:
    """A coloring of the core lifted to the graph: each vertex takes the
    color of its class."""
    return Coloring(tuple(map(color.__getitem__, group)), k)


def _clique_search(work, deadline: _Deadline) -> _CliqueSearch:
    """The one clique search on `work`, run once per graph: its `result`
    is omega's witness and its `split` the best split. A search the
    deadline cuts short comes back unmemoised, with result None and its
    best clique so far."""
    memo = _solved(work)
    if "clique" not in memo:
        search = _CliqueSearch(work.n, work.adj, deadline, getattr(work, "sq0_bits", 0))
        try:
            search.run()
        except _OutOfTime:
            return search
        memo["clique"] = search
    return memo["clique"]


def max_clique(g, budget: Budget = None) -> Clique:
    """Exact maximum clique, with witness; deterministic across runs. On a
    Beck graph it is searched on the core, and each witness member is the
    first vertex of its twin class."""
    work, _, reps = _core(g)
    search = _clique_search(work, _Deadline(budget))
    if search.result is None:
        lb_w = sorted(reps[search.order[v]] for v in search.first)
        raise BudgetError("max_clique", len(lb_w), witness=lb_w)
    return Clique(tuple(reps[v] for v in search.result))


def best_clique_split(g, budget: Budget = None) -> CliqueSplit:
    """Among all maximum cliques, one maximizing the square-zero part, read
    from the same search as max_clique; on a Beck graph searched on the
    core and lifted as max_clique's witness."""
    work, _, reps = _core(g)
    search = _clique_search(work, _Deadline(budget))
    if search.split is None:
        raise BudgetError("best_clique_split", len(search.best))
    verts = tuple(reps[v] for v in search.split)
    b = tuple(v for v in verts if (g.sq0_bits >> v) & 1)
    c = tuple(v for v in verts if not (g.sq0_bits >> v) & 1)
    return CliqueSplit(Clique(verts), b, c)


def chromatic_number(g, budget: Budget = None) -> tuple[int, Coloring]:
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
    memo = _solved(g)
    if "coloring" not in memo:
        work, group, _ = _core(g)
        k, color = _chromatic(work, _Deadline(budget))
        memo["coloring"] = k, _lift(color, group, k)
    return memo["coloring"]


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
    """Per class of the coloring, whether it holds a square-zero element:
    the classes of the square-zero vertices, read off `sq0_bits`."""
    flags = [False] * coloring.k
    for v in _bits(g.sq0_bits):
        flags[coloring.class_of[v]] = True
    return flags


def s_of(g, coloring: Coloring) -> SZero:
    """Number of classes of a proper coloring containing a square-zero element."""
    if not verify_coloring(g, coloring):
        raise ContractError("s_of requires a proper coloring of the given graph")
    s = sum(class_sq0_flags(g, coloring))
    return SZero(s, s)


def min_s_optimal_coloring(g, budget: Budget = None) -> tuple[Coloring, SZero]:
    """Among proper colorings with exactly chi classes, minimize the number
    s of classes containing a square-zero element.

    s lies between the size of a largest square-zero clique, whose members
    need distinct classes, and the s of the chi-coloring. Each t from the
    floor up is decided by the k-coloring search with the square-zero
    vertices held to colors below t, the floor clique pre-colored: a
    refutation proves s > t, the first coloring found has s = t. A class
    of the core shares its square-zero flag and, lifted, its color, so the
    core's s is the whole graph's.

    One deadline covers the chromatic solve and the searches for s. Expiry
    before chi is known raises a BudgetError; after it, the best coloring
    comes back with the interval proved so far (`SZero.lower` < s).
    """
    work, group, _ = _core(g)
    deadline = _Deadline(budget)
    k, best = _chromatic(work, deadline)
    hi = len({best[v] for v in _bits(work.sq0_bits)})
    lo = min(hi, 1)  # a square-zero vertex bears a class
    try:
        floor = _sq0_clique_floor(work, deadline)
        lo = len(floor)
        while lo < hi:
            found = _KColorSearch(work.n, work.adj, k, floor, deadline, work.sq0_bits, lo).run()
            if found is None:
                lo += 1
            else:
                best, hi = found, lo
    except _OutOfTime:
        pass
    return _lift(best, group, k), SZero(hi, lo)


def _sq0_clique_floor(work, deadline: _Deadline) -> list[int]:
    """A largest clique of square-zero vertices: every coloring gives its
    members distinct classes."""
    verts = list(_bits(work.sq0_bits))
    sub = _permute(work.adj, verts, deadline)
    return [verts[i] for i in _CliqueSearch(len(verts), sub, deadline).run()]
