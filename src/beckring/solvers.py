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
once per pick and the Hall check once per seed, ranking a graph's vertices
reads it between blocks of 256 adjacency rows, the clique search's set-up
once after the ranking, and expiry anywhere comes back to the caller as a
BudgetError carrying the bounds found so far.

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

DSATUR keeps saturations as bit planes over the vertices' ranks in (degree
desc, id) order, plane j holding the ranks whose saturation has bit j set,
and each color's neighbourhood as one mask: a pick walks down the planes to
the lowest rank of the highest saturation, and an update is one carry
ripple, a few n-bit int operations per plane and color, not one per edge.

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
largest square-zero clique, whose size is also the floor of s. Every
decision of min-s, and of chi above omega, runs on a kernel
(`_kernel_k_coloring`): free vertices with fewer neighbours than colors,
and free vertices whose neighbours a non-neighbour covers, come off first
and go back onto the coloring found (AN x AN at k = 19: 139 -> 72
vertices). At k = omega the pre-colored clique pins every color, the Hall
check refutes within a few seeds, and the plain search runs.

Each graph is ranked once and searched at most once. Its ranking (the vertex
order and the adjacency rows permuted into it), the finished clique search
(omega's witness and the split) and the chromatic number with its coloring
are memoised in the `solved` dict of the core they ran on: DSATUR and the
clique search run on the one ranking, and one analysis that asks for omega,
the split and chi of the same graph, or solves the same factor for two
theorem checks, pays for one clique search: omega, the split and chi's
lower bound share it. A factor atom is one ring, with one graph, in every
request of a process and for equal factors of a product
(`dsl.held_factor`), so its solves are paid for once per process, not
once per factor or per request. A core's memo is the
one the table of cores (`graphs`) gives every core with the same n,
adjacency rows and square-zero bits, so rings with one core, such as
AN x Z2 and AN x Z17, search it once per process; everything a core's
memo holds (the ranking, the clique search, chi with its coloring, the
exact min-s with its coloring, verified witnesses) reads nothing else.
Omega's witness, the
chi-coloring and the best split lifted to a graph are memoised on that
graph, so each is lifted once however often it is asked, and so is a
finished min-s with its lifted coloring. Those four answers on a graph
can also come from no search: `pinch` keeps a clique and a coloring of
equal size that verify on the graph as omega's witness and the
chi-coloring, and also as the best split and the exact min-s when the
clique's square-zero count equals the coloring's s. max_clique,
best_clique_split, chromatic_number and min_s_optimal_coloring read them
as they read their own solves, and search nothing for what is kept.
Min-s takes its floor from the split's square-zero part B, a square-zero
clique, when |B| equals the chi-coloring's s, which s then equals; only
otherwise does it search for the largest square-zero clique, cutting
that subgraph out once, in its own ranking.
A search cut short by its budget is never memoised: the BudgetError goes
to the caller, and a later call, with a larger budget, searches again. The
one answer short of its goal is min-s once chi is known: it comes back with
the interval of s proved so far, and is not memoised either. A held
factor's finished solves cost a later request nothing, so under a small
budget a request may answer, or stop with tighter bounds, where a fresh
process stops early.
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
    between blocks."""
    width = (len(adj) + 7) // 8
    cols = np.asarray(order, dtype=np.intp)
    out: list[int] = []
    for start in range(0, len(cols), _PERMUTE_BLOCK):
        if start:
            deadline.check()
        rows = b"".join(adj[v].to_bytes(width, "little") for v in order[start : start + _PERMUTE_BLOCK])
        bits = np.unpackbits(
            np.frombuffer(rows, dtype=np.uint8).reshape(-1, width), axis=1, count=len(adj), bitorder="little"
        )
        packed = np.packbits(np.take(bits, cols, axis=1), axis=1, bitorder="little")
        step, buf = packed.shape[1], packed.tobytes()
        out.extend(int.from_bytes(buf[i : i + step], "little") for i in range(0, len(buf), step))
    return out


def _ranking(n: int, adj: list[int], deadline: _Deadline, memo: dict | None) -> tuple[list[int], list[int]]:
    """The vertices in (degree desc, id) order and their rows permuted into
    it (`_permute`), made once per graph and kept in `memo` (None: kept
    nowhere): DSATUR and the clique search both run on it."""
    memo = {} if memo is None else memo
    if "ranking" not in memo:
        order = sorted(range(n), key=lambda v: (-adj[v].bit_count(), v))
        memo["ranking"] = order, _permute(adj, order, deadline)
    return memo["ranking"]


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


def _verified_once(g, check, witness) -> bool:
    """`check(g, witness)`, run once per graph and witness: a witness that
    passed is kept, by value, in the graph's memo and goes with the graph."""
    passed = _solved(g).setdefault("verified", set())
    if (check, witness) not in passed:
        if not check(g, witness):
            return False
        passed.add((check, witness))
    return True


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

    The set-up takes the graph's ranking (`_ranking`: the vertices in
    (degree desc, id) order and the adjacency rows permuted into it),
    reads the deadline, color-sorts the whole graph once for the root node,
    and grows a greedy first clique from the first vertex, of the highest
    degree. On a twin quotient, where equal rows come at most in pairs, a
    set-up per class of equal rows saves nothing.
    """

    def __init__(self, n: int, adj: list[int], deadline: _Deadline, sq0_bits: int = 0):
        self.n, self.adj, self.sq0_bits, self.deadline = n, adj, sq0_bits, deadline
        # vertex 0 alone is the clique known until run() has set up
        self.order, self.result, self.split = range(n), None, None
        self.best = self.first = [0] if n else []

    def _setup(self, memo: dict | None = None) -> None:
        """Order and remapped adjacency, then a first best clique."""
        self.order, self.radj = _ranking(self.n, self.adj, self.deadline, memo)
        self.pos = [0] * self.n
        for i, v in enumerate(self.order):
            self.pos[v] = i
        self.sq0 = _remap(self.sq0_bits, self.pos)
        self.deadline.check()
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

    def run(self, memo: dict | None = None) -> list[int]:
        """The first maximum clique, in vertex ids, sorted; kept as `result`,
        and the best clique as `split`. `memo` holds the graph's ranking."""
        if self.n:
            self._setup(memo)
            self.deadline.check()
            self._expand()
        self.result = sorted(self.order[v] for v in self.first)
        self.split = sorted(self.order[v] for v in self.best)
        return self.result


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------


def _dsatur(n: int, adj: list[int], deadline: _Deadline, memo: dict | None = None) -> list[int]:
    """Greedy DSATUR coloring: each pick is an uncolored vertex of the
    highest saturation, then the highest degree, then the lowest id, and
    takes the lowest color none of its neighbours has. Bit r of each mask
    is the vertex of rank r in the graph's ranking (kept in `memo`); the
    bit planes are the module docstring's. Ticks the deadline once per pick."""
    order, radj = _ranking(n, adj, deadline, memo)
    color = [-1] * n
    near = [0] * n  # color -> the ranks next to a vertex of that color
    planes: list[int] = []
    uncolored = (1 << n) - 1
    for _ in range(n):
        deadline.tick()
        top = uncolored
        for plane in reversed(planes):
            if top & plane:
                top &= plane
        low = top & -top
        uncolored ^= low
        c = 0
        while near[c] & low:
            c += 1
        r = low.bit_length() - 1
        color[order[r]] = c
        carry = radj[r] & uncolored & ~near[c]
        near[c] |= radj[r]
        j = 0
        while carry:
            if j == len(planes):
                planes.append(0)
            planes[j], carry = planes[j] ^ carry, planes[j] & carry
            j += 1
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
    first node. Chi above omega and min-s run it on a kernel of the graph
    (`_kernel_k_coloring`); chi at k = omega runs it on the whole graph.
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


_NARROWED = 4  # dominator candidates left when the row intersection stops


def _kernel_k_coloring(n, adj, k, clique, deadline, sq0_bits=0, t=None, memo=None) -> list[int] | None:
    """The decision of `_KColorSearch(n, adj, k, clique, deadline, sq0_bits,
    t)`, searched on its kernel: a proper k-coloring with the square-zero
    vertices below t, or None when there is none.

    Two rules remove a free vertex u (never one of the pre-colored clique)
    until neither fires; u may take t colors if it is square-zero and
    t < k, else k, and "live" means not yet removed:
    - u is peeled when it has fewer live neighbours than colors it may
      take: every coloring of the rest leaves it one;
    - u is dominated by a live non-neighbour v that neighbours every live
      neighbour of u and may take only colors u may take: u can take v's
      color in every coloring of the rest.
    Either way the rest has a coloring iff the graph had one, so the search
    runs on what is left. The removed vertices go back in reverse order,
    each next to colored vertices only where they were live when it went: a
    dominated vertex takes its dominator's color, a peeled one the lowest
    color its colored neighbours leave free, which is below the count of
    colors it may take.

    The rules run on the graph's ranking (`_ranking`, kept in `memo`), in
    rounds over the free vertices a removal touched, reading the deadline
    between rounds. A dominator must neighbour every live neighbour of u:
    the candidates are cut to the rows of those neighbours, fewest
    neighbours first (highest rank first), until at most _NARROWED are
    left, and each of those is then tested whole.
    """
    t = k if t is None else t
    order, radj = _ranking(n, adj, deadline, memo)
    pos = [0] * n
    for r, v in enumerate(order):
        pos[v] = r
    pinned = sum(1 << pos[v] for v in clique)
    sq0 = _remap(sq0_bits, pos)
    held = sq0 if t < k else 0  # the vertices that may take only colors below t
    live, removed = (1 << n) - 1, []  # removed: (vertex, its dominator or -1 if peeled)
    dirty = live ^ pinned
    while dirty:
        deadline.check()
        touched = 0
        for u in _bits(dirty):
            near = radj[u] & live
            limited = held >> u & 1
            if near.bit_count() < (t if limited else k):
                dominator = -1
            else:
                cand = live & ~near & ~(1 << u)
                if limited:
                    cand &= sq0
                rest = near
                while rest and cand.bit_count() > _NARROWED:
                    w = rest.bit_length() - 1
                    rest ^= 1 << w
                    cand &= radj[w]
                dominator = next((v for v in _bits(cand) if not near & ~radj[v]), None)
                if dominator is None:
                    continue
            live ^= 1 << u
            removed.append((u, dominator))
            touched |= near
        dirty = touched & live & ~pinned
    kernel = list(_bits(live))
    at = {r: i for i, r in enumerate(kernel)}
    rows, kept_clique = _permute(radj, kernel, deadline), [at[r] for r in _bits(pinned)]
    found = _KColorSearch(len(kernel), rows, k, kept_clique, deadline, _remap(sq0 & live, at), t).run()
    if found is None:
        return None
    color = [-1] * n
    for r, c in zip(kernel, found):
        color[r] = c
    for u, dominator in reversed(removed):
        if dominator >= 0:
            color[u] = color[dominator]
        else:
            taken = 0
            for w in _bits(radj[u]):
                if color[w] >= 0:
                    taken |= 1 << color[w]
            color[u] = (~taken & (taken + 1)).bit_length() - 1
    return [color[r] for r in pos]


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
            search.run(memo)
        except _OutOfTime:
            return search
        memo["clique"] = search
    return memo["clique"]


def max_clique(g, budget: Budget = None) -> Clique:
    """Exact maximum clique, with witness; deterministic across runs. On a
    Beck graph it is searched on the core, and each witness member is the
    first vertex of its twin class; the lifted witness is kept on `g`."""
    memo = _solved(g)
    if "omega" not in memo:
        work, _, reps = _core(g)
        search = _clique_search(work, _Deadline(budget))
        if search.result is None:
            lb_w = sorted(reps[search.order[v]] for v in search.first)
            raise BudgetError("max_clique", len(lb_w), witness=lb_w)
        memo["omega"] = Clique(tuple(reps[v] for v in search.result))
    return memo["omega"]


def best_clique_split(g, budget: Budget = None) -> CliqueSplit:
    """Among all maximum cliques, one maximizing the square-zero part, read
    from the same search as max_clique; on a Beck graph searched on the
    core and lifted as max_clique's witness, once per graph."""
    memo = _solved(g)
    if "split" not in memo:
        work, _, reps = _core(g)
        search = _clique_search(work, _Deadline(budget))
        if search.split is None:
            raise BudgetError("best_clique_split", len(search.best))
        verts = tuple(reps[v] for v in search.split)
        b = tuple(v for v in verts if (g.sq0_bits >> v) & 1)
        c = tuple(v for v in verts if not (g.sq0_bits >> v) & 1)
        memo["split"] = CliqueSplit(Clique(verts), b, c)
    return memo["split"]


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
    and k = 19 on AN x AN, whose chi is 20. Each k above omega is decided
    on a kernel: vertices that every coloring of the rest leaves a color
    come off first (`_kernel_k_coloring`; AN x AN's 139-vertex core leaves
    72 at k = 19).
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
    memo = _solved(work)
    try:
        greedy = _dsatur(work.n, work.adj, deadline, memo)
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
        try:
            if k == lb:  # the clique pins every color: no kernel is worth its build
                found = _KColorSearch(work.n, work.adj, k, clique_search.result, deadline).run()
            else:
                found = _kernel_k_coloring(work.n, work.adj, k, clique_search.result, deadline, memo=memo)
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
    need distinct classes, and the s of the chi-coloring. The square-zero
    part B of the core's best split is such a clique, so when |B| already
    equals the chi-coloring's s, s is proved with no further search.
    Otherwise each t from the floor up is decided by the k-coloring search
    with the square-zero vertices held to colors below t, the floor clique
    pre-colored, on the kernel that `_kernel_k_coloring` leaves: a
    refutation proves s > t, the first coloring found has s = t. A class of
    the core shares its square-zero flag and, lifted, its color, so the
    core's s is the whole graph's. AN x Z12 and AN x Z2 x Z8 close at s = 9
    in milliseconds; AN x AN stays in [16, 18] on a 72-vertex kernel.

    One deadline covers the chromatic solve and the searches for s. Expiry
    before chi is known raises a BudgetError; after it, the best coloring
    comes back with the interval proved so far (`SZero.lower` < s). Only an
    exact answer is memoised, on `g` and, unlifted, on its core.
    """
    memo = _solved(g)
    if "min_s" not in memo:
        deadline = _Deadline(budget)
        work, group, _ = _core(g)
        if work is g:
            answer = _min_s(g, deadline)
        else:
            coloring, sz = min_s_optimal_coloring(work, deadline)
            answer = _lift(coloring.class_of, group, coloring.k), sz
        if not answer[1].exact:  # a cut-short interval is not memoised
            return answer
        memo["min_s"] = answer
    return memo["min_s"]


def _min_s(work, deadline: _Deadline) -> tuple[Coloring, SZero]:
    """min_s_optimal_coloring on a graph that is its own core."""
    k, best = _chromatic(work, deadline)
    hi = len({best[v] for v in _bits(work.sq0_bits)})
    lo = min(hi, 1)  # a square-zero vertex bears a class
    search = _solved(work).get("clique")  # the finished clique search, if any
    try:
        if search is not None and sum(work.sq0_bits >> v & 1 for v in search.split) == hi:
            lo = hi
        else:
            floor = _sq0_clique_floor(work, deadline)
            lo = len(floor)
            while lo < hi:
                found = _kernel_k_coloring(work.n, work.adj, k, floor, deadline, work.sq0_bits, lo, _solved(work))
                if found is None:
                    lo += 1
                else:
                    best, hi = found, lo
    except _OutOfTime:
        pass
    return Coloring(tuple(best), k), SZero(hi, lo)


def _sq0_clique_floor(work, deadline: _Deadline) -> list[int]:
    """A largest clique of square-zero vertices: every coloring gives its
    members distinct classes. The subgraph is cut out once, already in its
    own (degree desc, id) ranking, which the search takes as given."""
    sq0, adj = work.sq0_bits, work.adj
    verts = list(_bits(sq0))
    deadline.check()  # _permute reads it only between blocks
    order = sorted(range(len(verts)), key=lambda i: (-(adj[verts[i]] & sq0).bit_count(), i))
    memo = {"ranking": (order, _permute(adj, [verts[i] for i in order], deadline))}
    return [verts[i] for i in _CliqueSearch(len(verts), None, deadline).run(memo)]


def pinch(g, clique, coloring: Coloring) -> bool:
    """The certificate rule, which searches nothing: a clique and a proper
    coloring of `g` of the same size pin omega = chi = that size. When both
    verify on `g` and their sizes are equal, the clique is kept as
    max_clique's answer and the coloring as chromatic_number's. If the
    clique's square-zero count also equals the coloring's s, the clique is
    the best split and the coloring's s the exact min-s: the square-zero
    members of any clique are pairwise adjacent, so they take distinct
    square-zero-bearing classes of every coloring, and no clique has more
    of them than any coloring's s. Answers `g` already has are kept.
    Returns whether the rule held; when it does not, nothing is kept."""
    vertices = tuple(sorted(clique))
    if len(vertices) != coloring.k:
        return False
    if not (_verified_once(g, verify_clique, vertices) and _verified_once(g, verify_coloring, coloring)):
        return False
    memo = _solved(g)
    memo.setdefault("omega", Clique(vertices))
    memo.setdefault("coloring", (coloring.k, coloring))
    b = tuple(v for v in vertices if g.sq0_bits >> v & 1)
    s = sum(class_sq0_flags(g, coloring))
    if len(b) == s:
        c = tuple(v for v in vertices if not g.sq0_bits >> v & 1)
        memo.setdefault("split", CliqueSplit(Clique(vertices), b, c))
        memo.setdefault("min_s", (coloring, SZero(s, s)))
    return True
