"""Product formulas, bounds, and constructions for clique and chromatic
numbers of Beck graphs, each evaluated with an explicit certificate.

The clique number of a finite product decomposes over the factors once
each factor's maximum clique is split into square-zero members B and the
rest C, picking among maximum cliques one with |B| largest:

    omega(R_1 x ... x R_n) = prod |B_i| + sum |C_i|

realized by the clique (B_1 x ... x B_n) together with each C_i embedded
on its axis; that witness is checked factor by factor, and no ring of
the product is built. The chromatic number of a product is sandwiched by

    sum chi_i - (n - 1)  <=  chi  <=  sum (chi_i - s_i) + prod s_i

where s_i counts color classes of a proper coloring of R_i containing a
square-zero element; for any number n of factors the upper bound is
realized by one explicit coloring, built from the factors' colorings at
once and re-verified on the product's graph. factor_coloring gives each
factor's coloring and s, re-verified, to analyze and verify-suite too.

Where every factor has chi_i = omega_i and its least s_i equals |B_i|, the
upper bound equals the formula's omega, and the formula's witness and that
product coloring pin omega = chi of the product with no search of it
(`pinch_product`): `analyze` searches a product's core only where the
sandwich stays open.

Each witness is verified once per graph: a witness that passed is kept in
the graph's memo (`solvers._verified_once`), so the checks of one request
that meet the same factor's coloring or split again do not verify it again.
A ring's nilpotency type and zero-product condition are computed once per
ring.
"""

from __future__ import annotations

import functools
import math
import weakref
from itertools import product as iter_product
from typing import NamedTuple

import numpy as np

from .dsl import ring_of
from .errors import CapacityError, ContractError, InternalCheckError, InvalidModulusError
from .errors import PreconditionError
from .graphs import build_graph
from .rings import AN_VARIANT, DEFAULT_SIZE_CAP, FiniteRing, _factorize, field_factor_count, make_product
from .rings import mixed_radix_strides
from .solvers import (
    Budget,
    _Deadline,
    Clique,
    CliqueSplit,
    Coloring,
    _verified_once,
    best_clique_split,
    chromatic_number,
    class_sq0_flags,
    max_clique,
    min_s_optimal_coloring,
    pinch,
    verify_clique,
    verify_coloring,
)

# direct cross-check solves are attempted only below this product size
DEFAULT_DIRECT_CAP = 512
# the counterexample family cross-checks omega by a direct solve up to this size
FAMILY_DIRECT_OMEGA_CAP = 128


def _once_per_ring(fn):
    """`fn(ring)` computed once per ring and kept while the ring lives: for
    ring predicates only, never for a graph solve."""
    kept = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def once(ring):
        if ring not in kept:
            kept[ring] = fn(ring)
        return kept[ring]

    return once


# ---------------------------------------------------------------------------
# clique number of products
# ---------------------------------------------------------------------------


class OmegaPrediction(NamedTuple):
    splits: tuple[CliqueSplit, ...]
    predicted: int
    witness: Clique
    product_size: int

    @property
    def per_factor(self) -> list[tuple[int, int, int]]:
        """(omega_i, |B_i|, |C_i|) per factor."""
        return [(s.clique.size, s.b_size, s.c_size) for s in self.splits]


def omega_product_formula(
    factors: list[FiniteRing], budget: Budget = None, size_cap: int = DEFAULT_SIZE_CAP
) -> OmegaPrediction:
    """Evaluate prod |B_i| + sum |C_i| and materialize the witness clique;
    the splits share one budget. No ring of the product is built: the
    witness is laid out in the product's encoding, and only it is held to
    `size_cap`."""
    if not factors:
        raise PreconditionError("omega_product_formula needs at least one factor")
    deadline = _Deadline(budget)
    splits = tuple(best_clique_split(build_graph(f), deadline) for f in factors)
    predicted = math.prod(s.b_size for s in splits) + sum(s.c_size for s in splits)
    if predicted > size_cap:
        raise CapacityError(f"witness clique of {predicted} vertices exceeds cap {size_cap}")
    witness = _materialize_witness(factors, splits)
    return OmegaPrediction(splits, predicted, witness, math.prod(f.size for f in factors))


def _materialize_witness(factors, splits) -> Clique:
    # members multiply to zero iff they do in every coordinate, and box
    # members share coordinates: the witness is a clique iff in each factor
    # B_i + C_i is one and every member of B_i squares to zero
    for i, (f, split) in enumerate(zip(factors, splits), 1):
        g, b_part = build_graph(f), split.b_part
        clique = tuple(sorted(b_part + split.c_part))
        if not (_verified_once(g, verify_clique, clique) and all(g.sq0_bits >> b & 1 for b in b_part)):
            raise InternalCheckError(f"witness clique check failed in factor {i}")
    strides = mixed_radix_strides([f.size for f in factors])  # the product's encoding
    box = iter_product(*[split.b_part for split in splits])
    verts = [sum(b * stride for b, stride in zip(combo, strides)) for combo in box]
    verts += [c * stride for split, stride in zip(splits, strides) for c in split.c_part]
    return Clique(tuple(sorted(verts)))


# ---------------------------------------------------------------------------
# chromatic bounds of products
# ---------------------------------------------------------------------------


class FactorColoring(NamedTuple):
    chi: int
    s: int
    s_exact: bool
    coloring: Coloring


class ChiBounds(NamedTuple):
    factors: tuple[FactorColoring, ...]
    lower: int
    upper: int
    s_mode: str


def _check_s_mode(s_mode: str) -> str:
    if s_mode not in ("any_optimal", "min_s"):
        raise PreconditionError(f"unknown s_mode {s_mode!r} (expected any_optimal or min_s)")
    return s_mode


def factor_coloring(ring: FiniteRing, s_mode: str, budget: Budget = None) -> FactorColoring:
    """chi of `ring`, a chi-coloring, re-verified, and its s: of the
    chi-coloring (any_optimal) or least over them, or the best the budget
    allowed, with `s_exact` False (min_s)."""
    g = build_graph(ring)
    if _check_s_mode(s_mode) == "min_s":
        coloring, sz = min_s_optimal_coloring(g, budget)
    else:
        coloring, sz = chromatic_number(g, budget)[1], None
    if not _verified_once(g, verify_coloring, coloring):
        raise InternalCheckError("coloring witness failed re-verification")
    s = sum(class_sq0_flags(g, coloring))
    return FactorColoring(coloring.k, s, sz is None or sz.lower == s, coloring)


def chi_bounds(
    factors: list[FiniteRing],
    s_mode: str = "any_optimal",
    budget: Budget = None,
) -> ChiBounds:
    """The sandwich bounds from each factor's coloring; the factors share
    one budget."""
    if not factors:
        raise PreconditionError("chi_bounds needs at least one factor")
    _check_s_mode(s_mode)
    deadline = _Deadline(budget)
    cols = tuple(factor_coloring(f, s_mode, deadline) for f in factors)
    n = len(cols)
    lower = sum(c.chi for c in cols) - (n - 1)
    upper = sum(c.chi - c.s for c in cols) + math.prod(c.s for c in cols)
    return ChiBounds(cols, lower, upper, s_mode)


def product_coloring(product: FiniteRing, colorings: list[Coloring]) -> Coloring:
    """The proper coloring of `product` with sum (k_i - s_i) + prod s_i
    colors, built from one proper coloring of each of its factors and
    verified once, on the product's graph.

    Each factor's square-zero-bearing classes are moved to the front
    (stably by original index), and the factors are folded in with factor
    1 innermost, as in the product's encoding. Folding a factor with s_f of
    k_f classes bearing into the product so far, with s of k, sends color
    i of the product so far and class j of the factor to s_f*i + j if both
    bear, to s*s_f + j - s_f if only i does, and to s*s_f + k_f - s_f + i - s
    otherwise: the first s*s_f colors are then exactly the bearing ones,
    already in front.
    """
    if not colorings or len(colorings) != len(product.factors):
        raise ContractError(f"{product!r} has {len(product.factors)} factors, got {len(colorings)} colorings")
    gp = build_graph(product)
    for n, (g, c) in enumerate(zip(gp.factor_graphs, colorings), 1):
        if not _verified_once(g, verify_coloring, c):
            raise ContractError(f"coloring of factor {n} is not proper for its ring")
    # the empty product, Z1: one class, holding the square-zero 0
    col, k, s = np.zeros(1, dtype=np.int64), 1, 1
    for g, c in zip(gp.factor_graphs, colorings):
        bearing = np.array(class_sq0_flags(g, c))
        sf = int(bearing.sum())
        perm = np.where(bearing, bearing.cumsum(), sf + (~bearing).cumsum()) - 1
        i, j = col[None, :], perm[np.array(c.class_of)][:, None]
        col = np.where(i >= s, s * sf + c.k - sf + i - s,
                       np.where(j < sf, sf * i + j, s * sf + j - sf)).ravel()
        k, s = s * sf + (k - s) + (c.k - sf), s * sf
    coloring = Coloring(tuple(col.tolist()), k)
    if not _verified_once(gp, verify_coloring, coloring):
        raise InternalCheckError("product coloring construction produced an improper coloring")
    return coloring


def pinch_product(gp, prediction: OmegaPrediction, bounds: ChiBounds, budget: Budget = None) -> bool:
    """Pin omega, chi, the best split and the exact min-s on `gp`, the
    graph of a whole product, from its factors and with no search of the
    product, where the sandwich closes; returns whether it did.

    `prediction` and `bounds` are the product formula and the sandwich of
    the product's factors. When every factor has chi_i = omega_i and a
    chi-coloring with s_i = |B_i|, the least s_i there is, the upper bound
    sum (chi_i - s_i) + prod s_i is prod |B_i| + sum |C_i|, the formula's
    omega: the formula's witness and the product coloring of those factor
    colorings then meet, and `solvers.pinch` verifies both on the product's
    graph and keeps them as its answers. chi_i = omega_i is read for every
    factor before any factor's min-s is sought, so a product with a factor
    whose chi exceeds its omega pays nothing."""
    if any(f.chi != split.clique.size for f, split in zip(bounds.factors, prediction.splits)):
        return False
    deadline = _Deadline(budget)
    colorings = []
    for g, split in zip(gp.factor_graphs, prediction.splits):
        coloring, sz = min_s_optimal_coloring(g, deadline)
        if sz.s != split.b_size:  # every coloring's s is at least |B_i|
            return False
        colorings.append(coloring)
    return pinch(gp, prediction.witness.vertices, product_coloring(gp.ring, colorings))


# ---------------------------------------------------------------------------
# Z_N closed form
# ---------------------------------------------------------------------------


class ZnFormula(NamedTuple):
    n: int
    value: int
    factorization: tuple[tuple[int, int], ...]


def zn_formula(n: int) -> ZnFormula:
    """prod p^floor(e/2) over the prime factorization, plus the number of
    odd-exponent primes."""
    if n < 1:
        raise InvalidModulusError(f"Z_N formula needs N >= 1, got {n}")
    factorization = _factorize(n)
    value = math.prod(p ** (e // 2) for p, e in factorization)
    value += sum(1 for _, e in factorization if e % 2 == 1)
    return ZnFormula(n, value, factorization)


# ---------------------------------------------------------------------------
# nilpotency-index lower bound
# ---------------------------------------------------------------------------


class NilFactor(NamedTuple):
    index: int
    parity: str  # "even" (index 2n) or "odd" (index 2m-1)
    param: int
    power_size: int


class NilBound(NamedTuple):
    factors: tuple[NilFactor, ...]
    r_count: int
    bound: int


@_once_per_ring
def classify_nil_factor(ring: FiniteRing) -> NilFactor:
    profile = ring.nilradical()
    m = profile.index_of_nilpotency
    param = (m + 1) // 2  # n for index 2n, m for index 2m - 1
    return NilFactor(m, "odd" if m % 2 else "even", param, profile.power_sizes[param - 1])


def nilradical_bound(factors: list[FiniteRing]) -> NilBound:
    """prod |J_i^(n_i or m_i)| + r lower-bounds the product's clique number;
    reduced factors count as odd type with m = 1 (|J^1| = 1, contributing +1)."""
    if not factors:
        raise PreconditionError("nilradical_bound needs at least one factor")
    if any(f.size < 2 for f in factors):
        raise PreconditionError("nilradical_bound needs nonzero factors")
    infos = tuple(classify_nil_factor(f) for f in factors)
    r_count = sum(1 for i in infos if i.parity == "odd")
    bound = math.prod(i.power_size for i in infos) + r_count
    return NilBound(infos, r_count, bound)


# ---------------------------------------------------------------------------
# the zero-product membership condition implying equality
# ---------------------------------------------------------------------------


class ANConditionResult(NamedTuple):
    kind: str
    param: int
    holds: bool
    membership_ok: bool
    boundary_ok: bool | None
    witness: tuple[int, int] | None


@_once_per_ring
def check_an_condition(ring: FiniteRing) -> ANConditionResult:
    """Exhaustively check, over all pairs with x*y = 0, the condition for the
    ring's own nilpotency type (`classify_nil_factor`):

    even type (index 2n, param n): x in J^n or y in J^n, and additionally
    if x not in J^(n+1) then y in J^n;
    odd type (index 2m-1, param m): x in J^m or y in J^m.
    """
    masks = ring.nil_power_masks  # masks[k - 1] is J^k
    info = classify_nil_factor(ring)
    kind, param = info.parity, info.param
    # both checks fail at an x with a zero-product partner outside J^p
    (cls, rows), outside = ring.ann_classes, ~masks[param - 1]
    has_bad = (rows & outside).any(axis=1)[cls]
    failing = has_bad & outside
    membership_ok = not failing.any()
    boundary_ok = None
    if kind == "even":
        failing_boundary = has_bad & ~masks[param]
        boundary_ok = not failing_boundary.any()
        failing |= failing_boundary
    witness = None
    if failing.any():
        x = int(np.argmax(failing))
        witness = (x, int(np.argmax(rows[cls[x]] & outside)))
    holds = membership_ok and (boundary_ok is not False)
    return ANConditionResult(kind, param, holds, membership_ok, boundary_ok, witness)


def an_condition_for(ring: FiniteRing) -> ANConditionResult:
    """`check_an_condition`, under the name the benchmark tracer wraps."""
    return check_an_condition(ring)


# ---------------------------------------------------------------------------
# reduced rings
# ---------------------------------------------------------------------------


class ReducedCheck(NamedTuple):
    r_count: int
    omega: int
    chi: int
    consistent: bool


def reduced_theorem_check(ring: FiniteRing, budget: Budget = None) -> ReducedCheck:
    """For finite reduced rings, chi = omega = (number of field factors) + 1."""
    deadline = _Deadline(budget)
    if not ring.is_reduced():
        raise PreconditionError("reduced_theorem_check requires a reduced ring")
    r_count = field_factor_count(ring)
    g = build_graph(ring)
    omega = max_clique(g, deadline).size
    chi, _ = chromatic_number(g, deadline)
    return ReducedCheck(r_count, omega, chi, omega == chi == r_count + 1)


# ---------------------------------------------------------------------------
# the counterexample family
# ---------------------------------------------------------------------------


class FamilyReport(NamedTuple):
    an_variant: int
    factor_names: tuple[str, ...]
    product_size: int
    omega: int
    chi: int
    gap: int
    chi_lower: int
    constructed_colors: int
    direct_omega: int | None


def counterexample_family(
    reduced_factors: list[FiniteRing], budget: Budget = None, size_cap: int = DEFAULT_SIZE_CAP
) -> FamilyReport:
    """The built-in local ring times any nonzero reduced rings always has
    chi exactly one above omega.

    omega comes from the product clique formula; chi is certified by
    pinching the chromatic sandwich: its lower bound sum chi_i - (n-1)
    meets the size of the product coloring that realizes its upper bound.
    No partial product is built: a direct clique solve on the product's
    graph, which that coloring was verified on, cross-checks omega when the
    product has at most FAMILY_DIRECT_OMEGA_CAP elements. All solves share
    one budget. The product, and AN when no factor is given, is held to
    `size_cap` before any factor is solved.
    """
    deadline = _Deadline(budget)
    for f in reduced_factors:
        if f.size < 2:
            raise PreconditionError("family factors must be nonzero rings")
        if not f.is_reduced():
            raise PreconditionError(f"family factor {f!r} is not reduced")
    # refused above the cap before any factor solve; the product's graph holds
    # its factors' graphs, which the formula, the bounds and the coloring share
    product = make_product([ring_of("AN", size_cap), *reduced_factors], size_cap)
    gp = build_graph(product)
    prediction = omega_product_formula(product.factors, deadline, size_cap)
    bounds = chi_bounds(product.factors, "any_optimal", deadline)
    coloring = product_coloring(product, [c.coloring for c in bounds.factors])
    if coloring.k != bounds.lower:
        raise InternalCheckError(
            f"coloring construction used {coloring.k} colors but the lower bound is {bounds.lower}"
        )

    direct_omega = max_clique(gp, deadline).size if product.size <= FAMILY_DIRECT_OMEGA_CAP else None
    return FamilyReport(
        AN_VARIANT,
        tuple(repr(f) for f in reduced_factors),
        product.size,
        prediction.predicted,
        bounds.lower,
        bounds.lower - prediction.predicted,
        bounds.lower,
        coloring.k,
        direct_omega,
    )
