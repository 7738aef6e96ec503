"""Built-in rings: the test catalog and the canonical 32-element local ring.

The built-in local ring exists in two candidate variants (z^2 = 0 and
z^2 = 2) because its defining relations admit either reading; the
canonical one is whichever the exact solvers certify to have clique
number 5 and chromatic number 6. That choice is computed once and cached,
never assumed. Each variant is built and validated once per process, and
the canonical ring is the variant ring the solvers certified, renamed "AN".
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

from .dsl import ring_of
from .errors import CapacityError, InternalCheckError
from .graphs import build_graph
from .rings import DEFAULT_SIZE_CAP, FiniteRing, make_anderson_naseer
from .solvers import chromatic_number, max_clique

CATALOG_EXPRS = ("Z2", "Z3", "Z4", "Z8", "Z9", "Z12", "Z2[t]/(t^2)", "AN")
FIELD_EXPRS = ("Z2", "Z3", "Z5", "Z7", "Z2[t]/(t^2+t+1)")

AN_TARGET = (5, 6)


@lru_cache(maxsize=None)
def _variant_rings() -> dict[int, FiniteRing]:
    return {variant: make_anderson_naseer(variant) for variant in (0, 2)}


@lru_cache(maxsize=None)
def an_variant_stats() -> dict[int, tuple[int, int]]:
    """(clique number, chromatic number) for both z^2 variants."""
    graphs = {variant: build_graph(ring) for variant, ring in _variant_rings().items()}
    return {variant: (max_clique(g).size, chromatic_number(g)[0]) for variant, g in graphs.items()}


@lru_cache(maxsize=None)
def canonical_an_variant() -> int:
    stats = an_variant_stats()
    hits = [v for v, oc in stats.items() if oc == AN_TARGET]
    if len(hits) != 1:
        raise InternalCheckError(
            f"expected exactly one variant with (omega, chi) = {AN_TARGET}, got {stats}"
        )
    return hits[0]


@lru_cache(maxsize=None)
def canonical_anderson_naseer() -> FiniteRing:
    ring = _variant_rings()[canonical_an_variant()]
    ring.name = "AN"
    return ring


def catalog_rings(size_cap: int = DEFAULT_SIZE_CAP) -> dict[str, FiniteRing]:
    """The catalog rings of at most `size_cap` elements, built once per cap."""
    return rings_under(CATALOG_EXPRS, size_cap)


def field_rings(size_cap: int = DEFAULT_SIZE_CAP) -> dict[str, FiniteRing]:
    """The field catalog rings of at most `size_cap` elements, built once per cap."""
    return rings_under(FIELD_EXPRS, size_cap)


@lru_cache(maxsize=None)
def rings_under(exprs: tuple[str, ...], size_cap: int) -> dict[str, FiniteRing]:
    """expr -> ring for the expressions of at most `size_cap` elements; a larger
    ring is refused before any table is built or AN resolved, and left out."""
    rings = {}
    for expr in exprs:
        try:
            rings[expr] = ring_of(expr, size_cap)
        except CapacityError:
            pass
    return rings


def catalog_tuples(rings: dict[str, FiniteRing], arities, max_product: int) -> dict[str, list]:
    """Factor lists of each of `arities` in turn, drawn with repeats from `rings` in the
    dict's order, of at most `max_product` elements; keyed by names joined with " x "."""
    return {
        " x ".join(names): [rings[name] for name in names]
        for arity in arities
        for names in combinations_with_replacement(rings, arity)
        if math.prod(rings[name].size for name in names) <= max_product
    }
