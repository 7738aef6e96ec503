"""Built-in rings: the test catalog, and the check behind AN.

AN, the canonical 32-element local ring, is the z^2 variant
rings.AN_VARIANT, fixed in the code; `an_variant_stats` solves both
variants, and acceptance criterion 1 checks them against that constant.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .dsl import canonical_anderson_naseer  # noqa: F401  (re-exported)
from .dsl import held_factor, parse
from .errors import CapacityError
from .graphs import build_graph
from .rings import AN_VARIANT, DEFAULT_SIZE_CAP, FiniteRing, make_anderson_naseer
from .solvers import chromatic_number, max_clique

CATALOG_EXPRS = ("Z2", "Z3", "Z4", "Z8", "Z9", "Z12", "Z2[t]/(t^2)", "AN")
FIELD_EXPRS = ("Z2", "Z3", "Z5", "Z7", "Z2[t]/(t^2+t+1)")


def an_variant_stats() -> dict[int, tuple[int, int]]:
    """(clique number, chromatic number) of both z^2 variants, each of a new
    ring whose core takes its memo from the table of cores: a later call in
    the process reads the first one's searches while the table holds them."""
    graphs = {variant: build_graph(make_anderson_naseer(variant)) for variant in (0, 2)}
    return {variant: (max_clique(g).size, chromatic_number(g)[0]) for variant, g in graphs.items()}


def canonical_an_variant() -> int:
    """The z^2 of AN, fixed as rings.AN_VARIANT."""
    return AN_VARIANT


def catalog_rings(size_cap: int = DEFAULT_SIZE_CAP) -> dict[str, FiniteRing]:
    """The catalog rings of at most `size_cap` elements."""
    return rings_under(CATALOG_EXPRS, size_cap)


def field_rings(size_cap: int = DEFAULT_SIZE_CAP) -> dict[str, FiniteRing]:
    """The field catalog rings of at most `size_cap` elements."""
    return rings_under(FIELD_EXPRS, size_cap)


def rings_under(exprs: tuple[str, ...], size_cap: int) -> dict[str, FiniteRing]:
    """expr -> ring for the expressions of at most `size_cap` elements, each
    atom from the table of factors (`dsl.held_factor`); a larger ring is
    refused before any table is built, and left out."""
    rings = {}
    for expr in exprs:
        try:
            rings[expr] = held_factor(parse(expr), size_cap)
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
