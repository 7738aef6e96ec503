"""Chromatic number of a product: the sandwich and the explicit coloring.

With k_i = chi(R_i) and s_i the number of color classes of a proper
coloring of R_i containing a square-zero element,

    k_1 + k_2 - 1  <=  chi(R_1 x R_2)  <=  (k_1 - s_1) + (k_2 - s_2) + s_1 s_2

and the upper bound comes with an explicit coloring, re-verified here.
The s statistic depends on which optimal coloring you pick; both the
"whatever the solver returned" and the "minimize s" readings are shown.
"""

from beckring import (
    build_graph,
    chi_bounds,
    chromatic_number,
    make_product,
    product_coloring,
    ring_of,
    verify_coloring,
)

for names in (("Z4", "Z4"), ("Z8", "Z8"), ("Z8", "Z9"), ("Z9", "Z9"), ("Z2", "AN")):
    product = make_product([ring_of(n) for n in names])
    factors = product.factors
    label = " x ".join(names)
    g = build_graph(product)  # holds the factors' graphs, which every call below shares
    exact = chromatic_number(g)[0]
    for mode in ("any_optimal", "min_s"):
        b = chi_bounds(factors, mode)
        ss = ", ".join(f"s={f.s}" + ("" if f.s_exact else "?") for f in b.factors)
        print(f"{label} [{mode:>11}]: {b.lower} <= chi <= {b.upper}  ({ss}); exact chi = {exact}")
    b = chi_bounds(factors)
    col = product_coloring(product, [f.coloring for f in b.factors])
    ok = verify_coloring(g, col)
    print(f"{label}: constructed coloring uses {col.k} colors, proper = {ok}")
    print()
