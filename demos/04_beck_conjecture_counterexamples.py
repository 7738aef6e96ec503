"""Infinitely many rings with chromatic number strictly above clique number.

Beck conjectured chi = omega for every coloring ring. The 32-element local
ring built here (basis 1, x, y, z over additive orders 4, 2, 2, 2) breaks
it with omega = 5 and chi = 6; its defining relations admit two readings
of z^2, and the exact solvers pick out which one is the counterexample.
Multiplying by any nonzero reduced rings keeps the gap at exactly one, so
the counterexamples never run out. Squaring the ring widens it: AN x AN has
omega = 18 and chi = 20.
"""

from beckring import counterexample_family, make_anderson_naseer, ring_of
from beckring import build_graph, chromatic_number, max_clique

print("the two candidate readings of z^2:")
for variant in (0, 2):
    g = build_graph(make_anderson_naseer(variant))
    omega = max_clique(g).size
    chi = chromatic_number(g)[0]
    tag = "  <- the counterexample" if (omega, chi) == (5, 6) else ""
    print(f"  z^2 = {variant}: omega = {omega}, chi = {chi}{tag}")
print()

for names in ((), ("Z2",), ("Z3",), ("Z2", "Z2"), ("Z2", "Z3"), ("Z5",)):
    rep = counterexample_family([ring_of(n) for n in names])
    label = "AN" + "".join(f" x {n}" for n in names)
    direct = f", direct solve confirms {rep.direct_omega}" if rep.direct_omega is not None else ""
    print(f"{label} ({rep.product_size} elements): omega = {rep.omega}{direct}; "
          f"chi = {rep.chi} (lower bound {rep.chi_lower} met by a {rep.constructed_colors}-coloring); "
          f"gap = {rep.gap}")
print()

g = build_graph(ring_of("AN x AN"))
omega = max_clique(g).size
chi = chromatic_number(g)[0]
print(f"AN x AN ({g.n} elements): omega = {omega}, chi = {chi}; gap = {chi - omega}")
