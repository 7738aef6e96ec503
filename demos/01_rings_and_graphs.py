"""Tour of ring construction and the zero-product graph.

Builds a few rings from expressions, inspects their structure, and shows
how the graph on all elements (edge iff the product vanishes) looks, along
with the core that the chromatic solver works on: one element of each
class with the same neighbours and the same square-zero flag.
"""

from beckring import build_graph, export_graph, ring_of

for expr in ("Z12", "Z2[t]/(t^2)", "Z4 x Z3", "AN"):
    ring = ring_of(expr)
    g = build_graph(ring)
    c = g.core()
    profile = ring.nilradical()
    print(f"{expr}: {ring.size} elements "
          f"(local={ring.is_local()}, reduced={ring.is_reduced()})")
    print(f"  units {int(ring.unit_mask.sum())}, "
          f"zero-divisors {int(ring.zero_divisor_mask.sum())}, "
          f"nilradical size {profile.power_sizes[0]} with index {profile.index_of_nilpotency}")
    print(f"  graph: {g.n} vertices, {g.edge_count()} edges; core keeps {c.n} vertices "
          "(one per class of twins)")

print()
print("Z4 in DIMACS form (vertex 0 is adjacent to everything; 2*2 = 0 is")
print("a self-pair, not an edge, so 2 has degree 1):")
print(export_graph(build_graph(ring_of("Z4")), "dimacs"))
