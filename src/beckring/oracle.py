"""Naive reference solvers used as independent cross-checks.

These deliberately share no machinery with the branch-and-bound solvers:
the clique oracle scans every vertex subset, the coloring oracle walks set
partitions. Both are exponential and guarded by small size caps.
"""

from __future__ import annotations

from .errors import PreconditionError

MAX_CLIQUE_ORACLE_CAP = 20
CHROMATIC_ORACLE_CAP = 12


def _is_clique(mask: int, adj: list[int]) -> bool:
    m = mask
    while m:
        b = m & -m
        v = b.bit_length() - 1
        if (mask ^ b) & ~adj[v]:
            return False
        m ^= b
    return True


def exhaustive_max_clique(g) -> tuple[int, list[int]]:
    """Maximum clique size and the first witness in subset order."""
    first = enumerate_maximum_cliques(g)[0]
    return len(first), first


def enumerate_maximum_cliques(g) -> list[list[int]]:
    """All maximum cliques, as sorted ring-element lists, in subset order."""
    n = g.n
    if n > MAX_CLIQUE_ORACLE_CAP:
        raise PreconditionError(f"clique oracle caps at {MAX_CLIQUE_ORACLE_CAP} vertices, got {n}")
    best_size, masks = 0, []
    for mask in range(1 << n):
        sz = mask.bit_count()
        if sz < best_size or not _is_clique(mask, g.adj):
            continue
        if sz > best_size:
            best_size, masks = sz, []
        masks.append(mask)
    return [
        sorted(g.element_of(v) for v in range(n) if (mask >> v) & 1)
        for mask in masks
    ]


def exhaustive_chromatic_number(g) -> int:
    """Minimum class count over all proper set partitions of the vertices."""
    n = g.n
    if n > CHROMATIC_ORACLE_CAP:
        raise PreconditionError(f"chromatic oracle caps at {CHROMATIC_ORACLE_CAP} vertices, got {n}")
    if n == 0:
        return 0
    adj = g.adj
    best = n
    color = [-1] * n

    def walk(v: int, used: int):
        nonlocal best
        if used >= best:
            return
        if v == n:
            best = used
            return
        for c in range(min(used + 1, best)):
            ok = True
            for u in range(v):
                if color[u] == c and (adj[v] >> u) & 1:
                    ok = False
                    break
            if ok:
                color[v] = c
                walk(v + 1, max(used, c + 1))
                color[v] = -1

    walk(0, 0)
    return best


def max_b_over_maximum_cliques(g) -> int:
    """Largest square-zero part over all maximum cliques (by full enumeration)."""
    mask = g.ring.square_zero_mask
    return max(
        sum(1 for e in clique if mask[e])
        for clique in enumerate_maximum_cliques(g)
    )
