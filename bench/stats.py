"""Arithmetic of the benchmark: span self time, percentiles, ratios, intervals.

Everything here is pure: it takes plain lists and numbers, so the tests in
bench/tests can check it on hand-made inputs.

A span is a list ``[name, start, end, parent, request, key, budget_error]``:
``parent`` is the index of the enclosing span in the same list (or None),
``request`` the request id, ``key`` an identity string for the ring the call
worked on (or None) and ``budget_error`` whether a BudgetError left the call.
"""

from __future__ import annotations

import re

NAME, START, END, PARENT, REQUEST, KEY, BUDGET = range(7)

SOLVER_SPANS = (
    "solvers.max_clique",
    "solvers.best_clique_split",
    "solvers.chromatic_number",
    "solvers.min_s_optimal_coloring",
)


def without_request(spans: list, request) -> list:
    """The spans of every other request, with parent indices renumbered.

    A span's children carry its request id, so dropping one request drops
    whole subtrees and no kept span loses its parent.
    """
    new_index: dict[int, int] = {}
    out = []
    for i, s in enumerate(spans):
        if s[REQUEST] != request:
            new_index[i] = len(out)
            parent = s[PARENT]
            out.append([*s[:PARENT], None if parent is None else new_index[parent], *s[PARENT + 1:]])
    return out


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = s[PARENT]
        if p is not None:
            lo = max(s[START], spans[p][START])
            hi = min(s[END], spans[p][END])
            children.setdefault(p, []).append((lo, hi))
    out = []
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        out.append(dur - union_length(children.get(i, [])))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_time_by_name(spans: list) -> dict[str, float]:
    """Sum of span self times per span name."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME]] = out.get(s[NAME], 0.0) + t
    return out


def layer_self_times(spans: list) -> dict[str, float]:
    """Sum of span self times per layer (the span name's first component)."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = layer_of(s[NAME])
        out[layer] = out.get(layer, 0.0) + t
    return out


def _has_ancestor_in(spans: list, i: int, names) -> bool:
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def outermost_time(spans: list, names) -> float:
    """Inclusive time of spans named in `names`, counting a call nested in
    another call of the same group once (through its outermost span)."""
    names = set(names)
    return sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if s[NAME] in names and not _has_ancestor_in(spans, i, names)
    )


def count_calls(spans: list, names) -> int:
    names = set(names)
    return sum(1 for s in spans if s[NAME] in names)


def unique_ratio(spans: list, names) -> float | None:
    """Distinct (key, span name) pairs per request over calls, pooled over
    requests: sum of distinct pairs / sum of calls. None when no calls.
    With a single name this is distinct keys per request over calls."""
    names = set(names)
    calls = 0
    distinct: set = set()
    for s in spans:
        if s[NAME] in names:
            calls += 1
            distinct.add((s[REQUEST], s[KEY], s[NAME]))
    return len(distinct) / calls if calls else None


def budget_errors(spans: list, names=SOLVER_SPANS) -> int:
    """BudgetErrors leaving an outermost solver call (a nested solver's
    error that propagates through its caller counts once)."""
    names = set(names)
    return sum(
        1
        for i, s in enumerate(spans)
        if s[NAME] in names and s[BUDGET] and not _has_ancestor_in(spans, i, names)
    )


def at_reference_speed(latency: float, before: float, after: float, reference: float) -> float:
    """A latency rescaled to the machine speed at which the calibration
    kernel takes `reference` seconds, from the kernel's times just before and
    just after the request."""
    return latency * reference / ((before + after) / 2)


def fastest(pass_latencies: list[list[float]]) -> list[float]:
    """Each request's smallest latency over the passes; one list per pass,
    requests in the same order in every pass."""
    return [min(samples) for samples in zip(*pass_latencies)]


def tail_percentile(values: list[float], above: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least `above` samples strictly above it.

    Returns (percentile, value), where value is the k-th smallest sample and
    percentile = 100 * k / n, for the largest rank k that leaves `above`
    samples greater than it. None when there are too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    for k in range(n - above, 0, -1):
        v = xs[k - 1]
        if sum(1 for x in xs if x > v) >= above:
            return 100.0 * k / n, v
    return None


_INTERVAL = re.compile(r"certified interval \[(\d+), (\d+)\]")
_LOWER = re.compile(r"certified lower bound (\d+)")


def parse_budget_interval(text: str) -> tuple[int, int | None] | None:
    """(lower, upper) from a BudgetError message; upper None if uncertified."""
    m = _INTERVAL.search(text)
    if m:
        return int(m.group(1)), int(m.group(2))
    m = _LOWER.search(text)
    if m:
        return int(m.group(1)), None
    return None

