"""The benchmark's own arithmetic, on hand-made inputs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import reference  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, request=0, key=None, budget=False):
    return [name, start, end, parent, request, key, budget]


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("report.analyze", 1.0, 5.0, parent=0),
        span("solvers.max_clique", 4.0, 7.0, parent=0),  # overlaps the first child
        span("rings.zero_rel_matrix", 9.0, 12.0, parent=0),  # runs past the parent
    ]
    self_t = stats.self_times(spans)
    # children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds
    assert self_t[0] == pytest.approx(3.0)
    assert self_t[1] == pytest.approx(4.0)
    assert stats.layer_self_times(spans)["cli"] == pytest.approx(3.0)


def test_self_time_of_nested_chain():
    spans = [
        span("theorems.chi_bounds", 0.0, 6.0),
        span("solvers.min_s_optimal_coloring", 1.0, 5.0, parent=0),
        span("solvers.chromatic_number", 2.0, 4.0, parent=1),
    ]
    assert stats.self_times(spans) == pytest.approx([2.0, 2.0, 2.0])
    assert stats.outermost_time(spans, stats.SOLVER_SPANS) == pytest.approx(4.0)


def test_union_length_merges_and_ignores_empty():
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert stats.union_length([]) == 0.0


def test_tail_percentile_leaves_ten_samples_above():
    values = [float(i) for i in range(1, 41)]  # 40 samples
    pct, value = stats.tail_percentile(values)
    assert (pct, value) == (75.0, 30.0)
    assert sum(1 for v in values if v > value) == 10


def test_tail_percentile_with_ties_and_too_few_samples():
    assert stats.tail_percentile([1.0] * 10) is None
    assert stats.tail_percentile([1.0] * 11) is None  # nothing is strictly above a tie
    values = [1.0] * 5 + [2.0] * 3 + [3.0] * 10
    pct, value = stats.tail_percentile(values)  # 18 samples; rank 8 leaves 10 above
    assert value == 2.0 and pct == pytest.approx(100 * 8 / 18)


def test_at_reference_speed_scales_by_the_mean_kernel_time_around_the_request():
    # kernel at 3 ms before and 1 ms after: the machine ran at half the
    # reference speed of 1 ms on average, so 0.4 s measured is 0.2 s
    assert stats.at_reference_speed(0.4, 0.003, 0.001, 0.001) == pytest.approx(0.2)
    assert stats.at_reference_speed(0.4, 0.001, 0.001, 0.001) == pytest.approx(0.4)


def test_fastest_takes_each_requests_minimum_over_passes():
    assert stats.fastest([[0.3, 1.0, 0.2], [0.1, 1.2, 0.2], [0.4, 0.9, 0.5]]) == [0.1, 0.9, 0.2]
    assert stats.fastest([[0.3, 0.7]]) == [0.3, 0.7]


def test_unique_solve_ratio_on_toy_spans():
    spans = [
        span("cli.main", 0, 10, request=0),
        span("solvers.max_clique", 0, 1, 0, request=0, key="A"),
        span("solvers.max_clique", 1, 2, 0, request=0, key="A"),  # repeat
        span("solvers.chromatic_number", 2, 3, 0, request=0, key="A"),
        span("solvers.max_clique", 3, 4, 0, request=0, key="B"),
        span("cli.main", 10, 20, request=1),
        span("solvers.max_clique", 11, 12, 5, request=1, key="A"),  # new request: not a repeat
        span("graphs.build_graph", 12, 13, 5, request=1, key="A"),
    ]
    # request 0: 3 distinct (ring, solver) pairs over 4 calls; request 1: 1 over 1
    assert stats.unique_ratio(spans, stats.SOLVER_SPANS) == pytest.approx(4 / 5)
    assert stats.count_calls(spans, stats.SOLVER_SPANS) == 5
    assert stats.unique_ratio([], stats.SOLVER_SPANS) is None


def test_budget_errors_count_outermost_solver_only():
    spans = [
        span("solvers.min_s_optimal_coloring", 0, 5, budget=True),
        span("solvers.chromatic_number", 1, 4, parent=0, budget=True),
        span("solvers.chromatic_number", 6, 7, budget=True),
        span("solvers.max_clique", 8, 9),
    ]
    assert stats.budget_errors(spans) == 2


def test_parse_budget_interval():
    msg = "error: time budget exhausted during chromatic_number; certified interval [18, 20]"
    assert stats.parse_budget_interval(msg) == (18, 20)
    msg = "error: time budget exhausted during max_clique; certified lower bound 7"
    assert stats.parse_budget_interval(msg) == (7, None)
    assert stats.parse_budget_interval("error: something else") is None


def test_zn_closed_form_and_reduced_rank():
    assert [reference.zn_closed_form(n) for n in (2, 4, 8, 12, 72, 4096)] == [2, 2, 3, 3, 7, 64]
    assert reference.reduced_rank("Z30") == 3
    assert reference.reduced_rank("Z12") == 0
    assert reference.reduced_rank("Z2[t]/(t^2+t+1)") == 1
    assert reference.reduced_rank("Z2[t]/(t^2)") == 0


def test_reference_validation_catches_inconsistent_entries():
    good = {"Z6": {"omega": 3, "chi_lo": 3, "chi_hi": 3}, "AN x Z2": {"omega": 6, "chi_lo": 7, "chi_hi": 7}}
    assert reference.validate(good) == []
    bad = {"Z8": {"omega": 4, "chi_lo": 4, "chi_hi": 4}, "AN x Z3": {"omega": 7, "chi_lo": 7, "chi_hi": 7}}
    assert len(reference.validate(bad)) == 2


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_and_distinct(workload):
    a = workloads.generate(workload, 3)
    assert a == workloads.generate(workload, 3)
    assert a != workloads.generate(workload, 4)
    keys = [workloads.ring_key(r["command"], r["expr"]) for r in a]
    assert len(set(keys)) == len(keys)
    assert len(a) >= 11  # the tail percentile needs ten samples above it


def test_without_request_renumbers_parents():
    spans = [
        span("catalog.canonical_anderson_naseer", 0, 1, request="setup"),
        span("solvers.max_clique", 0.2, 0.5, parent=0, request="setup"),
        span("cli.main", 2, 5, request=0),
        span("graphs.build_graph", 3, 4, parent=2, request=0, key="A"),
    ]
    kept = stats.without_request(spans, "setup")
    assert [s[stats.NAME] for s in kept] == ["cli.main", "graphs.build_graph"]
    assert kept[1][stats.PARENT] == 0
    assert stats.self_times(kept) == pytest.approx([2.0, 1.0])
