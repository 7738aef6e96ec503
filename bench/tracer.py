"""Spans and counters recorded from outside the program.

`install()` rebinds the public functions of each beckring module, in every
beckring module that holds them (so `report.max_clique`, `theorems.build_graph`
and calls inside the defining module all go through the wrapper), and wraps
the FiniteRing cached properties and methods on the classes. Nothing under
src/ is edited: the rebinding lives only in the traced worker process.

Spans stay in memory (`Tracer.spans`, layout described in stats.py) and are
written out by the worker at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from functools import cached_property

import numpy as np

# (module, function, span name, key source); key source "ring" reads the
# first argument as a ring, "graph" reads the first argument's .ring
FUNCTIONS = [
    ("beckring.cli", "main", "cli.main", None),
    ("beckring.dsl", "parse", "dsl.parse", None),
    ("beckring.dsl", "elaborate", "dsl.elaborate", None),
    ("beckring.dsl", "print_expr", "dsl.print_expr", None),
    ("beckring.dsl", "ring_of", "dsl.ring_of", None),
    ("beckring.rings", "make_zmod", "rings.construct", None),
    ("beckring.rings", "make_product", "rings.construct", None),
    ("beckring.rings", "make_quotient", "rings.construct", None),
    ("beckring.rings", "make_structure_ring", "rings.construct", None),
    ("beckring.rings", "make_anderson_naseer", "rings.construct", None),
    ("beckring.rings", "field_factor_count", "rings.field_factor_count", None),
    ("beckring.rings", "ideal_generate", "rings.ideal", None),
    ("beckring.rings", "ideal_product", "rings.ideal", None),
    ("beckring.rings", "ideal_power", "rings.ideal", None),
    ("beckring.graphs", "build_graph", "graphs.build_graph", "ring"),
    ("beckring.graphs", "export_graph", "graphs.export_graph", None),
    ("beckring.solvers", "max_clique", "solvers.max_clique", "graph"),
    ("beckring.solvers", "best_clique_split", "solvers.best_clique_split", "graph"),
    ("beckring.solvers", "chromatic_number", "solvers.chromatic_number", "graph"),
    ("beckring.solvers", "min_s_optimal_coloring", "solvers.min_s_optimal_coloring", "graph"),
    ("beckring.solvers", "verify_clique", "solvers.verify", None),
    ("beckring.solvers", "verify_coloring", "solvers.verify", None),
    ("beckring.solvers", "s_of", "solvers.s_of", None),
    ("beckring.theorems", "omega_product_formula", "theorems.omega_product_formula", None),
    ("beckring.theorems", "chi_bounds", "theorems.chi_bounds", None),
    ("beckring.theorems", "factor_coloring", "theorems.factor_coloring", None),
    ("beckring.theorems", "product_coloring", "theorems.product_coloring", None),
    ("beckring.theorems", "an_condition_for", "theorems.an_condition", None),
    ("beckring.theorems", "check_an_condition", "theorems.an_condition", None),
    ("beckring.theorems", "counterexample_family", "theorems.counterexample_family", None),
    ("beckring.theorems", "zn_formula", "theorems.zn_formula", None),
    ("beckring.theorems", "classify_nil_factor", "theorems.classify_nil_factor", None),
    ("beckring.theorems", "nilradical_bound", "theorems.nilradical_bound", None),
    ("beckring.theorems", "reduced_theorem_check", "theorems.reduced_theorem_check", None),
    ("beckring.report", "analyze", "report.analyze", None),
    ("beckring.report", "render_report", "report.render_report", None),
    ("beckring.oracle", "exhaustive_max_clique", "oracle.exhaustive_max_clique", None),
    ("beckring.oracle", "enumerate_maximum_cliques", "oracle.enumerate_maximum_cliques", None),
    ("beckring.oracle", "exhaustive_chromatic_number", "oracle.exhaustive_chromatic_number", None),
    ("beckring.oracle", "max_b_over_maximum_cliques", "oracle.max_b_over_maximum_cliques", None),
    ("beckring.catalog", "canonical_anderson_naseer", "catalog.canonical_anderson_naseer", None),
    ("beckring.catalog", "canonical_an_variant", "catalog.canonical_an_variant", None),
    ("beckring.catalog", "an_variant_stats", "catalog.an_variant_stats", None),
    ("beckring.catalog", "catalog_rings", "catalog.catalog_rings", None),
    ("beckring.catalog", "field_rings", "catalog.field_rings", None),
    ("beckring.catalog", "catalog_tuples", "catalog.catalog_tuples", None),
]

# FiniteRing cached properties and methods: attribute -> span name. The
# mul_table property is left out on purpose: its time counts towards the
# predicate that first needs it.
RING_PROPERTIES = {
    "zero_rel_matrix": "rings.zero_rel_matrix",
    "unit_mask": "rings.unit_mask",
    "zero_divisor_mask": "rings.zero_divisor_mask",
    "square_zero_mask": "rings.square_zero_mask",
    "nilpotent_mask": "rings.nilpotent_mask",
    "_local": "rings.is_local",
}
RING_METHODS = {
    "validate": "rings.validate",
    "nilradical": "rings.nilradical",
}
GRAPH_METHODS = {"core": "graphs.core"}


def ring_key(ring) -> str:
    return f"{ring.kind}:{ring.size}:{ring!r}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = None
        self.counts: Counter = Counter()
        self.check_s: Counter = Counter()
        self._clock = time.perf_counter

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str, key) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self._clock(), None, parent, self.request, key, False])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self._clock()
        self.stack.pop()

    def span(self, fn, name: str, key_of=None):
        budget_error = sys.modules["beckring.errors"].BudgetError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = key_of(args) if key_of is not None and args else None
            idx = self._open(name, key)
            try:
                return fn(*args, **kwargs)
            except budget_error:
                self.spans[idx][6] = True
                raise
            finally:
                self._close(idx)

        return traced

    # -- counters -------------------------------------------------------------

    def counted_scalar(self, fn, depth: list):
        """Count calls that are not nested in another counted scalar call."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            if depth[0]:
                return fn(*args)
            depth[0] = 1
            counts["rings.scalar_ops"] += 1
            try:
                return fn(*args)
            finally:
                depth[0] = 0

        return counted

    def counted_many(self, fn, counter: str, depth: list):
        """Count elements (broadcast size of the two operands) of outermost calls."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(ring, a, b):
            if depth[0]:
                return fn(ring, a, b)
            depth[0] = 1
            counts[counter] += int(np.prod(np.broadcast_shapes(np.shape(a), np.shape(b))))
            try:
                return fn(ring, a, b)
            finally:
                depth[0] = 0

        return counted

    def timed_progress(self, progress):
        """A run_suite progress callback charging each check the time since
        the previous callback (or since the wrapper was made)."""
        last = [self._clock()]

        def callback(message: str):
            now = self._clock()
            self.check_s[message.split(":", 1)[0]] += now - last[0]
            last[0] = now
            if progress is not None:
                progress(message)

        return callback


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "beckring" or name.startswith("beckring."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap the program's public names; call after importing beckring.cli."""
    import beckring.cli  # noqa: F401  (imports every layer the CLI uses)
    import beckring.oracle  # noqa: F401
    import beckring.verify  # noqa: F401
    from beckring import graphs, rings

    tracer = Tracer()
    key_sources = {"ring": lambda args: ring_key(args[0]), "graph": lambda args: ring_key(args[0].ring)}
    for module, attr, name, key in FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        _rebind(original, tracer.span(original, name, key_sources.get(key)))

    verify = sys.modules["beckring.verify"]
    original_suite = verify.run_suite

    def run_suite(*args, progress=None, **kwargs):
        return original_suite(*args, progress=tracer.timed_progress(progress), **kwargs)

    _rebind(original_suite, tracer.span(functools.wraps(original_suite)(run_suite), "verify.run_suite"))

    for attr, name in RING_PROPERTIES.items():
        prop = rings.FiniteRing.__dict__[attr]
        wrapped = cached_property(tracer.span(prop.func, name))
        wrapped.__set_name__(rings.FiniteRing, attr)
        setattr(rings.FiniteRing, attr, wrapped)
    for attr, name in RING_METHODS.items():
        setattr(rings.FiniteRing, attr, tracer.span(getattr(rings.FiniteRing, attr), name))
    for attr, name in GRAPH_METHODS.items():
        setattr(graphs.BeckGraph, attr, tracer.span(getattr(graphs.BeckGraph, attr), name))

    scalar_depth, many_depth = [0], [0]
    for cls in (rings.ZmodRing, rings.ProductRing, rings.StructureRing):
        for attr in ("add", "mul"):
            setattr(cls, attr, tracer.counted_scalar(cls.__dict__[attr], scalar_depth))
        cls.mul_many = tracer.counted_many(cls.__dict__["mul_many"], "rings.mul_many_elems", many_depth)
        cls.add_many = tracer.counted_many(cls.__dict__["add_many"], "rings.add_many_elems", many_depth)
    return tracer
