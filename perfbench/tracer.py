"""Spans around calls into each classinv layer, recorded from outside the library.

`install` replaces the public functions listed in LAYERS with wrappers
that record a span (name, start, end, parent, note) in memory.  A name
is patched wherever it is looked up: `checks`, `tangent`, `degeneration`
and `cli` bind `groebner` and `catalog` functions with `from ... import`,
so every classinv module attribute bound to the original function is
replaced, not only the defining one.  `summarize` turns the spans into
the per-layer metrics listed in BENCHMARK.json.

Spans are nested because the library is single-threaded, so a span's
self time is its duration minus the durations of its direct children,
and the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List

ROOT = "workload"

# the cases whose `checks.run_case` time is reported on its own
CHECK_CASES = ("gl2", "gl3", "o2", "o3-I2", "so3-I1", "so3-I2", "sp4")

ORBIT_FUNCTIONS = (
    "valid_partition", "orbit_dim", "closure_leq", "symplectic_reduction_orbit",
    "has_symplectic_resolution", "gorenstein", "nilcone_dim", "fiber_dim",
    "flatness_locus", "flat_everywhere",
)


def _basis_note(call, args):
    """Element count of a newly computed basis; None for a cache hit."""
    ideal = args[0]
    before = len(ideal._gb)
    result = call()
    return result, (len(result) if len(ideal._gb) > before else None)


def _zero_note(call, args):
    result = call()
    return result, result.is_zero()


# (module, attribute, span name, note); an attribute "Class.method" patches a method
LAYERS = [
    ("poly", "Polynomial.__add__", "poly.arith", None),
    ("poly", "Polynomial.__sub__", "poly.arith", None),
    ("poly", "Polynomial.__mul__", "poly.arith", None),
    ("poly", "Polynomial.__rmul__", "poly.arith", None),
    ("poly", "Polynomial.term_mul", "poly.arith", None),
    ("groebner", "Ideal.groebner_basis", "groebner.basis", _basis_note),
    ("groebner", "hilbert_function", "groebner.hilbert", None),
    ("groebner", "affine_hilbert_function", "groebner.hilbert", None),
    ("groebner", "normal_form", "groebner.normal_form", _zero_note),
    ("groebner", "ideal_equal", "groebner.ideal_equal", None),
    ("groebner", "ideal_product", "groebner.ideal_product", None),
    ("groebner", "ideal_intersection", "groebner.ideal_intersection", None),
    ("groebner", "certify_gb", "groebner.certify_gb", None),
    ("groebner", "krull_dim", "groebner.krull_dim", None),
    ("tangent", "tangent_report", "tangent.tangent_report", None),
    ("tangent", "check_relation", "tangent.check_relation", None),
    ("tangent", "rank_lower_bound", "tangent.rank", None),
    ("tangent", "value_tuple_rank", "tangent.rank", None),
    ("degeneration", "flat_limit", "degeneration.flat_limit", None),
    ("degeneration", "family_member", "degeneration.family_member", None),
    ("degeneration", "certified_basis", "degeneration.certified_basis", None),
    ("degeneration", "run_degeneration", "degeneration.run_degeneration", None),
    ("degeneration", "expand_column_weights", "degeneration.expand_column_weights", None),
    ("catalog", "get_case", "catalog.get_case", None),
    ("reptheory", "classical_hilbert", "reptheory.classical_hilbert", None),
    ("checks", "run_case", lambda args: f"checks.case.{args[0]}", None),
] + [("orbits", f, f"orbits.{f}", None) for f in ORBIT_FUNCTIONS]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, note]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def start_root(self) -> None:
        self._open.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter(), 0.0, -1, None])

    def end_root(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def wrap(self, fn: Callable, name, note=None) -> Callable:
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            rec = [label, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                if note is None:
                    result = fn(*args, **kwargs)
                else:
                    result, rec[4] = note(lambda: fn(*args, **kwargs), args)
            finally:
                rec[2] = clock()
                open_.pop()
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Patch every LAYERS entry in the already imported classinv modules."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "classinv"]
    for module_name, attr, name, note in LAYERS:
        home = sys.modules[f"classinv.{module_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name, note))
            continue
        orig = getattr(home, attr)
        wrapped = tracer.wrap(orig, name, note)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)


def summarize(spans: List[list]) -> Dict[str, float]:
    """Per-layer metrics of one traced process (see BENCHMARK.json)."""
    n = len(spans)
    if n == 0 or spans[0][0] != ROOT:
        raise ValueError("trace has no root span")
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_time = [spans[i][2] - spans[i][1] - child[i] for i in range(n)]
    root_s = spans[0][2] - spans[0][1]
    if abs(sum(self_time) - root_s) > 1e-6 * max(1.0, root_s):
        raise ValueError("span self times do not add up to the root span")

    def select(pred: Callable[[str], bool]) -> List[int]:
        return [i for i in range(n) if pred(spans[i][0])]

    def calls(pred) -> int:
        return len(select(pred))

    def self_s(pred) -> float:
        return sum(self_time[i] for i in select(pred))

    def inclusive_s(pred) -> float:
        """Duration of the spans with no ancestor that also matches."""
        covered = [False] * n  # some ancestor matches
        total = 0.0
        for i in range(n):
            parent = spans[i][3]
            covered[i] = parent >= 0 and (covered[parent] or pred(spans[parent][0]))
            if pred(spans[i][0]) and not covered[i]:
                total += spans[i][2] - spans[i][1]
        return total

    def named(name: str) -> Callable[[str], bool]:
        return lambda s: s == name

    def prefixed(prefix: str) -> Callable[[str], bool]:
        return lambda s: s.startswith(prefix)

    basis = select(named("groebner.basis"))
    computed = [spans[i][4] for i in basis if spans[i][4] is not None]
    nf = select(named("groebner.normal_form"))
    out: Dict[str, float] = {
        "groebner.basis.calls": len(basis),
        "groebner.basis.computed": len(computed),
        "groebner.basis.hit_ratio": (len(basis) - len(computed)) / len(basis) if basis else 0.0,
        "groebner.basis.elements": sum(computed),
        "groebner.basis.self_s": self_s(named("groebner.basis")),
        "groebner.hilbert.calls": calls(named("groebner.hilbert")),
        "groebner.hilbert.self_s": self_s(named("groebner.hilbert")),
        "groebner.normal_form.calls": len(nf),
        "groebner.normal_form.self_s": self_s(named("groebner.normal_form")),
        "groebner.normal_form.zero_ratio": (
            sum(1 for i in nf if spans[i][4]) / len(nf) if nf else 0.0
        ),
        "groebner.ideal_equal.s": inclusive_s(named("groebner.ideal_equal")),
        "groebner.ideal_product.s": inclusive_s(named("groebner.ideal_product")),
        "groebner.ideal_intersection.s": inclusive_s(named("groebner.ideal_intersection")),
        "groebner.certify_gb.calls": calls(named("groebner.certify_gb")),
        "groebner.krull_dim.self_s": self_s(named("groebner.krull_dim")),
        "poly.arith.calls": calls(named("poly.arith")),
        "poly.arith.self_s": self_s(named("poly.arith")),
        "tangent.tangent_report.calls": calls(named("tangent.tangent_report")),
        "tangent.tangent_report.s": inclusive_s(named("tangent.tangent_report")),
        "tangent.check_relation.s": inclusive_s(named("tangent.check_relation")),
        "tangent.rank.s": inclusive_s(named("tangent.rank")),
        "degeneration.flat_limit.s": inclusive_s(named("degeneration.flat_limit")),
        "degeneration.family_member.s": inclusive_s(named("degeneration.family_member")),
        "degeneration.self_s": self_s(prefixed("degeneration.")),
        "catalog.get_case.calls": calls(named("catalog.get_case")),
        "catalog.get_case.s": inclusive_s(named("catalog.get_case")),
        "reptheory.classical_hilbert.s": inclusive_s(named("reptheory.classical_hilbert")),
        "orbits.s": inclusive_s(prefixed("orbits.")),
    }
    for case in CHECK_CASES:
        out[f"checks.case.{case}.s"] = inclusive_s(named(f"checks.case.{case}"))
    out["trace.wall_s"] = root_s
    out["trace.unattributed_s"] = self_time[0]
    return out
