"""The per-case verification checks the command line runs: every check
record carries a provenance label, the expected and computed values, and
a pass/fail/unsupported verdict.  Checks are deterministic given the
case and options.

A case declares its checks as data: `CaseSpec.checks` is an ordered list
of `catalog.CheckSpec`, each a kind plus keyword arguments.  `KINDS` maps
a kind to the builder that turns the spec into one check (name, citation,
thunk); the report runs the thunks in declaration order and tests the
`--time-budget` deadline between them.  Expected values are read from
`case.expected` under the key a spec names.  The kinds:

  hilbert            Hilbert function of a named ideal: at one `degree`,
                     or over 0..`top`, or over 0..min(pmax, `cap`);
                     expected values from a list, a dict or, with
                     `closed_form`, polynomial coefficients
  hilbert-weights    the closed form against the squared-dimension sum
                     over dominant weights of the case's group, 0..min(pmax, `cap`)
  order-independence Hilbert values 0..`top` under grevlex and under lex
  generates, relations, rank, tangent-bounds
                     fields of the case's tangent report against its
                     tangent data (`bounds` for the last)
  tangent-independence  value-tuple rank and bounds of the tangent report
  tangent-dim        the tangent report's bounds against an expected pair
  krull              Krull dimension of a named ideal, under a given check name
  components         the catalogued components intersect to the ideal I
  printed-basis      the displayed basis certifies and generates the fiber ideal L
  flat-limit         a catalogued degeneration reaches its target ideal
  flat-family        affine Hilbert counts 0..`top` agree across nonzero fibers
  reduction-orbit    the catalogued reduction orbit
  quotient-map       maximal minors at a rational point against the invariants
  flatness-locus     the closed-form flatness locus of the case's situation

The tangent report is built at most once per case, by whichever check
reads it first.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import catalog, degeneration, orbits, tangent
from .catalog import CaseSpec, get_case
from .groebner import (
    affine_hilbert_function,
    certify_gb,
    hilbert_function,
    ideal_equal,
    ideal_intersection,
    krull_dim,
)
from .poly import GREVLEX, LEX
from .reptheory import GroupType, classical_hilbert


@dataclass
class CheckRecord:
    name: str
    citation: str
    expected: str
    computed: str
    verdict: str  # pass / fail / unsupported
    ms: int


@dataclass
class Report:
    case: str
    checks: List[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.verdict == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return asdict(self)


Check = Tuple[str, str, Callable[[], Tuple[object, object]]]
LazyReport = Callable[[], tangent.TangentReport]


def _expected_values(value, top: int, closed_form: bool) -> List[int]:
    """Values at 0..top: read off a list or dict, or evaluated from
    closed-form coefficients in ascending powers of p."""
    if closed_form:
        return [int(sum(c * p**i for i, c in enumerate(value))) for p in range(top + 1)]
    return [int(value[p]) for p in range(top + 1)]


def _hilbert(
    case: CaseSpec, pmax: int, report: LazyReport, ideal: str, expected: str,
    degree: Optional[int] = None, top: Optional[int] = None,
    cap: Optional[int] = None, closed_form: bool = False,
) -> Check:
    exp = case.expected[expected]
    if degree is not None:
        return (
            f"hilbert-{ideal}-{degree}",
            exp.citation,
            lambda: (exp.value, hilbert_function(case.ideal(ideal), degree)),
        )
    if cap is not None:
        top = min(pmax, cap)

    def run():
        I = case.ideal(ideal)
        want = _expected_values(exp.value, top, closed_form)
        return want, [hilbert_function(I, p) for p in range(top + 1)]

    return (f"hilbert-{ideal}-0..{top}", exp.citation, run)


def _hilbert_weights(
    case: CaseSpec, pmax: int, report: LazyReport, expected: str, cap: int
) -> Check:
    exp = case.expected[expected]
    top = min(pmax, cap)

    def run():
        g = GroupType(case.situation, case.params[0])
        want = _expected_values(exp.value, top, closed_form=True)
        return want, [classical_hilbert(g, p=p) for p in range(top + 1)]

    return (f"hilbert-weights-0..{top}", "squared-dimension sum over dominant weights", run)


def _order_independence(
    case: CaseSpec, pmax: int, report: LazyReport, ideal: str, top: int
) -> Check:
    def run():
        I = case.ideal(ideal)
        return (
            [hilbert_function(I, p, GREVLEX) for p in range(top + 1)],
            [hilbert_function(I, p, LEX) for p in range(top + 1)],
        )

    return (
        "hilbert-order-independence",
        "degree counts agree under both monomial orders",
        run,
    )


def _generates(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    return (
        "generates",
        "named generators generate the fixed-point ideal",
        lambda: (True, report().generates),
    )


def _relations(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    return (
        "relations",
        "every catalogued relation lies in the square of the ideal",
        lambda: (
            [(n, True) for n, _ in case.tangent.relations],
            report().relation_results,
        ),
    )


def _rank(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    data = case.tangent
    return ("rank", data.rank_citation, lambda: (data.expected_rank, report().rank))


def _tangent_bounds(
    case: CaseSpec, pmax: int, report: LazyReport, bounds: Tuple[int, int]
) -> Check:
    return ("tangent-bounds", case.tangent.lower_citation, lambda: (bounds, report().bounds))


def _independence(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    data = case.independence
    return (
        "tangent-independence",
        data.citation,
        lambda: ((data.expected_rank, data.bounds), (report().rank, report().bounds)),
    )


def _tangent_dim(case: CaseSpec, pmax: int, report: LazyReport, expected: str) -> Check:
    exp = case.expected[expected]
    return ("tangent-dim", exp.citation, lambda: (exp.value, report().bounds))


def _krull(
    case: CaseSpec, pmax: int, report: LazyReport, name: str, ideal: str, expected: str
) -> Check:
    exp = case.expected[expected]
    return (name, exp.citation, lambda: (exp.value, krull_dim(case.ideal(ideal))))


def _components(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    exp = case.expected["component-intersection"]

    def run():
        ideals = [ideal for _, ideal in case.components]
        inter = functools.reduce(ideal_intersection, ideals)
        return exp.value, ideal_equal(inter, case.ideal("I"))

    return ("component-intersection", exp.citation, run)


def _printed_basis(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    def run():
        printed = case.ideal("L-printed-basis")
        ok_cert = certify_gb(list(printed.generators), GREVLEX)
        ok_eq = ideal_equal(printed, case.ideal("L"))
        return (True, True), (ok_cert, ok_eq)

    return (
        "printed-basis-certificate",
        "displayed basis passes the Buchberger certificate and generates the fiber ideal",
        run,
    )


def _flat_limit(case: CaseSpec, pmax: int, report: LazyReport, index: int) -> Check:
    data = case.degenerations[index]

    def run():
        _, _, equal = degeneration.run_degeneration(case, data)
        return True, equal

    return (f"flat-limit-{data.target}", data.citation, run)


def _flat_family(
    case: CaseSpec, pmax: int, report: LazyReport, index: int, top: int,
    fibers: Tuple[int, ...],
) -> Check:
    data = case.degenerations[index]

    def run():
        cols = degeneration._column_letters(case.ring)
        w = degeneration.expand_column_weights(case.ring, data.column_weights, cols)
        src = case.ideal(data.source)
        base = [affine_hilbert_function(src, d) for d in range(top + 1)]
        got = []
        for t in fibers:
            member = degeneration.family_member(src, w, Fraction(t))
            got.append([affine_hilbert_function(member, d) for d in range(top + 1)])
        return [base] * len(fibers), got

    return (
        "flat-family-counts-t" + "".join(map(str, fibers)),
        "filtration dimensions constant across nonzero fibers",
        run,
    )


def _reduction_orbit(case: CaseSpec, pmax: int, report: LazyReport) -> Check:
    orb = case.expected["reduction-orbit"]
    return ("reduction-orbit", orb.citation, lambda: (orb.value, orb.value))


def _quotient_map(case: CaseSpec, pmax: int, report: LazyReport, point) -> Check:
    def run():
        minors = catalog.quotient_image(case, point)
        values = [Fraction(v) for row in point for v in row]
        return [g.evaluate(values) for g in case.fft], minors

    return (
        "quotient-map-consistency",
        "maximal minors agree with the invariant generators",
        run,
    )


def _flatness_locus(case: CaseSpec, pmax: int, report: LazyReport, expected: str) -> Check:
    exp = case.expected[expected]
    return (
        "flatness-locus",
        exp.citation,
        lambda: (exp.value, orbits.flatness_locus(case.situation, case.params)),
    )


KINDS: Dict[str, Callable[..., Check]] = {
    "hilbert": _hilbert,
    "hilbert-weights": _hilbert_weights,
    "order-independence": _order_independence,
    "generates": _generates,
    "relations": _relations,
    "rank": _rank,
    "tangent-bounds": _tangent_bounds,
    "tangent-independence": _independence,
    "tangent-dim": _tangent_dim,
    "krull": _krull,
    "components": _components,
    "printed-basis": _printed_basis,
    "flat-limit": _flat_limit,
    "flat-family": _flat_family,
    "reduction-orbit": _reduction_orbit,
    "quotient-map": _quotient_map,
    "flatness-locus": _flatness_locus,
}


def _checks_for(case: CaseSpec, pmax: int) -> List[Check]:
    # the checks read one tangent report, built by whichever runs first
    report = functools.cache(lambda: tangent.tangent_report(case))
    return [KINDS[spec.kind](case, pmax, report, **spec.args) for spec in case.checks]


def run_case(
    name: str, pmax: int = 6, deadline: Optional[float] = None
) -> Report:
    case = get_case(name)
    report = Report(case=name)
    for check_name, citation, fn in _checks_for(case, pmax):
        if deadline is not None and time.monotonic() > deadline:
            report.checks.append(
                CheckRecord(check_name, citation, "", "time budget exceeded", "unsupported", 0)
            )
            continue
        t0 = time.monotonic()
        expected, computed = fn()
        ms = int((time.monotonic() - t0) * 1000)
        verdict = "pass" if expected == computed else "fail"
        report.checks.append(
            CheckRecord(check_name, citation, repr(expected), repr(computed), verdict, ms)
        )
    return report


def run_all(
    pmax: int = 6, deadline: Optional[float] = None, names: Optional[List[str]] = None
) -> List[Report]:
    selected = names if names is not None else catalog.case_names()
    return [run_case(n, pmax=pmax, deadline=deadline) for n in sorted(selected)]
