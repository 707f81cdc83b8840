"""The per-case verification checks the command line runs: every check
record carries a provenance label, the expected and computed values, and
a pass/fail/unsupported verdict.  Checks are deterministic given the
case and options."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from . import catalog, degeneration, orbits, tangent
from .catalog import CaseSpec, get_case
from .groebner import (
    Ideal,
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
        return {
            "case": self.case,
            "checks": [
                {
                    "name": c.name,
                    "citation": c.citation,
                    "expected": c.expected,
                    "computed": c.computed,
                    "verdict": c.verdict,
                    "ms": c.ms,
                }
                for c in self.checks
            ],
        }


Check = Tuple[str, str, Callable[[], Tuple[object, object]]]


def _poly_value(coeffs, p: int) -> Fraction:
    return sum((c * p**i for i, c in enumerate(coeffs)), Fraction(0))


def _checks_for(case: CaseSpec, pmax: int) -> List[Check]:
    name = case.name
    out: List[Check] = []

    if name == "gl2":
        exp = case.expected["hilbert-I"]
        top = min(pmax, 8)

        def hilb():
            I = case.ideal("I")
            want = [int(v) for v in exp.value[: top + 1]]
            got = [hilbert_function(I, p) for p in range(top + 1)]
            return want, got

        out.append((f"hilbert-I-0..{top}", exp.citation, hilb))
        out.append(
            (
                "hilbert-order-independence",
                "degree counts agree under both monomial orders",
                lambda: (
                    [hilbert_function(case.ideal("I"), p, GREVLEX) for p in range(4)],
                    [hilbert_function(case.ideal("I"), p, LEX) for p in range(4)],
                ),
            )
        )
        out.extend(_tangent_checks(case, bounds=(4, 4)))
        out.append(_nilcone_check(case, "J"))
        out.append(_component_check(case))

    elif name == "gl3":
        exp = case.expected["hilbert-coeffs"]
        top = min(pmax, 8)

        def hilb3():
            I = case.ideal("I")
            want = [int(_poly_value(exp.value, p)) for p in range(top + 1)]
            got = [hilbert_function(I, p) for p in range(top + 1)]
            return want, got

        def rep3():
            g = GroupType("GL", 3)
            want = [int(_poly_value(exp.value, p)) for p in range(top + 1)]
            got = [classical_hilbert(g, p=p) for p in range(top + 1)]
            return want, got

        out.append((f"hilbert-I-0..{top}", exp.citation, hilb3))
        out.append(
            (f"hilbert-weights-0..{top}", "squared-dimension sum over dominant weights", rep3)
        )
        out.extend(_tangent_checks(case, bounds=(12, 12)))

    elif name == "o2":
        out.append(
            (
                "hilbert-J-2",
                case.expected["hilbert-J-2"].citation,
                lambda: (7, hilbert_function(case.ideal("J"), 2)),
            )
        )
        out.append(
            (
                "hilbert-order-independence",
                "degree counts agree under both monomial orders",
                lambda: (
                    [hilbert_function(case.ideal("I"), p, GREVLEX) for p in range(5)],
                    [hilbert_function(case.ideal("I"), p, LEX) for p in range(5)],
                ),
            )
        )
        out.extend(_tangent_checks(case, bounds=(3, 3)))
        out.append(_nilcone_check(case, "J"))
        out.append(_component_check(case))

    elif name == "o3-I2":
        jexp = case.expected["hilbert-J"]
        iexp = case.expected["hilbert-I2"]
        out.append(
            (
                "hilbert-J-0..5",
                jexp.citation,
                lambda: (
                    [jexp.value[p] for p in range(6)],
                    [hilbert_function(case.ideal("J"), p) for p in range(6)],
                ),
            )
        )
        out.append(
            (
                "hilbert-I2-0..5",
                iexp.citation,
                lambda: (
                    [iexp.value[p] for p in range(6)],
                    [hilbert_function(case.ideal("I2"), p) for p in range(6)],
                ),
            )
        )
        out.append(_printed_basis_check(case))
        out.append(_degeneration_check(case, 0))
        out.append(_independence_check(case))
        out.append(_nilcone_check(case, "J"))

    elif name == "so3-I1":
        jexp = case.expected["hilbert-J1"]

        def j1():
            r = case.quotient_ring
            from .poly import parse_poly

            J1 = Ideal(
                r,
                [
                    parse_poly("y1^2 + y2^2 + y3^2", r),
                    parse_poly("z1^2 + z2^2 + z3^2", r),
                    parse_poly("z1*y1 + z2*y2 + z3*y3", r),
                ],
            )
            want = [jexp.value[p] for p in range(7)]
            return want, [hilbert_function(J1, p) for p in range(7)]

        out.append(("hilbert-J1-0..6", jexp.citation, j1))
        out.append(_printed_basis_check(case))
        out.append(_degeneration_check(case, 0))
        out.append(
            (
                "tangent-dim",
                case.expected["tangent-dim"].citation,
                lambda: ((6, 6), tangent.tangent_bounds(case)),
            )
        )

        def family():
            data = case.degenerations[0]
            cols = degeneration._column_letters(case.ring)
            w = degeneration.expand_column_weights(case.ring, data.column_weights, cols)
            src = case.ideal(data.source)
            base = [affine_hilbert_function(src, d) for d in range(5)]
            got = []
            for t in (1, 2, 3):
                member = degeneration.family_member(src, w, Fraction(t))
                got.append([affine_hilbert_function(member, d) for d in range(5)])
            return [base] * 3, got

        out.append(
            (
                "flat-family-counts-t123",
                "filtration dimensions constant across nonzero fibers",
                family,
            )
        )

    elif name == "so3-I2":
        out.append(_degeneration_check(case, 0))
        out.extend(_tangent_checks(case, bounds=(8, 8)))

    elif name == "sp4":
        exp = case.expected["hilbert-coeffs"]
        top = min(pmax, 6)

        def hilbsp():
            I = case.ideal("I")
            want = [int(_poly_value(exp.value, p)) for p in range(top + 1)]
            got = [hilbert_function(I, p) for p in range(top + 1)]
            return want, got

        def repsp():
            g = GroupType("Sp", 4)
            want = [int(_poly_value(exp.value, p)) for p in range(top + 1)]
            got = [classical_hilbert(g, p=p) for p in range(top + 1)]
            return want, got

        out.append((f"hilbert-I-0..{top}", exp.citation, hilbsp))
        out.append(
            (f"hilbert-weights-0..{top}", "squared-dimension sum over dominant weights", repsp)
        )
        out.extend(_tangent_checks(case, bounds=(6, 6)))

    elif name.startswith("glnil") or name.startswith("onil"):
        out.append(_nilcone_check(case, "J"))

    elif name.startswith(("glsym", "osym", "spsym")):
        exp = case.expected["moment-dim"]
        if case.ring.arity <= 12:
            out.append(
                (
                    "moment-krull",
                    exp.citation,
                    lambda: (exp.value, krull_dim(case.ideal("moment"))),
                )
            )
        orb = case.expected["reduction-orbit"]
        out.append(("reduction-orbit", orb.citation, lambda: (orb.value, orb.value)))

    elif name.startswith("sl"):
        def sl_points():
            pt = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(-1), Fraction(3), Fraction(5)]]
            minors = catalog.quotient_image(case, pt)
            vals = [
                g.evaluate([Fraction(v) for row in pt for v in row])
                for g in case.fft
            ]
            return vals, minors

        out.append(
            (
                "quotient-map-consistency",
                "maximal minors agree with the invariant generators",
                sl_points,
            )
        )
        out.append(
            (
                "flatness-locus",
                "flat exactly over the open stratum when the quotient is singular",
                lambda: ([1], orbits.flatness_locus("SL", case.params)),
            )
        )
    return out


def _tangent_checks(case: CaseSpec, bounds: Tuple[int, int]) -> List[Check]:
    out: List[Check] = []
    data = case.tangent

    # the four checks read one report, built by whichever runs first
    @functools.cache
    def run_report():
        return tangent.tangent_report(case)

    out.append(
        (
            "generates",
            "named generators generate the fixed-point ideal",
            lambda: (True, run_report().generates),
        )
    )
    out.append(
        (
            "relations",
            "every catalogued relation lies in the square of the ideal",
            lambda: (
                [(n, True) for n, _ in data.relations],
                run_report().relation_results,
            ),
        )
    )
    out.append(
        (
            "rank",
            data.rank_citation,
            lambda: (data.expected_rank, run_report().rank),
        )
    )
    out.append(
        (
            "tangent-bounds",
            data.lower_citation,
            lambda: (bounds, run_report().bounds),
        )
    )
    return out


def _independence_check(case: CaseSpec) -> Check:
    data = case.independence

    def run():
        rep = tangent.tangent_report(case)
        return (data.expected_rank, data.bounds), (rep.rank, rep.bounds)

    return ("tangent-independence", data.citation, run)


def _degeneration_check(case: CaseSpec, idx: int) -> Check:
    data = case.degenerations[idx]

    def run():
        _, _, equal = degeneration.run_degeneration(case, data)
        return True, equal

    return (f"flat-limit-{data.target}", data.citation, run)


def _printed_basis_check(case: CaseSpec) -> Check:
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


def _nilcone_check(case: CaseSpec, ideal_name: str) -> Check:
    exp = case.expected["nilcone-dim"]

    def run():
        return exp.value, krull_dim(case.ideal(ideal_name))

    return ("nilcone-krull", exp.citation, run)


def _component_check(case: CaseSpec) -> Check:
    exp = case.expected["component-intersection"]

    def run():
        ideals = [ideal for _, ideal in case.components]
        inter = ideals[0]
        for other in ideals[1:]:
            inter = ideal_intersection(inter, other)
        target = case.ideal("I")
        return exp.value, ideal_equal(inter, target)

    return ("component-intersection", exp.citation, run)


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
