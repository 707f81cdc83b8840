"""The acceptance gate: one test per criterion, each printing a verdict
line.  Every tolerance is exact.

Criterion 11's second half asserts a displayed two-component intersection
identity that is provably false as displayed (the intersection of the two
thick-line ideals strictly contains the fixed-point ideal: the monomial
x1*y2 separates them, and equality needs a third, embedded component at
the origin).  The check is implemented faithfully and is expected to
fail; see the companion test for the corrected identity.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from classinv import catalog, degeneration, orbits, tangent
from classinv.catalog import get_case
from classinv.groebner import (
    Ideal,
    affine_hilbert_function,
    certify_gb,
    hilbert_function,
    ideal_equal,
    ideal_intersection,
    krull_dim,
)
from classinv.poly import GREVLEX, LEX, Polynomial, initial_form, parse_poly, ring
from classinv.reptheory import GroupType, classical_hilbert


def verdict(n: int, ok: bool, label: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n}: {label}"


def poly_eval(coeffs, p):
    return sum((Fraction(c) * p**i for i, c in enumerate(coeffs)), Fraction(0))


def test_criterion_01_gl3_hilbert():
    case = get_case("gl3")
    I = case.ideal("I")
    coeffs = case.expected["hilbert-coeffs"].value
    g3 = GroupType("GL", 3)
    ok = True
    for p in range(7):
        want = poly_eval(coeffs, p)
        ok = ok and hilbert_function(I, p) == want == classical_hilbert(g3, p=p)
    verdict(1, ok, "rank-three bilinear Hilbert function, degrees 0..6")


def test_criterion_02_sp4_hilbert():
    case = get_case("sp4")
    I = case.ideal("I")
    coeffs = case.expected["hilbert-coeffs"].value
    sp = GroupType("Sp", 4)
    ok = hilbert_function(I, 1) == 16 and hilbert_function(I, 2) == 125
    for p in range(6):
        want = poly_eval(coeffs, p)
        ok = ok and hilbert_function(I, p) == want == classical_hilbert(sp, p=p)
    verdict(2, ok, "symplectic quadruple Hilbert function, degrees 0..5")


def test_criterion_03_o3_hilbert():
    case = get_case("o3-I2")
    J = case.ideal("J")
    I2 = case.ideal("I2")
    cubic = lambda p: 3 * p**3 + Fraction(5, 2) * p**2 + Fraction(3, 2) * p + 2
    ok = hilbert_function(J, 0) == 1 and hilbert_function(J, 3) == 111
    for p in (1, 2, 4, 5):
        ok = ok and hilbert_function(J, p) == cubic(p)
    for p, want in [(0, 1), (1, 9), (2, 34), (3, 75)]:
        ok = ok and hilbert_function(I2, p) == want
    for p in (4, 5):
        ok = ok and hilbert_function(I2, p) == 8 * p**2 + 2
    verdict(3, ok, "orthogonal-triple Hilbert data for the invariant and fixed-point ideals")


def test_criterion_04_so3_quotient_hilbert():
    case = get_case("so3-I1")
    r = case.ideal("J1").ring
    J1 = Ideal(
        r,
        [
            parse_poly("y1^2 + y2^2 + y3^2", r),
            parse_poly("z1^2 + z2^2 + z3^2", r),
            parse_poly("z1*y1 + z2*y2 + z3*y3", r),
        ],
    )
    ok = hilbert_function(J1, 0) == 1
    for p in range(1, 7):
        ok = ok and hilbert_function(J1, p) == 4 * p**2 + 2
    verdict(4, ok, "six-variable quotient Hilbert function 4p^2 + 2")


def test_criterion_05_gl2_hilbert():
    case = get_case("gl2")
    I = case.ideal("I")
    g2 = GroupType("GL", 2)
    values = [hilbert_function(I, p) for p in range(9)]
    from classinv.reptheory import enumerate_dominant

    ok = values[:3] == [1, 8, 29]
    for p in range(9):
        want = sum((w.coords[0] - w.coords[1] + 1) ** 2 for w in enumerate_dominant(g2, p))
        ok = ok and values[p] == want == classical_hilbert(g2, p=p)
    verdict(5, ok, "rank-two bilinear Hilbert function, degrees 0..8")


def test_criterion_06_degenerations():
    ok = True
    for name in ("o3-I2", "so3-I1", "so3-I2"):
        case = get_case(name)
        for data in case.degenerations:
            _, _, equal = degeneration.run_degeneration(case, data)
            ok = ok and equal
    verdict(6, ok, "three flat limits reproduce the catalogued fixed points")


def test_criterion_07_tangent_suite():
    ok = True
    ranks = {"gl2": 3, "gl3": 17, "o2": 2, "so3-I2": 12, "sp4": 5}
    bounds = {"gl2": (4, 4), "gl3": (12, 12), "o2": (3, 3), "so3-I2": (8, 8), "sp4": (6, 6)}
    for name, want in ranks.items():
        rep = tangent.tangent_report(name)
        ok = ok and rep.generates in (None, True)
        ok = ok and all(passed for _, passed in rep.relation_results)
        ok = ok and rep.rank >= want
        ok = ok and rep.bounds == bounds[name]
    ok = ok and tangent.tangent_bounds("o3-I2") == (7, 8)
    ok = ok and tangent.tangent_report("o3-I2").rank == 7
    ok = ok and tangent.tangent_bounds("so3-I1") == (6, 6)
    verdict(7, ok, "relations, ranks, and concluded tangent dimensions")


def test_criterion_08_dimension_cross_checks():
    ok = True
    for name in (
        "gl2",
        "glnil-2-2-1",
        "glnil-1-1-1",
        "glnil-1-2-2",
        "glnil-1-3-3",
        "o2",
        "onil-3-2",
    ):
        case = get_case(name)
        want = case.expected["nilcone-dim"].value
        ok = ok and krull_dim(case.ideal("J")) == want
    for name in ("glsym-n2-d2", "glsym-n1-d2"):
        case = get_case(name)
        want = case.expected["moment-dim"].value
        ok = ok and krull_dim(case.ideal("moment")) == want
    verdict(8, ok, "nine leading-term dimensions match the closed forms")


def test_criterion_09_orbit_calculus():
    from tests_support_orbits import all_partitions, centralizer_codim

    ok = True
    for d in (3, 4):
        lab = orbits.OrbitLabel("gl", d, orbits.Partition((2,) + (1,) * (d - 2)))
        ok = ok and orbits.orbit_dim(lab) == 2 * d - 2
    for N, d in [(1, 2), (2, 3), (2, 2)]:
        lab = orbits.OrbitLabel(
            "sp", 2 * d, orbits.Partition((2,) * N + (1,) * (2 * (d - N)))
        )
        ok = ok and orbits.orbit_dim(lab) == N * (2 * d + 1 - N)
    for d in (2, 4):
        lab = orbits.OrbitLabel("so", 2 * d, orbits.Partition((2,) * d), tag="I")
        ok = ok and orbits.orbit_dim(lab) == d * (d - 1)
    for m in range(1, 5):
        for parts in all_partitions(m):
            lab = orbits.OrbitLabel("gl", m, orbits.Partition(parts))
            ok = ok and orbits.orbit_dim(lab) == centralizer_codim(parts)
    verdict(9, ok, "orbit dimensions including the centralizer brute force")


def test_criterion_10_predicates():
    ok = orbits.gorenstein("GL", (2, 3, 3)) and not orbits.gorenstein("GL", (2, 3, 4))
    ok = ok and orbits.gorenstein("O", (2, 5)) and not orbits.gorenstein("O", (2, 4))
    for n in range(1, 6):
        for d in range(1, 6):
            lab = orbits.symplectic_reduction_orbit("O", n, d)
            ok = ok and orbits.has_symplectic_resolution(lab) == (min(d, n) == d)
    for nh in range(1, 6):
        for d in range(1, 6):
            labs = orbits.symplectic_reduction_orbit("Sp", nh, d)
            labs = labs if isinstance(labs, tuple) else (labs,)
            for lab in labs:
                ok = ok and orbits.has_symplectic_resolution(lab) == (d <= 2 * nh + 1)
    verdict(10, ok, "duality and resolution predicates over the parameter sweep")


def test_criterion_11_gl2_intersection():
    case = get_case("gl2")
    ideals = [ideal for _, ideal in case.components]
    inter = ideals[0]
    for other in ideals[1:]:
        inter = ideal_intersection(inter, other)
    ok = ideal_equal(inter, case.ideal("I"))
    verdict(11, ok, "four-component intersection identity (rank-two bilinear case)")


def test_criterion_11_o2_intersection_as_displayed():
    # Faithful check of the displayed two-component identity for the
    # hyperbolic-plane case.  The identity is provably false as displayed:
    # x1*y2 lies in both components but not in the fixed-point ideal, so
    # this check fails; the corrected identity (with the embedded
    # component at the origin) is verified by the companion test below.
    case = get_case("o2")
    a, b = (ideal for _, ideal in case.components)
    inter = ideal_intersection(a, b)
    ok = ideal_equal(inter, case.ideal("I"))
    verdict(11, ok, "two-component intersection identity exactly as displayed")


def test_criterion_11_o2_corrected_intersection():
    case = get_case("o2")
    r = case.ring
    a, b = (ideal for _, ideal in case.components)
    I = case.ideal("I")
    # the difference is exactly the degree-two monomial x1*y2 ...
    inter = ideal_intersection(a, b)
    bigger = Ideal(r, list(I.generators) + [parse_poly("x1*y2", r)])
    assert ideal_equal(inter, bigger)
    # ... and adding the embedded component at the origin restores equality
    cubics = []
    for combo in combinations_with_replacement(range(4), 3):
        e = [0] * 4
        for v in combo:
            e[v] += 1
        cubics.append(Polynomial(r, {tuple(e): Fraction(1)}))
    embedded = Ideal(r, list(I.generators) + cubics)
    fixed = ideal_intersection(inter, embedded)
    assert ideal_equal(fixed, I)


def test_criterion_12_property_suites():
    ok = True
    # Buchberger certificate on every catalogued printed basis
    for name in ("o3-I2", "so3-I1"):
        case = get_case(name)
        printed = case.ideal("L-printed-basis")
        ok = ok and certify_gb(list(printed.generators), GREVLEX)
        ok = ok and ideal_equal(printed, case.ideal("L"))
    # initial-form multiplicativity on 100 seeded random pairs
    rng = random.Random(20120)
    r = ring("a", "b", "c")
    w = [-3, -2, 1]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            coeff = Fraction(rng.randint(-9, 9))
            if coeff:
                terms[m] = coeff
        return Polynomial(r, terms)

    for _ in range(100):
        p, q = rand_poly(), rand_poly()
        ok = ok and initial_form(p * q, w) == initial_form(p, w) * initial_form(q, w)
    # order-independence of the degree counts
    for name in ("o2", "gl2"):
        I = get_case(name).ideal("I")
        for p in range(4):
            ok = ok and hilbert_function(I, p, GREVLEX) == hilbert_function(I, p, LEX)
    # flat-family filtration counts at t = 1, 2, 3 up to degree 4
    case = get_case("so3-I1")
    data = case.degenerations[0]
    wexp = degeneration.expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    L = case.ideal("L")
    base = [affine_hilbert_function(L, d) for d in range(5)]
    for t in (1, 2, 3):
        member = degeneration.family_member(L, wexp, Fraction(t))
        ok = ok and [affine_hilbert_function(member, d) for d in range(5)] == base
    verdict(12, ok, "certificates, multiplicativity, order-independence, flat family")
