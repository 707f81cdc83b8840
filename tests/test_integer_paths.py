"""The integer arithmetic at the boundary between `Polynomial` and the
packed engine gives exactly what the Fraction formulas give: family
members term for term, packed polynomials, the exponent limit of a packed
monomial, and the printed text of a polynomial."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from classinv.catalog import case_names, get_case
from classinv.degeneration import certified_basis, expand_column_weights, family_member
from classinv.groebner import Ideal, _Engine, _pack, _unpack
from classinv.poly import (
    GREVLEX,
    LEX,
    Polynomial,
    Ring,
    parse_poly,
    ring,
    serialize,
    weighted_order,
)

FAMILIES = ("o3-I2", "so3-I1", "so3-I2")
COLUMN_WEIGHTS = ((-1, -1, -1), (-3, -2, -1), (-1, -4, -6), (-5, -5, -2))
PARAMETERS = (Fraction(1), Fraction(2), Fraction(5), Fraction(3, 2), Fraction(-2, 3))


def fraction_member(ideal, w, t):
    """The member by the Fraction formula c * t^k, k the weight offset."""
    gens = []
    for g in certified_basis(ideal, w):
        weights = {m: sum(wi * e for wi, e in zip(w, m)) for m in g.terms}
        mu = min(weights.values())
        gens.append(
            Polynomial(g.ring, {m: c * t ** (weights[m] - mu) for m, c in g.terms.items()})
        )
    return gens


def assert_same_member(ideal, w, t):
    got = family_member(ideal, w, t).generators
    want = fraction_member(ideal, w, t)
    assert len(got) == len(want)
    for g, h in zip(got, want):
        assert g.terms == h.terms
        assert all(type(c) is Fraction for c in g.terms.values())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("column_weights", COLUMN_WEIGHTS)
def test_family_member_matches_the_fraction_formula(family, column_weights):
    case = get_case(family)
    w = expand_column_weights(case.ring, column_weights, ["x", "y", "z"])
    for t in PARAMETERS:
        assert_same_member(case.ideal("L"), w, t)


def test_family_member_with_fractional_basis_coefficients():
    r = ring("x", "y", "z")
    ideal = Ideal(
        r, [parse_poly(s, r) for s in ("2*x^2 - 3*y + 1", "3*y^2 - 2*x*z", "5*z^2 + x - 7")]
    )
    for w in ([-1, -2, -3], [-3, -1, -1], [-2, -2, -5]):
        # the compatible basis carries denominators, so integral t scales
        # through Fraction(n, d) too
        assert any(
            c.denominator > 1 for g in certified_basis(ideal, w) for c in g.terms.values()
        )
        for t in PARAMETERS + (Fraction(-7), Fraction(7, 4)):
            assert_same_member(ideal, w, t)


# ---- packing ------------------------------------------------------------


@pytest.mark.parametrize("e", [128, 255, 256, 1000])
def test_pack_rejects_a_large_exponent(e):
    with pytest.raises(OverflowError):
        _pack((3, e, 0))
    with pytest.raises(OverflowError):
        _pack((e,))


def test_pack_round_trips_127():
    for m in ((127,), (0, 127, 5), (127,) * 20):
        assert _unpack(_pack(m), len(m)) == m


def fraction_from_poly(p):
    """(d, s) with p = s * d by the general rule: scale by the lcm of the
    denominators, then divide out the content."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    d = {_pack(m): int(c * den) for m, c in p.terms.items()}
    g = gcd(*d.values())
    return {m: c // g for m, c in d.items()}, Fraction(g, den)


def random_poly(rng, r, integral):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        m = tuple(rng.randint(0, 4) for _ in range(r.arity))
        num = rng.choice((-1, 1)) * rng.randint(1, 30)
        terms[m] = Fraction(num) if integral else Fraction(num, rng.randint(1, 12))
    return Polynomial(r, terms)


def test_from_poly_matches_the_general_rule():
    rng = random.Random(17)
    r = ring("a", "b", "c", "d")
    engine = _Engine(r, GREVLEX)
    for k in range(200):
        p = random_poly(rng, r, integral=k % 2 == 0)
        assert engine.from_poly(p) == fraction_from_poly(p)


# ---- printed text -------------------------------------------------------


def fraction_format_monomial(m, ring_):
    parts = []
    for name, e in zip(ring_.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def fraction_serialize(p, order=GREVLEX):
    """`serialize` as it read on Fractions: compare, negate, `str`."""
    if p.is_zero():
        return "0"
    chunks = []
    for m, c in p.iter_terms(order):
        mono = fraction_format_monomial(m, p.ring)
        neg = c < 0
        a = -c if neg else c
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


PRINT_RING = Ring(("x1", "x2", "y", "z10"))
PRINTED = (
    "0",
    "1",
    "-1",
    "7",
    "-3/4",
    "x1",
    "-x1",
    "x1 - 1",
    "-x2^3 + 1/2",
    "-y*z10 - 5/3*x1^2*x2 + 12",
    "x1^2 - 2*x1*x2 + x2^2 - 1",
    "-1/7*x1^127 + 3*y^12*z10 - 2/9*z10 - 1",
    "2/3*x1*x2*y*z10 - x1*x2*y*z10^2 + 1000000000000*y",
)
ORDERS = (GREVLEX, LEX, weighted_order([-1, -2, 3, 0]))


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_serialize_matches_the_fraction_form(order):
    for text in PRINTED:
        p = parse_poly(text, PRINT_RING)
        assert serialize(p, order) == fraction_serialize(p, order)
    rng = random.Random(2012)
    for k in range(200):
        p = random_poly(rng, PRINT_RING, integral=k % 3 == 0)
        assert serialize(p, order) == fraction_serialize(p, order)


def test_serialize_keeps_its_canonical_text():
    p = parse_poly("-y*z10 - 5/3*x1^2*x2 + 12", PRINT_RING)
    assert serialize(p) == "-5/3*x1^2*x2 - y*z10 + 12"
    assert serialize(-p) == "5/3*x1^2*x2 + y*z10 - 12"
    assert serialize(PRINT_RING.const(Fraction(-3, 4))) == "-3/4"


def test_serialize_matches_on_every_catalogued_polynomial():
    for name in case_names():
        case = get_case(name)
        for ideal in case.ideals.values():
            for g in ideal.generators:
                assert serialize(g) == fraction_serialize(g)
