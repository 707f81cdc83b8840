"""Reduced Groebner bases against sympy's `groebner` over QQ on seeded
random small ideals; weighted orders, which sympy lacks, are checked by
the Buchberger certificate and ideal equality with the grevlex basis."""

import random
from fractions import Fraction

import pytest

from classinv.groebner import Ideal, certify_gb, groebner_basis, ideal_equal
from classinv.poly import GREVLEX, LEX, Polynomial, ring, weighted_order

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z", "w")


def random_ideal(seed, homogeneous):
    """2-4 variables, 2 to (arity) generators of degree 1-3 with small
    integer coefficients: two or three terms of the top degree and, when
    inhomogeneous, one or two of lower degree."""
    rng = random.Random(seed)
    arity = 2 + seed % 3
    r = ring(*NAMES[:arity])

    def monomial(d):
        m = [0] * arity
        for _ in range(d):
            m[rng.randrange(arity)] += 1
        return tuple(m)

    gens = []
    for _ in range(rng.randint(2, arity)):
        deg = rng.randint(1, 3)
        degrees = [deg] * rng.randint(2, 3)
        if not homogeneous:
            degrees += [rng.randint(0, deg - 1) for _ in range(rng.randint(1, 2))]
        terms = {monomial(d): Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for d in degrees}
        gens.append(Polynomial(r, terms))
    return Ideal(r, gens)


def to_sympy(p, symbols):
    return sympy.Poly(
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
            for m, c in p.terms.items()
        ),
        *symbols,
        domain=sympy.QQ,
    )


CASES = [(seed, homogeneous) for seed in range(20) for homogeneous in (True, False)]


@pytest.mark.parametrize("seed, homogeneous", CASES)
@pytest.mark.parametrize("order, name", [(LEX, "lex"), (GREVLEX, "grevlex")])
def test_reduced_basis_matches_sympy(seed, homogeneous, order, name):
    I = random_ideal(seed, homogeneous)
    symbols = sympy.symbols(I.ring.variables)
    want = sympy.groebner(
        [to_sympy(g, symbols) for g in I.generators], *symbols, order=name, domain=sympy.QQ
    )
    got = groebner_basis(I, order)
    assert sorted(str(to_sympy(g, symbols).as_expr()) for g in got) == sorted(
        str(g.as_expr()) for g in want.polys
    )


@pytest.mark.parametrize("seed, homogeneous", CASES)
def test_weighted_basis_certifies_and_spans(seed, homogeneous):
    # strictly negative weights order every ideal well; mixed signs only
    # homogeneous ones, where each degree is finite
    I = random_ideal(seed, homogeneous)
    rng = random.Random(1000 + seed)
    hi = 6 if homogeneous else -1
    order = weighted_order([rng.randint(-6, hi) for _ in I.ring.variables])
    basis = groebner_basis(I, order)
    assert certify_gb(basis, order)
    assert ideal_equal(Ideal(I.ring, basis), Ideal(I.ring, groebner_basis(I, GREVLEX)))
