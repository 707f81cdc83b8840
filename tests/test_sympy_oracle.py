"""Reduced Groebner bases against sympy's `groebner` over QQ on seeded
random small ideals; weighted orders, which sympy lacks, are checked by
the Buchberger certificate and ideal equality with the grevlex basis.
Hilbert values and ideal membership are checked against counts from
sympy's leading terms and `GroebnerBasis.contains`."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from classinv.groebner import (
    Ideal,
    certify_gb,
    groebner_basis,
    hilbert_function,
    ideal_equal,
    normal_form,
)
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


def sympy_basis(I, symbols):
    return sympy.groebner(
        [to_sympy(g, symbols) for g in I.generators], *symbols, order="grevlex", domain=sympy.QQ
    )


def monomials(arity, degree):
    for combo in combinations_with_replacement(range(arity), degree):
        yield tuple(combo.count(v) for v in range(arity))


@pytest.mark.parametrize("seed", range(20))
def test_hilbert_function_matches_sympy_leading_terms(seed):
    # a shuffled bound sequence makes the run stop, resume and read cached counts
    I = random_ideal(seed, homogeneous=True)
    symbols = sympy.symbols(I.ring.variables)
    lead = [g.monoms(order="grevlex")[0] for g in sympy_basis(I, symbols).polys]
    bounds = random.Random(seed).sample(range(7), 7)
    for p in bounds:
        want = sum(
            not any(all(a <= b for a, b in zip(l, m)) for l in lead)
            for m in monomials(I.ring.arity, p)
        )
        assert hilbert_function(I, p) == want, p


def random_form(rng, r, degree):
    """A homogeneous polynomial of the given degree with 1-3 terms."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        m = [0] * r.arity
        for _ in range(degree):
            m[rng.randrange(r.arity)] += 1
        terms[tuple(m)] = Fraction(rng.randint(-4, 4) or 1)
    return Polynomial(r, terms)


@pytest.mark.parametrize("seed", range(20))
def test_membership_matches_sympy_contains(seed):
    # a member of each degree in shuffled order, alone and plus a random
    # form, takes the degree-bounded basis; adding a lower-degree part
    # makes the query inhomogeneous, which takes the complete basis
    I = random_ideal(seed, homogeneous=True)
    r = I.ring
    symbols = sympy.symbols(r.variables)
    G = sympy_basis(I, symbols)
    rng = random.Random(500 + seed)
    homogeneous, mixed = [], []
    for degree in rng.sample(range(1, 6), 5):
        member = r.zero()
        for g in I.generators:
            if g.degree() <= degree:
                member = member + g * random_form(rng, r, degree - g.degree())
        homogeneous += [member, member + random_form(rng, r, degree)]
        mixed.append(member + random_form(rng, r, degree - 1))
    for f in homogeneous + mixed:
        assert normal_form(f, I).is_zero() == G.contains(to_sympy(f, symbols)), str(f)
