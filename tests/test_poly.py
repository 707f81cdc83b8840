import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classinv.poly import (
    GREVLEX,
    LEX,
    ParseError,
    Polynomial,
    Ring,
    _tokenize,
    initial_form,
    leading_term,
    parse_poly,
    ring,
    serialize,
    weighted_order,
)

R2 = ring("x", "y")
R4 = ring("x11", "x12", "x21", "x22")


def rand_polys(r):
    coeffs = st.builds(
        Fraction,
        st.integers(min_value=-20, max_value=20).filter(bool),
        st.integers(min_value=1, max_value=8),
    )
    mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * r.arity)
    return st.dictionaries(mono, coeffs, max_size=5).map(lambda d: Polynomial(r, d))


class TestParse:
    def test_monomial_product(self):
        r = ring("x11", "y11")
        assert parse_poly("x11*y11", r) == r.var("x11") * r.var("y11")

    def test_zero(self):
        assert parse_poly("0", R2).is_zero()

    def test_gl2_invariant(self):
        r = ring("x11", "x21", "y12", "y22")
        p = parse_poly("y22*x11 + y12*x21", r)
        assert p == r.var("x11") * r.var("y22") + r.var("x21") * r.var("y12")

    def test_rational_coefficients(self):
        p = parse_poly("3/2*x^2 - y + 5", R2)
        assert p.coefficient((2, 0)) == Fraction(3, 2)
        assert p.coefficient((0, 1)) == -1
        assert p.coefficient((0, 0)) == 5

    def test_unknown_variable(self):
        with pytest.raises(KeyError):
            parse_poly("x + z", R2)

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_poly("x + + y", R2)
        with pytest.raises(ParseError):
            parse_poly("1/0", R2)

    @settings(max_examples=80, deadline=None)
    @given(rand_polys(R4))
    def test_roundtrip(self, p):
        assert parse_poly(serialize(p), R4) == p


def oracle_parse(text, ring_):
    """The parser as it was written on Polynomial arithmetic: each factor is
    a Polynomial, a term their product, the result the sum of the terms.
    Powers are repeated products.  Kept as an independent oracle."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    result = ring_.zero()
    i = 0
    n = len(tokens)

    def parse_factor(i):
        if i >= n:
            raise ParseError("unexpected end of input")
        tok = tokens[i]
        if tok.isdigit():
            num = int(tok)
            i += 1
            if i < n and tokens[i] == "/":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ParseError("malformed rational")
                den = int(tokens[i + 1])
                if den == 0:
                    raise ParseError("zero denominator")
                return ring_.const(Fraction(num, den)), i + 2
            return ring_.const(num), i
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            p = ring_.var(tok)
            i += 1
            if i < n and tokens[i] == "^":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ParseError("malformed exponent")
                base, p = p, ring_.one()
                for _ in range(int(tokens[i + 1])):
                    p = p * base
                i += 2
            return p, i
        raise ParseError(f"unexpected token {tok!r}")

    def parse_term(i):
        p, i = parse_factor(i)
        while i < n and tokens[i] == "*":
            q, i = parse_factor(i + 1)
            p = p * q
        return p, i

    first = True
    while i < n:
        tok = tokens[i]
        if tok == "+":
            sign, i = 1, i + 1
        elif tok == "-":
            sign, i = -1, i + 1
        elif first:
            sign = 1
        else:
            raise ParseError(f"expected + or - before {tok!r}")
        term, i = parse_term(i)
        result = result + term * sign
        first = False
    return result


R3 = ring("x", "y", "z")


@st.composite
def poly_texts(draw):
    """Strings in the grammar of parse_poly: repeated variables, ^0, zero
    and rational coefficients, and terms that cancel."""
    factor = st.one_of(
        st.integers(0, 12).map(str),
        st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.sampled_from(R3.variables),
        st.tuples(st.sampled_from(R3.variables), st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
    )
    term = st.lists(factor, min_size=1, max_size=4).map("*".join)
    terms = draw(st.lists(st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=6))
    # repeat some terms with the opposite sign, so that they cancel
    for sign, body in draw(st.lists(st.sampled_from(terms), max_size=3)):
        terms.append(("-" if sign == "+" else "+", body))
    sep = draw(st.sampled_from(["", " "]))
    text = "".join(f"{sep}{sign}{sep}{body}" for sign, body in terms)
    if terms[0][0] == "+" and draw(st.booleans()):
        text = text.lstrip().lstrip("+")  # a first term with no sign
    return text


class TestParserParity:
    @settings(max_examples=150, deadline=None)
    @given(poly_texts())
    def test_same_polynomial_as_arithmetic_parser(self, text):
        assert parse_poly(text, R3) == oracle_parse(text, R3)

    @pytest.mark.parametrize(
        "text",
        ["", "x +", "x + + y", "1/0", "1/x", "x^", "x^y", "(x)", "x y", "2^3", "x + w"],
    )
    def test_same_error(self, text):
        with pytest.raises((ParseError, KeyError)) as new:
            parse_poly(text, R3)
        with pytest.raises((ParseError, KeyError)) as old:
            oracle_parse(text, R3)
        assert type(new.value) is type(old.value)
        assert new.value.args == old.value.args


class TestNoStoredZeros:
    @settings(max_examples=60, deadline=None)
    @given(rand_polys(R2), rand_polys(R2))
    def test_arithmetic(self, p, q):
        for r in (p + q, p - q, p * q, 0 * p, p * 0, Fraction(0) * p, p - p):
            assert 0 not in r.terms.values()
        assert (p - p).terms == {}

    def test_zero_constant(self):
        assert R2.const(0).terms == {}
        assert R2.const(Fraction(0, 3)).terms == {}

    def test_cancelled_product_term(self):
        x, y = R2.var("x"), R2.var("y")
        p = (x + y) * (x - y)
        assert (1, 1) not in p.terms
        assert p == parse_poly("x^2 - y^2", R2)

    def test_parsed_cancellation(self):
        assert parse_poly("x*y - y*x + 0*x", R2).terms == {}


class TestArithmetic:
    def test_add_zero(self):
        p = parse_poly("x^2 - y", R2)
        assert p + R2.zero() == p

    def test_product_of_variables(self):
        assert R2.var("x") * R2.var("y") == parse_poly("x*y", R2)

    def test_expand_by_hand(self):
        # f3 * x11 with f3 = y21*x11 + y11*x21, expanded manually
        r = ring("x11", "x21", "y11", "y21")
        f3 = parse_poly("y21*x11 + y11*x21", r)
        expected = parse_poly("y21*x11^2 + y11*x21*x11", r)
        assert f3 * r.var("x11") == expected

    def test_ring_mismatch(self):
        with pytest.raises(ValueError):
            R2.var("x") + R4.var("x11")

    @settings(max_examples=60, deadline=None)
    @given(rand_polys(R2), rand_polys(R2), rand_polys(R2))
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    def test_naive_multiplication_oracle(self):
        # term-by-term convolution, written independently of Polynomial.__mul__
        a = parse_poly("x^2 + 2*y", R2)
        b = parse_poly("x - 1/3*y^2", R2)
        acc = {}
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                m = (ma[0] + mb[0], ma[1] + mb[1])
                acc[m] = acc.get(m, Fraction(0)) + ca * cb
        assert a * b == Polynomial(R2, acc)


class TestOrders:
    def test_lex_leading(self):
        p = parse_poly("x + y", R2)
        assert leading_term(p, LEX) == ((1, 0), 1)

    def test_grevlex_leading(self):
        p = parse_poly("x^2*y + x*y^2", R2)
        assert leading_term(p, GREVLEX)[0] == (2, 1)

    def test_weighted_min_weight_leads(self):
        w = weighted_order([-3, -1])
        p = parse_poly("x^2 + y^2", R2)
        # weight of x^2 is -6 < -2, so x^2 leads
        assert leading_term(p, w)[0] == (2, 0)

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            leading_term(R2.zero())


class TestInitialForm:
    def test_zero_weights(self):
        p = parse_poly("x^2 + y^2", R2)
        assert initial_form(p, [0, 0]) == p

    def test_degeneration_generator(self):
        # the weight pattern that keeps only the linear part of a mixed term
        r = ring("x1", "y2", "y3", "z2", "z3")
        p = parse_poly("y3*z2 - y2*z3 + x1", r)
        w = [-3, -1, -1, -1, -1]
        assert initial_form(p, w) == r.var("x1")

    def test_constants_drop(self):
        r = ring("x1", "x2", "x3")
        p = parse_poly("x1^2 + x2^2 + x3^2 - 1", r)
        assert initial_form(p, [-3, -3, -3]) == parse_poly("x1^2 + x2^2 + x3^2", r)

    def test_zero_polynomial(self):
        assert initial_form(R2.zero(), [1, 1]).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        rand_polys(R2),
        rand_polys(R2),
        st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    )
    def test_multiplicative(self, p, q, w):
        assert initial_form(p * q, w) == initial_form(p, w) * initial_form(q, w)

    @settings(max_examples=40, deadline=None)
    @given(rand_polys(R2), st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    def test_idempotent(self, p, w):
        once = initial_form(p, w)
        assert initial_form(once, w) == once


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(())
    with pytest.raises(ValueError):
        Ring(("x", "x"))
