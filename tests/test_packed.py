"""The packed-monomial helpers of the Buchberger engine against tuple oracles,
and the clean error when an exponent outgrows its 7-bit field."""

import random

import pytest

from classinv.groebner import (
    Ideal,
    _Engine,
    _minimal_monomials,
    _pack,
    _unpack,
    certify_gb,
    groebner_basis,
)
from classinv.poly import GREVLEX, LEX, monomial_divides, parse_poly, ring, weighted_order

MAX_EXP = 127


def order_cases():
    rng = random.Random(2012)
    for arity in (1, 2, 3, 5, 8, 13, 20):
        yield arity, GREVLEX
        yield arity, LEX
        yield arity, weighted_order([-rng.randint(1, 6) for _ in range(arity)])
        yield arity, weighted_order([rng.randint(-50, 50) for _ in range(arity)])


ORDER_CASES = list(order_cases())


def case_id(case):
    arity, order = case
    return f"{order.kind}-{arity}-{order.weights}"


def random_monomials(rng, arity, count):
    """Uniform exponents in 0..127, plus ones with a small total degree and
    permutations of earlier ones, so degree and weight ties occur."""
    out = [tuple(rng.randint(0, MAX_EXP) for _ in range(arity)) for _ in range(count)]
    out += [tuple(rng.choice((0, 0, 1, 2, MAX_EXP)) for _ in range(arity)) for _ in range(count)]
    for m in out[:count]:
        perm = list(m)
        rng.shuffle(perm)
        out.append(tuple(perm))
    return out


def brute_force_minimal(monomials):
    ms = set(monomials)
    return {m for m in ms if not any(g != m and monomial_divides(g, m) for g in ms)}


@pytest.mark.parametrize("case", ORDER_CASES, ids=case_id)
class TestPackedHelpers:
    def setup_engine(self, case):
        arity, order = case
        rng = random.Random(case_id(case))
        r = ring(*[f"x{i}" for i in range(arity)])
        return rng, arity, order, _Engine(r, order)

    def test_pack_roundtrip_and_degree(self, case):
        rng, arity, _, eng = self.setup_engine(case)
        for m in random_monomials(rng, arity, 60):
            assert _unpack(_pack(m), arity) == m
            assert eng.degree(_pack(m)) == sum(m)

    def test_lcm_and_divides(self, case):
        rng, arity, _, eng = self.setup_engine(case)
        ms = random_monomials(rng, arity, 40)
        for a in ms:
            # a random partner, a multiple of a and a divisor of a
            multiple = tuple(min(MAX_EXP, e + rng.randint(0, 3)) for e in a)
            divisor = tuple(rng.randint(0, e) for e in a)
            for b in (rng.choice(ms), multiple, divisor, a):
                pa, pb = _pack(a), _pack(b)
                assert eng.lcm(pa, pb) == _pack(tuple(map(max, a, b)))
                assert eng.divides(pa, pb) == monomial_divides(a, b)
                assert eng.divides(pb, pa) == monomial_divides(b, a)

    def test_key_orders_like_order_key(self, case):
        rng, arity, order, eng = self.setup_engine(case)
        ms = list(dict.fromkeys(random_monomials(rng, arity, 50)))
        want = sorted(ms, key=order.key)
        assert [_unpack(p, arity) for p in sorted(map(_pack, ms), key=eng.key)] == want
        for a, b in zip(ms, reversed(ms)):
            ka, kb = order.key(a), order.key(b)
            pa, pb = eng.key(_pack(a)), eng.key(_pack(b))
            assert (pa > pb, pa == pb) == (ka > kb, ka == kb)

    def test_minimal(self, case):
        rng, arity, _, eng = self.setup_engine(case)
        ms = [m for m in random_monomials(rng, arity, 30) if sum(m) <= 6]
        ms += [tuple(min(MAX_EXP, e + 1) for e in m) for m in ms[:5]] + ms[:3]
        want = brute_force_minimal(ms)
        assert {_unpack(p, arity) for p in eng.minimal(map(_pack, ms))} == want
        got = _minimal_monomials(ms)
        assert set(got) == want and len(got) == len(want)
        assert [sum(m) for m in got] == sorted(sum(m) for m in got)


def test_pack_rejects_exponent_128():
    with pytest.raises(OverflowError):
        _pack((0, 128, 1))
    assert _unpack(_pack((127, 0, 127)), 3) == (127, 0, 127)


class TestExponentOverflow:
    def test_lex_power_overflow_is_an_error(self):
        # the lex basis needs y^200: a clean OverflowError, not a hang
        r = ring("x", "y")
        I = Ideal(r, [parse_poly("x^100 - y", r), parse_poly("y^2 - x", r)])
        with pytest.raises(OverflowError):
            groebner_basis(I, LEX)

    def test_overflow_in_a_tail_is_an_error(self):
        # x^2 - y top-reduces to y - z^200: the leading term fits, the tail not
        r = ring("x", "y", "z")
        I = Ideal(r, [parse_poly("x - z^100", r), parse_poly("x^2 - y", r)])
        with pytest.raises(OverflowError):
            groebner_basis(I, LEX)

    def test_overflow_in_tail_reduction_is_an_error(self):
        # coprime leading terms y and x, so no S-pair; reducing the tail
        # x*z^50 of the first generator gives y - z^150
        r = ring("y", "x", "z")
        I = Ideal(r, [parse_poly("y - x*z^50", r), parse_poly("x - z^100", r)])
        with pytest.raises(OverflowError):
            groebner_basis(I, LEX)

    def test_certificate_overflow_is_an_error(self):
        # the S-pair x*(x*y - y^127) - y*(x^2 - y) top-reduces to y^2 - y^253
        r = ring("x", "y")
        basis = [parse_poly("x*y - y^127", r), parse_poly("x^2 - y", r)]
        with pytest.raises(OverflowError):
            certify_gb(basis, LEX)

    def test_exponent_127_computes(self):
        r = ring("x", "y")
        I = Ideal(r, [parse_poly("x^127 - y", r), parse_poly("x - y", r)])
        for order in (LEX, GREVLEX):
            gb = groebner_basis(I, order)
            assert sorted(str(g) for g in gb) == ["x - y", "y^127 - y"]
