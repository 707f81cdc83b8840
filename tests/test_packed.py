"""The packed-monomial helpers of the Buchberger engine and its divisor
index against tuple oracles and linear scans, and the clean error when an
exponent outgrows its 7-bit field."""

import random

import pytest

from classinv.catalog import get_case
from classinv.groebner import (
    Ideal,
    _Divisors,
    _Engine,
    _pack,
    _Run,
    _unpack,
    certify_gb,
    groebner_basis,
    normal_form,
)
from classinv.poly import (
    GREVLEX,
    LEX,
    parse_poly,
    ring,
    serialize,
    weighted_order,
)

MAX_EXP = 127


def monomial_divides(a, b):
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


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
        got = [_unpack(p, arity) for p in eng.minimal(map(_pack, ms))]
        assert set(got) == want and len(got) == len(want)
        assert [sum(m) for m in got] == sorted(sum(m) for m in got)


def first_divisor(lts, m, skip=-1):
    """The linear first-match scan that `_Divisors.find` must agree with."""
    return next(
        (i for i, lt in enumerate(lts) if i != skip and monomial_divides(lt, m)), None
    )


@pytest.mark.parametrize("arity", [1, 2, 3, 5, 8])
def test_divisor_index_matches_a_linear_scan(arity):
    # leading terms join in batches between query rounds; the queries are
    # repeated, so memoised hits and misses are asked again after appends
    rng = random.Random(3000 + arity)
    r = ring(*[f"x{i}" for i in range(arity)])
    index = _Divisors(_Engine(r, GREVLEX).guard)
    lts = []
    queries = [tuple(rng.randint(0, 6) for _ in range(arity)) for _ in range(150)]
    outcomes = set()
    for _ in range(6):
        for _ in range(rng.randint(1, 4)):
            lt = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(arity))
            if not any(lt):
                continue  # the unit monomial would divide every query
            lts.append(lt)
            index.append((_pack(lt), 1, {_pack(lt): 1}))
        for m in queries:
            want = first_divisor(lts, m)
            assert index.find(_pack(m)) == want, (lts, m)
            outcomes.add(want is None)
            skip = rng.randrange(len(lts))
            assert index.find(_pack(m), skip) == first_divisor(lts, m, skip), (lts, m, skip)
    assert outcomes == {True, False}


def test_divisor_index_miss_then_hit_on_an_appended_entry():
    r = ring("x", "y", "z")
    index = _Divisors(_Engine(r, GREVLEX).guard)
    m = _pack((2, 1, 0))
    for lt in ((0, 0, 1), (0, 2, 0)):
        index.append((_pack(lt), 1, {_pack(lt): 1}))
    assert index.find(m) is None
    index.append((_pack((3, 0, 0)), 1, {}))
    assert index.find(m) is None
    index.append((_pack((1, 1, 0)), 1, {}))
    assert index.find(m) == 3
    index.append((_pack((1, 0, 0)), 1, {}))
    assert index.find(m) == 3  # still the first divisor, not the later x
    assert index.find(m, skip=3) == 4


@pytest.mark.parametrize(
    "case, which, order",
    [("o3-I2", "J", GREVLEX), ("gl2", "I", weighted_order([3, -1, 0, 2, -2, 1, 0, -1]))],
)
def test_reduced_after_resume_equals_a_fresh_basis(case, which, order):
    # a run advanced to one bound, reduced, then resumed to the end
    source = get_case(case).ideal(which)
    run = _Run(source.ring, source.generators, order)
    for bound in (2, 3):
        assert not run.advance(bound)
        want = Ideal(source.ring, source.generators).groebner_basis(order, bound)
        assert [serialize(g) for g in run.reduced()] == [serialize(g) for g in want]
    assert run.advance(None)
    want = Ideal(source.ring, source.generators).groebner_basis(order)
    assert [serialize(g) for g in run.reduced()] == [serialize(g) for g in want]


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

    def test_certificate_skips_coprime_pairs(self):
        # the leading terms x and y^127 are coprime: the product criterion
        # skips their S-pair, whose reduction would need y^128
        r = ring("x", "y")
        assert certify_gb([parse_poly("x - y", r), parse_poly("y^127 - y", r)], GREVLEX)

    def test_normal_form_of_exponent_128_is_an_error(self):
        # the exponent is in p; the remainder would be y^200 + x*y
        r = ring("x", "y")
        I = Ideal(r, [parse_poly("x^2 - y", r)])
        with pytest.raises(OverflowError):
            normal_form(parse_poly("x^3 + y^200", r), I)

    def test_normal_form_overflow_in_a_reduction_is_an_error(self):
        # x^64 fits, but its lex remainder modulo x - y^2 is y^128
        r = ring("x", "y")
        I = Ideal(r, [parse_poly("x - y^2", r)])
        assert normal_form(parse_poly("x^63", r), I, LEX) == parse_poly("y^126", r)
        with pytest.raises(OverflowError):
            normal_form(parse_poly("x^64", r), I, LEX)
        with pytest.raises(OverflowError):
            I.contains(parse_poly("x^64 - y^128", r), LEX)

    def test_exponent_127_computes(self):
        r = ring("x", "y")
        I = Ideal(r, [parse_poly("x^127 - y", r), parse_poly("x - y", r)])
        for order in (LEX, GREVLEX):
            gb = groebner_basis(I, order)
            assert sorted(str(g) for g in gb) == ["x - y", "y^127 - y"]


def test_runs_share_one_engine_per_ring_for_lex_and_grevlex():
    # the engine's key and degree memos serve every run of the ring and
    # order; each weighted order gets an engine of its own
    r = ring("x", "y", "z")
    a, b = [parse_poly("x^2 - y", r)], [parse_poly("y*z - x", r)]
    for order in (GREVLEX, LEX):
        run = _Run(r, a, order)
        assert _Run(ring("x", "y", "z"), b, order).eng is run.eng
        assert _Run(r, b, LEX if order is GREVLEX else GREVLEX).eng is not run.eng
    w = weighted_order([-1, -2, -1])
    assert _Run(r, a, w).eng is not _Run(r, b, w).eng
