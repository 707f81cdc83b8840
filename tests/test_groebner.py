import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from classinv.catalog import case_names, get_case
from classinv.groebner import (
    Ideal,
    _count_standard,
    affine_hilbert_function,
    certify_gb,
    groebner_basis,
    hilbert_function,
    ideal_equal,
    ideal_intersection,
    ideal_product,
    krull_dim,
    normal_form,
)
from classinv.poly import GREVLEX, LEX, parse_poly, ring, serialize, weighted_order


def P(text, r):
    return parse_poly(text, r)


def make_ideal(r, *texts):
    return Ideal(r, [parse_poly(t, r) for t in texts])


class TestBasis:
    def test_already_a_basis(self):
        r = ring("x", "y")
        gb = groebner_basis(make_ideal(r, "x^2", "x*y"))
        assert {g.leading_monomial() for g in gb} == {(2, 0), (1, 1)}

    def test_linear_elimination(self):
        r = ring("x", "y")
        gb = groebner_basis(make_ideal(r, "x - y", "x + y"), LEX)
        assert [str(g) for g in gb] == ["y", "x"]

    def test_zero_ideal(self):
        r = ring("x", "y")
        assert groebner_basis(Ideal(r, [])) == []

    def test_reduced_and_monic(self):
        r = ring("x", "y", "z")
        gb = groebner_basis(make_ideal(r, "x^2 + y", "x*y + z", "2*y^2 - z"))
        for g in gb:
            assert g.leading_term()[1] == 1
        lts = [g.leading_monomial() for g in gb]
        for i, g in enumerate(gb):
            for m in g.terms:
                for j, lt in enumerate(lts):
                    if i != j or m != g.leading_monomial():
                        assert not all(a <= b for a, b in zip(lt, m)) or (
                            i == j and m == g.leading_monomial()
                        )

    def test_deterministic(self):
        r = ring("x", "y", "z")
        texts = ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")
        a = groebner_basis(make_ideal(r, *texts))
        b = groebner_basis(make_ideal(r, *texts))
        assert [str(g) for g in a] == [str(g) for g in b]

    def test_buchberger_certificate(self):
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - y*z", "y^3 + z", "x*z - y")
        assert certify_gb(groebner_basis(I))

    def test_certificate_rejects(self):
        r = ring("x", "y")
        assert not certify_gb([P("x^2 - y", r), P("x", r)])
        assert certify_gb([P("x", r), P("y", r)])


# catalogued homogeneous ideals and the order each is resumed under
RESUME_CASES = [
    ("gl3", "I", GREVLEX),
    ("o3-I2", "J", GREVLEX),
    ("o3-I2", "I2", GREVLEX),
    ("gl2", "I", weighted_order([3, -1, 0, 2, -2, 1, 0, -1])),
]


def sequences(bounds):
    return {
        "ascending": list(bounds),
        "descending": list(reversed(bounds)),
        "shuffled": random.Random(6).sample(list(bounds), len(bounds)),
    }


def fresh(ideal):
    """A copy with empty caches; catalogued ideals are shared between tests."""
    return Ideal(ideal.ring, ideal.generators)


class TestResumedRun:
    """A bounded query resumes the order's run; each answer must still be
    the basis a fresh run gives at the bound that answers the query."""

    @pytest.mark.parametrize("case, which, order", RESUME_CASES)
    def test_bases_equal_fresh_runs(self, case, which, order):
        source = get_case(case).ideal(which)
        want = {
            p: [serialize(g) for g in fresh(source).groebner_basis(order, p)]
            for p in range(10)
        }
        for name, bounds in sequences(range(10)).items():
            ideal = fresh(source)
            computed = []
            for p in bounds:
                # the cache answers with the smallest computed bound >= p;
                # otherwise the run resumes to p itself
                answering = min((b for b in computed if b >= p), default=None)
                if answering is None:
                    answering = p
                    computed.append(p)
                got = [serialize(g) for g in ideal.groebner_basis(order, p)]
                assert got == want[answering], (name, p)
            if name == "ascending":
                assert len(ideal._gb) == 10

    @pytest.mark.parametrize("case, which, order", RESUME_CASES)
    def test_sweep_makes_no_more_spolys_than_one_run(self, case, which, order, monkeypatch):
        import classinv.groebner as gb

        calls = []
        real = gb._Engine.spoly
        monkeypatch.setattr(gb._Engine, "spoly", lambda *a: calls.append(1) or real(*a))
        source = get_case(case).ideal(which)
        fresh(source).groebner_basis(order)
        unbounded = len(calls)
        ideal = fresh(source)
        for p in range(10):
            ideal.groebner_basis(order, p)
        assert 0 < len(calls) - unbounded <= unbounded

    def test_stops_above_the_bound_and_completes(self):
        # the heap keeps the degree-4 pair while the bound is 3
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - y*z", "x*y^2 + z^3")
        assert len(I.groebner_basis(GREVLEX, 3)) == 2
        assert I._runs and not I._complete
        full = I.groebner_basis(GREVLEX, 9)
        assert not I._runs and [str(g) for g in full] == [
            str(g) for g in fresh(I).groebner_basis()
        ]

    def test_hilbert_in_any_order_matches_truncated_counts(self):
        source = get_case("o3-I2").ideal("I2")
        want = []
        for p in range(10):
            lead = [g.leading_monomial() for g in fresh(source).groebner_basis(GREVLEX, p)]
            want.append(_count_standard(lead, source.ring.arity, p)[p])
        for name, bounds in sequences(range(10)).items():
            ideal = fresh(source)
            assert {p: hilbert_function(ideal, p) for p in bounds} == dict(enumerate(want)), name


class TestNormalForm:
    def test_generators_reduce_to_zero(self):
        r = ring("x", "y")
        I = make_ideal(r, "x^2 + y^2 - 1", "x*y - 2")
        for g in I.generators:
            assert normal_form(g, I).is_zero()

    def test_one_survives_in_proper_ideal(self):
        r = ring("x", "y")
        I = make_ideal(r, "x^2", "y^2")
        assert normal_form(r.one(), I) == r.one()

    def test_linearity(self):
        r = ring("x", "y")
        I = make_ideal(r, "x^2 - y")
        a, b = P("x^3 + y", r), P("x*y - 1", r)
        nf = lambda p: normal_form(p, I)
        assert nf(a + b * 3) == nf(a) + nf(b) * 3

    def test_membership_with_cofactor_reconstruction(self):
        # build a member explicitly from cofactors, then check nf == 0
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - z", "x*y + z^2")
        member = I.generators[0] * P("y^2 - 3*z", r) + I.generators[1] * P("x + y", r)
        assert normal_form(member, I).is_zero()
        assert not normal_form(member + r.one(), I).is_zero()


class TestIdealPredicates:
    def test_equal_after_change_of_generators(self):
        r = ring("x", "y")
        assert ideal_equal(make_ideal(r, "x", "y"), make_ideal(r, "y", "x + y"))

    def test_strict_containment_detected(self):
        r = ring("x", "y")
        assert not ideal_equal(make_ideal(r, "x^2"), make_ideal(r, "x"))

    def test_invariance_under_scaling_and_permutation(self):
        r = ring("x", "y", "z")
        a = make_ideal(r, "x^2 - y", "y*z + x")
        b = Ideal(r, [a.generators[1] * Fraction(-7, 3), a.generators[0] * 2])
        assert ideal_equal(a, b)


class TestProductIntersection:
    def test_product_of_principal(self):
        r = ring("x", "y")
        prod = ideal_product(make_ideal(r, "x"), make_ideal(r, "y"))
        assert ideal_equal(prod, make_ideal(r, "x*y"))

    def test_product_membership(self):
        r = ring("x", "y")
        I = make_ideal(r, "x^2", "x*y + y^2")
        sq = ideal_product(I, I)
        assert normal_form(I.generators[0] * I.generators[1], sq).is_zero()
        assert not normal_form(I.generators[0], sq).is_zero()

    def test_intersection_idempotent(self):
        r = ring("x", "y")
        I = make_ideal(r, "x")
        assert ideal_equal(ideal_intersection(I, I), I)

    def test_intersection_of_coordinate_ideals(self):
        r = ring("x", "y")
        got = ideal_intersection(make_ideal(r, "x"), make_ideal(r, "y"))
        assert ideal_equal(got, make_ideal(r, "x*y"))

    def test_intersection_contains_product(self):
        r = ring("x", "y", "z")
        I = make_ideal(r, "x", "y^2")
        J = make_ideal(r, "y", "z")
        inter = ideal_intersection(I, J)
        for g in ideal_product(I, J).generators:
            assert normal_form(g, inter).is_zero()
        # (I cap J) * (I + J) subset I * J
        left = ideal_product(inter, Ideal(r, I.generators + J.generators))
        prod = ideal_product(I, J)
        for g in left.generators:
            assert normal_form(g, prod).is_zero()


def brute_force_standard_count(lead_monomials, arity, p):
    """Oracle: enumerate all degree-p monomials, drop the divisible ones."""
    count = 0
    for combo in combinations_with_replacement(range(arity), p):
        m = [0] * arity
        for v in combo:
            m[v] += 1
        if not any(all(g[i] <= m[i] for i in range(arity)) for g in lead_monomials):
            count += 1
    return count


class TestHilbert:
    def test_proper_ideal_degree_zero(self):
        r = ring("x", "y", "z")
        assert hilbert_function(make_ideal(r, "x^2 + y*z"), 0) == 1

    def test_zero_ideal_counts_all_monomials(self):
        r = ring("x", "y", "z")
        I = Ideal(r, [])
        assert [hilbert_function(I, p) for p in range(4)] == [1, 3, 6, 10]

    def test_matches_brute_force_oracle(self):
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - y*z", "x*y^2 + z^3")
        gb = groebner_basis(I, degree_bound=6)
        lead = [g.leading_monomial() for g in gb]
        for p in range(7):
            assert hilbert_function(I, p) == brute_force_standard_count(lead, 3, p)

    def test_hyperbolic_pair_quadrics(self):
        # three invariant quadrics in four variables; the degree-2 count
        # was frozen from enumerating the quotient basis monomials
        # {x1^a y1^b, x2^a y2^b, x1 y2} by hand: degree 2 leaves
        # x1^2, x1 y1, y1^2, x2^2, x2 y2, y2^2, x1 y2.
        r = ring("x1", "x2", "y1", "y2")
        J = make_ideal(r, "x1*x2", "y1*y2", "x1*y2 + x2*y1")
        assert hilbert_function(J, 2) == 7

    def test_order_independence(self):
        r = ring("x1", "x2", "y1", "y2")
        J = make_ideal(r, "x1*x2", "y1*y2", "x1*y2 + x2*y1")
        for p in range(5):
            assert hilbert_function(J, p, GREVLEX) == hilbert_function(J, p, LEX)

    def test_containment_monotone(self):
        r = ring("x", "y", "z")
        I = make_ideal(r, "x*y")
        J = make_ideal(r, "x*y", "z^2 - x^2")
        for p in range(6):
            assert hilbert_function(I, p) >= hilbert_function(J, p)

    def test_inhomogeneous_rejected(self):
        r = ring("x", "y")
        with pytest.raises(ValueError):
            hilbert_function(make_ideal(r, "x^2 - 1"), 2)

    def test_affine_count(self):
        r = ring("x", "y")
        I = make_ideal(r, "x^2 - 1", "y^2 - x")
        # quotient has vector-space dimension 4 = #{1, x, y, xy}
        assert affine_hilbert_function(I, 0) == 1
        assert affine_hilbert_function(I, 2) == 4
        assert affine_hilbert_function(I, 9) == 4

    def test_affine_counts_from_one_numerator(self, monkeypatch):
        import classinv.groebner as gb

        calls = []
        real = gb._hilbert_numerator
        monkeypatch.setattr(gb, "_hilbert_numerator", lambda g: calls.append(1) or real(g))
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - y", "y*z^2 - x + 1", "z^3 - x*y")
        lead = [g.leading_monomial() for g in groebner_basis(I)]
        want = [
            sum(brute_force_standard_count(lead, 3, p) for p in range(d + 1))
            for d in range(9)
        ]
        assert [affine_hilbert_function(I, d) for d in range(9)] == want
        assert affine_hilbert_function(I, 3) == want[3]
        assert len(calls) == 1


def random_monomial(rng, arity, degree):
    m = [0] * arity
    for _ in range(degree):
        m[rng.randrange(arity)] += 1
    return tuple(m)


def all_monomials(arity, degree):
    out = []
    for combo in combinations_with_replacement(range(arity), degree):
        m = [0] * arity
        for v in combo:
            m[v] += 1
        out.append(tuple(m))
    return out


class TestCountStandardOracle:
    """`_count_standard` against enumerating every monomial of degree p."""

    def assert_matches_oracle(self, lead, arity, pmax):
        want = [brute_force_standard_count(lead, arity, p) for p in range(pmax + 1)]
        assert _count_standard(lead, arity, pmax) == want

    @pytest.mark.parametrize("seed", range(40))
    def test_random_monomial_sets(self, seed):
        # seeded sets with repeats and non-minimal generators; pmax may
        # fall below the largest generator degree
        rng = random.Random(seed)
        arity = 1 + seed % 6
        lead = [
            random_monomial(rng, arity, rng.randint(1, 5))
            for _ in range(rng.randint(1, 8))
        ]
        lead += [rng.choice(lead) for _ in range(rng.randint(0, 2))]
        self.assert_matches_oracle(lead, arity, rng.randint(0, 7))

    def test_pure_powers(self):
        self.assert_matches_oracle([(3, 0, 0), (0, 2, 0), (0, 0, 4)], 3, 9)
        self.assert_matches_oracle([(2, 0, 0), (0, 5, 0), (1, 1, 1)], 3, 8)

    def test_duplicate_and_non_minimal_generators(self):
        lead = [(1, 1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 3), (0, 2, 1), (0, 3, 1)]
        self.assert_matches_oracle(lead, 3, 7)

    def test_generators_above_pmax(self):
        lead = [(2, 2, 0), (0, 0, 5), (1, 0, 1)]
        self.assert_matches_oracle(lead, 3, 3)
        assert _count_standard([(0, 4)], 2, 3) == [1, 2, 3, 4]

    def test_empty_set_counts_all_monomials(self):
        for n in range(1, 7):
            assert _count_standard([], n, 6) == [comb(p + n - 1, n - 1) for p in range(7)]

    def test_constant_monomial_counts_nothing(self):
        assert _count_standard([(0, 0, 0), (1, 0, 0)], 3, 4) == [0] * 5

    def test_large_exponent(self):
        lead = [(130, 0), (3, 2)]
        self.assert_matches_oracle(lead, 2, 133)
        self.assert_matches_oracle([(128, 1), (1, 129)], 2, 131)

    def test_all_quadrics_in_forty_variables(self):
        assert _count_standard(all_monomials(40, 2), 40, 3) == [1, 40, 0, 0]

    @pytest.mark.parametrize("n, d", [(1, 7), (4, 5), (6, 4), (9, 3), (12, 2)])
    def test_power_of_maximal_ideal(self, n, d):
        want = [comb(p + n - 1, n - 1) if p < d else 0 for p in range(d + 3)]
        assert _count_standard(all_monomials(n, d), n, d + 2) == want


def subset_krull_oracle(ideal):
    """Oracle: the largest variable subset S such that no leading monomial
    of the grevlex basis is supported inside S (2^n subsets)."""
    n = ideal.ring.arity
    supports = [
        frozenset(i for i, e in enumerate(g.leading_monomial()) if e)
        for g in ideal.groebner_basis()
    ]
    best = 0
    for mask in range(1 << n):
        size = mask.bit_count()
        if size <= best:
            continue
        subset = {i for i in range(n) if mask >> i & 1}
        if all(not s <= subset for s in supports):
            best = size
    return best


class TestKrull:
    def test_zero_and_maximal(self):
        r = ring("x", "y", "z")
        for I, want in ((Ideal(r, []), 3), (make_ideal(r, "x", "y", "z"), 0)):
            assert krull_dim(I) == want == subset_krull_oracle(I)

    def test_unit_ideal_rejected(self):
        r = ring("x", "y")
        with pytest.raises(ValueError):
            krull_dim(make_ideal(r, "x", "x - 1"))

    def test_hypersurface(self):
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 + y^2 + z^2")
        assert krull_dim(I) == 2 == subset_krull_oracle(I)

    def test_bilinear_nilcone_brute_force(self):
        # entries of a 2x2 product of two 2x2 matrices: dimension 5,
        # the stratification maximum of m(2-m) + 2m + 2(2-m) over m=0..2
        oracle = max(m * (2 - m) + 2 * m + 2 * (2 - m) for m in range(3))
        r = ring("a11", "a12", "a21", "a22", "b11", "b12", "b21", "b22")
        gens = []
        for i in ("1", "2"):
            for j in ("1", "2"):
                gens.append(
                    parse_poly(f"b{i}1*a1{j} + b{i}2*a2{j}", r)
                )
        I = Ideal(r, gens)
        assert krull_dim(I) == 5 == oracle == subset_krull_oracle(I)

    def test_matches_subset_scan_on_catalogued_ideals(self):
        checked = 0
        for name in case_names():
            for which, ideal in sorted(get_case(name).ideals.items()):
                if ideal.ring.arity <= 16:
                    assert krull_dim(ideal) == subset_krull_oracle(ideal), (name, which)
                    checked += 1
        assert checked >= 31


def test_product_generator_count_with_repetition():
    # squaring an ideal with eight generators yields the 36 unordered
    # pairwise products (with repetition), before any interreduction
    I = get_case("gl2").ideal("I")
    assert len(ideal_product(I, I).generators) == 36


def test_hilbert_sweep_spoly_count_pinned(monkeypatch):
    # Sugar selection equals the normal strategy on homogeneous input: the
    # ascending 0..9 sweep of the hilbert-deep ideals makes exactly the
    # S-polynomials it made under lcm-degree selection.
    import classinv.groebner as gb

    calls = []
    real = gb._Engine.spoly
    monkeypatch.setattr(gb._Engine, "spoly", lambda *a: calls.append(1) or real(*a))
    sources = [get_case(n).ideal("I") for n in ("gl2", "gl3", "sp4")]
    sources += [get_case("o3-I2").ideal(n) for n in ("J", "I2")]
    for source in sources:
        ideal = fresh(source)
        for p in range(10):
            hilbert_function(ideal, p)
    assert len(calls) == 559
