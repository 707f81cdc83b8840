import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest

from classinv.catalog import case_names, get_case
from classinv.groebner import (
    Ideal,
    _counts_from_numerator,
    _Engine,
    _hilbert_numerator,
    _pack,
    _unpack,
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
from classinv.poly import (
    GREVLEX,
    LEX,
    parse_poly,
    ring,
    serialize,
    weighted_order,
)


def monomial_divides(a, b):
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def P(text, r):
    return parse_poly(text, r)


def make_ideal(r, *texts):
    return Ideal(r, [parse_poly(t, r) for t in texts])


def oracle_minimal(monomials):
    """The minimal monomials under divisibility, in ascending degree: each
    is tested against the kept ones of lower degree, the only ones that
    can divide it properly."""
    lower, level, current = [], [], -1
    for m in sorted(set(monomials), key=sum):
        if sum(m) != current:
            current = sum(m)
            lower += level
            level = []
        if not any(monomial_divides(g, m) for g in lower):
            level.append(m)
    return lower + level


def oracle_numerator(gens):
    """The pivot recursion of `_hilbert_numerator` on exponent tuples, with
    the same pivot rule and stack order, so its coefficient lists are the
    packed kernel's, trailing zeros included.  Exponents are unbounded."""
    num = []
    stack = [(gens, 0)]
    while stack:
        gens, shift = stack.pop()
        supports = [[v for v, e in enumerate(g) if e] for g in gens]
        occurs = Counter(v for s in supports for v in s)
        if all(c == 1 for c in occurs.values()):
            term = [1]
            for g in gens:
                d = sum(g)
                term = term + [0] * d
                for i in range(len(term) - d - 1, -1, -1):
                    term[i + d] -= term[i]
            num += [0] * (shift + len(term) - len(num))
            for i, c in enumerate(term):
                num[shift + i] += c
            continue
        mixed = Counter(v for s in supports if len(s) > 1 for v in s)
        v = max(mixed, key=mixed.__getitem__)
        e = min(g[v] for g, s in zip(gens, supports) if len(s) > 1 and g[v])
        power = tuple(e if i == v else 0 for i in range(len(gens[0])))
        stack.append(([g for g in gens if g[v] < e] + [power], shift))
        quotient = [g[:v] + (max(g[v] - e, 0),) + g[v + 1 :] for g in gens]
        lowered = [q for g, q in zip(gens, quotient) if g[v]]
        minimal = [
            h
            for h in quotient
            if not any(d != h and monomial_divides(d, h) for d in lowered)
        ]
        stack.append((minimal, shift + e))
    return num


def _count_standard(lead, arity, pmax):
    """Counts of degree-p monomials outside the ideal of `lead`, p = 0..pmax,
    through the oracle numerator: minimal monomials of degree <= pmax,
    their Hilbert-series numerator, and the library's prefix sums."""
    gens = oracle_minimal(m for m in lead if sum(m) <= pmax)
    return _counts_from_numerator(oracle_numerator(gens), arity, pmax)


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

        calls = count_calls(monkeypatch, gb._Engine, "spoly")
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

    @pytest.mark.parametrize("d", [-1, -3])
    def test_negative_degree_rejected(self, d):
        r = ring("x", "y")
        I = make_ideal(r, "x^2 - 1", "y^2 - x")
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            affine_hilbert_function(I, d)
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            hilbert_function(make_ideal(r, "x^2", "y^2"), d)

    def test_affine_counts_from_one_numerator(self, monkeypatch):
        import classinv.groebner as gb

        kernel_runs = {}  # each new entry is one kernel run
        monkeypatch.setattr(gb, "_NUMERATORS", kernel_runs)
        r = ring("x", "y", "z")
        I = make_ideal(r, "x^2 - y", "y*z^2 - x + 1", "z^3 - x*y")
        lead = [g.leading_monomial() for g in groebner_basis(I)]
        want = [
            sum(brute_force_standard_count(lead, 3, p) for p in range(d + 1))
            for d in range(9)
        ]
        assert [affine_hilbert_function(I, d) for d in range(9)] == want
        assert affine_hilbert_function(I, 3) == want[3]
        assert len(kernel_runs) == 1


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


def count_calls(monkeypatch, owner, name):
    """A list that grows by one on every call of owner.name."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_hilbert_sweep_spoly_count_pinned(monkeypatch):
    # Sugar selection equals the normal strategy on homogeneous input: the
    # ascending 0..9 sweep of the hilbert-deep ideals makes exactly the
    # S-polynomials it made under lcm-degree selection, bound by bound.
    import classinv.groebner as gb

    calls = count_calls(monkeypatch, gb._Engine, "spoly")
    sources = [get_case(n).ideal("I") for n in ("gl2", "gl3", "sp4")]
    sources += [get_case("o3-I2").ideal(n) for n in ("J", "I2")]
    per_bound = [0] * 10
    for source in sources:
        ideal = fresh(source)
        for p in range(10):
            before = len(calls)
            hilbert_function(ideal, p)
            per_bound[p] += len(calls) - before
    assert per_bound == [0, 0, 0, 102, 273, 181, 3, 0, 0, 0]
    assert len(calls) == 559


@pytest.mark.parametrize(
    "family, column_weights, spolys, elements",
    [
        ("o3-I2", (-1, -2, -3), 178, 51),
        # so3-I1 and so3-I2 share their fibre ideal L: two vectors for it
        ("so3-I1", (-2, -5, -1), 76, 32),
        ("so3-I2", (-4, -1, -3), 114, 43),
    ],
)
def test_weighted_run_counts_pinned(monkeypatch, family, column_weights, spolys, elements):
    # the w-compatible run on an inhomogeneous fibre ideal, as flat_limit
    # makes it: S-polynomials, and elements added (the seeds included)
    import classinv.groebner as gb
    from classinv.degeneration import compatible_order, expand_column_weights

    made = count_calls(monkeypatch, gb._Engine, "spoly")
    added = count_calls(monkeypatch, gb._Run, "add_element")
    case = get_case(family)
    w = expand_column_weights(case.ring, column_weights, ["x", "y", "z"])
    fresh(case.ideal("L")).groebner_basis(compatible_order(w))
    assert (len(made), len(added)) == (spolys, elements)


def test_hilbert_sweep_numerator_count_pinned(monkeypatch):
    # the numerator kernel runs once per distinct set of minimal leading
    # monomials: p = 0 gives the empty set, shared by all five ideals, and
    # p = 1 adds nothing (no leading monomial of degree <= 1).  gl2 and sp4
    # complete at p = 4 with p = 3's set; gl3 I, o3-I2 J and I2 stop
    # growing at degree 4 and complete at p = 6 with p = 4's set.
    # Recomputing every truncated numerator gave [5, 5, 5, 5, 5, 3, 3, 0, 0, 0].
    import classinv.groebner as gb

    kernel_runs = {}  # each new entry is one kernel run
    monkeypatch.setattr(gb, "_NUMERATORS", kernel_runs)
    sources = [get_case(n).ideal("I") for n in ("gl2", "gl3", "sp4")]
    sources += [get_case("o3-I2").ideal(n) for n in ("J", "I2")]
    per_bound = [0] * 10
    for source in sources:
        ideal = fresh(source)
        for p in range(10):
            before = len(kernel_runs)
            hilbert_function(ideal, p)
            per_bound[p] += len(kernel_runs) - before
    assert per_bound == [1, 0, 5, 5, 3, 0, 0, 0, 0, 0]


@pytest.mark.parametrize(
    "w, hit",
    [
        ([-1, -1, -1], True),  # the weight is minus the degree: grevlex itself
        ([-1, -2, -4], True),
        ([-3, -1, -1], False),
        ([0, -1, -1], False),
        ([-5, -1, -2], False),
    ],
)
def test_grevlex_after_a_weighted_basis_hits_only_when_leading_terms_agree(w, hit, monkeypatch):
    # the weighted basis answers a later grevlex query exactly when each
    # of its elements has the same leading monomial under grevlex
    import classinv.groebner as gb

    runs = count_calls(monkeypatch, gb, "_Run")
    r = ring("x", "y", "z")
    I = make_ideal(r, "x^2 - y", "y*z^2 - x + 1", "z^3 - x*y")
    order = weighted_order(w)
    weighted = I.groebner_basis(order)
    agree = all(g.leading_monomial(order) == g.leading_monomial(GREVLEX) for g in weighted)
    served = [serialize(g) for g in I.groebner_basis(GREVLEX)]
    assert agree is hit
    assert len(runs) == (1 if hit else 2)
    assert served == [serialize(g) for g in fresh(I).groebner_basis(GREVLEX)]


def record_seeds(monkeypatch):
    """A list that gets the generators each new Buchberger run starts from."""
    import classinv.groebner as gb

    seeds = []
    real = gb._Run.__init__

    def init(run, r, gens, order):
        seeds.append(gens)
        real(run, r, gens, order)

    monkeypatch.setattr(gb._Run, "__init__", init)
    return seeds


def test_bounded_run_starts_from_the_generators(monkeypatch):
    seeds = record_seeds(monkeypatch)
    I = make_ideal(ring("x", "y", "z"), "x^2 - y*z", "x*y - z^2", "y^3 - x*z^2")
    I.groebner_basis(LEX)
    assert I._cones
    I.groebner_basis(GREVLEX, degree_bound=2)
    assert seeds[-1] is I.generators


def test_order_that_is_no_well_order_starts_from_the_generators(monkeypatch):
    # a positive weight on inhomogeneous input: the result can depend on
    # the seed, so the run never starts from a cone
    seeds = record_seeds(monkeypatch)
    I = make_ideal(ring("x", "y", "z"), "x^2 + y*z - 1", "x*y - z^2")
    I.groebner_basis()
    assert I._cones
    I.groebner_basis(weighted_order([1, -1, -1]))
    assert seeds[-1] is I.generators


def test_unbounded_term_order_run_starts_from_the_newest_cone(monkeypatch):
    # each order here misses every cone the ideal holds; its run starts
    # from the newest one and ends at the basis a cold run gives
    seeds = record_seeds(monkeypatch)
    gens = ("x^2 - y", "y*z^2 - x + 1", "z^3 - x*y")
    I = make_ideal(ring("x", "y", "z"), *gens)
    I.groebner_basis()
    for order in (weighted_order([-3, -1, -1]), weighted_order([-5, -1, -2]), LEX):
        newest = I._cones[-1][1]
        served = [serialize(g) for g in I.groebner_basis(order)]
        assert seeds[-1] is newest
        cold = fresh(I)
        assert served == [serialize(g) for g in cold.groebner_basis(order)]
        assert seeds[-1] is cold.generators
    # a complete count that misses starts its run from the newest cone too
    J = make_ideal(ring("x", "y", "z"), *gens)
    J.groebner_basis(weighted_order([-3, -1, -1]))
    newest = J._cones[-1][1]
    counts = [affine_hilbert_function(J, d) for d in range(8)]
    assert seeds[-1] is newest
    assert counts == [affine_hilbert_function(fresh(J), d) for d in range(8)]


def packed_minimal(monomials, arity):
    """The minimal monomials, packed, as the library's engine orders them."""
    eng = _Engine(ring(*[f"x{i}" for i in range(arity)]), GREVLEX)
    return eng.minimal(map(_pack, monomials))


class TestPackedNumerator:
    """`_hilbert_numerator` on packed monomials against `oracle_numerator`
    on the same generators in the same order: identical lists.  Each test
    starts with an empty numerator memo, so the kernel itself runs."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        import classinv.groebner as gb

        monkeypatch.setattr(gb, "_NUMERATORS", {})

    def assert_matches_oracle(self, gens, arity):
        want = oracle_numerator([_unpack(p, arity) for p in gens])
        assert _hilbert_numerator(gens) == want

    @pytest.mark.parametrize("seed", range(54))
    def test_random_monomial_sets(self, seed):
        rng = random.Random(9000 + seed)
        arity = 1 + seed % 9
        lead = [
            random_monomial(rng, arity, rng.randint(1, 6))
            for _ in range(rng.randint(1, 14))
        ]
        self.assert_matches_oracle(packed_minimal(lead, arity), arity)

    def test_exponents_at_the_field_limit(self):
        for lead in ([(127, 0), (3, 2), (0, 127)], [(127, 1, 0), (1, 126, 1), (0, 2, 127)]):
            self.assert_matches_oracle(packed_minimal(lead, len(lead[0])), len(lead[0]))

    def test_empty_set_and_unit_monomial(self):
        assert _hilbert_numerator([]) == oracle_numerator([]) == [1]
        assert _hilbert_numerator([0]) == oracle_numerator([(0, 0, 0)]) == [0]

    @pytest.mark.parametrize(
        "name, which", [("gl2", "I"), ("gl3", "I"), ("sp4", "I"), ("o3-I2", "J"), ("so3-I2", "L")]
    )
    def test_catalogued_leading_ideals(self, name, which):
        source = get_case(name).ideal(which)
        self.assert_matches_oracle(fresh(source)._leads(GREVLEX), source.ring.arity)

    def test_memo_hits_are_equal_unaliased_lists(self):
        import classinv.groebner as gb

        gens = [_pack(m) for m in [(2, 0, 0), (1, 1, 0), (0, 1, 1)]]
        first = _hilbert_numerator(gens)
        want = list(first)
        first.append(99)  # a caller's edit must not reach the memo
        again = _hilbert_numerator(gens[::-1])
        third = _hilbert_numerator(gens)
        assert again == third == want
        assert again is not third
        assert len(gb._NUMERATORS) == 1


class TestCountsWithoutReducedBasis:
    """A count query reads packed leading monomials: it neither
    interreduces a run nor writes a basis-cache entry."""

    def member(self):
        from classinv.degeneration import expand_column_weights, family_member

        case = get_case("so3-I1")
        w = expand_column_weights(case.ring, (-2, -5, -1), ["x", "y", "z"])
        return family_member(case.ideal("L"), w, Fraction(3))

    def test_affine_counts_do_not_reduce(self, monkeypatch):
        import classinv.groebner as gb

        member = self.member()
        reduced = count_calls(monkeypatch, gb._Run, "reduced")
        counts = [affine_hilbert_function(member, d) for d in range(5)]
        assert reduced == [] and member._gb == {}
        cold = fresh(member)
        cold_basis = [serialize(g) for g in cold.groebner_basis()]
        assert counts == [affine_hilbert_function(cold, d) for d in range(5)]
        # the kept complete run gives a later basis query the cold basis
        assert [serialize(g) for g in member.groebner_basis()] == cold_basis
        assert len(reduced) == 2

    @pytest.mark.parametrize("name", ["gl2", "gl3", "sp4"])
    def test_krull_dim_before_bounded_queries(self, name, monkeypatch):
        import classinv.groebner as gb

        source = get_case(name).ideal("I")
        ideal = fresh(source)
        reduced = count_calls(monkeypatch, gb._Run, "reduced")
        assert krull_dim(ideal) == krull_dim(fresh(source))
        assert reduced == [] and ideal._gb == {}
        # a count completed the run, so every bound gets the complete basis,
        # as it does after an unbounded query
        complete = [serialize(g) for g in fresh(source).groebner_basis()]
        for p in range(8):
            assert [serialize(g) for g in ideal.groebner_basis(GREVLEX, degree_bound=p)] == complete
        assert [hilbert_function(ideal, p) for p in range(8)] == [
            hilbert_function(fresh(source), p) for p in range(8)
        ]

    def test_complete_hilbert_counts_do_not_reduce(self, monkeypatch):
        import classinv.groebner as gb

        source = get_case("gl2").ideal("I")
        ideal = fresh(source)
        krull_dim(ideal)
        reduced = count_calls(monkeypatch, gb._Run, "reduced")
        values = [hilbert_function(ideal, p) for p in range(8)]
        assert reduced == [] and ideal._gb == {}
        assert values == [hilbert_function(fresh(source), p) for p in range(8)]

    def test_unit_ideal_has_no_krull_dimension(self):
        r = ring("x", "y")
        with pytest.raises(ValueError, match="unit ideal"):
            krull_dim(make_ideal(r, "x*y - 1", "x"))


def test_completed_run_keeps_leads_and_drops_its_divisor_memo():
    # the run a count completes stays in `_runs` for a later basis query,
    # which builds an index of its own: the run's divisor memo is not read again
    ideal = fresh(get_case("gl3").ideal("I"))
    krull_dim(ideal)
    (run,) = ideal._runs.values()
    assert run.index._memo == {}
    assert run.leads == ideal._leads(GREVLEX)
    assert sorted(run.leads) == sorted(_pack(g.leading_monomial()) for g in ideal.groebner_basis())


@pytest.mark.parametrize(
    "name, gens_a, gens_b",
    [
        ("xy", ["x"], ["y"]),
        ("xyz", ["x", "y^2"], ["y", "z"]),
        ("inhomogeneous", ["x^2 - y", "y*z - 1"], ["x - z", "y^2"]),
    ],
)
def test_intersection_starts_one_run(name, gens_a, gens_b, monkeypatch):
    # the elimination run; its t-free part is the result's reduced grevlex
    # basis, which answers the result's grevlex queries without a run
    import classinv.groebner as gb

    r = ring("x", "y", "z")
    runs = count_calls(monkeypatch, gb, "_Run")
    inter = ideal_intersection(make_ideal(r, *gens_a), make_ideal(r, *gens_b))
    assert inter.groebner_basis() == list(inter.generators)
    assert len(runs) == 1
    cold = [serialize(g) for g in fresh(inter).groebner_basis()]
    assert [serialize(g) for g in inter.generators] == cold
