from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classinv.catalog import GL3_HILBERT_COEFFS, SP4_HILBERT_COEFFS
from classinv.reptheory import (
    GroupType,
    IrrLabel,
    Weight,
    classical_hilbert,
    clebsch_gordan,
    enumerate_dominant,
    nilcone_isotypic_mult,
    so3_plethysm,
    weyl_dim,
)


def positive_roots(family: str, n: int):
    """The positive roots of B_m (SO(2m+1)), C_m (Sp(2m)) or D_m (SO(2m)) in
    the epsilon basis: e_i - e_j and e_i + e_j for i < j, plus e_i for B and
    2 e_i for C."""
    m = n // 2

    def vec(pairs):
        v = [0] * m
        for i, c in pairs:
            v[i] += c
        return tuple(v)

    roots = [vec([(i, 1), (j, s)]) for i in range(m) for j in range(i + 1, m) for s in (-1, 1)]
    if family == "Sp":
        roots += [vec([(i, 2)]) for i in range(m)]
    elif n % 2:
        roots += [vec([(i, 1)]) for i in range(m)]
    return roots


def root_product(coords, roots):
    """Weyl's dimension formula: the product over the positive roots a of
    (lambda + rho, a) / (rho, a), rho half the sum of the positive roots."""
    rho = [Fraction(sum(a[i] for a in roots), 2) for i in range(len(coords))]
    out = Fraction(1)
    for a in roots:
        out *= Fraction(sum((c + r) * x for c, r, x in zip(coords, rho, a)))
        out /= sum(r * x for r, x in zip(rho, a))
    return out


GL2 = GroupType("GL", 2)
GL3 = GroupType("GL", 3)
SP4 = GroupType("Sp", 4)


class TestWeylDim:
    def test_gl2_hook_formula(self):
        # dimension k1 + k2 + 1 for the weight (k1, -k2)
        for k1 in range(4):
            for k2 in range(4):
                assert weyl_dim(Weight(GL2, (k1, -k2))) == k1 + k2 + 1

    def test_gl3_adjoint(self):
        assert weyl_dim(Weight(GL3, (1, 0, -1))) == 8

    def test_gl3_closed_form(self):
        # (1 + r1 - r2)(2 + r1 - r3)(1 + r2 - r3) / 2
        for coords in [(2, 0, 0), (1, 1, 0), (3, 1, -2), (0, -1, -1)]:
            r1, r2, r3 = coords
            want = (1 + r1 - r2) * (2 + r1 - r3) * (1 + r2 - r3) // 2
            assert weyl_dim(Weight(GL3, coords)) == want

    def test_sp4_values(self):
        assert weyl_dim(Weight(SP4, (1, 1))) == 5
        assert weyl_dim(Weight(SP4, (1, 0))) == 4
        assert weyl_dim(Weight(SP4, (2, 0))) == 10

    def test_so3_odd_rank_one(self):
        so3 = GroupType("SO", 3)
        for r in range(5):
            assert weyl_dim(Weight(so3, (r,))) == 2 * r + 1

    def test_orthogonal_sign_tag_ignored(self):
        o3 = GroupType("O", 3)
        w = Weight(o3, (2,))
        assert weyl_dim(IrrLabel(w, 1)) == weyl_dim(IrrLabel(w, -1)) == 5

    def test_sign_tag_required(self):
        o3 = GroupType("O", 3)
        with pytest.raises(ValueError):
            IrrLabel(Weight(o3, (1,)))

    def test_gl_duality(self):
        for coords in [(3, 1, 0), (2, 0, -1), (1, 1, 1)]:
            dual = tuple(-c for c in reversed(coords))
            assert weyl_dim(Weight(GL3, coords)) == weyl_dim(Weight(GL3, dual))

    def test_non_dominant_rejected(self):
        with pytest.raises(ValueError):
            Weight(GL2, (0, 1))

    @pytest.mark.parametrize(
        "family, n", [("SO", n) for n in range(3, 9)] + [("Sp", n) for n in (2, 4, 6, 8)]
    )
    def test_types_b_c_d_against_explicit_roots(self, family, n):
        group = GroupType(family, n)
        roots = positive_roots(family, n)
        for p in range(5):
            for w in enumerate_dominant(group, p):
                assert weyl_dim(w) == root_product(w.coords, roots), w


class TestEnumerate:
    def test_gl2_degree_one(self):
        got = [w.coords for w in enumerate_dominant(GL2, 1)]
        assert set(got) == {(1, 0), (0, -1)}

    def test_gl3_degree_two(self):
        got = [w.coords for w in enumerate_dominant(GL3, 2)]
        assert set(got) == {(2, 0, 0), (1, 1, 0), (1, 0, -1), (0, -1, -1), (0, 0, -2)}

    def test_sp4_sum_mode(self):
        got = [w.coords for w in enumerate_dominant(SP4, 2, "sum")]
        assert set(got) == {(2, 0), (1, 1)}

    def test_sorted_and_unique(self):
        ws = enumerate_dominant(GL3, 4)
        coords = [w.coords for w in ws]
        assert coords == sorted(set(coords), reverse=True)

    def test_counts_against_brute_force(self):
        for n, grp in [(2, GL2), (3, GL3)]:
            for p in range(7):
                brute = set()
                rng = range(-p, p + 1)
                import itertools

                for tup in itertools.product(rng, repeat=n):
                    if all(tup[i] >= tup[i + 1] for i in range(n - 1)) and sum(
                        map(abs, tup)
                    ) == p:
                        brute.add(tup)
                assert len(enumerate_dominant(grp, p)) == len(brute)


class TestClassicalHilbert:
    def test_gl2_small_values(self):
        assert [classical_hilbert(GL2, p=p) for p in (0, 1, 2)] == [1, 8, 29]

    def test_gl3_agrees_with_closed_form(self):
        for p in range(9):
            want = sum(c * p**i for i, c in enumerate(GL3_HILBERT_COEFFS))
            assert classical_hilbert(GL3, p=p) == want

    def test_sp4_agrees_with_closed_form(self):
        for p in range(7):
            want = sum(c * p**i for i, c in enumerate(SP4_HILBERT_COEFFS))
            assert classical_hilbert(SP4, p=p) == want

    def test_gl3_degree_one_is_ambient(self):
        assert classical_hilbert(GL3, p=1) == 18


class TestDecompositions:
    def test_clebsch_gordan_basic(self):
        assert clebsch_gordan(2, 2) == [4, 2, 0]
        assert clebsch_gordan(5, 0) == [5]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12))
    def test_clebsch_gordan_dimension_count(self, a, b):
        assert sum(k + 1 for k in clebsch_gordan(a, b)) == (a + 1) * (b + 1)

    def test_plethysm_sym(self):
        assert so3_plethysm(2, "sym") == [4, 0]
        assert so3_plethysm(3, "sym") == [6, 2]

    def test_plethysm_hook(self):
        assert so3_plethysm(2, "hook") == [4, 2]

    def test_plethysm_dimensions(self):
        for i in range(1, 8):
            total = sum(k + 1 for k in so3_plethysm(i, "sym"))
            assert total == (i + 1) * (i + 2) // 2

    def test_plethysm_hook_rejects_zero(self):
        with pytest.raises(ValueError):
            so3_plethysm(0, "hook")

    def test_tensor_recursion(self):
        # S^i (x) V splits as S^{i+1} + hook; match binary-form contents
        for i in range(2, 7, 2):
            lhs = []
            for d in so3_plethysm(i, "sym"):
                lhs.extend(clebsch_gordan(d, 2))
            rhs = so3_plethysm(i + 1, "sym") + so3_plethysm(i, "hook")
            assert sorted(lhs) == sorted(rhs)


class TestIsotypic:
    def test_gl2_mixed_weights(self):
        for k1 in range(1, 4):
            for k2 in range(1, 4):
                mult, deg = nilcone_isotypic_mult("GL", 2, Weight(GL2, (k1, -k2)))
                assert mult == (k1 + 1) * (k2 + 1)
                assert deg == k1 + k2

    def test_gl3_polynomial_weight(self):
        w = Weight(GL3, (2, 1, 0))
        mult, deg = nilcone_isotypic_mult("GL", 3, w)
        assert mult == weyl_dim(w)
        assert deg == 3

    def test_sp4_exterior_square(self):
        mult, deg = nilcone_isotypic_mult("Sp", 4, Weight(SP4, (1, 1)))
        assert mult == 6  # exterior square of a four-dimensional space
        assert deg == 2
