import random
from fractions import Fraction
from pathlib import Path

import pytest

from classinv import catalog
from classinv.catalog import UnsupportedIdeal, get_case, quotient_image
from classinv.groebner import normal_form
from classinv.poly import parse_poly, serialize

GOLDEN_CATALOG = Path(__file__).resolve().parent / "golden" / "catalog.txt"


def test_registry_is_stable():
    names = catalog.case_names()
    assert "gl2" in names and "o3-I2" in names and "sp4" in names
    assert get_case("gl2") is get_case("gl2")  # cached


def test_unknown_case():
    with pytest.raises(KeyError):
        get_case("nope")


def test_generators_roundtrip_through_text():
    for name in ("gl2", "gl3", "o2", "o3-I2", "so3-I1", "sp4"):
        case = get_case(name)
        for ideal in case.ideals.values():
            for g in ideal.generators:
                assert parse_poly(serialize(g), case.ring) == g


def test_fft_counts():
    assert len(get_case("gl2").fft) == 4
    assert len(get_case("gl3").fft) == 9
    assert len(get_case("o2").fft) == 3
    assert len(get_case("o3-I2").fft) == 6
    assert len(get_case("sp4").fft) == 6
    assert len(get_case("so3-I1").fft) == 7
    assert len(get_case("sl-2-3").fft) == 3


def test_o2_fft_hyperbolic_basis():
    case = get_case("o2")
    r = case.ring
    want = {parse_poly(t, r) for t in ("x1*x2", "y1*y2", "x1*y2 + x2*y1")}
    assert set(case.fft) == want


def test_invariants_contained_in_fixed_points():
    for name, which in [("gl2", "I"), ("gl3", "I"), ("o2", "I"), ("o3-I2", "I2"),
                        ("so3-I2", "I2"), ("sp4", "I")]:
        case = get_case(name)
        I = case.ideal(which)
        for g in case.ideal("J").generators:
            assert normal_form(g, I).is_zero(), (name, serialize(g))


def test_so3_I1_contains_invariants():
    case = get_case("so3-I1")
    I1 = case.ideal("I1")
    for g in case.ideal("J").generators:
        assert normal_form(g, I1).is_zero()


def test_o3_first_fixed_point_unsupported():
    with pytest.raises(UnsupportedIdeal):
        get_case("o3-I2").ideal("I1")


def test_generic_fiber_membership():
    case = get_case("o3-I2")
    L = case.ideal("L")
    pairing = parse_poly("x1*y1 + x2*y2 + x3*y3", case.ring)
    assert normal_form(pairing, L).is_zero()
    assert len(L.generators) == 6
    assert len(get_case("so3-I1").ideal("L").generators) == 7


def test_quotient_image_matches_invariants():
    rng = random.Random(7)

    def rand(n, m):
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]

    # bilinear situation: value of the composite map matches the generators
    case = get_case("gl2")
    u1, u2 = rand(2, 2), rand(2, 2)
    image = quotient_image(case, (u1, u2))
    flat_image = [image[a][b] for a in range(2) for b in range(2)]
    # ring order: x11 x12 x21 x22 y11 y12 y21 y22 with the second matrix
    # written anti-diagonally: u2[a][c] = y[3-c][3-a] (one-indexed)
    point = [u1[0][0], u1[0][1], u1[1][0], u1[1][1],
             u2[1][1], u2[0][1], u2[1][0], u2[0][0]]
    values = [g.evaluate(point) for g in case.fft]
    assert values == flat_image

    # orthogonal situation
    case = get_case("o3-I2")
    w = rand(3, 3)
    gram = quotient_image(case, w)
    point = [w[i][j] for j in range(3) for i in range(3)]
    expected = [gram[0][0], gram[1][1], gram[2][2], gram[0][1], gram[0][2], gram[2][1]]
    values = [g.evaluate(point) for g in case.fft]
    assert values == expected

    # block identity maps to the rank pattern
    w = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    gram = quotient_image(case, w)
    assert gram == [[1, 0, 0], [0, 1, 0], [0, 0, 0]]


def test_sl_quotient_is_minor_vector():
    case = get_case("sl-2-3")
    w = [[1, 2, 3], [0, 1, 4]]
    minors = quotient_image(case, w)
    assert minors == [Fraction(1), Fraction(4), Fraction(5)]


def test_moment_generators_vanish_on_catalogued_points():
    case = get_case("glsym-n2-d4")
    # the standard shifted pair: u1 has an identity block on the right,
    # u2 on the left, with l = 2 <= min(d/2, n)
    l, n, d = 2, 2, 4
    u1 = [[0] * (d - l) + [1 if i == j else 0 for j in range(l)] for i in range(n)]
    u2 = [[1 if (i == j and i < l) else 0 for j in range(n)] for i in range(d)]
    mu = quotient_image(case, (u2, u1))  # u1 . u2 in matrix terms
    assert all(v == 0 for row in mu for v in row)
    point = [Fraction(v) for row in u1 for v in row] + [
        Fraction(v) for row in u2 for v in row
    ]
    for g in case.ideal("moment").generators:
        assert g.evaluate(point) == 0


def test_components_supported_only_where_catalogued():
    assert len(get_case("gl2").components) == 4
    assert len(get_case("o2").components) == 2
    assert get_case("gl3").components == []


def test_gl2_membership_separates_invariants_from_fixed_point():
    # the extra degree-two generator of the fixed point is not an invariant
    case = get_case("gl2")
    h1 = parse_poly("x11*y11", case.ring)
    assert not normal_form(h1, case.ideal("J")).is_zero()
    assert normal_form(h1, case.ideal("I")).is_zero()


def test_generator_counts():
    assert len(get_case("gl2").ideal("I").generators) == 8
    assert len(get_case("gl3").ideal("I").generators) == 30
    assert len(get_case("sp4").ideal("I").generators) == 11
    assert len(get_case("so3-I1").ideal("I1").generators) == 6
    assert len(get_case("so3-I2").ideal("I2").generators) == 20
    assert len(get_case("o3-I2").ideal("I2").generators) == 16


def test_moment_ideal_shapes():
    # one quadric in four variables for the smallest bilinear moment fiber
    case = get_case("glsym-n1-d2")
    assert case.ring.arity == 4
    assert len(case.ideal("moment").generators) == 1
    assert case.ideal("moment").generators[0].degree() == 2
    # antisymmetric and symmetric entry counts
    assert len(get_case("osym-n2-d2").ideal("moment").generators) == 1
    assert len(get_case("spsym-n1-d2").ideal("moment").generators) == 3


def test_quotient_image_rank_pattern_and_zero():
    # block-identity pair maps to the rank pattern under the composite map
    case = get_case("gl2")
    u1 = [[1, 0], [0, 0]]
    u2 = [[1, 0], [0, 0]]
    assert quotient_image(case, (u1, u2)) == [[1, 0], [0, 0]]
    sp = get_case("sp4")
    zero = [[0] * 4 for _ in range(4)]
    assert quotient_image(sp, zero) == [[0] * 4 for _ in range(4)]


def _dump_coeffs(named):
    return " ".join(f"{k}={serialize(v)}" for k, v in named.items())


def dump_catalog() -> str:
    """Every case's declared data as text: the ring, `fft`, the generators of
    each ideal and quotient ideal in order, components, degenerations,
    tangent and independence data, the `expected` keys with their
    citations, and the checks.  Expected values are left out."""
    lines = []
    for name in catalog.case_names():
        case = get_case(name)
        lines.append(f"case {case.name} {case.situation} {case.params} {case.title}")
        lines.append(f"  ring {' '.join(case.ring.variables)}")
        lines += [f"  fft {serialize(g)}" for g in case.fft]
        for table in (case.ideals, case.quotient_ideals):
            for which, ideal in table.items():
                lines.append(f"  ideal {which} in {' '.join(ideal.ring.variables)}")
                lines += [f"    {serialize(g)}" for g in ideal.generators]
        for which, ideal in case.components:
            lines.append(f"  component {which}")
            lines += [f"    {serialize(g)}" for g in ideal.generators]
        for d in case.degenerations:
            lines.append(f"  degeneration {d.source} {d.column_weights} {d.target} {d.citation}")
        for key, exp in case.expected.items():
            lines.append(f"  expected {key}: {exp.citation}")
        t = case.tangent
        if t is not None:
            lines.append(f"  tangent dim_module={t.dim_module} rank={t.expected_rank} "
                         f"lower={t.lower_bound} {t.lower_citation} / {t.rank_citation}")
            lines += [f"    generator {g} {serialize(p)}" for g, p in t.generators]
            lines += [f"    relation {r} {_dump_coeffs(c)}" for r, c in t.relations]
            lines += [f"    morphism {m} {_dump_coeffs(c)}" for m, c in t.morphisms]
        d = case.independence
        if d is not None:
            lines.append(f"  independence rank={d.expected_rank} bounds={d.bounds} {d.citation}")
            lines += [f"    generator {g} {serialize(p)}" for g, p in d.generators]
            lines += [f"    morphism {m} {_dump_coeffs(c)}" for m, c in d.morphisms]
        lines += [f"  check {c.kind} {sorted(c.args.items())}" for c in case.checks]
    return "\n".join(lines) + "\n"


def test_catalog_matches_golden():
    # recorded with: PYTHONPATH=src:tests python -c
    #   "import test_catalog; print(test_catalog.dump_catalog(), end='')"
    assert dump_catalog() == GOLDEN_CATALOG.read_text()
