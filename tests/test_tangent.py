import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from classinv import catalog, checks, tangent
from classinv.catalog import Expected, get_case
from classinv.groebner import Ideal, ideal_product, normal_form
from classinv.poly import parse_poly
from classinv.tangent import (
    check_generates,
    check_relation,
    evaluate_pairing,
    minimal_generator_count,
    rank_lower_bound,
    relation_combination,
    tangent_report,
    value_tuple_rank,
)


def span_dimension(polys):
    monos = sorted({m for p in polys for m in p.terms})
    rows = [[p.terms.get(m, Fraction(0)) for m in monos] for p in polys]
    rank = 0
    for c in range(len(monos)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / pv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestGenerates:
    def test_catalogued_sets_generate(self):
        for name in ("gl2", "sp4", "o2"):
            case = get_case(name)
            assert check_generates(case.tangent.generators, case.ideal("I"))

    def test_declared_module_dimensions_match_spans(self):
        # the generator lists may carry one linear dependency (the trace-type
        # invariant appears on both sides); the declared dimension is the span
        for name, want in [("gl2", 7), ("gl3", 29), ("o2", 5), ("sp4", 11), ("so3-I2", 20)]:
            case = get_case(name)
            polys = [g for _, g in case.tangent.generators]
            assert span_dimension(polys) == want == case.tangent.dim_module, name

    def test_dropping_a_generator_fails(self):
        case = get_case("gl2")
        gens = [g for g in case.tangent.generators if g[0] != "h1"]
        assert not check_generates(gens, case.ideal("I"))


class TestRelations:
    def test_all_catalogued_relations_pass(self):
        for name in ("gl2", "gl3", "o2", "so3-I2", "sp4"):
            case = get_case(name)
            ideal_name = "I2" if "I2" in case.ideals and "I" not in case.ideals else "I"
            ideal = case.ideal(ideal_name)
            square = ideal_product(ideal, ideal)
            for rel_name, rel in case.tangent.relations:
                assert check_relation(rel, case.tangent.generators, ideal, square), (
                    name,
                    rel_name,
                )

    def test_perturbed_relation_fails(self):
        case = get_case("gl2")
        ideal = case.ideal("I")
        name, rel = case.tangent.relations[0]
        bad = dict(rel)
        key = next(iter(bad))
        bad[key] = bad[key] + case.ring.one()
        assert not check_relation(bad, case.tangent.generators, ideal)

    def test_most_relations_are_identically_zero(self):
        # the rank-one checks: the displayed relations combine to zero on the nose
        case = get_case("sp4")
        for _, rel in case.tangent.relations:
            assert relation_combination(rel, case.tangent.generators).is_zero()


def add_relations(*rels):
    out = {}
    for rel in rels:
        for name, coeff in rel.items():
            out[name] = out[name] + coeff if name in out else coeff
    return out


def random_relation(rng, case):
    """A random combination that mixes degrees: multiples of catalogued
    relations, products of two or three generators, and with probability
    one half a perturbation of low degree."""
    r = case.ring
    table = dict(case.tangent.generators)
    names = sorted(table)
    parts = []
    for _, rel in rng.sample(case.tangent.relations, min(2, len(case.tangent.relations))):
        scale = rng.choice([r.const(rng.randint(-3, 3)), r.var(rng.choice(r.variables))])
        parts.append({n: scale * c for n, c in rel.items()})
    for _ in range(2):
        coeff = rng.randint(-3, 3) * table[rng.choice(names)]
        if rng.random() < 0.5:
            coeff = coeff * r.var(rng.choice(r.variables))
        parts.append({rng.choice(names): coeff})
    if rng.random() < 0.5:
        mono = r.const(rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            mono = mono * r.var(rng.choice(r.variables))
        parts.append({rng.choice(names): mono})
    return add_relations(*parts)


class TestMembershipOracle:
    """Degree-local membership against the normal form modulo a Groebner
    basis of the square."""

    @pytest.mark.parametrize("name", ["gl2", "so3-I2", "sp4"])
    def test_random_combinations(self, name):
        case = get_case(name)
        ideal_name = "I2" if "I2" in case.ideals and "I" not in case.ideals else "I"
        ideal = case.ideal(ideal_name)
        square = ideal_product(ideal, ideal)
        gens = case.tangent.generators
        rng = random.Random(f"membership-{name}")
        verdicts, homogeneous = set(), set()
        for _ in range(8):
            rel = random_relation(rng, case)
            combo = relation_combination(rel, gens)
            want = normal_form(combo, square).is_zero()
            assert check_relation(rel, gens, ideal, square) == want
            verdicts.add(want)
            homogeneous.add(combo.is_homogeneous())
        assert verdicts == {True, False}
        assert False in homogeneous

    def test_non_homogeneous_square_uses_normal_form(self, monkeypatch):
        case = get_case("gl2")
        r = case.ring
        ideal = case.ideal("I")
        gens = case.tangent.generators
        table = dict(gens)
        square = Ideal(
            r,
            list(ideal_product(ideal, ideal).generators)
            + [table["f1"] * table["f2"] + table["f3"]],
        )
        rels = [{"f3": r.one()}, {"h1": r.one()}, {"f3": r.var("x11"), "h2": r.one()}]
        wants = [normal_form(relation_combination(rel, gens), square).is_zero() for rel in rels]
        assert wants == [True, False, False]
        calls = []

        def counting(p, ideal_, *args):
            calls.append(p)
            return normal_form(p, ideal_, *args)

        monkeypatch.setattr(tangent, "normal_form", counting)
        assert [check_relation(rel, gens, ideal, square) for rel in rels] == wants
        assert len(calls) == len(rels)


@pytest.fixture(scope="module")
def gl3_square():
    case = get_case("gl3")
    ideal = case.ideal("I")
    return case, ideal, ideal_product(ideal, ideal)


class TestGl3MembershipOracle:
    # the Groebner oracle is kept at degree 4; at degree 5 it takes ~30 s
    def check(self, gl3_square, rel):
        case, ideal, square = gl3_square
        gens = case.tangent.generators
        combo = relation_combination(rel, gens)
        assert combo.is_homogeneous() and combo.degree() == 4
        want = normal_form(combo, square).is_zero()
        assert check_relation(rel, gens, ideal, square) == want
        return want

    def test_cubic_times_variable_is_not_in_square(self, gl3_square):
        r = gl3_square[0].ring
        assert not self.check(gl3_square, {"s1": r.var("x11")})
        assert not self.check(gl3_square, {"t4": r.var("y23")})

    def test_quadric_products_are_in_square(self, gl3_square):
        table = dict(gl3_square[0].tangent.generators)
        assert self.check(gl3_square, {"f1": table["h2"]})
        assert self.check(gl3_square, {"h3": table["f5"] - 2 * table["h9"]})

    def test_mixed_sums(self, gl3_square):
        case = gl3_square[0]
        r = case.ring
        table = dict(case.tangent.generators)
        rels = dict(case.tangent.relations)
        assert not self.check(gl3_square, {"f1": table["h2"], "s1": r.var("x11")})
        assert self.check(gl3_square, add_relations(rels["r10"], {"f1": table["h2"]}))
        assert not self.check(
            gl3_square, add_relations(rels["r10"], {"s2": r.var("x12")})
        )


def test_tangent_report_built_once_per_case(monkeypatch):
    calls = []
    original = tangent.tangent_report

    def counting(case):
        calls.append(case)
        return original(case)

    monkeypatch.setattr(tangent, "tangent_report", counting)
    report = checks.run_case("gl3")
    assert len(calls) == 1
    verdicts = {
        c.name: c.verdict
        for c in report.checks
        if c.name in ("generates", "relations", "rank", "tangent-bounds")
    }
    assert verdicts == dict.fromkeys(("generates", "relations", "rank", "tangent-bounds"), "pass")


class TestPairing:
    def test_gl2_displayed_values(self):
        case = get_case("gl2")
        ideal = case.ideal("I")
        morphs = dict(case.tangent.morphisms)
        rels = dict(case.tangent.relations)
        r = case.ring
        assert evaluate_pairing(morphs["psi1"], rels["r1"], ideal) == -parse_poly("y21", r)
        assert evaluate_pairing(morphs["psi3"], rels["r2"], ideal) == -parse_poly("x11", r)
        assert evaluate_pairing(morphs["psi4"], rels["r3"], ideal) == parse_poly("x11", r)

    def test_sp4_displayed_pattern(self):
        case = get_case("sp4")
        ideal = case.ideal("I")
        morphs = dict(case.tangent.morphisms)
        rels = dict(case.tangent.relations)
        r = case.ring
        row = [
            evaluate_pairing(morphs[f"psi{i}"], rels["r1"], ideal) for i in range(1, 6)
        ]
        want = [parse_poly("z4", r), -parse_poly("y4", r), r.zero(),
                parse_poly("x4", r), r.zero()]
        assert row == want

    def test_bilinearity(self):
        case = get_case("o2")
        ideal = case.ideal("I")
        (n1, m1), (n2, m2) = case.tangent.morphisms[:2]
        _, rel = case.tangent.relations[0]
        combined = {
            k: m1.get(k, case.ring.zero()) * 2 + m2.get(k, case.ring.zero()) * 3
            for k in set(m1) | set(m2)
        }
        lhs = evaluate_pairing(combined, rel, ideal)
        rhs = normal_form(
            evaluate_pairing(m1, rel, ideal) * 2 + evaluate_pairing(m2, rel, ideal) * 3,
            ideal,
        )
        assert lhs == rhs

    def test_zero_morphism_rank(self):
        case = get_case("o2")
        ideal = case.ideal("I")
        zero_morph = [("z", {})]
        assert rank_lower_bound(zero_morph, case.tangent.relations, ideal) == 0


class TestRanks:
    def test_catalogued_ranks(self):
        for name, want in [("gl2", 3), ("o2", 2), ("sp4", 5), ("so3-I2", 12)]:
            case = get_case(name)
            ideal_name = "I2" if "I2" in case.ideals and "I" not in case.ideals else "I"
            ideal = case.ideal(ideal_name)
            got = rank_lower_bound(case.tangent.morphisms, case.tangent.relations, ideal)
            assert got == want, name

    def test_rank_monotone_in_rows_and_columns(self):
        case = get_case("so3-I2")
        ideal = case.ideal("I2")
        data = case.tangent
        full = rank_lower_bound(data.morphisms, data.relations, ideal)
        fewer_rows = rank_lower_bound(data.morphisms[:8], data.relations, ideal)
        fewer_cols = rank_lower_bound(data.morphisms, data.relations[:4], ideal)
        assert fewer_rows <= full and fewer_cols <= full


class TestBounds:
    def test_concluded_dimensions(self):
        assert tangent_report("gl2").bounds == (4, 4)
        assert tangent_report("o2").bounds == (3, 3)
        assert tangent_report("sp4").bounds == (6, 6)
        assert tangent_report("so3-I2").bounds == (8, 8)
        assert tangent_report("so3-I1").bounds == (6, 6)
        assert tangent_report("o3-I2").bounds == (7, 8)

    def test_o3_independence_rank(self):
        rep = tangent_report("o3-I2")
        assert rep.rank == 7 == rep.expected_rank

    def test_report_contents(self):
        rep = tangent_report("sp4")
        assert rep.generates is True
        assert all(ok for _, ok in rep.relation_results)
        assert rep.rank == 5


def _verdict(case, kind):
    """The verdict of the case's declared check of the given kind."""
    (spec,) = [spec for spec in case.checks if spec.kind == kind]
    report = functools.cache(lambda: tangent_report(case))
    _, _, run = checks.KINDS[kind](case, 6, report, **spec.args)
    expected, computed = run()
    return "pass" if expected == computed else "fail"


class TestSelfComparisons:
    """The tangent-dim and tangent-independence checks read their bounds off
    computed quantities, not off the catalogued value they compare with."""

    def test_so3_i1_minimal_generator_count(self):
        case = get_case("so3-I1")
        gens = list(case.ideal("I1").generators)
        redundant = [q for _, q in case.expected["redundant-members"].value]
        assert minimal_generator_count(gens + redundant) == 6
        y1z2 = parse_poly("y1*z2", case.ring)
        assert minimal_generator_count(gens + redundant[:2] + [y1z2]) == 7
        with pytest.raises(ValueError):
            minimal_generator_count(gens + [parse_poly("x1 + 1", case.ring)])

    def test_so3_i1_tangent_dim_fails_on_altered_data(self):
        assert _verdict(catalog.build_so3("I1"), "tangent-dim") == "pass"
        case = catalog.build_so3("I1")
        case.expected["tangent-dim"] = Expected((5, 5), "altered")
        assert _verdict(case, "tangent-dim") == "fail"
        case = catalog.build_so3("I1")
        members = case.expected["redundant-members"].value
        y1z2 = parse_poly("y1*z2", case.ring)
        case.expected["redundant-members"] = Expected(members[:2] + [("f6", y1z2)], "altered")
        assert _verdict(case, "tangent-dim") == "fail"
        assert tangent_report(case).details == []

    def test_o3_tangent_independence_fails_on_altered_lower_bound(self):
        assert _verdict(catalog.build_o3(), "tangent-independence") == "pass"
        case = catalog.build_o3()
        case.independence = dataclasses.replace(case.independence, bounds=(1, 99))
        assert _verdict(case, "tangent-independence") == "fail"
        assert tangent_report(case).bounds == (7, 99)


class TestGl3Heavy:
    def test_gl3_rank_and_bounds(self):
        case = get_case("gl3")
        ideal = case.ideal("I")
        got = rank_lower_bound(case.tangent.morphisms, case.tangent.relations, ideal)
        assert got == 17
        assert tangent_report("gl3").bounds == (12, 12)

    def test_gl3_all_nineteen_morphisms_stay_at_seventeen(self):
        # adding the two remaining natural morphisms cannot exceed the
        # seventeen bound forced by the twelve-dimensional kernel
        case = get_case("gl3")
        ideal = case.ideal("I")
        extra = list(case.tangent.morphisms)
        extra.append(("psi3", {"f3": case.ring.one()}))
        got = rank_lower_bound(extra, case.tangent.relations, ideal)
        assert got == 17
