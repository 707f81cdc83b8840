import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from classinv import cli
from classinv.catalog import SO3_PRINTED_BASIS, case_names, get_case
from classinv.degeneration import (
    certified_basis,
    compatible_order,
    expand_column_weights,
    family_member,
    flat_limit,
    run_degeneration,
)
from classinv.groebner import (
    Ideal,
    affine_hilbert_function,
    certify_gb,
    ideal_equal,
    normal_form,
)
from classinv.poly import GREVLEX, parse_poly, ring, serialize

GOLDEN = Path(__file__).resolve().parent / "golden"
FAMILIES = ("o3-I2", "so3-I1", "so3-I2")


def test_expand_weights():
    case = get_case("o3-I2")
    w = expand_column_weights(case.ring, (-3, -2, -1), ["x", "y", "z"])
    assert w == [-3, -3, -3, -2, -2, -2, -1, -1, -1]
    with pytest.raises(ValueError):
        expand_column_weights(case.ring, (-3, -2), ["x", "y", "z"])


def test_certificates_on_printed_bases():
    for name in ("o3-I2", "so3-I1"):
        case = get_case(name)
        printed = case.ideal("L-printed-basis")
        assert certify_gb(list(printed.generators), GREVLEX)
        assert ideal_equal(printed, case.ideal("L"))


def test_certificate_rejects_corrupted_element():
    # the uncorrected transcription of the final basis element does not
    # even lie in the fiber ideal
    case = get_case("so3-I1")
    r = case.ring
    bad = [parse_poly(t, r) for t in SO3_PRINTED_BASIS[:-1]]
    bad.append(parse_poly("x1^2 - y1^2 - y3^2 - z2^2 - z3^2 + 1", r))
    assert not ideal_equal(Ideal(r, bad), case.ideal("L"))


def test_zero_weights_limit_is_source():
    r = ring("x", "y")
    I = Ideal(r, [parse_poly("x^2 - y", r), parse_poly("x*y - 1", r)])
    limit = flat_limit(I, [0, 0])
    assert ideal_equal(limit, I)


def test_catalogued_degenerations():
    for name in ("o3-I2", "so3-I1", "so3-I2"):
        case = get_case(name)
        for data in case.degenerations:
            limit, target, equal = run_degeneration(case, data)
            assert equal, (name, data.target)
            # limits of weight-isobaric forms: every generator isobaric
            cols = ["x", "y", "z"]
            w = expand_column_weights(case.ring, data.column_weights, cols)
            for g in limit.generators:
                weights = {sum(wi * e for wi, e in zip(w, m)) for m in g.terms}
                assert len(weights) == 1


def test_family_member_identity_at_one():
    case = get_case("so3-I1")
    data = case.degenerations[0]
    w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    L = case.ideal("L")
    assert ideal_equal(family_member(L, w, Fraction(1)), L)
    with pytest.raises(ValueError):
        family_member(L, w, Fraction(0))


def test_family_member_scaled_point():
    # generators of the scaled fiber vanish at the torus-scaled point
    case = get_case("so3-I1")
    data = case.degenerations[0]
    w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    L = case.ideal("L")
    t = Fraction(2)
    member = family_member(L, w, t)
    identity_point = [
        Fraction(1), 0, 0,  # x column
        0, Fraction(1), 0,  # y column
        0, 0, Fraction(1),  # z column
    ]
    scaled = [v * t ** (-wi) for v, wi in zip(identity_point, w)]
    for g in member.generators:
        assert g.evaluate(scaled) == 0


def test_flat_family_counts_constant_for_nonzero_t():
    case = get_case("so3-I1")
    data = case.degenerations[0]
    w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    L = case.ideal("L")
    base = [affine_hilbert_function(L, d) for d in range(5)]
    for t in (1, 2, 3):
        member = family_member(L, w, Fraction(t))
        assert [affine_hilbert_function(member, d) for d in range(5)] == base


def test_limit_idempotent():
    case = get_case("o3-I2")
    data = case.degenerations[0]
    w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    limit = flat_limit(case.ideal("L"), w)
    again = flat_limit(limit, w)
    assert ideal_equal(limit, again)


def test_homogeneous_source_gives_homogeneous_limit():
    r = ring("x", "y", "z")
    I = Ideal(r, [parse_poly("x^2 + y*z", r), parse_poly("x*y - z^2", r)])
    limit = flat_limit(I, [-2, -1, -1])
    assert all(g.is_homogeneous() for g in limit.generators)


def test_family_member_matches_displayed_generators_at_two():
    # the displayed nonzero-fiber generators, with the parameter set to 2,
    # generate exactly the computed fiber of the family
    case = get_case("so3-I1")
    r = case.ring
    t = 2
    texts = [
        f"{t}*y3*z2 - {t}*y2*z3 + x1",
        f"{t}*y3*z1 - {t}*y1*z3 - x2",
        f"{t}*y2*z1 - {t}*y1*z2 + x3",
        f"x3*z2 - x2*z3 - {t**3}*y1",
        f"x3*z1 - x1*z3 + {t**3}*y2",
        f"x2*z1 - x1*z2 - {t**3}*y3",
        f"x3*y2 - x2*y3 + {t**3}*z1",
        f"x3*y1 - x1*y3 - {t**3}*z2",
        f"x2*y1 - x1*y2 + {t**3}*z3",
        f"y1^2 + y2^2 + y3^2 - {t**2}",
        f"z1^2 + z2^2 + z3^2 - {t**2}",
        f"x2^2 + {t**4}*y2^2 + {t**4}*z2^2 - {t**6}",
        f"x3^2 + {t**4}*y3^2 + {t**4}*z3^2 - {t**6}",
        "y1*z1 + y2*z2 + y3*z3",
        "x1*z1 + x2*z2 + x3*z3",
        "x1*y1 + x2*y2 + x3*y3",
        f"x2*x3 + {t**4}*y2*y3 + {t**4}*z2*z3",
        f"x1*x3 + {t**4}*y1*y3 + {t**4}*z1*z3",
        f"x1*x2 + {t**4}*y1*y2 + {t**4}*z1*z2",
        f"x1^2 - {t**4}*y2^2 - {t**4}*y3^2 - {t**4}*z2^2 - {t**4}*z3^2 + {t**6}",
    ]
    displayed = Ideal(r, [parse_poly(s, r) for s in texts])
    w = expand_column_weights(r, (-3, -1, -1), ["x", "y", "z"])
    member = family_member(case.ideal("L"), w, Fraction(t))
    assert ideal_equal(displayed, member)


def _negative_vectors(seed, per_family):
    """(family, column weights) pairs, distinct strictly negative vectors."""
    rng = random.Random(seed)
    pool = list(itertools.product(range(-6, 0), repeat=3))
    picked = rng.sample(pool, per_family * len(FAMILIES))
    return [(FAMILIES[k // per_family], w) for k, w in enumerate(picked)]


def _label(name, column_weights):
    return f"{name}:{','.join(map(str, column_weights))}"


def _limit_cases():
    for name in case_names():
        case = get_case(name)
        for data in case.degenerations:
            w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
            yield pytest.param(case.ideal(data.source), w, id=_label(name, data.column_weights))
    for family, cw in _negative_vectors(801, 30):
        case = get_case(family)
        w = expand_column_weights(case.ring, cw, ["x", "y", "z"])
        yield pytest.param(case.ideal("L"), w, id=_label(family, cw))
    w = [3, -1, 0, 2, -2, 1, 0, -1]
    yield pytest.param(get_case("gl2").ideal("I"), w, id="gl2-mixed-signs")


def _text(basis):
    return [serialize(g) for g in basis]


@pytest.mark.parametrize("source,w", list(_limit_cases()))
def test_limit_basis_is_the_reduced_grevlex_basis(source, w):
    # the limit carries the initial forms of the reduced w-compatible basis
    # as its grevlex basis; a fresh run from its generators must agree
    limit = flat_limit(source, w)
    carried = limit.groebner_basis()
    assert _text(carried) == _text(Ideal(source.ring, limit.generators).groebner_basis())
    assert certify_gb(carried, GREVLEX)


def test_positive_weight_on_inhomogeneous_input_keeps_the_generic_route():
    # the compatible order is no well-order here, so the initial forms are
    # not taken as the limit's basis; the limit runs Buchberger on them
    r = ring("x", "y", "z")
    source = Ideal(r, [parse_poly(g, r) for g in ("x^2 + y*z - 1", "x*y - z^2")])
    for w, route_taken in (([1, -1, -1], False), ([0, -1, -2], True)):
        limit = flat_limit(source, w)
        assert bool(limit._complete) is route_taken, w
        assert _text(limit.groebner_basis()) == _text(Ideal(r, limit.generators).groebner_basis())
    homogeneous = Ideal(r, [parse_poly(g, r) for g in ("x^2 + y*z", "x*y - z^2")])
    assert flat_limit(homogeneous, [1, -1, -1])._complete


def test_supplied_basis_keeps_the_generic_route():
    case = get_case("so3-I1")
    data = case.degenerations[0]
    w = expand_column_weights(case.ring, data.column_weights, ["x", "y", "z"])
    L = case.ideal("L")
    gb = certified_basis(L, w)
    # a non-reduced basis: every element doubled, one redundant product added
    supplied = [g * 2 for g in gb] + [gb[0] * gb[1]]
    limit = flat_limit(L, w, basis=supplied)
    assert len(limit.generators) == len(supplied)
    assert _text(limit.groebner_basis()) == _text(flat_limit(L, w).groebner_basis())


def _presentations(gens, rng):
    """The generators shuffled, scaled, and extended by redundant combinations."""
    r = gens[0].ring
    shuffled = list(gens)
    rng.shuffle(shuffled)
    yield shuffled
    yield [g * Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7])) for g in gens]
    extra = []
    for _ in range(3):
        f, g = rng.sample(list(gens), 2)
        v = r.var(rng.choice(r.variables))
        extra.append(f * v + g * Fraction(rng.randint(1, 4)))
    yield list(gens) + extra
    mixed = list(gens) + extra
    rng.shuffle(mixed)
    yield mixed


@pytest.mark.parametrize("family", FAMILIES)
def test_compatible_basis_independent_of_presentation(family):
    case = get_case(family)
    L = case.ideal("L")
    vectors = [d.column_weights for d in case.degenerations]
    vectors += [cw for f, cw in _negative_vectors(802, 2) if f == family]
    rng = random.Random(family)
    for cw in vectors:
        order = compatible_order(expand_column_weights(case.ring, cw, ["x", "y", "z"]))
        expected = _text(L.groebner_basis(order))
        for gens in _presentations(L.generators, rng):
            assert _text(Ideal(case.ring, gens).groebner_basis(order)) == expected, cw


def test_degenerate_command_matches_golden(capsys):
    # recorded while the limit still ran Buchberger on its initial forms
    for run in json.loads((GOLDEN / "degenerate_cli.json").read_text()):
        weights = ",".join(map(str, run["weights"]))
        code = cli.main(["degenerate", "--case", run["case"], f"--weights={weights}"])
        assert (code, capsys.readouterr().out) == (run["exit"], run["stdout"]), run["weights"]
