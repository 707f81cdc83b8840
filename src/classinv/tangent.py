"""Machine checks for the tangent-space arguments: generator-set
verification, relation membership in the square of the ideal, pairing of
test morphisms against relations, and exact rank bounds over Q.

A test morphism is stored as its value tuple on the named generators
(values are normal forms in the quotient ring); the pairing of a
morphism with a relation is the normal form of the contracted sum.  The
rank of the resulting matrix, with entries flattened over monomial
coordinates, bounds the rank of the dual presentation map from below,
which is exactly the linear-algebra step the dimension arguments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .catalog import CaseSpec, Coeffs, get_case
from .groebner import Ideal, ideal_equal, ideal_product, normal_form
from .poly import Coeff, Monomial, Polynomial, monomial_mul


def check_generates(gens: Sequence[Tuple[str, Polynomial]], ideal: Ideal) -> bool:
    """True iff the named generators generate the ideal."""
    polys = [g for _, g in gens]
    if any(g.ring != ideal.ring for g in polys):
        raise ValueError("ring mismatch")
    return ideal_equal(Ideal(ideal.ring, polys), ideal)


def relation_combination(
    rel: Coeffs, gens: Sequence[Tuple[str, Polynomial]]
) -> Polynomial:
    table = dict(gens)
    ring = next(iter(table.values())).ring
    out = ring.zero()
    for name, coeff in rel.items():
        if name not in table:
            raise ValueError(f"relation references unknown generator {name!r}")
        out = out + coeff * table[name]
    return out


def check_relation(
    rel: Coeffs, gens: Sequence[Tuple[str, Polynomial]], ideal: Ideal,
    square: Optional[Ideal] = None,
) -> bool:
    """True iff the coefficient combination of the generators lies in the
    square of the ideal.

    A homogeneous square contains a polynomial iff it contains each of its
    homogeneous parts, and its degree-d part is spanned by the products of
    its generators with monomials of the complementary degree (a Macaulay
    matrix), so each part is decided by one exact elimination.  A
    non-homogeneous square is decided by a Groebner normal form."""
    combo = relation_combination(rel, gens)
    if combo.is_zero():
        return True
    if square is None:
        square = ideal_product(ideal, ideal)
    if not square.is_homogeneous():
        return normal_form(combo, square).is_zero()
    parts: Dict[int, Dict[Monomial, Coeff]] = {}
    for m, c in combo.terms.items():
        parts.setdefault(sum(m), {})[m] = c
    return not any(_degree_span(square, d).reduce(part) for d, part in parts.items())


def _degree_span(ideal: Ideal, d: int) -> linalg.Echelon:
    """Echelon basis of the degree-d part of a homogeneous ideal."""
    span = linalg.Echelon()
    for h in ideal.generators:
        k = d - h.degree()
        if k < 0:
            continue
        for m in _monomials(ideal.ring.arity, k):
            span.insert({monomial_mul(m, mh): c for mh, c in h.terms.items()})
    return span


def minimal_generator_count(gens: Sequence[Polynomial]) -> int:
    """The number of minimal generators of the ideal the homogeneous gens
    generate: degree by degree, the gens of degree d that are independent
    modulo the degree-d part of the ideal of the gens of lower degree."""
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("minimal generator count needs homogeneous generators")
    count = 0
    for d in sorted({g.degree() for g in gens if not g.is_zero()}):
        span = _degree_span(Ideal(gens[0].ring, [g for g in gens if g.degree() < d]), d)
        count += sum(span.insert(g.terms) is not None for g in gens if g.degree() == d)
    return count


def _monomials(arity: int, degree: int) -> Iterator[Monomial]:
    for choice in combinations_with_replacement(range(arity), degree):
        exps = [0] * arity
        for i in choice:
            exps[i] += 1
        yield tuple(exps)


def evaluate_pairing(
    morphism: Coeffs, rel: Coeffs, ideal: Ideal
) -> Polynomial:
    """Value of the dual map on the relation: nf(sum values * coefficients)."""
    ring = ideal.ring
    out = ring.zero()
    for name, coeff in rel.items():
        value = morphism.get(name)
        if value is None or value.is_zero():
            continue
        out = out + value * coeff
    return normal_form(out, ideal)


def rank_lower_bound(
    morphisms: Sequence[Tuple[str, Coeffs]],
    rels: Sequence[Tuple[str, Coeffs]],
    ideal: Ideal,
) -> int:
    """Rank over Q of the pairing matrix (morphisms x relations), entries
    flattened over the monomials of their normal forms."""
    if not morphisms or not rels:
        raise ValueError("need at least one morphism and one relation")
    rows = []
    for _, morph in morphisms:
        row = {}
        for ri, (_, rel) in enumerate(rels):
            for m, c in evaluate_pairing(morph, rel, ideal).terms.items():
                row[(ri, m)] = c
        rows.append(row)
    return linalg.rank(rows)


def value_tuple_rank(
    morphisms: Sequence[Tuple[str, Coeffs]],
    gens: Sequence[Tuple[str, Polynomial]],
    ideal: Ideal,
) -> int:
    """Rank of the morphisms as value tuples on the generators (normal
    forms flattened over monomials); used where relations are not
    catalogued and only linear independence is assertable."""
    rows = []
    for _, morph in morphisms:
        row = {}
        for gi, (name, _) in enumerate(gens):
            v = morph.get(name)
            if v is not None and not v.is_zero():
                for m, c in normal_form(v, ideal).terms.items():
                    row[(gi, m)] = c
        rows.append(row)
    return linalg.rank(rows)


@dataclass
class TangentReport:
    case: str
    generates: Optional[bool]
    relation_results: List[Tuple[str, bool]]
    rank: Optional[int]
    expected_rank: Optional[int]
    bounds: Tuple[int, int]
    details: List[str]


def tangent_bounds(case_or_name) -> Tuple[int, int]:
    """The concluded (lower, upper) bounds on the tangent dimension."""
    return tangent_report(case_or_name).bounds


def tangent_report(case_or_name) -> TangentReport:
    case = case_or_name if isinstance(case_or_name, CaseSpec) else get_case(case_or_name)
    details: List[str] = []

    if "redundant-members" in case.expected:
        # shortcut: the tangent dimension is the minimal generator count of
        # the nine natural generators, I1's and the redundant members
        gens = case.ideal("I1").generators
        redundant = [q for _, q in case.expected["redundant-members"].value]
        mu = minimal_generator_count([*gens, *redundant])
        if mu == len(gens):
            details.append("three invariant quadrics lie in the coordinate ideal")
        return TangentReport(case.name, None, [], None, None, (mu, mu), details)

    if case.independence is not None:
        data = case.independence
        ideal = case.ideal("I2")
        rank = value_tuple_rank(data.morphisms, data.generators, ideal)
        if rank != data.expected_rank:
            details.append(f"independence rank {rank} != {data.expected_rank}")
        # the upper bound is quoted from the source
        return TangentReport(
            case.name, None, [], rank, data.expected_rank, (rank, data.bounds[1]), details
        )

    data = case.tangent
    if data is None:
        raise KeyError(f"case {case.name!r} has no tangent data")
    ideal_name = "I2" if "I2" in case.ideals and "I" not in case.ideals else "I"
    ideal = case.ideal(ideal_name)
    generates = check_generates(data.generators, ideal)
    square = ideal_product(ideal, ideal)
    rel_results = [
        (name, check_relation(rel, data.generators, ideal, square))
        for name, rel in data.relations
    ]
    rank = rank_lower_bound(data.morphisms, data.relations, ideal)
    return TangentReport(
        case.name,
        generates,
        rel_results,
        rank,
        data.expected_rank,
        (data.lower_bound, data.dim_module - rank),
        [],
    )
