"""One-parameter torus degenerations: expand per-column weights, compute
the flat limit of an ideal as its weighted initial ideal, and produce
nonzero members of the flat family.

The limit of an ideal under a weight vector w is generated by the
w-initial forms of a Groebner basis computed under a w-compatible order
(weight first, graded reverse lexicographic tie-break).  Taking the
basis under an incompatible order can produce a strictly smaller ideal,
so `flat_limit` takes the reduced basis under the compatible order.

The limit needs no Buchberger run of its own.  If G is the reduced
compatible basis, the forms in_w(G) are the reduced grevlex basis of
the limit (Sturmfels, Groebner Bases and Convex Polytopes, 1996,
Prop. 1.8): in_w(g) keeps the leading term of g, its other terms are
terms of g, which no leading term of G divides, and its leading
coefficient stays 1.  The proposition needs G to be a Groebner basis
under a term order, which `groebner._well_ordered` decides: the same
test by which `Ideal.groebner_basis` answers a weighted query from the
Groebner cone of a basis it already holds.  `flat_limit` gives the
forms to the limit as its grevlex basis when the test holds; otherwise
the limit computes its own.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import List, Sequence, Tuple

from .groebner import Ideal, _well_ordered, _with_reduced_basis
from .poly import GREVLEX, MonomialOrder, Polynomial, Ring, initial_form, weighted_order


def expand_column_weights(ring: Ring, column_weights: Sequence[int], columns: Sequence[str]) -> List[int]:
    """Expand per-matrix-column weights to one weight per ring variable.

    `columns` lists the letter prefixes of the matrix columns in order;
    every variable starting with that letter gets the column's weight.
    Variables outside all columns (constants never appear as variables)
    would be an error.
    """
    if len(column_weights) != len(columns):
        raise ValueError("need one weight per column")
    table = dict(zip(columns, column_weights))
    out = []
    for name in ring.variables:
        prefix = name[0]
        if prefix not in table:
            raise ValueError(f"variable {name!r} matches no column prefix")
        out.append(table[prefix])
    return out


def compatible_order(w: Sequence[int]) -> MonomialOrder:
    """The monomial order 'smaller w-weight first, ties by grevlex'."""
    return weighted_order(w)


def certified_basis(ideal: Ideal, w: Sequence[int]) -> List[Polynomial]:
    """The reduced Groebner basis of the ideal under the w-compatible order."""
    return ideal.groebner_basis(compatible_order(w))


def flat_limit(ideal: Ideal, w: Sequence[int]) -> Ideal:
    """The t -> 0 limit of the one-parameter family attached to w.

    When the w-compatible order is a well-order on the ideal, the limit
    carries its generators, the initial forms of the reduced
    w-compatible basis, as its reduced grevlex basis.
    """
    forms = [initial_form(g, w) for g in certified_basis(ideal, w)]
    if _well_ordered(ideal, compatible_order(w)):
        return _with_reduced_basis(ideal.ring, forms, GREVLEX)
    return Ideal(ideal.ring, forms)


def family_member(ideal: Ideal, w: Sequence[int], t: Fraction) -> Ideal:
    """The fiber of the family at a nonzero parameter value.

    Each basis element g becomes t^m g(t^{w_1} v_1, ...), scaled by the
    minimal power making every exponent nonnegative; at t = 1 this is
    the source ideal back.

    The reduced w-compatible basis is scaled, not the ideal's generators
    (which give the same member), because the member's own Buchberger run
    is cheaper from it: with scaled generators a `degenerate-sweep` sample
    of `perfbench` (seed 7) took about 40% more CPU time.

    The scaling runs on integers.  With t = a/b and K the largest weight
    offset of g, a term c x^m of offset k becomes
    c.numerator * a^k * b^(K-k) / (c.denominator * b^K), one Fraction
    per coefficient, equal to c * t^k.
    """
    t = Fraction(t)
    if t == 0:
        raise ValueError("use flat_limit for the zero fiber")
    a, b = t.numerator, t.denominator
    gb = certified_basis(ideal, w)
    gens = []
    for g in gb:
        weights = {m: sum(map(mul, w, m)) for m in g.terms}
        mu = min(weights.values())
        top = max(weights.values()) - mu
        scale = b ** top
        terms = {}
        for m, c in g.terms.items():
            k = weights[m] - mu
            n = c.numerator * a ** k * b ** (top - k)
            d = c.denominator * scale
            terms[m] = Fraction(n) if d == 1 else Fraction(n, d)
        gens.append(Polynomial(g.ring, terms))
    return Ideal(ideal.ring, gens)


def run_degeneration(case, data) -> Tuple[Ideal, Ideal, bool]:
    """Execute a catalogued degeneration; returns (limit, target, equal)."""
    from .groebner import ideal_equal

    columns = _column_letters(case.ring)
    w = expand_column_weights(case.ring, data.column_weights, columns)
    source = case.ideal(data.source)
    limit = flat_limit(source, w)
    target = case.ideal(data.target)
    return limit, target, ideal_equal(limit, target)


def _column_letters(ring: Ring) -> List[str]:
    seen: List[str] = []
    for name in ring.variables:
        if name[0] not in seen:
            seen.append(name[0])
    return seen
