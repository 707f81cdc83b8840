"""Infinitesimal-equivariance certificates for the catalogued morphism
values.

The tangent-space rank bounds are honest only if the catalogued test
morphisms are genuine equivariant module maps.  This module checks that
directly: the infinitesimal action of the matrix group (row derivations
on the first factor, column derivations on the second) commutes with the
value assignment, exactly on the stable generator spans and modulo the
expected corrections on the degree-three quotients.
"""

from fractions import Fraction

import pytest

from classinv.catalog import get_case
from classinv.groebner import Ideal, normal_form
from classinv.linalg import Echelon
from classinv.poly import Polynomial, parse_poly


def gl3_derivation(case, p, a, b):
    """Derivation of the elementary matrix unit e_ab: first matrix mixes
    rows (u -> Xu), second matrix mixes columns (u -> -uX)."""
    r = case.ring
    x = {(i, j): r.var(f"x{i}{j}") for i in (1, 2, 3) for j in (1, 2, 3)}
    y = {(i, j): r.var(f"y{i}{j}") for i in (1, 2, 3) for j in (1, 2, 3)}
    u2 = {(p_, c): y[(4 - c, 4 - p_)] for p_ in (1, 2, 3) for c in (1, 2, 3)}
    out = r.zero()
    for m, coeff in p.terms.items():
        for vi, e in enumerate(m):
            if not e:
                continue
            name = r.variables[vi]
            kind, i, j = name[0], int(name[1]), int(name[2])
            if kind == "x":
                if i != a:
                    continue
                repl = x[(b, j)]
            else:
                row, col = 4 - j, 4 - i
                if col != b:
                    continue
                repl = -u2[(row, a)]
            mono = list(m)
            mono[vi] -= 1
            out = out + repl.term_mul(tuple(mono), coeff * e)
    return out


GENS_GL = [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)]


def span_solver(basis):
    """Factor the span of basis once.  The returned function gives the
    coefficients expressing a target in that span, or None: the reduced
    echelon solution, with the coefficient of every basis vector that lies
    in the span of the earlier ones zero.

    Each basis vector is augmented with a tag column that sorts below every
    monomial column, so reducing a target to zero on the monomials leaves
    minus its coefficients on the tags.  Vectors dependent on earlier ones
    are not inserted, so their tags never appear."""
    vecs = list(basis)
    span = Echelon()
    for c, q in enumerate(vecs):
        row = {(1, m): v for m, v in q.terms.items()}
        row[(0, c)] = Fraction(1)
        rem = span.reduce(row)
        if max(rem)[0] == 1:
            span.insert(rem)

    def solve(target):
        rem = span.reduce({(1, m): v for m, v in target.terms.items()})
        if rem and max(rem)[0] == 1:
            return None
        sol = [Fraction(0)] * len(vecs)
        for (_, c), v in rem.items():
            sol[c] = -v
        return sol

    return solve


@pytest.fixture(scope="module")
def gl3():
    case = get_case("gl3")
    table = dict(case.tangent.generators)
    return case, table


class TestGl3Equivariance:
    def test_invariants_annihilated(self, gl3):
        case, table = gl3
        for a, b in GENS_GL:
            for i in range(1, 10):
                assert gl3_derivation(case, table[f"f{i}"], a, b).is_zero()

    def test_h_span_stable_and_phi_commutes(self, gl3):
        case, table = gl3
        hs = [table[f"h{i}"] for i in range(1, 10)]
        morphs = dict(case.tangent.morphisms)
        phis = [morphs[f"phi{k}"] for k in range(1, 6)]
        solve = span_solver(hs)
        for a, b in GENS_GL:
            for i in range(1, 10):
                dh = gl3_derivation(case, table[f"h{i}"], a, b)
                if dh.is_zero():
                    continue
                sol = solve(dh)
                assert sol is not None, "span of the h generators is stable"
                for phi in phis:
                    lhs = sum(
                        (c * phi[f"h{j+1}"] for j, c in enumerate(sol) if c),
                        case.ring.zero(),
                    )
                    rhs = gl3_derivation(case, phi[f"h{i}"], a, b)
                    assert (lhs - rhs).is_zero()

    @pytest.mark.parametrize("family,letter", [("gamma", "s"), ("delta", "t")])
    def test_degree_three_values_equivariant(self, gl3, family, letter):
        # the cubic generator spans are stable only modulo multiples of the
        # quadratic part of the ideal, and the catalogued morphisms kill
        # that part, so the commutation identities hold in the quotient ring
        case, table = gl3
        r = case.ring
        ideal = case.ideal("I")
        quad = [table[f"f{i}"] for i in range(1, 10)] + [
            table[f"h{i}"] for i in range(1, 10)
        ]
        lin = [r.var(v) for v in r.variables]
        spanners = [g * v for g in quad for v in lin]
        basis = [table[f"{letter}{i}"] for i in range(1, 7)]
        morphs = dict(case.tangent.morphisms)
        solve = span_solver(spanners + basis)
        for k in (1, 2):
            morph = morphs[f"{family}{k}"]
            values = [morph[f"{letter}{i}"] for i in range(1, 7)]
            for a, b in GENS_GL:
                for i in range(6):
                    dv = gl3_derivation(case, basis[i], a, b)
                    sol = solve(dv)
                    assert sol is not None
                    coeffs = sol[-6:]
                    lhs = sum(
                        (c * values[j] for j, c in enumerate(coeffs) if c),
                        r.zero(),
                    )
                    rhs = gl3_derivation(case, values[i], a, b)
                    assert normal_form(lhs - rhs, ideal).is_zero()


def so3_derivation(case, p, a, b):
    """Antisymmetric derivation e_ab - e_ba acting on all three columns."""
    r = case.ring
    out = r.zero()
    for m, coeff in p.terms.items():
        for vi, e in enumerate(m):
            if not e:
                continue
            name = r.variables[vi]
            letter, i = name[0], int(name[1])
            repl = None
            if i == a:
                repl = r.var(f"{letter}{b}")
            elif i == b:
                repl = -r.var(f"{letter}{a}")
            if repl is None:
                continue
            mono = list(m)
            mono[vi] -= 1
            out = out + repl.term_mul(tuple(mono), coeff * e)
    return out


class TestSo3Equivariance:
    def test_invariants_annihilated(self):
        case = get_case("so3-I2")
        table = dict(case.tangent.generators)
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            for i in range(1, 7):
                assert so3_derivation(case, table[f"f{i}"], a, b).is_zero()

    def test_wedge_rows_stable_and_phi_commutes(self):
        case = get_case("so3-I2")
        table = dict(case.tangent.generators)
        morphs = dict(case.tangent.morphisms)
        for j in (1, 2, 3):
            row = [table[f"g{j}{l}"] for l in (1, 2, 3)]
            solve = span_solver(row)
            for a, b in [(1, 2), (1, 3), (2, 3)]:
                for l in (1, 2, 3):
                    dg = so3_derivation(case, row[l - 1], a, b)
                    sol = solve(dg) if not dg.is_zero() else [0, 0, 0]
                    assert sol is not None, "wedge row span is stable"
                    for k in (1, 2, 3):
                        phi = morphs[f"phi{j}{k}"]
                        lhs = sum(
                            (Fraction(c) * phi[f"g{j}{m}"] for m, c in zip((1, 2, 3), sol) if c),
                            case.ring.zero(),
                        )
                        rhs = so3_derivation(case, phi[f"g{j}{l}"], a, b)
                        assert (lhs - rhs).is_zero()
