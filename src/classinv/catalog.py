"""The scenario registry: ambient rings in the source's coordinate
conventions, invariant generators, the catalogued ideals, degeneration
data, tangent-space data, and expected results with provenance labels.

Ground truth is the printed generator lists of the source document,
adopted verbatim (a handful of evident transcription defects are
repaired; each repair is pinned by a machine check in the test suite).
Everything here is data plus constructors; the modules that consume it
do the actual computing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .groebner import Ideal
from .linalg import det
from .orbits import nilcone_dim, symplectic_reduction_orbit
from .poly import Polynomial, Ring, parse_poly, ring

Coeffs = Dict[str, Polynomial]


@dataclass(frozen=True)
class Expected:
    """An expected result together with a provenance label for reports."""

    value: object
    citation: str


@dataclass
class DegenerationData:
    source: str  # name of the catalogued source ideal (a non-homogeneous fiber ideal)
    column_weights: Tuple[int, ...]  # one weight per matrix column
    target: str  # name of the catalogued limit ideal
    citation: str


@dataclass
class TangentData:
    """Generator/relation/morphism data for one tangent-space argument."""

    generators: List[Tuple[str, Polynomial]]
    dim_module: int  # declared dimension of the generating module
    relations: List[Tuple[str, Coeffs]]
    morphisms: List[Tuple[str, Coeffs]]
    expected_rank: int
    lower_bound: int
    lower_citation: str
    rank_citation: str = ""


@dataclass
class IndependenceData:
    """Value-tuple independence data (used where relations are unavailable)."""

    generators: List[Tuple[str, Polynomial]]
    morphisms: List[Tuple[str, Coeffs]]
    expected_rank: int
    bounds: Tuple[int, int]
    citation: str


@dataclass(frozen=True)
class CheckSpec:
    """One declared check: a kind that `checks` interprets, and the keyword
    arguments of that kind (ideal names, `expected` keys, degree ranges,
    bounds)."""

    kind: str
    args: Dict[str, object]


def check(kind: str, **args) -> CheckSpec:
    return CheckSpec(kind, args)


NILCONE_KRULL = check("krull", name="nilcone-krull", ideal="J", expected="nilcone-dim")
MOMENT_KRULL = check("krull", name="moment-krull", ideal="moment", expected="moment-dim")
# compares the catalogued label with itself (ROADMAP item 1)
REDUCTION_ORBIT = check("reduction-orbit")


def _tangent_suite(bounds: Tuple[int, int]) -> List[CheckSpec]:
    """The four checks that read the case's tangent report."""
    return [
        check("generates"),
        check("relations"),
        check("rank"),
        check("tangent-bounds", bounds=bounds),
    ]


@dataclass
class CaseSpec:
    name: str
    situation: str
    params: Tuple[int, ...]
    ring: Ring
    title: str
    fft: List[Polynomial] = field(default_factory=list)
    ideals: Dict[str, Ideal] = field(default_factory=dict)
    expected: Dict[str, Expected] = field(default_factory=dict)
    degenerations: List[DegenerationData] = field(default_factory=list)
    tangent: Optional[TangentData] = None
    independence: Optional[IndependenceData] = None
    components: List[Tuple[str, Ideal]] = field(default_factory=list)
    checks: List[CheckSpec] = field(default_factory=list)  # run in this order

    def ideal(self, which: str) -> Ideal:
        if which not in self.ideals:
            raise UnsupportedIdeal(f"case {self.name!r} has no catalogued ideal {which!r}")
        return self.ideals[which]


class UnsupportedIdeal(KeyError):
    """Raised for fixed points whose generators were never printed."""


# --------------------------------------------------------------------------
# matrix helpers

Matrix = List[List]  # entries are Fractions or Polynomials of one ring


def _matrix_ring(letters: Sequence[str], rows: int) -> Ring:
    return ring(*[f"{c}{i}" for c in letters for i in range(1, rows + 1)])


def _grid_ring(*blocks: Tuple[str, int, int]) -> Tuple[Ring, List[Matrix]]:
    """The ring of the entries {letter}{i}{j} of the given (letter, rows,
    cols) matrices, block by block and row by row, and those matrices."""
    r = ring(*[f"{a}{i}{j}" for a, m, n in blocks
               for i in range(1, m + 1) for j in range(1, n + 1)])
    mats = [[[r.var(f"{a}{i}{j}") for j in range(1, n + 1)] for i in range(1, m + 1)]
            for a, m, n in blocks]
    return r, mats


def _transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    def dot(row, col):
        terms = [x * y for x, y in zip(row, col)]
        return sum(terms[1:], terms[0])

    cols = _transpose(b)
    return [[dot(row, col) for col in cols] for row in a]


def _upper(a: Matrix, offset: int = 0) -> list:
    """The entries a[i][j] with j >= i + offset, row by row."""
    return [a[i][j] for i in range(len(a)) for j in range(i + offset, len(a[i]))]


def _det(a: Matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials, expanded along the
    first row."""
    if len(a) == 1:
        return a[0][0]
    terms = [(-1) ** j * v * _det([row[:j] + row[j + 1:] for row in a[1:]])
             for j, v in enumerate(a[0])]
    return sum(terms[1:], terms[0])


def _nilcone_case(name: str, situation: str, params: Tuple[int, ...], r: Ring,
                  fft: List[Polynomial], title: str, citation: str) -> CaseSpec:
    """A case that only checks the Krull dimension of its nilcone ideal J
    against the closed form."""
    case = CaseSpec(name=name, situation=situation, params=params, ring=r, title=title, fft=fft)
    case.ideals["J"] = Ideal(r, fft)
    case.expected["nilcone-dim"] = Expected(nilcone_dim(situation, params), citation)
    case.checks = [NILCONE_KRULL]
    return case


def _moment_case(name: str, situation: str, params: Tuple[int, ...], r: Ring,
                 gens: List[Polynomial], title: str, orbit, orbit_citation: str) -> CaseSpec:
    """A moment-fiber case: the moment ideal, its closed-form dimension,
    and the symplectic reduction's orbit label(s)."""
    case = CaseSpec(name=name, situation=situation, params=params, ring=r, title=title)
    case.ideals["moment"] = Ideal(r, gens)
    case.expected["moment-dim"] = Expected(
        nilcone_dim(situation, params), "moment-fiber dimension, closed form"
    )
    label = " / ".join(map(str, orbit)) if isinstance(orbit, tuple) else str(orbit)
    case.expected["reduction-orbit"] = Expected(label, orbit_citation)
    case.checks = [MOMENT_KRULL, REDUCTION_ORBIT]
    return case


# --------------------------------------------------------------------------
# bilinear cases (pairing of a space with its dual)


def _bilinear_nilcone_case(n: int, n1: int, n2: int) -> CaseSpec:
    """The GL nilcone case: J is generated by the n2*n1 entries of b . a."""
    r, (a, b) = _grid_ring(("a", n, n1), ("b", n2, n))
    return _nilcone_case(
        f"glnil-{n}-{n1}-{n2}", "GL", (n, n1, n2), r,
        [v for row in _matmul(b, a) for v in row],
        f"bilinear contraction nilcone, parameters ({n},{n1},{n2})",
        "nilcone dimension, closed form for the bilinear situation",
    )


def _o_nilcone_case(n: int, nprime: int) -> CaseSpec:
    """The Gram entries w^T w, upper triangle."""
    r, (w,) = _grid_ring(("w", n, nprime))
    return _nilcone_case(
        f"onil-{n}-{nprime}", "O", (n, nprime), r, _upper(_matmul(_transpose(w), w)),
        f"orthogonal nilcone, parameters ({n},{nprime})", "nilcone dimension, closed form",
    )


def _gl_pieces(n: int):
    """The ring of two n-by-n matrices x and y, their entries and those of
    u2 keyed by one-based (row, column), the contractions f = u2 . x, and
    the products h of the first columns of x and y.  The second matrix is
    written anti-diagonally: entry (a, c) of u2 is y[n+1-c, n+1-a]."""
    r, (xm, ym) = _grid_ring(("x", n, n), ("y", n, n))
    u2m = [[ym[n - 1 - c][n - 1 - a] for c in range(n)] for a in range(n)]
    fs = [v for row in _matmul(u2m, xm) for v in row]
    hs = [xm[i][0] * ym[j][0] for i in range(n) for j in range(n)]
    x, y, u2 = ({(i + 1, j + 1): v for i, row in enumerate(m) for j, v in enumerate(row)}
                for m in (xm, ym, u2m))
    return r, x, y, u2, fs, hs


# --------------------------------------------------------------------------
# GL2


def build_gl2() -> CaseSpec:
    from .reptheory import GroupType, classical_hilbert

    r, _, _, _, fs, hs = _gl_pieces(2)
    P = lambda t: parse_poly(t, r)
    case = CaseSpec(
        name="gl2",
        situation="GL",
        params=(2, 2, 2),
        ring=r,
        title="rank-two bilinear situation: distinguished fixed point",
        fft=fs,
    )
    gens = [(f"f{i+1}", fs[i]) for i in range(4)] + [(f"h{i+1}", hs[i]) for i in range(4)]
    case.ideals["J"] = Ideal(r, fs)
    case.ideals["I"] = Ideal(r, [g for _, g in gens])
    g2 = GroupType("GL", 2)
    case.expected["hilbert-I"] = Expected(
        [classical_hilbert(g2, p=p) for p in range(9)],
        "classical Hilbert function of the fixed point, squared-dimension sum",
    )
    case.expected["nilcone-dim"] = Expected(
        nilcone_dim("GL", (2, 2, 2)), "nilcone dimension, closed form (even branch)"
    )
    rels = [
        ("r1", dict(f1=-P("y21"), h2=P("y22"), h4=P("y12"))),
        ("r2", dict(f3=-P("x11"), h1=P("x21"), h2=P("x11"))),
        ("r3", dict(f4=P("x11"), h1=-P("x22"), h2=-P("x12"))),
    ]
    case.tangent = TangentData(
        generators=gens,
        dim_module=7,
        relations=rels,
        morphisms=[(f"psi{i}", {f"f{i}": r.one()}) for i in (1, 3, 4)],
        expected_rank=3,
        lower_bound=4,
        lower_citation="principal-component dimension lower bound",
        rank_citation="three independent pairings against the displayed relations",
    )
    case.components = [
        ("K1", Ideal(r, [P("x11"), P("x12"), P("x21"), P("x22")])),
        ("K2", Ideal(r, [P("y11"), P("y12"), P("y21"), P("y22")])),
        (
            "K3",
            Ideal(
                r,
                [
                    P("x11"),
                    P("x21"),
                    P("y22*y11 - y21*y12"),
                    P("y22*x12 + y12*x22"),
                    P("y21*x12 + y11*x22"),
                ],
            ),
        ),
        (
            "K4",
            Ideal(
                r,
                [
                    P("y11"),
                    P("y21"),
                    P("x22*x11 - x21*x12"),
                    P("y22*x11 + y12*x21"),
                    P("y22*x12 + y12*x22"),
                ],
            ),
        ),
    ]
    case.expected["component-intersection"] = Expected(
        True, "fixed-point ideal equals the intersection of its four components"
    )
    case.checks = [
        check("hilbert", ideal="I", expected="hilbert-I", cap=8),
        check("order-independence", ideal="I", top=3),
        *_tangent_suite((4, 4)),
        NILCONE_KRULL,
        check("components"),
    ]
    return case


# --------------------------------------------------------------------------
# GL3


GL3_HILBERT_COEFFS: Tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(122, 35),
    Fraction(1654, 315),
    Fraction(547, 120),
    Fraction(91, 36),
    Fraction(37, 40),
    Fraction(79, 360),
    Fraction(13, 420),
    Fraction(1, 504),
)


def build_gl3() -> CaseSpec:
    r, x, y, u2, fs, hs = _gl_pieces(3)

    def minor(m, rows, cols):
        return _det([[m[(i, j)] for j in cols] for i in rows])

    s_labels = [(1, (2, 3)), (1, (1, 3)), (2, (1, 3)), (1, (1, 2)), (2, (1, 2)), (3, (1, 2))]
    t_labels = [(1, (1, 2)), (1, (1, 3)), (2, (1, 3)), (1, (2, 3)), (2, (2, 3)), (3, (2, 3))]
    ss = [x[(i, 2)] * minor(u2, (2, 3), cd) for (i, cd) in s_labels]
    ts = [y[(i, 2)] * minor(x, rp, (1, 2)) for (i, rp) in t_labels]
    P = lambda t: parse_poly(t, r)
    case = CaseSpec(
        name="gl3",
        situation="GL",
        params=(3, 3, 3),
        ring=r,
        title="rank-three bilinear situation: distinguished fixed point",
        fft=fs,
    )
    gens = (
        [(f"f{i+1}", fs[i]) for i in range(9)]
        + [(f"h{i+1}", hs[i]) for i in range(9)]
        + [(f"s{i+1}", ss[i]) for i in range(6)]
        + [(f"t{i+1}", ts[i]) for i in range(6)]
    )
    case.ideals["J"] = Ideal(r, fs)
    case.ideals["I"] = Ideal(r, [g for _, g in gens])
    case.expected["hilbert-coeffs"] = Expected(
        GL3_HILBERT_COEFFS, "classical Hilbert function, degree-8 closed form"
    )
    rels = [
        ("r1", dict(h1=-P("y21"), h2=P("y11"))),
        ("r2", dict(f1=-P("y21"), h2=P("y33"), h5=P("y23"), h8=P("y13"))),
        ("r3", dict(f4=-P("y21"), h2=P("y32"), h5=P("y22"), h8=P("y12"))),
        ("r4", dict(f7=-P("y21"), h2=P("y31"), h5=P("y21"), h8=P("y11"))),
        ("r5", dict(f8=-P("x21"), h4=P("x32"), h5=P("x22"), h6=P("x12"))),
        ("r6", dict(f9=-P("x21"), h4=P("x33"), h5=P("x23"), h6=P("x13"))),
        ("r7", dict(f6=P("x12*y11"), f9=-P("x12*y12"), s1=-P("x23"), s2=-P("x13"))),
        ("r8", dict(f1=-P("x22*y12"), f2=P("x21*y12"), t1=P("y33"), t4=-P("y13"))),
        ("r9", dict(f5=P("x12*y11"), f8=-P("x12*y12"), s1=-P("x22"), s2=-P("x12"))),
        (
            "r10",
            dict(
                h1=-P("x32*y22"),
                h2=-(P("x22*y22") + P("x12*y32")),
                s1=P("x31"),
                t2=-P("y21"),
                t3=P("y11"),
            ),
        ),
        ("r11", dict(t1=P("y11"), h1=-P("x22*y12"), h4=P("x12*y12"))),
    ]
    morphs = [(f"psi{i}", {f"f{i}": r.one()}) for i in range(1, 10) if i != 3]
    for k, (a, b) in enumerate([(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)], 1):
        morphs.append(
            (
                f"phi{k}",
                {f"h{3*(i-1)+j}": x[(i, a)] * y[(j, b)] for i in (1, 2, 3) for j in (1, 2, 3)},
            )
        )
    for k, col in [(1, 1), (2, 3)]:
        morphs.append(
            (
                f"gamma{k}",
                {
                    f"s{idx}": -x[(i, col)] * minor(u2, (1, 2), cd)
                    for idx, (i, cd) in enumerate(s_labels, 1)
                },
            )
        )
    m1, m2, m3 = (minor(x, rows, (3, 2)) for rows in ((1, 2), (1, 3), (2, 3)))
    for k, c in [(1, 1), (2, 3)]:
        vals = [m1 * y[(1, c)], -m1 * y[(2, c)], m2 * y[(2, c)],
                m1 * y[(3, c)], -m2 * y[(3, c)], m3 * y[(3, c)]]
        morphs.append((f"delta{k}", {f"t{idx+1}": vals[idx] for idx in range(6)}))
    case.tangent = TangentData(
        generators=gens,
        dim_module=29,
        relations=rels,
        morphisms=morphs,
        expected_rank=17,
        lower_bound=12,
        lower_citation="twelve independent equivariant morphisms exhibited",
        rank_citation="seventeen independent pairings against the relation family",
    )
    case.checks = [
        check("hilbert", ideal="I", expected="hilbert-coeffs", cap=8, closed_form=True),
        check("hilbert-weights", expected="hilbert-coeffs", cap=8),
        *_tangent_suite((12, 12)),
    ]
    return case


# --------------------------------------------------------------------------
# O2 (hyperbolic-basis coordinates)


def build_o2() -> CaseSpec:
    r = ring("x1", "x2", "y1", "y2")
    P = lambda t: parse_poly(t, r)
    fs = [P("x1*x2"), P("y1*y2"), P("x1*y2 + x2*y1")]
    hs = [P("x1^2"), P("x2^2")]
    case = CaseSpec(
        name="o2",
        situation="O",
        params=(2, 2),
        ring=r,
        title="orthogonal pairs in the hyperbolic plane: fixed point",
        fft=fs,
    )
    gens = [("f1", fs[0]), ("f2", fs[1]), ("f3", fs[2]), ("h1", hs[0]), ("h2", hs[1])]
    case.ideals["J"] = Ideal(r, fs)
    case.ideals["I"] = Ideal(r, [g for _, g in gens])
    case.expected["hilbert-J-2"] = Expected(
        7, "quotient basis count in degree two (monomial enumeration)"
    )
    case.expected["nilcone-dim"] = Expected(
        nilcone_dim("O", (2, 2)), "two isotropic components of dimension 2"
    )
    rels = [
        ("r1", {"f3": P("x1"), "f1": -P("y1"), "h1": -P("y2")}),
        ("r2", {"f1": P("x2"), "h2": -P("x1")}),
    ]
    morphs = [(f"psi{i}", {f"f{i}": r.one()}) for i in (1, 3)]
    case.tangent = TangentData(
        generators=gens,
        dim_module=5,
        relations=rels,
        morphisms=morphs,
        expected_rank=2,
        lower_bound=3,
        lower_citation="principal-component dimension lower bound",
        rank_citation="two independent pairings against the displayed relations",
    )
    case.components = [
        ("C1", Ideal(r, [P("x1"), P("y1"), P("x2^2")])),
        ("C2", Ideal(r, [P("x2"), P("y2"), P("x1^2")])),
    ]
    case.expected["component-intersection"] = Expected(
        True, "fixed-point ideal vs the displayed two-component intersection"
    )
    case.checks = [
        check("hilbert", ideal="J", expected="hilbert-J-2", degree=2),
        check("order-independence", ideal="I", top=4),
        *_tangent_suite((3, 3)),
        NILCONE_KRULL,
        check("components"),
    ]
    return case


# --------------------------------------------------------------------------
# O3 / SO3 shared ambient


def _o3_frame(name: str, situation: str, title: str) -> Tuple[CaseSpec, Ideal]:
    """The set-up O3 and SO3 share.  The ring holds the columns x, y, z of
    a 3x3 matrix w.  J is generated by the Gram entries of w^T w, diagonal
    first, and for SO3 also by det w.  Returns the case holding J, and the
    fiber ideal L, in which the Gram diagonal and det w equal 1; the
    builder files L after its fixed-point ideals."""
    r = _matrix_ring("xyz", 3)
    w = [[r.var(f"{c}{i}") for c in "xyz"] for i in (1, 2, 3)]
    gram = _matmul(_transpose(w), w)
    diagonal, pairings = [gram[i][i] for i in range(3)], _upper(gram, 1)
    special = [_det(w)] if situation == "SO" else []
    fft = diagonal + pairings + special
    case = CaseSpec(name=name, situation=situation, params=(3, 3), ring=r, title=title, fft=fft)
    case.ideals["J"] = Ideal(r, fft)
    one = r.one()
    return case, Ideal(r, [q - one for q in diagonal] + pairings + [d - one for d in special])


O3_PRINTED_BASIS: Tuple[str, ...] = (
    "z1^2 + z2^2 + z3^2 - 1",
    "y1*z1 + y2*z2 + y3*z3",
    "x1*z1 + x2*z2 + x3*z3",
    "y1^2 + y2^2 + y3^2 - 1",
    "x1*y1 + x2*y2 + x3*y3",
    "x3^2 + y3^2 + z3^2 - 1",
    "x2*x3 + y2*y3 + z2*z3",
    "x1*x3 + y1*y3 + z1*z3",
    "x2^2 + y2^2 + z2^2 - 1",
    "x1*x2 + y1*y2 + z1*z2",
    "x1^2 - y2^2 - y3^2 - z2^2 - z3^2 + 1",
    "x2*y1*y2 - x1*y2^2 - x3*z1*z3 + x1*z3^2",
    "y2*z1*z2 - y1*z2^2 + y3*z1*z3 - y1*z3^2 + y1",
    "x2*z1*z2 - x1*z2^2 + x3*z1*z3 - x1*z3^2 + x1",
    "x2*y1*z2 - x1*y2*z2 + x3*y1*z3 - x1*y3*z3",
    "y2^2*z1 + y3^2*z1 - y1*y2*z2 - y1*y3*z3 - z1",
    "x2*y2*z1 + x3*y3*z1 - x1*y2*z2 - x1*y3*z3",
    "x3*y2*y3 - x2*y3^2 + x3*z2*z3 - x2*z3^2 + x2",
    "x3*y1*y3 - x1*y3^2 + x3*z1*z3 - x1*z3^2 + x1",
    "x2*y1*y3 - x1*y2*y3 + x2*z1*z3 - x1*z2*z3",
    "x3*y2^2 - x2*y2*y3 + x3*z2^2 - x2*z2*z3 - x3",
    "x3*y1*y2 - x1*y2*y3 + x3*z1*z2 - x1*z2*z3",
    "x3*y2*z1*z3 - x2*y3*z1*z3 - x3*y1*z2*z3 + x1*y3*z2*z3 + x2*y1*z3^2 - x1*y2*z3^2 - x2*y1 + x1*y2",
    "y3^2*z2^2 - 2*y2*y3*z2*z3 + y2^2*z3^2 - y2^2 - y3^2 - z2^2 - z3^2 + 1",
    "x3*y3*z2^2 - x3*y2*z2*z3 - x2*y3*z2*z3 + x2*y2*z3^2 - x2*y2 - x3*y3",
    "y3^2*z1*z2 - y2*y3*z1*z3 - y1*y3*z2*z3 + y1*y2*z3^2 - y1*y2 - z1*z2",
    "x3*y3*z1*z2 - x2*y3*z1*z3 - x3*y1*z2*z3 + x2*y1*z3^2 - x2*y1",
)

SO3_PRINTED_BASIS: Tuple[str, ...] = (
    "y3*z2 - y2*z3 + x1",
    "y3*z1 - y1*z3 - x2",
    "y2*z1 - y1*z2 + x3",
    "x3*z2 - x2*z3 - y1",
    "x3*z1 - x1*z3 + y2",
    "x2*z1 - x1*z2 - y3",
    "x3*y2 - x2*y3 + z1",
    "x3*y1 - x1*y3 - z2",
    "x2*y1 - x1*y2 + z3",
    "y1^2 + y2^2 + y3^2 - 1",
    "z1^2 + z2^2 + z3^2 - 1",
    "x1^2 + y1^2 + z1^2 - 1",
    "x2^2 + y2^2 + z2^2 - 1",
    "x3^2 + y3^2 + z3^2 - 1",
    "y1*z1 + y2*z2 + y3*z3",
    "x1*z1 + x2*z2 + x3*z3",
    "x1*y1 + x2*y2 + x3*y3",
    "x2*x3 + y2*y3 + z2*z3",
    "x1*x3 + y1*y3 + z1*z3",
    "x1*x2 + y1*y2 + z1*z2",
    # final element repaired: the transcription showed y1^2 in place of y2^2,
    # which provably fails to lie in the fiber ideal
    "x1^2 - y2^2 - y3^2 - z2^2 - z3^2 + 1",
)


def build_o3() -> CaseSpec:
    case, fiber = _o3_frame("o3-I2", "O", "orthogonal triples in three-space: second fixed point")
    r = case.ring
    P = lambda t: parse_poly(t, r)
    # I2's sixteen generators in the tangent table's row order, g1..g16;
    # the Gram quadrics are the frame's
    table_rows = [
        *map(P, ("y3*x1*y2 - y3*x2*y1", "y2*x1*y3 - y2*x3*y1", "y3*x1*y3 - y3*x3*y1",
                 "y2*x2*y3 - y2*x3*y2", "y3*x2*y3 - y3*x3*y2")),
        *case.fft,  # x.x, y.y, z.z, x.y, x.z, y.z
        *map(P, ("x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3")),
    ]
    # the ideal lists them in the displayed order
    display = (7, 8, 6, 12, 13, 14, 16, 15, 9, 10, 11, 1, 2, 3, 4, 5)
    case.ideals["I2"] = Ideal(r, [table_rows[k - 1] for k in display])
    case.ideals["L"] = fiber
    case.ideals["L-printed-basis"] = Ideal(r, [P(t) for t in O3_PRINTED_BASIS])
    case.degenerations = [
        DegenerationData(
            source="L",
            column_weights=(-3, -2, -1),
            target="I2",
            citation="one-parameter degeneration with column weights (-3,-2,-1)",
        )
    ]
    case.expected["hilbert-J"] = Expected(
        {0: 1, 1: 9, 2: 39, 3: 111, 4: 240, 5: 447},
        "invariant-ideal Hilbert values; cubic closed form away from 0 and 3",
    )
    case.expected["hilbert-J-poly"] = Expected(
        (Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(3)),
        "cubic closed form 3p^3 + 5/2 p^2 + 3/2 p + 2 (ascending coefficients)",
    )
    case.expected["hilbert-I2"] = Expected(
        {0: 1, 1: 9, 2: 34, 3: 75, 4: 130, 5: 202},
        "fixed-point Hilbert values; 8p^2 + 2 from degree four on",
    )
    case.expected["nilcone-dim"] = Expected(
        nilcone_dim("O", (3, 3)), "odd-dimension branch of the nilcone formula"
    )

    # tangent data: value tuples of the displayed morphism family on the
    # sixteen generators (table row order), plus the seven combinations
    gens = [(f"g{k+1}", g) for k, g in enumerate(table_rows)]
    phi_table: Dict[int, Dict[int, str]] = {
        1: {8: "1"},
        2: {1: "x2*y1 - x1*y2", 2: "-x1*y2", 3: "x3*y1 - 2*x1*y3", 4: "-x2*y2",
            5: "x3*y2 - 2*x2*y3", 7: "-2*y3", 9: "-x3", 11: "-z3"},
        3: {1: "-x1*y3", 2: "x3*y1 - x1*y3", 4: "2*x3*y2 - x2*y3", 5: "x3*y3",
            7: "-2*y2", 9: "-x2", 11: "-z2"},
        4: {1: "x2*y3", 2: "x3*y2", 3: "x3*y3", 7: "-2*y1", 9: "-x1", 11: "-z1"},
        5: {1: "y2*y3", 2: "y2*y3", 3: "y3^2", 9: "y1", 10: "z1", 14: "x2", 15: "x3"},
        6: {1: "y1*y3", 4: "-y2*y3", 5: "-y3^2", 6: "2*x1", 9: "-y2", 10: "-z2",
            12: "-2*x2", 14: "-x1", 16: "-x3"},
        7: {2: "y1*y2", 3: "y1*y3", 4: "y2^2", 5: "y2*y3", 6: "-2*x2",
            9: "-y3", 10: "-z3", 13: "-2*x3", 15: "-x1", 16: "-x2"},
        8: {1: "x2*z1*z3 - x1*z2*z3", 2: "x3*z1*z2 - x1*z2*z3",
            3: "x3*z1*z3 - x1*z3^2", 4: "x3*z2^2 - x2*z2*z3",
            5: "x3*z2*z3 - x2*z3^2", 6: "-2*x3"},
        9: {1: "x2*y3*z1 - x1*y3*z2", 2: "x2*y3*z1 - x2*y1*z3",
            3: "x3*y3*z1 - 2*x1*y3*z3", 4: "x2*y3*z2 - 2*x2*y2*z3",
            5: "x3*y3*z2 - 2*x2*y3*z3", 7: "-2*y3*z3", 9: "-x3*z3", 11: "-z3^2"},
        10: {1: "x3*y2*z1 - x2*y3*z1 - x3*y1*z2 + x1*y3*z2", 2: "x1*y2*z3",
             3: "-x3*y1*z3 + 2*x1*y3*z3", 4: "x2*y2*z3",
             5: "-x3*y2*z3 + 2*x2*y3*z3", 7: "2*y3*z3", 9: "x3*z3", 11: "z3^2"},
        11: {12: "y2^2", 13: "y3^2", 14: "y1*y2", 15: "y1*y3", 16: "y2*y3"},
    }
    combos = {
        "m1": [(1, "1")],
        "m2": [(2, "z3"), (3, "z2"), (4, "z1")],
        "m3": [(5, "y1"), (6, "-y2"), (7, "-y3")],
        "m4": [(5, "z1"), (6, "-z2"), (7, "-z3")],
        "m5": [(8, "1")],
        "m6": [(9, "1"), (10, "1")],
        "m7": [(11, "1")],
    }
    morphs: List[Tuple[str, Coeffs]] = []
    for name, parts in combos.items():
        values: Coeffs = {}
        for k, cf in parts:
            coeff = P(cf)
            for rowidx, expr in phi_table[k].items():
                gname = f"g{rowidx}"
                values[gname] = values.get(gname, r.zero()) + coeff * P(expr)
        morphs.append((name, values))
    case.independence = IndependenceData(
        generators=gens,
        morphisms=morphs,
        expected_rank=7,
        bounds=(7, 8),
        citation="seven independent morphism values; upper bound quoted from the source",
    )
    case.checks = [
        check("hilbert", ideal="J", expected="hilbert-J", top=5),
        check("hilbert", ideal="I2", expected="hilbert-I2", top=5),
        check("printed-basis"),
        check("flat-limit", index=0),
        check("tangent-independence"),
        NILCONE_KRULL,
    ]
    return case


def build_so3(which: str) -> CaseSpec:
    case, fiber = _o3_frame(
        f"so3-{which}", "SO", f"special orthogonal triples: fixed point {which}"
    )
    r = case.ring
    P = lambda t: parse_poly(t, r)
    xx, yy, zz, xy, xz, yz = case.fft[:6]
    # f5 is the y.z pairing, f6 the x.z pairing, matching the relation list
    f = [("f1", xx), ("f2", yy), ("f3", zz), ("f4", xy), ("f5", yz), ("f6", xz)]
    named = dict(f)
    case.ideals["I1"] = Ideal(
        r, [P("x1"), P("x2"), P("x3"), named["f2"], named["f3"], named["f5"]]
    )
    i2 = [
        *map(P, ("x1^2 - x3^2", "x2^2", "x1*x2", "x2*x3", "x1*x3")),
        xx, yy, zz, xy, xz, yz,
        *map(P, ("x2*y3 - x3*y2", "x1*y3 - x3*y1", "x1*y2 - x2*y1",
                 "x2*z3 - x3*z2", "x1*z3 - x3*z1", "x1*z2 - x2*z1",
                 "z2*y3 - z3*y2", "z1*y3 - z3*y1", "z1*y2 - z2*y1")),
    ]
    case.ideals["I2"] = Ideal(r, i2)
    case.ideals["L"] = fiber
    case.ideals["L-printed-basis"] = Ideal(r, [P(t) for t in SO3_PRINTED_BASIS])
    if which == "I1":
        case.degenerations = [
            DegenerationData(
                source="L",
                column_weights=(-3, -1, -1),
                target="I1",
                citation="one-parameter degeneration with column weights (-3,-1,-1)",
            )
        ]
        quotient = ring("y1", "y2", "y3", "z1", "z2", "z3")
        case.ideals["J1"] = Ideal(
            quotient, [named[n].map_ring(quotient) for n in ("f2", "f3", "f5")]
        )
        case.expected["hilbert-J1"] = Expected(
            {0: 1, 1: 6, 2: 18, 3: 38, 4: 66, 5: 102, 6: 146},
            "quotient-plane Hilbert values; 4p^2 + 2 from degree one on",
        )
        # dimension argument for the first fixed point: its ideal is minimally
        # generated by six elements because three of the natural nine are
        # redundant; the memberships below certify the redundancy
        case.expected["redundant-members"] = Expected(
            [(n, named[n]) for n in ("f1", "f4", "f6")],
            "three invariant quadrics already lie in the linear-coordinate ideal",
        )
        case.expected["tangent-dim"] = Expected(
            (6, 6), "tangent dimension equals the minimal generator count"
        )
        case.checks = [
            check("hilbert", ideal="J1", expected="hilbert-J1", top=6),
            check("printed-basis"),
            check("flat-limit", index=0),
            check("tangent-dim", expected="tangent-dim"),
            check("flat-family", index=0, top=4, fibers=(1, 2, 3)),
        ]
    else:
        case.degenerations = [
            DegenerationData(
                source="L",
                column_weights=(-3, -2, -2),
                target="I2",
                citation="one-parameter degeneration with column weights (-3,-2,-2)",
            )
        ]
        # row j is the cross product of column pairs (x,y), (x,z), (y,z): phi{j}{k} is equivariant
        g = [
            ("g11", P("x2*y3 - x3*y2")), ("g12", P("x3*y1 - x1*y3")), ("g13", P("x1*y2 - x2*y1")),
            ("g21", P("x2*z3 - x3*z2")), ("g22", P("x3*z1 - x1*z3")), ("g23", P("x1*z2 - x2*z1")),
            ("g31", P("z3*y2 - z2*y3")), ("g32", P("z1*y3 - z3*y1")), ("g33", P("z2*y1 - z1*y2")),
        ]
        h = [
            ("h1", P("x1^2 - x3^2")), ("h2", P("x1*x2")), ("h3", P("x2^2")),
            ("h4", P("x2*x3")), ("h5", P("x1*x3")),
        ]
        gens = f + g + h
        rels = [
            ("r1", {"f1": -P("y1"), "f4": 2 * P("x1"), "h1": -P("y1"),
                    "h2": -2 * P("y2"), "h3": P("y1"), "h5": -2 * P("y3")}),
            ("r2", {"f1": P("y2"), "h1": -P("y2"), "h3": -P("y2"),
                    "h4": -2 * P("y3"), "g11": 2 * P("x3")}),
            ("r3", {"f1": P("z2"), "h1": -P("z2"), "h3": -P("z2"),
                    "h4": -2 * P("z3"), "g21": 2 * P("x3")}),
            ("r4", {"f4": -P("z2"), "f6": P("y2"), "g11": P("z3"),
                    "g21": -P("y3"), "g33": P("x1")}),
            ("r5", {"f2": P("x3"), "f4": -P("y3"), "g11": P("y2"), "g12": -P("y1")}),
            ("r6", {"f3": P("x3"), "f6": -P("z3"), "g21": P("z2"), "g22": -P("z1")}),
            ("r7", {"f5": P("x2"), "f6": -P("y2"), "g11": -P("z3"), "g13": P("z1")}),
        ]
        letters = {1: "x", 2: "y", 3: "z"}
        morphs = [(f"psi{i}", {f"f{i}": r.one()}) for i in range(1, 7)]
        for j in (1, 2, 3):
            for k in (1, 2, 3):
                morphs.append(
                    (
                        f"phi{j}{k}",
                        {f"g{j}{l}": r.var(f"{letters[k]}{l}") for l in (1, 2, 3)},
                    )
                )
        case.tangent = TangentData(
            generators=gens,
            dim_module=20,
            relations=rels,
            morphisms=morphs,
            expected_rank=12,
            lower_bound=8,
            lower_citation="exhibited morphism family matching the stated tangent dimension",
            rank_citation="twelve independent pairings against the relation family",
        )
        case.checks = [check("flat-limit", index=0), *_tangent_suite((8, 8))]
    return case


# --------------------------------------------------------------------------
# Sp4


SP4_HILBERT_COEFFS: Tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(473, 140),
    Fraction(4069, 840),
    Fraction(29683, 7560),
    Fraction(481, 240),
    Fraction(97, 144),
    Fraction(3, 20),
    Fraction(3, 140),
    Fraction(1, 560),
    Fraction(1, 15120),
)


def build_sp4() -> CaseSpec:
    r = _matrix_ring("xyzt", 4)
    P = lambda t: parse_poly(t, r)
    cols = {c: [r.var(f"{c}{i}") for i in range(1, 5)] for c in "xyzt"}

    def omega(a: str, b: str) -> Polynomial:
        # the symplectic pairing in the coordinates the generator display uses:
        # a1 b3 + a2 b4 - a3 b1 - a4 b2
        va, vb = cols[a], cols[b]
        return va[0] * vb[2] + va[1] * vb[3] - va[2] * vb[0] - va[3] * vb[1]

    pairs = [("x", "y"), ("x", "z"), ("x", "t"), ("y", "z"), ("y", "t"), ("z", "t")]
    fs = [omega(a, b) for a, b in pairs]

    def wedge(a, b, i, j):
        va, vb = cols[a], cols[b]
        return va[i - 1] * vb[j - 1] - va[j - 1] * vb[i - 1]

    hs = [wedge("x", "y", 1, 2), wedge("x", "y", 1, 3), wedge("x", "y", 1, 4),
          wedge("x", "y", 2, 3), wedge("x", "y", 3, 4)]
    case = CaseSpec(
        name="sp4",
        situation="Sp",
        params=(4, 4),
        ring=r,
        title="symplectic quadruples in four-space: distinguished fixed point",
        fft=fs,
    )
    gens = [(f"f{i+1}", fs[i]) for i in range(6)] + [(f"h{i+1}", hs[i]) for i in range(5)]
    case.ideals["J"] = Ideal(r, fs)
    case.ideals["I"] = Ideal(r, [g for _, g in gens])
    case.expected["hilbert-coeffs"] = Expected(
        SP4_HILBERT_COEFFS, "classical Hilbert function, degree-9 closed form"
    )
    case.expected["nilcone-dim"] = Expected(
        nilcone_dim("Sp", (4, 4)), "symplectic nilcone closed form"
    )
    rels = [
        ("r1", {"h2": -P("z4"), "h3": P("z3"), "h5": -P("z1"),
                "f1": P("z4"), "f2": -P("y4"), "f4": P("x4")}),
        ("r2", {"h2": -P("t4"), "h3": P("t3"), "h5": -P("t1"),
                "f1": P("t4"), "f3": -P("y4"), "f5": P("x4")}),
    ]
    morphs = [(f"psi{i}", {f"f{i}": r.one()}) for i in range(1, 6)]
    case.tangent = TangentData(
        generators=gens,
        dim_module=11,
        relations=rels,
        morphisms=morphs,
        expected_rank=5,
        lower_bound=6,
        lower_citation="principal-component dimension lower bound",
        rank_citation="five independent pairings against the displayed relations",
    )
    case.checks = [
        check("hilbert", ideal="I", expected="hilbert-coeffs", cap=6, closed_form=True),
        check("hilbert-weights", expected="hilbert-coeffs", cap=6),
        *_tangent_suite((6, 6)),
    ]
    return case


# --------------------------------------------------------------------------
# SL and the symplectic-reduction scenarios


def build_sl(n: int, nprime: int) -> CaseSpec:
    r, (w,) = _grid_ring(("w", n, nprime))
    fft = [_det([[row[j] for j in cols] for row in w]) for cols in combinations(range(nprime), n)]
    case = CaseSpec(
        name=f"sl-{n}-{nprime}",
        situation="SL",
        params=(n, nprime),
        ring=r,
        title=f"special linear situation ({n},{nprime}): maximal minors",
        fft=fft,
    )
    case.ideals["J"] = Ideal(r, fft)
    case.expected["flatness-locus"] = Expected(
        [1], "flat exactly over the open stratum when the quotient is singular"
    )
    case.checks = [
        check("quotient-map", point=((1, 2, 0), (-1, 3, 5))),
        check("flatness-locus", expected="flatness-locus"),
    ]
    return case


def build_glsym(n: int, d: int, moment_krull: bool = True) -> CaseSpec:
    r, (a, b) = _grid_ring(("a", n, d), ("b", d, n))
    case = _moment_case(
        f"glsym-n{n}-d{d}", "GLsym", (n, d), r, [v for row in _matmul(a, b) for v in row],
        f"bilinear moment fiber, parameters ({n},{d})",
        symplectic_reduction_orbit("GL", n, d),
        "symplectic reduction as a nilpotent orbit closure",
    )
    if not moment_krull:
        case.checks = [REDUCTION_ORBIT]
    return case


def build_osym(n: int, d: int) -> CaseSpec:
    r, (w,) = _grid_ring(("w", n, 2 * d))
    # w J' (w transpose), J' the standard block antisymmetric form on 2d columns
    J = [[0] * (2 * d) for _ in range(2 * d)]
    for c in range(0, 2 * d, 2):
        J[c][c + 1], J[c + 1][c] = 1, -1
    return _moment_case(
        f"osym-n{n}-d{d}", "Osym", (n, d), r, _upper(_matmul(w, _matmul(J, _transpose(w))), 1),
        f"orthogonal moment fiber, parameters ({n},{d})",
        symplectic_reduction_orbit("O", n, d),
        "symplectic reduction as a nilpotent orbit closure",
    )


def build_spsym(n_half: int, d: int) -> CaseSpec:
    n = 2 * n_half
    r, (w,) = _grid_ring(("w", n, 2 * d))
    # w (w transpose): symmetric, upper entries
    return _moment_case(
        f"spsym-n{n_half}-d{d}", "Spsym", (n, d), r, _upper(_matmul(w, _transpose(w))),
        f"symplectic moment fiber, parameters ({n},{d})",
        symplectic_reduction_orbit("Sp", n_half, d),
        "symplectic reduction as nilpotent orbit closure(s)",
    )


# --------------------------------------------------------------------------
# quotient maps and moment maps on rational points


def _mat(rows: Sequence[Sequence]) -> Matrix:
    return [[Fraction(v) for v in row] for row in rows]


def quotient_image(case: CaseSpec, point) -> object:
    """Evaluate the quotient map at a rational matrix point.

    GL-type situations take a pair (u1, u2) and return u2 . u1; the
    orthogonal situations return w^T w; the symplectic one returns
    w^T J w; the special linear one the vector of maximal minors; the
    special orthogonal one the pair (w^T w, minors)."""
    sit = case.situation
    if sit in ("GL", "GLsym"):
        u1, u2 = (_mat(point[0]), _mat(point[1]))
        return _matmul(u2, u1)
    w = _mat(point)
    if sit in ("O", "Osym"):
        return _matmul(_transpose(w), w)
    if sit in ("Sp", "Spsym"):
        n = len(w)
        J = [[Fraction(0)] * n for _ in range(n)]
        half = n // 2
        for i in range(half):
            J[i][half + i] = Fraction(1)
            J[half + i][i] = Fraction(-1)
        return _matmul(_matmul(_transpose(w), J), w)
    if sit == "SL":
        return _sl_minors(w)
    if sit == "SO":
        return (_matmul(_transpose(w), w), _sl_minors(w))
    raise ValueError(f"no quotient map for situation {sit!r}")


def _sl_minors(w: Matrix) -> List[Fraction]:
    return [det([[row[j] for j in cols] for row in w])
            for cols in combinations(range(len(w[0])), len(w))]


# --------------------------------------------------------------------------
# registry


_BUILDERS: Dict[str, Callable[[], CaseSpec]] = {
    "gl2": build_gl2,
    "gl3": build_gl3,
    "o2": build_o2,
    "o3-I2": build_o3,
    "so3-I1": lambda: build_so3("I1"),
    "so3-I2": lambda: build_so3("I2"),
    "sp4": build_sp4,
    "sl-2-3": lambda: build_sl(2, 3),
    "glnil-2-2-1": lambda: _bilinear_nilcone_case(2, 2, 1),
    "glnil-1-1-1": lambda: _bilinear_nilcone_case(1, 1, 1),
    "glnil-1-2-2": lambda: _bilinear_nilcone_case(1, 2, 2),
    "glnil-1-3-3": lambda: _bilinear_nilcone_case(1, 3, 3),
    "onil-3-2": lambda: _o_nilcone_case(3, 2),
    "glsym-n2-d2": lambda: build_glsym(2, 2),
    "glsym-n1-d2": lambda: build_glsym(1, 2),
    # no moment-krull check yet: adding it changes `run --all` (ROADMAP item 1)
    "glsym-n2-d4": lambda: build_glsym(2, 4, moment_krull=False),
    "osym-n2-d2": lambda: build_osym(2, 2),
    "spsym-n1-d2": lambda: build_spsym(1, 2),
}

_CACHE: Dict[str, CaseSpec] = {}


def case_names() -> List[str]:
    return sorted(_BUILDERS)


def get_case(name: str) -> CaseSpec:
    if name not in _BUILDERS:
        raise KeyError(f"unknown case {name!r}; known: {', '.join(case_names())}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
