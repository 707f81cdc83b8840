"""Dominant weights, Weyl dimension formulas, and the bridge from
equivariant multiplicity data to classical Hilbert functions.

Weights live in the epsilon-basis coordinates of the relevant maximal
torus.  Only the classical families are implemented, each by its product
formula; the special orthogonal group in dimension three is handled
through its rank-one formula (an irreducible of label r has dimension
2r + 1, matching the odd-degree binary-form picture V(2r)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class GroupType:
    """A classical group with its ambient dimension n.

    family: one of GL, SL, O, SO, Sp, Gm.  For Sp the ambient dimension
    must be even; the torus rank is n // 2 for Sp and SO/O in even
    ambient dimension, (n - 1) // 2 ... see `rank`.
    """

    family: str
    n: int

    def __post_init__(self) -> None:
        if self.family not in ("GL", "SL", "O", "SO", "Sp", "Gm"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.family == "Sp" and self.n % 2:
            raise ValueError("Sp needs even ambient dimension")

    @property
    def rank(self) -> int:
        if self.family in ("GL", "SL"):
            return self.n
        if self.family == "Sp":
            return self.n // 2
        if self.family == "Gm":
            return 1
        return self.n // 2  # O / SO

    def __str__(self) -> str:
        return f"{self.family}({self.n})"


@dataclass(frozen=True)
class Weight:
    group: GroupType
    coords: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.group.rank:
            raise ValueError("coordinate count must equal the torus rank")
        if not self.is_dominant():
            raise ValueError(f"{self.coords} is not dominant for {self.group}")

    def is_dominant(self) -> bool:
        r = self.coords
        fam, n = self.group.family, self.group.n
        if fam in ("GL", "SL", "Gm"):
            return all(r[i] >= r[i + 1] for i in range(len(r) - 1))
        if fam == "Sp" or (fam in ("O", "SO") and n % 2 == 1):
            return all(r[i] >= r[i + 1] for i in range(len(r) - 1)) and (
                not r or r[-1] >= 0
            )
        # SO/O in even ambient dimension: last coordinate may be negative
        return all(r[i] >= r[i + 1] for i in range(len(r) - 2)) and (
            len(r) < 2 or r[-2] >= abs(r[-1])
        )

    def __str__(self) -> str:
        return f"{self.group}:{self.coords}"


@dataclass(frozen=True)
class IrrLabel:
    """A weight plus the sign tag the orthogonal groups need.

    The tag is mandatory for O(n) with n odd, and for O(n) with n even
    exactly when the last coordinate vanishes; it never changes the
    dimension.
    """

    weight: Weight
    sign: Optional[int] = None

    def __post_init__(self) -> None:
        g = self.weight.group
        needs = g.family == "O" and (g.n % 2 == 1 or self.weight.coords[-1] == 0)
        if needs and self.sign not in (1, -1):
            raise ValueError("orthogonal label requires a sign tag here")
        if not needs and self.sign is not None and g.family != "O":
            raise ValueError("sign tag only applies to orthogonal labels")


def _prod(xs: Iterable[Fraction]) -> Fraction:
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def weyl_dim(label) -> int:
    """Dimension of the irreducible with the given (dominant) label.

    Accepts a Weight or an IrrLabel; sign tags are ignored.  Implemented
    per family by the classical product formulas.
    """
    w = label.weight if isinstance(label, IrrLabel) else label
    fam, n, r = w.group.family, w.group.n, w.coords
    if fam == "Gm":
        return 1
    if fam in ("GL", "SL"):
        d = _prod(
            Fraction(r[i] - r[j] + j - i, j - i)
            for i in range(n)
            for j in range(i + 1, n)
        )
    elif fam == "Sp":
        m = n // 2
        l = [r[i] + m - i for i in range(m)]
        rho = [m - i for i in range(m)]
        d = _prod(
            Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
            for i in range(m)
            for j in range(i + 1, m)
        ) * _prod(Fraction(l[i], rho[i]) for i in range(m))
    elif n % 2 == 1:  # SO/O odd: type B with half-integral rho
        m = n // 2
        l = [Fraction(2 * r[i] + n - 2 * (i + 1), 2) for i in range(m)]
        rho = [Fraction(n - 2 * (i + 1), 2) for i in range(m)]
        d = _prod(
            Fraction(l[i] ** 2 - l[j] ** 2) / Fraction(rho[i] ** 2 - rho[j] ** 2)
            for i in range(m)
            for j in range(i + 1, m)
        ) * _prod(l[i] / rho[i] for i in range(m))
    else:  # SO/O even: type D
        m = n // 2
        l = [r[i] + m - 1 - i for i in range(m)]
        rho = [m - 1 - i for i in range(m)]
        d = Fraction(1)
        for i in range(m):
            for j in range(i + 1, m):
                d *= Fraction(l[i] ** 2 - l[j] ** 2, rho[i] ** 2 - rho[j] ** 2)
    if d.denominator != 1 or d <= 0:
        raise ArithmeticError(f"bad dimension {d} for {w}")
    return int(d)


def enumerate_dominant(group: GroupType, p: int, mode: str = "abs_sum") -> List[Weight]:
    """All dominant weights with sum |r_i| = p (abs_sum) or sum r_i = p (sum).

    Deterministic: lexicographically decreasing coordinate tuples.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if mode not in ("abs_sum", "sum"):
        raise ValueError("mode must be abs_sum or sum")
    rank = group.rank
    out: List[Tuple[int, ...]] = []

    def walk(prefix: List[int], remaining: int) -> None:
        if len(prefix) == rank:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        hi = prefix[-1] if prefix else p
        lo = -p if mode == "abs_sum" else 0
        for v in range(min(hi, p), lo - 1, -1):
            cost = abs(v) if mode == "abs_sum" else v
            if cost > remaining:
                continue
            # weakly decreasing prefix prunes most non-dominant candidates
            prefix.append(v)
            walk(prefix, remaining - cost)
            prefix.pop()

    walk([], p)
    weights = []
    for t in sorted(set(out), reverse=True):
        try:
            weights.append(Weight(group, t))
        except ValueError:
            continue  # decreasing but not dominant (even orthogonal tail rule)
    return weights


def regular_multiplicity(label) -> int:
    """The multiplicity function of the regular representation: h(M) = dim M."""
    return weyl_dim(label)


def classical_hilbert(
    group: GroupType,
    h: Callable[[Weight], int] = regular_multiplicity,
    p: int = 0,
    mode: Optional[str] = None,
) -> int:
    """Sum of h(lambda) * dim(lambda) over the degree-p dominant weights.

    For the general linear family the degree constraint is |r_1| + ... =
    p; for the symplectic family it is r_1 + ... = p.
    """
    if mode is None:
        mode = "sum" if group.family == "Sp" else "abs_sum"
    return sum(h(w) * weyl_dim(w) for w in enumerate_dominant(group, p, mode))


def clebsch_gordan(a: int, b: int) -> List[int]:
    """Binary-form tensor decomposition: V(a) (x) V(b) = sum V(a+b-2k)."""
    if a < 0 or b < 0:
        raise ValueError("labels must be nonnegative")
    return [a + b - 2 * k for k in range(min(a, b) + 1)]


def so3_plethysm(i: int, shape: str = "sym") -> List[int]:
    """Binary-form content of the i-th symmetric (or hook) power of V(2).

    sym:  S^i contains V(2i), V(2i-4), ... down to V(0) or V(2);
    hook: the (i,1)-shape contains V(2i), V(2i-2), ... down to V(2).
    """
    if shape == "sym":
        if i < 0:
            raise ValueError("i must be nonnegative")
        return list(range(2 * i, -1, -4))
    if shape == "hook":
        if i < 1:
            raise ValueError("hook shape needs i >= 1")
        return list(range(2 * i, 1, -2))
    raise ValueError("shape must be sym or hook")


def _gl_positive_part_dim(ks: Sequence[int], n: int) -> int:
    """dim of the Schur module S^(k_1,...) of an n-dimensional space."""
    coords = tuple(list(ks) + [0] * (n - len(ks)))
    return weyl_dim(Weight(GroupType("GL", n), coords))


def nilcone_isotypic_mult(situation: str, params, weight: Weight) -> Tuple[int, int]:
    """Multiplicity of the given irreducible in the nilcone coordinate ring,
    with the unique degree in which it occurs.

    Supported: the square bilinear situation ('GL', n with n1 = n2 = n) and
    the symplectic situation ('Sp', n' = n).  Returns (multiplicity, degree).
    """
    r = weight.coords
    if situation == "GL":
        n = params
        if weight.group != GroupType("GL", n):
            raise ValueError("weight group mismatch")
        degree = sum(abs(v) for v in r)
        if r[-1] >= 0 or r[0] <= 0:
            return weyl_dim(weight), degree
        pos = [v for v in r if v > 0]
        neg = [-v for v in reversed(r) if v < 0]
        return (
            _gl_positive_part_dim(neg, n) * _gl_positive_part_dim(pos, n),
            degree,
        )
    if situation == "Sp":
        nprime = params
        if weight.group.family != "Sp":
            raise ValueError("weight group mismatch")
        degree = sum(r)
        return _gl_positive_part_dim(list(r), nprime), degree
    raise ValueError(f"unsupported situation {situation!r}")
