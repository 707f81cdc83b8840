"""Nilpotent-orbit combinatorics and the closed-form dimension data:
partition calculus, orbit dimensions via transpose partitions, closure
order, nilcone and fiber dimensions, flatness loci, and the Gorenstein /
symplectic-resolution predicates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class Partition:
    parts: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(p <= 0 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be weakly decreasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def transpose(self) -> "Partition":
        if not self.parts:
            return Partition(())
        cols = [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        return Partition(tuple(cols))

    def multiplicity(self, k: int) -> int:
        return sum(1 for p in self.parts if p == k)

    def is_very_even(self) -> bool:
        """All parts even, each with even multiplicity."""
        return all(p % 2 == 0 for p in self.parts) and all(
            self.multiplicity(k) % 2 == 0 for k in set(self.parts)
        )

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self.parts)) + "]"


def partition(*parts: int) -> Partition:
    return Partition(tuple(parts))


@dataclass(frozen=True)
class OrbitLabel:
    """A nilpotent orbit: Lie type, partition, and the I/II tag carried by
    very even partitions in the even orthogonal algebras."""

    lie_type: str  # 'gl', 'sp', 'so'
    size: int  # m for gl(m), 2m for sp(2m), m for so(m)
    part: Partition
    tag: Optional[str] = None  # 'I' or 'II'

    def __post_init__(self) -> None:
        if self.lie_type not in ("gl", "sp", "so"):
            raise ValueError("lie_type must be gl, sp, or so")
        if self.part.total != self.size:
            raise ValueError("partition must sum to the ambient size")
        if not valid_partition(self.lie_type, self.part, self.size):
            raise ValueError(f"{self.part} is not a {self.lie_type}({self.size}) partition")
        very_even = (
            self.lie_type == "so" and self.size % 2 == 0 and self.part.is_very_even()
        )
        if very_even and self.tag not in ("I", "II"):
            raise ValueError("very even partition needs an I/II tag")
        if not very_even and self.tag is not None:
            raise ValueError("tag only applies to very even orthogonal partitions")

    def __str__(self) -> str:
        tag = f"^{self.tag}" if self.tag else ""
        return f"{self.lie_type}({self.size}) {self.part}{tag}"


def valid_partition(lie_type: str, part: Partition, size: Optional[int] = None) -> bool:
    """Type-specific parity rule: symplectic partitions have odd parts in
    even multiplicity, orthogonal partitions have even parts in even
    multiplicity; general linear partitions are unconstrained."""
    if size is not None and part.total != size:
        raise ValueError("partition total does not match the ambient size")
    if lie_type == "gl":
        return True
    if lie_type == "sp":
        return all(part.multiplicity(k) % 2 == 0 for k in set(part.parts) if k % 2 == 1)
    if lie_type == "so":
        return all(part.multiplicity(k) % 2 == 0 for k in set(part.parts) if k % 2 == 0)
    raise ValueError(f"unknown lie type {lie_type!r}")


def orbit_dim(label: OrbitLabel) -> int:
    """Orbit dimension from the transpose partition.

    gl(m): m^2 - sum s_i^2; sp(2m): 2m^2 + m - (sum s_i^2)/2 - (#odd parts)/2;
    so(m): (m^2 - m)/2 - (sum s_i^2)/2 + (#odd parts)/2, with s the transpose.
    """
    s = label.part.transpose().parts
    sq = sum(v * v for v in s)
    odd = sum(1 for p in label.part.parts if p % 2 == 1)
    if label.lie_type == "gl":
        return label.size**2 - sq
    if label.lie_type == "sp":
        m = label.size // 2
        num = 2 * (2 * m * m + m) - sq - odd
        assert num % 2 == 0
        return num // 2
    num = label.size**2 - label.size - sq + odd
    assert num % 2 == 0
    return num // 2


def closure_leq(lam: Partition, mu: Partition) -> bool:
    """Dominance order: lam <= mu iff every partial sum of lam is at most
    the corresponding partial sum of mu (equal totals required)."""
    if lam.total != mu.total:
        raise ValueError("partitions must have equal totals")
    a = list(lam.parts)
    b = list(mu.parts)
    n = max(len(a), len(b))
    a += [0] * (n - len(a))
    b += [0] * (n - len(b))
    sa = sb = 0
    for x, y in zip(a, b):
        sa += x
        sb += y
        if sa > sb:
            return False
    return True


def symplectic_reduction_orbit(
    group: str, n: int, d: int
) -> Union[OrbitLabel, Tuple[OrbitLabel, OrbitLabel]]:
    """Identify the categorical quotient of the zero moment fiber as a
    nilpotent orbit closure (or a pair, in the very even orthogonal case).

    group: 'GL' (acting space dimension n, orbits in gl(d)),
           'O'  (dimension n, orbits in sp(2d)),
           'Sp' (dimension 2n, orbits in so(2d)).
    """
    if d < 1 or n < 1:
        raise ValueError("parameters must be positive")
    if group == "GL":
        N = min(d // 2, n)
        parts = (2,) * N + (1,) * (d - 2 * N)
        return OrbitLabel("gl", d, Partition(parts))
    if group == "O":
        N = min(d, n)
        parts = (2,) * N + (1,) * (2 * (d - N))
        return OrbitLabel("sp", 2 * d, Partition(parts))
    if group == "Sp":
        dimV = 2 * n
        if d > dimV:
            parts = (2,) * dimV + (1,) * (2 * (d - dimV))
            return OrbitLabel("so", 2 * d, Partition(parts))
        if d % 2 == 1:  # d <= dim V, odd (dim V is even, so d < dim V)
            parts = (2,) * (d - 1) + (1, 1)
            return OrbitLabel("so", 2 * d, Partition(parts))
        parts = (2,) * d
        return (
            OrbitLabel("so", 2 * d, Partition(parts), tag="I"),
            OrbitLabel("so", 2 * d, Partition(parts), tag="II"),
        )
    raise ValueError(f"unknown group {group!r}")


def has_symplectic_resolution(label: OrbitLabel) -> bool:
    """Resolution-existence predicate for an orbit closure.

    gl: always.  sp: exactly the full two-column partition [2^m].
    so: either some even q != 2 with the first q parts odd and the rest
    even, or exactly two odd parts sitting in positions 2m-1, 2m.
    """
    parts = label.part.parts
    if label.lie_type == "gl":
        return True
    if label.lie_type == "sp":
        return all(p == 2 for p in parts)
    # so: clause (a)
    odd_positions = [i for i, p in enumerate(parts) if p % 2 == 1]
    q = len(odd_positions)
    if q != 2 and q % 2 == 0 and odd_positions == list(range(q)):
        # first q parts odd; all later parts even holds by construction
        return True
    # clause (b): exactly two odd parts at positions 2m-1, 2m (1-indexed)
    if q == 2:
        i, j = odd_positions
        if j == i + 1 and (i + 1) % 2 == 1:
            return True
    return False


_ARITY = {"GL": 3, "SL": 2, "O": 2, "SO": 2, "Sp": 2, "GLsym": 2, "Osym": 2, "Spsym": 2}


def _params(situation: str, params: Sequence[int]) -> Tuple[int, ...]:
    """The parameters of a situation, checked: the right count, each at
    least 1, and an even ambient dimension for the symplectic group."""
    if situation not in _ARITY:
        raise ValueError(f"unsupported situation {situation!r}")
    params = tuple(params)
    if len(params) != _ARITY[situation]:
        raise ValueError(f"{situation} takes {_ARITY[situation]} parameters, got {len(params)}")
    if min(params) < 1:
        raise ValueError(f"parameters must be at least 1, got {params}")
    if situation in ("Sp", "Spsym") and params[0] % 2:
        raise ValueError(f"{situation} needs an even ambient dimension, got {params[0]}")
    return params


def gorenstein(situation: str, params: Sequence[int]) -> bool:
    """Gorenstein predicate for the invariant-theory quotients.

    GL (determinantal): n1 == n2.  O (symmetric determinantal): n' - n odd.
    SL, SO, Sp: always (semisimple or trivial character group).
    """
    params = _params(situation, params)
    if situation == "GL":
        n, n1, n2 = params
        return n1 == n2
    if situation == "O":
        n, nprime = params
        return (nprime - n) % 2 == 1
    if situation in ("SL", "SO", "Sp"):
        return True
    raise ValueError(f"unsupported situation {situation!r}")


def max_rank(situation: str, params: Sequence[int]) -> int:
    """The largest rank N of a quotient point; the strata are 0..N.  For SL
    the strata are the origin and, when n' >= n, the nonzero minor vectors."""
    params = _params(situation, params)
    if situation in ("GL", "O", "SO"):
        return min(params)
    if situation == "Sp":
        n, nprime = params
        return min(nprime // 2, n // 2)
    if situation == "SL":
        n, nprime = params
        return 1 if nprime >= n else 0
    raise ValueError(f"unsupported situation {situation!r}")


def nilcone_dim(situation: str, params: Sequence[int]) -> int:
    """Closed-form dimension of the zero fiber of the quotient map."""
    params = _params(situation, params)
    if situation in ("GL", "O", "Sp"):
        return fiber_dim(situation, params, 0)
    if situation == "GLsym":
        n, d = params
        if d >= 2 * n:
            return 2 * n * d - n * n
        if d % 2 == 0:
            return n * d + d * d // 4
        return n * d + (d * d - 1) // 4
    if situation == "Osym":
        n, d = params
        if n <= d:
            return 2 * d * n - n * (n - 1) // 2
        return d * n + d * (d + 1) // 2
    if situation == "Spsym":
        n, d = params
        if d > n:
            return 2 * d * n - n * (n + 1) // 2
        return d * n + d * (d - 1) // 2
    raise ValueError(f"unsupported situation {situation!r}")


def fiber_dim(situation: str, params: Sequence[int], r: int) -> int:
    """Dimension of the quotient-map fiber over the rank-r stratum point."""
    if situation not in ("GL", "O", "Sp"):
        raise ValueError(f"unsupported situation {situation!r}")
    if not 0 <= r <= max_rank(situation, params):
        raise ValueError("r out of range")
    if situation == "GL":
        n, n1, n2 = params
        if n - r <= n2 - n1:
            return n * n2 + n * r - n2 * r
        if n - r <= n1 - n2:
            return n * n1 + n * r - n1 * r
        if n >= n1 + n2 - r:
            return n * n1 + n * n2 - n1 * n2
        base = 2 * (n - r) * (n1 + n2) + (r + n) ** 2 + (n1 - n2) ** 2
        if (n + n1 - n2 - r) % 2 == 0:
            assert base % 4 == 0
            return base // 4
        assert base % 4 == 1
        return (base - 1) // 4
    if situation == "O":
        n, nprime = params
        if 2 * nprime - r < n:
            return nprime * n - nprime * (nprime + 1) // 2
        if (n - r) % 2 == 0:
            num = 4 * nprime * (n - r) + (r + n) ** 2 - 2 * (n + r)
        else:
            num = 4 * nprime * (n - r - 1) + (r + n) ** 2 - 1
        assert num % 8 == 0
        return num // 8
    n, nprime = params
    if nprime - r <= n // 2:
        return nprime * n - nprime * (nprime - 1) // 2
    num = 4 * nprime * (n - 2 * r) + (n + 2 * r) ** 2 + 2 * (n + 2 * r)
    assert num % 8 == 0
    return num // 8


def flatness_locus(situation: str, params: Sequence[int]) -> List[int]:
    """Indices of the quotient strata over which the quotient map is flat.

    Strata are indexed 0..N with N = `max_rank`; the returned list is
    the flat locus, e.g. list(range(N+1)) means flat everywhere.
    """
    N = max_rank(situation, params)
    if situation == "GL":
        n, n1, n2 = params
        if n > max(n1, n2):
            lo = max(n1 + n2 - n - 1, 0)
            return list(range(lo, N + 1))
        if n == max(n1, n2):
            return [i for i in (N - 1, N) if i >= 0]
        return [N]
    if situation in ("O", "SO"):
        n, nprime = params
        if nprime < n:
            lo = max(2 * nprime - n - 1, 0)
            return list(range(lo, N + 1))
        if nprime == n:
            return [i for i in (N - 1, N) if i >= 0]
        return [N]
    if situation == "Sp":
        n, nprime = params
        if nprime < n:
            lo = max(nprime - n // 2 - 1, 0)
            return list(range(lo, N + 1))
        if nprime == n:
            return [i for i in (N - 1, N) if i >= 0]
        return [N]
    n, nprime = params
    if nprime <= n or n == 1:
        return [0, 1] if nprime >= n else [0]
    return [1]


def flat_everywhere(situation: str, params: Sequence[int]) -> bool:
    """Whole-quotient flatness: the flatness locus is every stratum."""
    return flatness_locus(situation, params) == list(range(max_rank(situation, params) + 1))
