"""Exact sparse linear algebra over Q: one incremental echelon form.

A vector is a dict from comparable column keys to its nonzero entries
(``Fraction`` or ``int``).  `Echelon` keeps a semi-echelon basis of the
rows inserted so far, stored as a dict keyed by pivot: the pivot of a
row is its largest column, its entry there is 1, and no two rows share a
pivot.  Subtracting a multiple of the row with pivot c changes only
columns up to c, so head reduction strictly lowers the leading column
and ends.  Ranks, span membership (the Macaulay-matrix test of the
tangent layer) and determinants all go through this one elimination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

Vector = Mapping[Hashable, Fraction]


class Echelon:
    """Semi-echelon basis of a growing row span."""

    def __init__(self) -> None:
        self.rows: Dict[Hashable, Dict[Hashable, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Vector) -> Dict[Hashable, Fraction]:
        """Head-reduce a copy of vec until its leading column is no pivot.

        The remainder is empty iff vec lies in the span of the rows."""
        out = {c: v for c, v in vec.items() if v}
        rows = self.rows
        while out:
            lead = max(out)
            row = rows.get(lead)
            if row is None:
                break
            f = out[lead]
            for c, v in row.items():
                s = out.get(c, 0) - f * v
                if s:
                    out[c] = s
                else:
                    del out[c]
        return out

    def insert(self, vec: Vector) -> Optional[Tuple[Hashable, Fraction]]:
        """Add vec to the span.  Returns the pivot and the entry there
        before scaling of the reduced row, or None if vec was already in
        the span."""
        rem = self.reduce(vec)
        if not rem:
            return None
        lead = max(rem)
        pivot = rem[lead]
        inv = 1 / Fraction(pivot)
        self.rows[lead] = {c: v * inv for c, v in rem.items()}
        return lead, pivot


def rank(rows: Iterable[Vector]) -> int:
    """Rank over Q of the sparse rows."""
    span = Echelon()
    for row in rows:
        span.insert(row)
    return span.rank


def det(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix over Q.

    Inserting the rows in order subtracts from each only multiples of
    earlier rows, which keeps the determinant; the reduced rows, sorted by
    pivot, form a triangular matrix.  So the determinant is the product of
    the pivot entries times the sign of the row-to-pivot permutation."""
    n = len(matrix)
    span = Echelon()
    pivots = []
    total = Fraction(1)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
        lead = span.insert({j: v for j, v in enumerate(row) if v})
        if lead is None:
            return Fraction(0)
        pivots.append(lead[0])
        total *= lead[1]
    inversions = sum(
        1 for i in range(n) for j in range(i + 1, n) if pivots[i] > pivots[j]
    )
    return -total if inversions % 2 else total
