import random
from fractions import Fraction
from itertools import combinations

import pytest

from classinv.catalog import _sl_minors
from classinv.linalg import Echelon, det, rank


def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_rows(rng, nrows, ncols):
    """Sparse rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = random_fraction(rng), random_fraction(rng)
            row = {c: ca * a.get(c, 0) + cb * b.get(c, 0) for c in set(a) | set(b)}
        else:
            row = {c: random_fraction(rng) for c in range(ncols) if rng.random() < 0.5}
        rows.append({c: v for c, v in row.items() if v})
    return rows


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


class TestRankAgainstSympy:
    def sympy_rank(self, rows, ncols):
        sympy = pytest.importorskip("sympy")
        if not rows:
            return 0
        dense = [[sympy.Rational(str(row.get(c, 0))) for c in range(ncols)] for row in rows]
        return sympy.Matrix(dense).rank()

    def test_random_ranks(self):
        rng = random.Random(20121472)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = random_rows(rng, nrows, ncols)
            assert rank(rows) == self.sympy_rank(rows, ncols)

    def test_reduce_to_zero_iff_in_span(self):
        rng = random.Random(1211)
        seen = set()
        for _ in range(60):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            rows = random_rows(rng, nrows, ncols)
            span = Echelon()
            for row in rows:
                span.insert(row)
            # half the targets are combinations of the rows, so lie in the span
            target = random_rows(rng, 1, ncols)[0] if rng.random() < 0.5 else {}
            if not target:
                for row in rows:
                    c = random_fraction(rng)
                    for k, v in row.items():
                        target[k] = target.get(k, 0) + c * v
                target = {k: v for k, v in target.items() if v}
            in_span = self.sympy_rank(rows + [target], ncols) == self.sympy_rank(rows, ncols)
            assert (not span.reduce(target)) == in_span
            seen.add(in_span)
        assert seen == {True, False}

    def test_empty_zero_and_duplicate_rows(self):
        assert rank([]) == 0
        assert Echelon().reduce({}) == {}
        assert Echelon().reduce({0: Fraction(2)}) == {0: Fraction(2)}
        zeros = [{0: Fraction(0), 1: Fraction(0)}, {}]
        assert rank(zeros) == self.sympy_rank(zeros, 2) == 0
        row = {0: Fraction(1, 2), 2: Fraction(-3)}
        dup = [row, dict(row), {c: 2 * v for c, v in row.items()}]
        assert rank(dup) == self.sympy_rank(dup, 3) == 1
        span = Echelon()
        assert span.insert(row) is not None
        assert span.insert(dict(row)) is None
        assert span.rank == 1


class TestDeterminant:
    def test_matches_cofactor_expansion(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for _ in range(12):
                m = [[random_fraction(rng) if rng.random() < 0.7 else Fraction(0)
                      for _ in range(n)] for _ in range(n)]
                if n > 1 and rng.random() < 0.25:
                    m[-1] = list(m[0])  # singular
                got = det(m)
                assert isinstance(got, Fraction)
                assert got == cofactor_det(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det([[Fraction(1), Fraction(2)]])

    def test_sl_minors_match_cofactor_expansion(self):
        rng = random.Random(5)
        for n, nprime in [(1, 3), (2, 3), (2, 4), (3, 5)]:
            w = [[random_fraction(rng) for _ in range(nprime)] for _ in range(n)]
            want = [
                cofactor_det([[w[i][j] for j in cols] for i in range(n)])
                for cols in combinations(range(nprime), n)
            ]
            assert _sl_minors(w) == want
