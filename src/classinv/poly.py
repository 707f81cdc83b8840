"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a dict mapping monomial exponent tuples to nonzero
`Fraction` coefficients, tied to a `Ring` that fixes the variable names
and their order.  This exact representation makes identity testing
reliable, which everything downstream (Groebner bases, ideal equality,
rank computations) depends on.

Monomials are dense exponent tuples: entry i is the exponent of the
ring's i-th variable.  All rings in this project are small (at most 18
variables), so dense tuples keep divisibility and lcm trivial.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Monomial = Tuple[int, ...]
Coeff = Fraction


@dataclass(frozen=True)
class Ring:
    """A polynomial ring over Q with named, ordered variables (all degree 1)."""

    variables: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValueError("ring needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def const(self, value) -> "Polynomial":
        c = Fraction(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.arity: c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def extend(self, extra: Sequence[str], prepend: bool = False) -> "Ring":
        """New ring with extra variables appended (or prepended)."""
        if prepend:
            return Ring(tuple(extra) + self.variables)
        return Ring(self.variables + tuple(extra))

    def __repr__(self) -> str:
        return f"Ring({','.join(self.variables)})"


def ring(*names: str) -> Ring:
    """Convenience constructor: ring('x1', 'x2', ...)."""
    return Ring(tuple(names))


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True iff x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


class MonomialOrder:
    """A total multiplicative order on monomials.

    Kinds:
      * ``lex``      -- lexicographic in the ring's declared variable order;
      * ``grevlex``  -- graded reverse lexicographic (the default everywhere);
      * ``weighted`` -- order by the weight ``w . exponents`` ascending
        (smaller weight leads), ties broken by grevlex.  With the negative
        weight vectors used by the one-parameter degenerations this puts
        the initial (minimal-weight) terms first.

    ``key(m)`` returns a tuple; larger key means larger monomial.
    """

    __slots__ = ("kind", "weights", "_cache")

    def __init__(self, kind: str, weights: Optional[Tuple[int, ...]] = None):
        if kind not in ("lex", "grevlex", "weighted"):
            raise ValueError(f"unknown order kind {kind!r}")
        if kind == "weighted" and weights is None:
            raise ValueError("weighted order needs a weight vector")
        self.kind = kind
        self.weights = weights
        self._cache: Dict[Monomial, tuple] = {}

    def key(self, m: Monomial):
        k = self._cache.get(m)
        if k is None:
            if self.kind == "lex":
                k = m
            elif self.kind == "grevlex":
                k = (sum(m), tuple(-e for e in reversed(m)))
            else:
                w = self.weights
                k = (
                    -sum(wi * ei for wi, ei in zip(w, m)),
                    sum(m),
                    tuple(-e for e in reversed(m)),
                )
            self._cache[m] = k
        return k

    def max(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)

    def sorted(self, monomials: Iterable[Monomial], reverse: bool = True) -> List[Monomial]:
        return sorted(monomials, key=self.key, reverse=reverse)

    def __repr__(self) -> str:
        if self.kind == "weighted":
            return f"MonomialOrder(weighted {self.weights})"
        return f"MonomialOrder({self.kind})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def weighted_order(weights: Sequence[int]) -> MonomialOrder:
    return MonomialOrder("weighted", tuple(weights))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring_: Ring, terms: Dict[Monomial, Coeff]):
        self.ring = ring_
        # never store zero coefficients
        self.terms: Dict[Monomial, Coeff] = {
            m: c for m, c in terms.items() if c != 0
        }
        self._hash: Optional[int] = None

    # ---- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def leading_term(self, order: MonomialOrder = GREVLEX) -> Tuple[Monomial, Coeff]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = order.max(self.terms)
        return m, self.terms[m]

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> Monomial:
        return self.leading_term(order)[0]

    def coefficient(self, m: Monomial) -> Coeff:
        return self.terms.get(m, Fraction(0))

    def iter_terms(self, order: MonomialOrder = GREVLEX) -> Iterator[Tuple[Monomial, Coeff]]:
        for m in order.sorted(self.terms):
            yield m, self.terms[m]

    # ---- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial(self.ring, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = -c
            else:
                s = s - c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial(self.ring, {m: c * v for m, v in self.terms.items()})
        self._check_ring(other)
        out: Dict[Monomial, Coeff] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                s = out.get(m)
                if s is None:
                    out[m] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def term_mul(self, m: Monomial, c: Coeff) -> "Polynomial":
        """Multiply by the single term c * x^m."""
        return Polynomial(
            self.ring, {monomial_mul(mm, m): cc * c for mm, cc in self.terms.items()}
        )

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self, order: MonomialOrder = GREVLEX) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.leading_term(order)
        return self * (Fraction(1) / c)

    def scale_primitive(self) -> "Polynomial":
        """Scale by a positive rational so coefficients are coprime integers."""
        if self.is_zero():
            return self
        from math import gcd

        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        g = 0
        for c in self.terms.values():
            g = gcd(g, c.numerator * den // c.denominator)
        return self * Fraction(den, g)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.ring.arity:
            raise ValueError("wrong number of values")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, values):
                if e:
                    v *= Fraction(x) ** e
            total += v
        return total

    def map_ring(self, target: Ring) -> "Polynomial":
        """Reinterpret in `target`, matching variables by name.

        Source variables missing from `target` are allowed only if they
        never occur with positive exponent.
        """
        positions = [
            target.index(v) if v in target.variables else None
            for v in self.ring.variables
        ]
        out: Dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            exps = [0] * target.arity
            for e, pos in zip(m, positions):
                if e:
                    if pos is None:
                        raise KeyError("variable not present in target ring")
                    exps[pos] = e
            mm = tuple(exps)
            out[mm] = out.get(mm, Fraction(0)) + c
        return Polynomial(target, out)

    # ---- comparisons / hashing -----------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def __str__(self) -> str:
        return serialize(self)


def poly_op(a: Polynomial, b: Polynomial, op: str) -> Polynomial:
    """Named dispatch for the three ring operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def leading_term(p: Polynomial, order: MonomialOrder = GREVLEX) -> Tuple[Monomial, Coeff]:
    return p.leading_term(order)


def initial_form(p: Polynomial, w: Sequence[int]) -> Polynomial:
    """Sum of the terms of p of minimal w-weight.

    This matches substituting x_i -> t^{w_i} x_i, clearing the lowest
    power of t, and setting t = 0; with the negative weight vectors used
    by the torus degenerations the minimal-weight part is the flat limit.
    Zero maps to zero, and the operation is multiplicative in p.
    """
    if len(w) != p.ring.arity:
        raise ValueError("weight vector has wrong length")
    if p.is_zero():
        return p
    weights = {m: sum(wi * ei for wi, ei in zip(w, m)) for m in p.terms}
    mw = min(weights.values())
    return Polynomial(p.ring, {m: c for m, c in p.terms.items() if weights[m] == mw})


# ---- text format --------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[-+*/^()])")


class ParseError(ValueError):
    pass


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"bad character at {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_poly(text: str, ring_: Ring) -> Polynomial:
    """Parse the ASCII format: terms joined by + or -, factors joined by *,
    powers with ^, coefficients integer or p/q."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty input")
    result = ring_.zero()
    i = 0
    n = len(tokens)

    def parse_factor(i: int) -> Tuple[Polynomial, int]:
        if i >= n:
            raise ParseError("unexpected end of input")
        tok = tokens[i]
        if tok.isdigit():
            num = int(tok)
            i += 1
            if i < n and tokens[i] == "/":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ParseError("malformed rational")
                den = int(tokens[i + 1])
                if den == 0:
                    raise ParseError("zero denominator")
                return ring_.const(Fraction(num, den)), i + 2
            return ring_.const(num), i
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            p = ring_.var(tok)  # raises KeyError on unknown names
            i += 1
            if i < n and tokens[i] == "^":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ParseError("malformed exponent")
                p = p ** int(tokens[i + 1])
                i += 2
            return p, i
        raise ParseError(f"unexpected token {tok!r}")

    def parse_term(i: int) -> Tuple[Polynomial, int]:
        p, i = parse_factor(i)
        while i < n and tokens[i] == "*":
            q, i = parse_factor(i + 1)
            p = p * q
        return p, i

    sign = 1
    first = True
    while i < n:
        tok = tokens[i]
        if tok == "+":
            sign, i = 1, i + 1
        elif tok == "-":
            sign, i = -1, i + 1
        elif first:
            sign = 1
        else:
            raise ParseError(f"expected + or - before {tok!r}")
        term, i = parse_term(i)
        result = result + term * sign
        first = False
    return result


def _format_monomial(m: Monomial, ring_: Ring) -> str:
    parts = []
    for name, e in zip(ring_.variables, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def serialize(p: Polynomial, order: MonomialOrder = GREVLEX) -> str:
    """Canonical text form: terms in descending order, exact coefficients.

    Round-trips through parse_poly bit-exactly.
    """
    if p.is_zero():
        return "0"
    chunks: List[str] = []
    for m, c in p.iter_terms(order):
        mono = _format_monomial(m, p.ring)
        neg = c < 0
        a = -c if neg else c
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
