"""Buchberger Groebner engine and the ideal operations built on it.

The public surface works with `Polynomial` values (exact Fractions).
Internally the Buchberger loop uses integer-primitive coefficient
vectors and monomials packed into single integers; scaling a generator
never changes the ideal, so every contract here is scale-invariant.

A packed monomial gives each variable an 8-bit field, the first variable
lowest: a 7-bit exponent (0..127) under a guard bit that stays clear.
Word-level arithmetic then never unpacks (packed monomials as in
Monagan-Pearce 2007).  `b | guard` minus `a` keeps every guard bit iff
a divides b; the surviving guard bits of `(a | guard) - b`, spread over
their fields, select the larger exponent of each field, which gives
the lcm.  Order keys are integers on the packed value: grevlex is
`(degree << 8n) - m`, a weighted order puts `-w.m` above that, and lex
reverses the byte order.  An exponent of 128 or more raises
`OverflowError`: in a leading or reduced monomial and in any term of an
element entering the basis.

Pair selection follows the normal strategy (smallest lcm degree first)
with the Gebauer-Moeller refinements of Buchberger's two criteria; the
M criterion tests each new lcm only against the minimal lcms of lower
degree, the only ones that can divide it properly.  For
homogeneous input a degree bound `d` truncates the computation: all
S-pairs of degree <= d are processed, which makes the leading-term ideal
complete in degrees <= d, enough for Hilbert-function queries up to d.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    Ring,
    monomial_divides,
    weighted_order,
)

_SHIFT = 8
_GUARD = 1 << (_SHIFT - 1)  # top bit of each field; an exponent stays below it
_EXPONENT_OVERFLOW = f"exponent {_GUARD} or more does not fit a packed monomial"


def _pack(m: Monomial) -> int:
    if any(e >= _GUARD for e in m):
        raise OverflowError(_EXPONENT_OVERFLOW)
    return int.from_bytes(bytes(m), "little")


def _unpack(p: int, arity: int) -> Monomial:
    return tuple(p.to_bytes(arity, "little"))


def _guard_mask(arity: int) -> int:
    return int.from_bytes(bytes([_GUARD]) * arity, "little")


def _order_sig(order: MonomialOrder):
    return (order.kind, order.weights)


class _Memo(dict):
    """A dict that fills a missing entry from `fn`; its bound `__getitem__`
    is a key function that `max` and `sorted` call without a Python frame
    once the entry exists."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, pm: int):
        v = self[pm] = self.fn(pm)
        return v


class _Engine:
    """One Buchberger run over integer-primitive polynomials."""

    def __init__(self, ring: Ring, order: MonomialOrder):
        n = self.arity = ring.arity
        self.ring = ring
        self.guard = _guard_mask(n)
        self.degree = _Memo(lambda pm: sum(pm.to_bytes(n, "little"))).__getitem__
        degree = self.degree
        width = _SHIFT * n
        if order.kind == "lex":
            # byte reversal puts the first variable's field on top
            key = lambda pm: int.from_bytes(pm.to_bytes(n, "little"), "big")
        elif order.kind == "grevlex":
            # degree first; within a degree, a smaller exponent of a later
            # variable wins, i.e. the smaller packed integer
            key = lambda pm: (degree(pm) << width) - pm
        else:
            # -w.m on top of the grevlex key, which spans fewer than 2**top values
            w = order.weights
            top = width + (n << _SHIFT).bit_length()

            def key(pm: int) -> int:
                wm = sum(map(mul, w, pm.to_bytes(n, "little")))
                return (-wm << top) + (degree(pm) << width) - pm

        self.key = _Memo(key).__getitem__

    # packed-monomial helpers ------------------------------------------

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise max: the guard bit of a field survives a - b iff
        a >= b there; spreading it over the field selects a or b."""
        ge = (((a | self.guard) - b) & self.guard) >> (_SHIFT - 1)
        mask = ge * (_GUARD - 1)
        return (a & mask) | (b & ~mask)

    def minimal(self, pms: Iterable[int]) -> List[int]:
        """The distinct monomials that no other one divides, by degree.

        A proper divisor has lower degree, so each monomial is tested
        only against kept ones of lower degree.
        """
        divides, degree = self.divides, self.degree
        lower: List[int] = []  # kept, below the current degree
        level: List[int] = []  # kept, of the current degree
        current = -1
        for m in sorted(set(pms), key=degree):
            if degree(m) != current:
                current = degree(m)
                lower += level
                level = []
            if not any(divides(k, m) for k in lower):
                level.append(m)
        return lower + level

    # polynomial helpers (dict packed-monomial -> int coeff) ------------

    def from_poly(self, p: Polynomial) -> Dict[int, int]:
        q = p.scale_primitive()
        return {_pack(m): int(c) for m, c in q.terms.items()}

    def to_poly(self, d: Dict[int, int]) -> Polynomial:
        return Polynomial(
            self.ring, {_unpack(m, self.arity): Fraction(c) for m, c in d.items()}
        )

    def lt(self, d: Dict[int, int]) -> int:
        return max(d, key=self.key)

    def strip_content(self, d: Dict[int, int]) -> Dict[int, int]:
        g = 0
        for c in d.values():
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            d = {m: c // g for m, c in d.items()}
        lm = self.lt(d)
        if d[lm] < 0:
            d = {m: -c for m, c in d.items()}
        return d

    def top_reduce(
        self, p: Dict[int, int], basis: List[Tuple[int, int, Dict[int, int]]]
    ) -> Dict[int, int]:
        """Reduce the leading term of p while possible; integer pseudo-division."""
        guard = self.guard
        blts = [b[0] for b in basis]
        nb = len(basis)
        key = self.key
        steps = 0
        while p:
            lm = max(p, key=key)
            if lm & guard:
                raise OverflowError(_EXPONENT_OVERFLOW)
            lmg = lm | guard
            hit = None
            for idx in range(nb):
                if (lmg - blts[idx]) & guard == guard:
                    hit = basis[idx]
                    break
            if hit is None:
                return p
            blt, blc, bd = hit
            c = p[lm]
            shift = lm - blt
            # pseudo-reduction: p := blc*p - c*x^shift*b keeps coefficients integral
            if blc != 1:
                for m in p:
                    p[m] *= blc
            for m, cm in bd.items():
                mm = m + shift
                v = p.get(mm, 0) - c * cm
                if v:
                    p[mm] = v
                else:
                    p.pop(mm, None)
            steps += 1
            if p and steps % 16 == 0:
                p = self.strip_content(p)
        return p

    def full_reduce(
        self, p: Dict[int, int], basis: List[Tuple[int, int, Dict[int, int]]]
    ) -> Dict[int, int]:
        """Reduce every monomial of p (tail reduction included)."""
        p = self.top_reduce(dict(p), basis)
        if not p:
            return p
        guard = self.guard
        blts = [b[0] for b in basis]
        nb = len(basis)
        done_lt = self.lt(p)
        while True:
            target = None
            for m in sorted(p, key=self.key, reverse=True):
                if m == done_lt:
                    continue
                if m & guard:
                    raise OverflowError(_EXPONENT_OVERFLOW)
                mg = m | guard
                for idx in range(nb):
                    if (mg - blts[idx]) & guard == guard:
                        b = basis[idx]
                        target = (m, b[0], b[1], b[2])
                        break
                if target:
                    break
            if target is None:
                return self.strip_content(p)
            m, blt, blc, bd = target
            c = p[m]
            if blc != 1:
                for mm in p:
                    p[mm] *= blc
                c *= blc
            q = c // blc
            shift = m - blt
            for mg, cg in bd.items():
                mm = mg + shift
                v = p.get(mm, 0) - q * cg
                if v:
                    p[mm] = v
                else:
                    p.pop(mm, None)

    def spoly(
        self, f: Tuple[int, int, Dict[int, int]], g: Tuple[int, int, Dict[int, int]]
    ) -> Dict[int, int]:
        flt, flc, fd = f
        glt, glc, gd = g
        l = self.lcm(flt, glt)
        sf = l - flt
        sg = l - glt
        out: Dict[int, int] = {}
        for m, c in fd.items():
            out[m + sf] = c * glc
        for m, c in gd.items():
            mm = m + sg
            v = out.get(mm, 0) - c * flc
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        return out


def _buchberger(
    ring: Ring,
    gens: Sequence[Polynomial],
    order: MonomialOrder,
    degree_bound: Optional[int],
) -> List[Polynomial]:
    eng = _Engine(ring, order)
    seed = [eng.from_poly(g) for g in gens if not g.is_zero()]
    seed = [eng.strip_content(d) for d in seed]
    # deterministic seeding: ascending leading monomial, then insertion order
    seed.sort(key=lambda d: (eng.key(eng.lt(d)), sorted(d.items())))

    basis: List[Tuple[int, int, Dict[int, int]]] = []  # (lt, lc, dict)
    pairs: List[Tuple[int, int, int, int]] = []  # heap: (lcm deg, lcm key, i, j)
    lcms: Dict[Tuple[int, int], int] = {}
    guard, degree, lcm = eng.guard, eng.degree, eng.lcm

    def add_element(d: Dict[int, int]) -> None:
        """Gebauer-Moeller update of the pair set with the new element."""
        if any(m & guard for m in d):
            raise OverflowError(_EXPONENT_OVERFLOW)
        t = len(basis)
        nlt = eng.lt(d)
        cand = [lcm(b[0], nlt) for b in basis]
        first: Dict[int, int] = {}
        for i, l in enumerate(cand):
            first.setdefault(l, i)  # duplicate lcm: keep the first pair
        # M criterion: keep the minimal lcms; then Buchberger's product
        # criterion drops pairs with coprime leading terms
        keep = sorted(
            first[l] for l in eng.minimal(first) if l != basis[first[l]][0] + nlt
        )
        # chain criterion against existing pairs
        for (i, j), l in list(lcms.items()):
            if ((l | guard) - nlt) & guard == guard and cand[i] != l and cand[j] != l:
                del lcms[(i, j)]  # superseded; skip when popped
        for i in keep:
            l = cand[i]
            lcms[(i, t)] = l
            heapq.heappush(pairs, (degree(l), eng.key(l), i, t))
        basis.append((nlt, d[nlt], d))

    for d in seed:
        d = eng.top_reduce(dict(d), basis)
        if d:
            d = eng.strip_content(d)
            add_element(d)

    while pairs:
        deg, _, i, j = heapq.heappop(pairs)
        if (i, j) not in lcms:
            continue
        del lcms[(i, j)]
        if degree_bound is not None and deg > degree_bound:
            continue
        s = eng.spoly(basis[i], basis[j])
        if not s:
            continue
        s = eng.top_reduce(s, basis)
        if s:
            add_element(eng.strip_content(s))

    # minimalize: drop elements whose leading term another element divides
    # (leading terms are distinct: each element enters top-reduced)
    kept = set(eng.minimal(b[0] for b in basis))
    minimal = [b for b in basis if b[0] in kept]
    # inter-reduce tails
    reduced: List[Polynomial] = []
    for i, entry in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        d = eng.full_reduce(dict(entry[2]), others)
        reduced.append(eng.to_poly(d).monic(order))
    reduced.sort(key=lambda p: order.key(p.leading_monomial(order)))
    return reduced


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases.

    The cache is keyed by (order, degree bound); a basis computed with a
    larger bound answers any query at a smaller one.  Populated lazily,
    at most once per key; instances are otherwise immutable.
    """

    def __init__(self, ring: Ring, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from wrong ring")
        self.ring = ring
        self.generators = gens
        self._gb: Dict[tuple, List[Polynomial]] = {}
        # Hilbert counts per order; the affine series numerator under _AFFINE
        self._std_counts: Dict[tuple, List[int]] = {}

    # ---- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def __repr__(self) -> str:
        return f"Ideal({len(self.generators)} generators in {self.ring})"

    # ---- Groebner bases --------------------------------------------------

    def groebner_basis(
        self, order: MonomialOrder = GREVLEX, degree_bound: Optional[int] = None
    ) -> List[Polynomial]:
        if degree_bound is not None and not self.is_homogeneous():
            raise ValueError("degree bound requires homogeneous generators")
        sig = _order_sig(order)
        if (sig, None) in self._gb:
            return self._gb[(sig, None)]
        if degree_bound is not None:
            usable = [
                b
                for (s, b), _ in self._gb.items()
                if s == sig and b is not None and b >= degree_bound
            ]
            if usable:
                return self._gb[(sig, min(usable))]
        basis = _buchberger(self.ring, self.generators, order, degree_bound)
        self._gb[(sig, degree_bound)] = basis
        return basis

    def _basis_for(self, order: MonomialOrder, p: Polynomial) -> List[Polynomial]:
        if self.is_homogeneous() and p.is_homogeneous() and not p.is_zero():
            return self.groebner_basis(order, degree_bound=p.degree())
        return self.groebner_basis(order)

    def contains(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        return normal_form(p, self, order).is_zero()


def groebner_basis(
    ideal: Ideal, order: MonomialOrder = GREVLEX, degree_bound: Optional[int] = None
) -> List[Polynomial]:
    return ideal.groebner_basis(order, degree_bound)


def _divide(p: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Full division remainder by a list of monic polynomials."""
    if p.is_zero() or not basis:
        return p
    lts = [(g.leading_monomial(order), g) for g in basis]
    rem = p
    while True:
        target = None
        for m in order.sorted(rem.terms):
            for lm, g in lts:
                if monomial_divides(lm, m):
                    target = (m, lm, g)
                    break
            if target:
                break
        if target is None:
            return rem
        m, lm, g = target
        c = rem.terms[m]
        shift = tuple(a - b for a, b in zip(m, lm))
        rem = rem - g.term_mul(shift, c)


def normal_form(p: Polynomial, ideal: Ideal, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of p modulo the reduced Groebner basis; zero iff p is in the ideal."""
    if p.ring != ideal.ring:
        raise ValueError("ring mismatch")
    if p.is_zero() or ideal.is_zero():
        return p
    basis = ideal._basis_for(order, p)
    return _divide(p, basis, order)


def ideal_equal(a: Ideal, b: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    return all(normal_form(g, b, order).is_zero() for g in a.generators) and all(
        normal_form(g, a, order).is_zero() for g in b.generators
    )


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Generated by all pairwise generator products (unordered pairs with
    repetition when squaring an ideal; interreduction happens lazily in
    the Groebner cache, not here)."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    if a is b or a.generators == b.generators:
        gens = a.generators
        prods = [
            gens[i] * gens[j]
            for i in range(len(gens))
            for j in range(i, len(gens))
        ]
    else:
        prods = [f * g for f in a.generators for g in b.generators]
    return Ideal(a.ring, prods)


def ideal_intersection(a: Ideal, b: Ideal) -> Ideal:
    """I cap J via the auxiliary variable: t*I + (1-t)*J, then eliminate t."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    base = a.ring
    tname = "t_"
    while tname in base.variables:
        tname += "_"
    ext = base.extend([tname], prepend=True)
    t = ext.var(tname)
    one = ext.one()
    gens = [t * g.map_ring(ext) for g in a.generators]
    gens += [(one - t) * g.map_ring(ext) for g in b.generators]
    elim = weighted_order([-1] + [0] * base.arity)
    basis = Ideal(ext, gens).groebner_basis(elim)
    kept = [g for g in basis if all(m[0] == 0 for m in g.terms)]
    result = [g.map_ring(base) for g in kept]
    inter = Ideal(base, result)
    # re-present with the reduced grevlex basis for reproducibility
    return Ideal(base, inter.groebner_basis(GREVLEX))


# ---- standard monomial counting -----------------------------------------


def _minimal_monomials(monomials: Iterable[Monomial]) -> List[Monomial]:
    """The minimal monomials under divisibility, in ascending degree.

    A proper divisor has lower degree, and the set merges equal ones, so
    each monomial is tested only against kept ones of lower degree.
    """
    lower: List[Monomial] = []  # kept, below the current degree
    level: List[Monomial] = []  # kept, of the current degree
    current = -1
    for m in sorted(set(monomials), key=sum):
        if sum(m) != current:
            current = sum(m)
            lower += level
            level = []
        if not any(monomial_divides(g, m) for g in lower):
            level.append(m)
    return lower + level


def _hilbert_numerator(gens: List[Monomial]) -> List[int]:
    """Coefficients of N(t), where k[x]/(gens) has Hilbert series
    N(t)/(1-t)^n.  `gens` must be a minimal generating set.

    Pivot recursion (Bayer-Stillman 1992, Bigatti 1997) on an explicit
    stack: N(M) = N(M + (x_v^e)) + t^e N(M : x_v^e), where v occurs most
    often among the generators with more than one variable and e is its
    smallest positive exponent there.  Both branches shrink: the sum
    drops a mixed generator (a minimal pure power x_v^a forces e < a),
    the quotient lowers a degree.  Pairwise coprime generators end the
    recursion with N = prod(1 - t^deg g).
    """
    num: List[int] = []
    stack = [(gens, 0)]
    while stack:
        gens, shift = stack.pop()
        supports = [[v for v, e in enumerate(g) if e] for g in gens]
        occurs = Counter(v for s in supports for v in s)
        if all(c == 1 for c in occurs.values()):
            term = [1]
            for g in gens:
                d = sum(g)
                term = term + [0] * d
                for i in range(len(term) - d - 1, -1, -1):
                    term[i + d] -= term[i]
            num += [0] * (shift + len(term) - len(num))
            for i, c in enumerate(term):
                num[shift + i] += c
            continue
        mixed = Counter(v for s in supports if len(s) > 1 for v in s)
        v = max(mixed, key=mixed.__getitem__)
        e = min(g[v] for g, s in zip(gens, supports) if len(s) > 1 and g[v])
        power = tuple(e if i == v else 0 for i in range(len(gens[0])))
        stack.append(([g for g in gens if g[v] < e] + [power], shift))
        # In the quotient only a generator that lost some x_v can divide
        # another: a g with g[v] = 0 that divides h' also divides h.
        quotient = [g[:v] + (max(g[v] - e, 0),) + g[v + 1 :] for g in gens]
        lowered = [q for g, q in zip(gens, quotient) if g[v]]
        minimal = [
            h
            for h in quotient
            if not any(d != h and monomial_divides(d, h) for d in lowered)
        ]
        stack.append((minimal, shift + e))
    return num


def _count_standard(
    lead: Sequence[Monomial], arity: int, pmax: int
) -> List[int]:
    """Counts of degree-p monomials outside the monomial ideal, p = 0..pmax.

    Read off the Hilbert series N(t)/(1-t)^n of the ideal generated by
    the leading monomials of degree <= pmax (higher ones do not reach
    degree pmax): each of the n divisions by (1-t) is a prefix sum, so
    H(p) = sum_{j<=p} N_j C(p-j+n-1, n-1).  The cost follows the minimal
    generators, not the number of standard monomials.
    """
    gens = _minimal_monomials(m for m in lead if sum(m) <= pmax)
    return _counts_from_numerator(_hilbert_numerator(gens), arity, pmax)


def _counts_from_numerator(num: List[int], arity: int, pmax: int) -> List[int]:
    """Coefficients of t^0..t^pmax in N(t)/(1-t)^arity."""
    counts = (num + [0] * (pmax + 1))[: pmax + 1]
    for _ in range(arity):
        counts = list(accumulate(counts))
    return counts


def hilbert_function(ideal: Ideal, p: int, order: MonomialOrder = GREVLEX) -> int:
    """Dimension of the degree-p part of ring/ideal (ideal homogeneous)."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if not ideal.is_homogeneous():
        raise ValueError("hilbert_function requires homogeneous generators")
    sig = _order_sig(order)
    cached = ideal._std_counts.get(sig)
    if cached is None or len(cached) <= p:
        basis = ideal.groebner_basis(order, degree_bound=p)
        lead = [g.leading_monomial(order) for g in basis]
        cached = _count_standard(lead, ideal.ring.arity, p)
        ideal._std_counts[sig] = cached
    return cached[p]


_AFFINE = ("affine", None)  # `_std_counts` key; no order kind is "affine"


def affine_hilbert_function(ideal: Ideal, d: int) -> int:
    """Number of standard monomials of degree <= d under grevlex.

    For an arbitrary (possibly inhomogeneous) ideal this is the dimension
    of the degree-<=d filtration of ring/ideal, because grevlex refines
    total degree.  Used as the flatness witness for the torus families.
    The Hilbert-series numerator of the whole leading-term ideal is
    computed once per ideal and kept in `_std_counts`; every d reads its
    count off it.
    """
    num = ideal._std_counts.get(_AFFINE)
    if num is None:
        basis = ideal.groebner_basis(GREVLEX)
        num = _hilbert_numerator(
            _minimal_monomials(g.leading_monomial(GREVLEX) for g in basis)
        )
        ideal._std_counts[_AFFINE] = num
    return _counts_from_numerator(num, ideal.ring.arity + 1, d)[d]


def krull_dim(ideal: Ideal, order: MonomialOrder = GREVLEX) -> int:
    """Dimension of the quotient ring via the leading-term ideal.

    The Hilbert series of the leading-term ideal is N(t)/(1-t)^n, and
    the dimension is n - m where m is the multiplicity of t = 1 as a root
    of N; m counts the synthetic divisions of N by (1-t) that leave no
    remainder (N(1) = 0 each time).
    """
    n = ideal.ring.arity
    if ideal.is_zero():
        return n
    basis = ideal.groebner_basis(order)
    if any(p.degree() == 0 for p in basis):
        raise ValueError("unit ideal has no Krull dimension")
    num = _hilbert_numerator(
        _minimal_monomials(g.leading_monomial(order) for g in basis)
    )
    m = 0
    while sum(num) == 0:
        num = list(accumulate(num))[:-1]
        m += 1
    return n - m


def certify_gb(basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> bool:
    """Buchberger certificate: every S-pair reduces to zero against the basis."""
    polys = [p for p in basis if not p.is_zero()]
    if not polys:
        raise ValueError("empty basis")
    ring = polys[0].ring
    eng = _Engine(ring, order)
    entries = []
    for p in polys:
        d = eng.from_poly(p)
        entries.append((eng.lt(d), d[eng.lt(d)], d))
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            s = eng.spoly(entries[i], entries[j])
            if s and eng.top_reduce(s, entries):
                return False
    return True
