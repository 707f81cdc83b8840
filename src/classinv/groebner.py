"""Buchberger Groebner engine and the ideal operations built on it.

The public surface works with `Polynomial` values (exact Fractions).
Internally the Buchberger loop uses integer-primitive coefficient
vectors and monomials packed into single integers (8 bits per variable)
so that divisibility tests are one machine-word-ish operation; scaling a
generator never changes the ideal, so every contract here is
scale-invariant.

Pair selection follows the normal strategy (smallest lcm degree first)
with the Gebauer-Moeller refinements of Buchberger's two criteria.  For
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
_FIELD = (1 << _SHIFT) - 1


def _pack(m: Monomial) -> int:
    out = 0
    for i, e in enumerate(m):
        if e >= 1 << (_SHIFT - 1):
            raise OverflowError("exponent too large for packed monomials")
        out |= e << (_SHIFT * i)
    return out


def _unpack(p: int, arity: int) -> Monomial:
    return tuple((p >> (_SHIFT * i)) & _FIELD for i in range(arity))


def _guard_mask(arity: int) -> int:
    g = 0
    for i in range(arity):
        g |= 1 << (_SHIFT * i + _SHIFT - 1)
    return g


def _order_sig(order: MonomialOrder):
    return (order.kind, order.weights)


class _Engine:
    """One Buchberger run over integer-primitive polynomials."""

    def __init__(self, ring: Ring, order: MonomialOrder):
        self.ring = ring
        self.arity = ring.arity
        self.order = order
        self.guard = _guard_mask(ring.arity)
        self._keys: Dict[int, tuple] = {}

    # packed-monomial helpers ------------------------------------------

    def key(self, pm: int) -> tuple:
        k = self._keys.get(pm)
        if k is None:
            k = self.order.key(_unpack(pm, self.arity))
            self._keys[pm] = k
        return k

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        ma = _unpack(a, self.arity)
        mb = _unpack(b, self.arity)
        return _pack(tuple(max(x, y) for x, y in zip(ma, mb)))

    def degree(self, pm: int) -> int:
        return sum(_unpack(pm, self.arity))

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
    pairs: List[Tuple[int, tuple, int, int]] = []  # heap: (lcm deg, lcm key, i, j)
    lcms: Dict[Tuple[int, int], int] = {}

    def coprime(a: int, b: int) -> bool:
        return eng.lcm(a, b) == a + b

    def add_element(d: Dict[int, int]) -> None:
        """Gebauer-Moeller update of the pair set with the new element."""
        t = len(basis)
        nlt = eng.lt(d)
        cand = []
        for i, (ilt, _, _) in enumerate(basis):
            cand.append((i, eng.lcm(ilt, nlt)))
        keep: List[Tuple[int, int]] = []
        for idx, (i, l) in enumerate(cand):
            drop = False
            for jdx, (j, lj) in enumerate(cand):
                if i == j:
                    continue
                if lj == l and jdx < idx:
                    drop = True  # duplicate lcm: keep first
                    break
                if lj != l and eng.divides(lj, l):
                    drop = True
                    break
            if not drop:
                keep.append((i, l))
        # Buchberger's product criterion
        keep = [(i, l) for (i, l) in keep if not coprime(basis[i][0], nlt)]
        # chain criterion against existing pairs
        new_pairs = []
        for (i, j), l in list(lcms.items()):
            if (
                eng.divides(nlt, l)
                and eng.lcm(basis[i][0], nlt) != l
                and eng.lcm(basis[j][0], nlt) != l
            ):
                del lcms[(i, j)]  # superseded; skip when popped
        for i, l in keep:
            lcms[(i, t)] = l
            heapq.heappush(pairs, (eng.degree(l), eng.key(l), i, t))
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
    keep_idx = []
    for i, (ilt, _, _) in enumerate(basis):
        redundant = False
        for j, (jlt, _, _) in enumerate(basis):
            if i == j:
                continue
            if eng.divides(jlt, ilt) and (jlt != ilt or j < i):
                redundant = True
                break
        if not redundant:
            keep_idx.append(i)
    minimal = [basis[i] for i in keep_idx]
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
    ms = sorted(set(monomials), key=sum)
    out: List[Monomial] = []
    for m in ms:
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


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
    counts = (_hilbert_numerator(gens) + [0] * (pmax + 1))[: pmax + 1]
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


def affine_hilbert_function(ideal: Ideal, d: int) -> int:
    """Number of standard monomials of degree <= d under grevlex.

    For an arbitrary (possibly inhomogeneous) ideal this is the dimension
    of the degree-<=d filtration of ring/ideal, because grevlex refines
    total degree.  Used as the flatness witness for the torus families.
    """
    basis = ideal.groebner_basis(GREVLEX)
    lead = [g.leading_monomial(GREVLEX) for g in basis]
    counts = _count_standard(lead, ideal.ring.arity, d)
    return sum(counts)


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
