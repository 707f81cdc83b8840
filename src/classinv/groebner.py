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
`OverflowError`: in a leading or reduced monomial, and in any term that
enters the engine, where packing converts the exponents with `bytes`
once and tests the result against the guard bits (128 to 255 set one;
`bytes` rejects 256 or more).

Pairs are selected by sugar degree, smallest first, ties by the lcm's
order key (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar
cube, please", ISSAC 1991), with the Gebauer-Moeller refinements of
Buchberger's two criteria; the M criterion tests each new lcm only
against the minimal lcms of lower degree, the only ones that can divide
it properly.  A seed's sugar is its total degree; a pair's sugar is
max(s_i - deg lt_i, s_j - deg lt_j) + deg lcm; an element made from a
pair gets the larger of the pair's sugar and its own total degree.
Sugar is the degree the element would have in the homogenized
computation, so an inhomogeneous run under a weighted order is not led
into high degrees by leading terms of low degree.  On homogeneous input
every element's sugar is its degree, that of its leading term, so a
pair's sugar is its lcm degree: the selection is the normal strategy
(smallest lcm degree first), step for step.  There a degree bound `d`
truncates the computation: all S-pairs of degree <= d are processed,
which makes the leading-term ideal complete in degrees <= d, enough for
Hilbert-function queries up to d.

A run (`_Run`) stops at the first live pair above the bound and keeps
it in the heap, and each `Ideal` keeps its incomplete run per order, so
a larger bound resumes instead of restarting.  On homogeneous input
pairs leave the heap in order of lcm degree, so the run stopped at d is
an exact prefix of the run to any larger bound: the same pairs, chain
deletions and basis indices, hence the same reduced basis as a fresh
run to that bound.  When the heap empties the run is complete.

Every count reads the Hilbert-series numerator of the minimal leading
monomials that `Ideal._leads` gives, packed (see there).  Per process:
- `_NUMERATORS` holds the numerator of each set of minimal monomials;
- `_ENGINES` holds one engine per ring for lex and for grevlex.

An unbounded query first looks for its answer in the Groebner cones of
the complete bases the ideal holds (Mora and Robbiano, "The Groebner
fan of an ideal", 1988; Sturmfels, Groebner Bases and Convex Polytopes,
1996, ch. 2).  Let G be the reduced basis under a term order <, and
suppose every g in G has the same leading monomial under a second term
order <'.  Then G is the reduced basis under <' too: both leading-term
ideals contain <LT(G)>, the standard monomials of each order form a
basis of R/I, so neither can be strictly larger; the tails keep their
supports, so G stays reduced, and the reduced basis is unique.  The
first kept basis that passes, sorted for <', answers the query, term
for term what a run would give.  A weighted order counts as a term
order on the ideal when no weight is positive or the ideal is
homogeneous (`_well_ordered`); any other query starts a run.

A new unbounded run under such a term order starts from the basis of
the newest cone, not from the generators: it generates the same ideal,
the reduced basis is unique, so the run ends at the same basis, term
for term, and a basis that is already reduced under a nearby order
leaves far fewer S-pairs (converting a known basis is the idea of the
Groebner walk: Collart, Kalkbrener and Mall, "Converting bases with the
Groebner walk", J. Symbolic Comput. 1997).  The rule is confined to
unbounded runs under term orders.  A bounded run starts from the
generators, so that it stays an exact prefix of a fresh run and its
truncated basis is the one a fresh run gives.  Under an order that is no
well-order on the ideal a run need not end, and what it gives can depend
on where it starts, so it starts where it always has.

Equality of two ideals that both hold their complete reduced grevlex
basis is equality of those bases, since the reduced basis of an ideal
under a term order is unique (Cox, Little and O'Shea, Ideals,
Varieties, and Algorithms, ch. 2 sec. 7, Prop. 6); otherwise
`ideal_equal` tests each side's generators for membership in the other.

All reduction is integer pseudo-division in `_Engine`: `top_reduce`
for the Buchberger loop and the certificate, `remainder` for everything
else.  `remainder` reduces every term and tracks the multiplier mu, so
that mu*p - r lies in the ideal; `normal_form` returns lambda*r/mu,
lambda being p's scale to coprime integers, and interreduction makes
each element monic by dividing by its leading coefficient times mu.
A remainder modulo a Groebner basis is unique, so these agree with
division over the rationals term for term.  Normal forms therefore
share the exponent limit of 127.

Divisors are looked up in an index (`_Divisors`, after the divisor
queries of Roune and Stillman, "Practical Groebner basis computation",
ISSAC 2012).  It memoises each queried monomial's answer: a hit stores
the index of the first entry whose leading term divides it, a miss the
number of entries scanned.  The entry list only grows, so a stored hit
stays the first divisor and a later query after a miss scans only the
entries appended since; the index answers exactly as a scan from the
front, and runs take the same steps as without it.
"""

from __future__ import annotations

import heapq
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .poly import (
    GREVLEX,
    Monomial,
    MonomialOrder,
    Polynomial,
    Ring,
    weighted_order,
)

_SHIFT = 8
_GUARD_SHIFT = _SHIFT - 1
_GUARD = 1 << _GUARD_SHIFT  # top bit of each field; an exponent stays below it
_FIELD = _GUARD - 1  # the exponent bits of a field
_EXPONENT_OVERFLOW = f"exponent {_GUARD} or more does not fit a packed monomial"


def _guard_mask(arity: int) -> int:
    return int.from_bytes(bytes([_GUARD]) * arity, "little")


def _pack(m: Monomial) -> int:
    """The packed monomial; an exponent of 128 to 255 sets a guard bit, and
    `bytes` rejects one of 256 or more."""
    try:
        pm = int.from_bytes(bytes(m), "little")
    except ValueError:
        raise OverflowError(_EXPONENT_OVERFLOW) from None
    if pm & _GUARD_MASKS[len(m)]:
        raise OverflowError(_EXPONENT_OVERFLOW)
    return pm


def _unpack(p: int, arity: int) -> Monomial:
    return tuple(p.to_bytes(arity, "little"))


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


_GUARD_MASKS = _Memo(_guard_mask)  # arity -> the guard bits of its fields

# a basis entry: (leading monomial, leading coefficient, packed polynomial)
_Entry = Tuple[int, int, Dict[int, int]]


class _Divisors:
    """First-divisor queries over an append-only list of basis entries.

    `find(m)` answers as a scan from the front of `lts` would; the
    memo holds `~i` for a monomial whose first divisor is entry i and
    the number of entries scanned for one that had none.
    """

    __slots__ = ("entries", "lts", "_guard", "_memo")

    def __init__(self, guard: int, entries: Iterable[_Entry] = ()):
        self.entries: List[_Entry] = []
        self.lts: List[int] = []  # the entries' leading monomials
        self._guard = guard
        self._memo: Dict[int, int] = {}
        for e in entries:
            self.append(e)

    def append(self, entry: _Entry) -> None:
        self.entries.append(entry)
        self.lts.append(entry[0])

    def find(self, m: int, skip: int = -1) -> Optional[int]:
        """The index of the first entry other than `skip` whose leading
        monomial divides m, or None."""
        start = self._memo.get(m, 0)
        if start < 0:
            i = ~start
        else:
            i = self._scan(m, start)
            self._memo[m] = len(self.lts) if i is None else ~i
        if i == skip:
            i = self._scan(m, skip + 1)
        return i

    def _scan(self, m: int, start: int) -> Optional[int]:
        guard, lts = self._guard, self.lts
        mg = m | guard
        for i in range(start, len(lts)):
            if (mg - lts[i]) & guard == guard:
                return i
        return None


class _Engine:
    """Packed-monomial arithmetic and integer reduction for one ring and
    order: the kernel of Buchberger runs, interreduction, certificates and
    normal forms."""

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
        ge = (((a | self.guard) - b) & self.guard) >> _GUARD_SHIFT
        mask = ge * _FIELD
        return (a & mask) | (b & ~mask)

    def minimal(self, pms: Iterable[int]) -> List[int]:
        """The distinct monomials that no other one divides, by degree.

        A proper divisor has lower degree, so each monomial is tested
        only against kept ones of lower degree.
        """
        guard, degree = self.guard, self.degree
        lower: List[int] = []  # kept, below the current degree
        level: List[int] = []  # kept, of the current degree
        current = -1
        for m in sorted(set(pms), key=degree):
            if degree(m) != current:
                current = degree(m)
                lower += level
                level = []
            mg = m | guard
            for k in lower:
                if (mg - k) & guard == guard:  # `divides(k, m)`, inlined
                    break
            else:
                level.append(m)
        return lower + level

    # polynomial helpers (dict packed-monomial -> int coeff) ------------

    def from_poly(self, p: Polynomial) -> Tuple[Dict[int, int], Fraction]:
        """(d, s): p = s * d, d with coprime integer coefficients, s > 0."""
        den = lcm(*(c.denominator for c in p.terms.values()))
        if den == 1:
            d = {_pack(m): c.numerator for m, c in p.terms.items()}
        else:
            d = {_pack(m): c.numerator * (den // c.denominator) for m, c in p.terms.items()}
        g = gcd(*d.values())
        if g > 1:
            d = {m: c // g for m, c in d.items()}
        return d, Fraction(g, den)

    def terms(self, d: Dict[int, int], s: Fraction) -> Dict[Monomial, Fraction]:
        """The terms of s*d over the rationals."""
        num, den, n = s.numerator, s.denominator, self.arity
        return {_unpack(m, n): Fraction(c * num, den) for m, c in d.items()}

    def entry(self, p: Polynomial) -> _Entry:
        d = self.from_poly(p)[0]
        lt = self.lt(d)
        return lt, d[lt], d

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

    def top_reduce(self, p: Dict[int, int], index: _Divisors) -> Dict[int, int]:
        """Reduce the leading term of p while possible; integer pseudo-division."""
        guard, key, find, entries = self.guard, self.key, index.find, index.entries
        steps = 0
        while p:
            lm = max(p, key=key)
            if lm & guard:
                raise OverflowError(_EXPONENT_OVERFLOW)
            i = find(lm)
            if i is None:
                return p
            blt, blc, bd = entries[i]
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

    def remainder(
        self, p: Dict[int, int], index: _Divisors, skip: int = -1
    ) -> Tuple[Dict[int, int], Fraction]:
        """(r, mu): the full remainder of p, which it consumes, against the
        index's entries other than `skip`, by integer pseudo-division; mu
        is nonzero and mu*p - r lies in the ideal of those entries.

        Terms leave p for r largest first, and a reduction step only adds
        terms below the one it cancels, so a term in r is never met again.
        """
        guard, key, find, entries = self.guard, self.key, index.find, index.entries
        r: Dict[int, int] = {}
        num = den = 1  # mu = num / den
        steps = 0
        while p:
            lm = max(p, key=key)
            if lm & guard:
                raise OverflowError(_EXPONENT_OVERFLOW)
            i = find(lm, skip)
            if i is None:
                r[lm] = p.pop(lm)
                continue
            blt, blc, bd = entries[i]
            c = p[lm]
            shift = lm - blt
            if blc != 1:
                for m in p:
                    p[m] *= blc
                for m in r:
                    r[m] *= blc
                num *= blc
            for m, cm in bd.items():
                mm = m + shift
                v = p.get(mm, 0) - c * cm
                if v:
                    p[mm] = v
                else:
                    p.pop(mm, None)
            steps += 1
            if p and steps % 16 == 0:
                g = gcd(*p.values(), *r.values())
                if g > 1:
                    p = {m: c // g for m, c in p.items()}
                    r = {m: c // g for m, c in r.items()}
                    den *= g
        return r, Fraction(num, den)

    def spoly(self, f: _Entry, g: _Entry) -> Dict[int, int]:
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


_ENGINES: Dict[tuple, _Engine] = {}  # (ring, order kind) -> engine


def _engine(ring: Ring, order: MonomialOrder) -> _Engine:
    """The engine of `ring` and `order`: for lex and grevlex one per ring
    for the whole process, so all its runs and normal forms share its key
    and degree memos.  A weighted order, which a weight sweep rarely
    repeats, gets a new one."""
    if order.kind == "weighted":
        return _Engine(ring, order)
    sig = (ring, order.kind)
    eng = _ENGINES.get(sig)
    if eng is None:
        eng = _ENGINES[sig] = _Engine(ring, order)
    return eng


class _Run:
    """A Buchberger run that stops at a degree bound and resumes from there.

    It holds the unreduced basis with each element's sugar, the pair
    heap and the live pairs.  `advance(bound)` processes every pair of
    sugar <= bound and leaves the rest in the heap.  On homogeneous input
    a pair's sugar is its lcm degree, so a run advanced to p and then to q
    makes exactly the steps of a fresh run advanced to q: the same
    pairs, the same chain deletions, the same basis indices.
    """

    def __init__(self, ring: Ring, gens: Sequence[Polynomial], order: MonomialOrder):
        self.order = order
        eng = self.eng = _engine(ring, order)
        self.index = _Divisors(eng.guard)
        self.basis = self.index.entries  # grows through `add_element` only
        self.sugars: List[int] = []  # per basis element
        self.pairs: List[Tuple[int, int, int, int]] = []  # heap: (sugar, lcm key, i, j)
        self.lcms: Dict[Tuple[int, int], int] = {}  # live pairs
        self.leads: Optional[List[int]] = None  # minimal leading monomials once complete
        self._reduced: List[Polynomial] = []
        self._reduced_size = 0  # basis length when `_reduced` was made
        seed = [eng.from_poly(g)[0] for g in gens if not g.is_zero()]
        seed = [eng.strip_content(d) for d in seed]
        # deterministic seeding: ascending leading monomial, then insertion order
        seed.sort(key=lambda d: (eng.key(eng.lt(d)), sorted(d.items())))
        for d in seed:
            d = eng.top_reduce(dict(d), self.index)
            if d:
                self.add_element(eng.strip_content(d), 0)

    def add_element(self, d: Dict[int, int], sugar: int) -> None:
        """Gebauer-Moeller update of the pair set with the new element,
        whose sugar is the larger of `sugar` and its total degree."""
        eng, basis, lcms, sugars = self.eng, self.basis, self.lcms, self.sugars
        guard, degree = eng.guard, eng.degree
        if any(m & guard for m in d):
            raise OverflowError(_EXPONENT_OVERFLOW)
        t = len(basis)
        nlt = eng.lt(d)
        sugar = max(sugar, max(map(degree, d)))
        # a pair's sugar: the larger sugar excess over the leading degree,
        # plus the lcm degree; on homogeneous input it is the lcm degree
        excess = sugar - degree(nlt)
        shift, field = _GUARD_SHIFT, _FIELD
        cand = [  # `lcm(a, nlt)`, inlined
            (a & (ge := ((((a | guard) - nlt) & guard) >> shift) * field)) | (nlt & ~ge)
            for a in self.index.lts
        ]
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
            s = max(excess, sugars[i] - degree(basis[i][0])) + degree(l)
            heapq.heappush(self.pairs, (s, eng.key(l), i, t))
        self.index.append((nlt, d[nlt], d))
        sugars.append(sugar)

    def advance(self, degree_bound: Optional[int]) -> bool:
        """Process the pairs of sugar <= degree_bound (all if None).

        The first live pair above the bound stays in the heap.  Returns
        True when no pair is left: the basis is then complete, and keeps
        its minimal leading monomials in `leads`.
        """
        eng, basis, pairs, lcms = self.eng, self.basis, self.pairs, self.lcms
        while pairs:
            sugar, _, i, j = pairs[0]
            if (i, j) not in lcms:
                heapq.heappop(pairs)
                continue
            if degree_bound is not None and sugar > degree_bound:
                return False
            heapq.heappop(pairs)
            del lcms[(i, j)]
            s = eng.spoly(basis[i], basis[j])
            if not s:
                continue
            s = eng.top_reduce(s, self.index)
            if s:
                self.add_element(eng.strip_content(s), sugar)
        if self.leads is None:
            self.leads = eng.minimal(self.index.lts)
        return True

    def reduced(self) -> List[Polynomial]:
        """The reduced basis of the elements so far; recomputed only when
        the basis has grown."""
        if self._reduced_size == len(self.basis):
            return self._reduced
        eng, order = self.eng, self.order
        # minimalize: drop elements whose leading term another element divides
        # (leading terms are distinct: each element enters top-reduced)
        kept = set(self.leads if self.leads is not None else eng.minimal(self.index.lts))
        index = _Divisors(eng.guard, (b for b in self.basis if b[0] in kept))
        # inter-reduce tails against the other elements: under a weight that
        # is positive on a variable, a tail term can be a multiple of the
        # element's own leading term
        reduced: List[Polynomial] = []
        for k, (lt, lc, d) in enumerate(index.entries):
            r, mu = eng.remainder({m: c for m, c in d.items() if m != lt}, index, skip=k)
            terms = {_unpack(lt, eng.arity): Fraction(1)}
            terms.update(eng.terms(r, 1 / (lc * mu)))
            reduced.append(Polynomial(eng.ring, terms))
        reduced.sort(key=lambda p: order.key(p.leading_monomial(order)))
        self._reduced, self._reduced_size = reduced, len(self.basis)
        return reduced


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases.

    `_gb` maps (order, degree bound) to the reduced basis a query
    computed; the unbounded key answers every query of its order, and a
    basis computed with a larger bound answers any query at a smaller
    one.  Otherwise a bounded query resumes the order's Buchberger run
    (`_Run`), which stopped at the last bound without dropping the pairs
    above it.  On homogeneous input a run stopped at p is an exact prefix
    of the run to any larger bound, so every bound gets the basis a fresh
    run to that bound would give.  Once a run's pair heap empties, only
    its reduced basis is kept (`_complete`) and it answers every larger
    bound.  An unbounded query with no complete basis of its order first
    tries the cones, `_cones`: each complete basis computed under a term
    order on the ideal, with its leading monomials.  The first whose
    leading monomials all stay leading under the query's term order is
    the query's reduced basis (see the module docstring), and is kept in
    `_complete` sorted for that order.  When none is, a new run of a term
    order on the ideal starts from the newest cone's basis (`_run`); a
    bounded run, or one under an order that is no well-order here, starts
    from the generators.  Two ideals that both hold a complete grevlex
    basis are equal exactly when those bases are (`ideal_equal`).

    Caches, one line each; instances are otherwise immutable:
    - `_gb`: per (order, bound), the reduced basis a query got;
    - `_runs`: per order, the run until its basis is reduced (`leads` once complete);
    - `_complete`: per order, the complete reduced basis;
    - `_cones`: the complete bases under term orders, with their leading monomials;
    - `_packed`: per basis in `_gb`, the engine and divisor index for normal forms.
    """

    def __init__(self, ring: Ring, generators: Iterable[Polynomial]):
        gens = tuple(g for g in generators if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise ValueError("generator from wrong ring")
        self.ring = ring
        self.generators = gens
        self._homogeneous: Optional[bool] = None
        self._gb: Dict[tuple, List[Polynomial]] = {}
        self._runs: Dict[tuple, _Run] = {}  # per order, until its basis is reduced
        self._complete: Dict[tuple, List[Polynomial]] = {}  # per order
        # (leading monomials, basis) of each complete basis computed under
        # a term order, oldest first: the cones a new order is tested against
        self._cones: List[Tuple[List[Monomial], List[Polynomial]]] = []
        # id(basis) -> (basis, engine, index); holding the list keeps its id unique
        self._packed: Dict[int, Tuple[List[Polynomial], _Engine, _Divisors]] = {}

    # ---- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        if self._homogeneous is None:  # every bounded or normal-form query asks
            self._homogeneous = all(g.is_homogeneous() for g in self.generators)
        return self._homogeneous

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
        basis = self._complete.get(sig) if degree_bound is not None else self._known_basis(order)
        if basis is None:
            run = self._run(order, degree_bound)
            if run.advance(degree_bound):
                basis = self._completed(order, run.reduced())
            else:
                self._runs[sig] = run
                basis = run.reduced()
        self._gb[(sig, degree_bound)] = basis
        return basis

    def _run(self, order: MonomialOrder, degree_bound: Optional[int]) -> _Run:
        """The run of `order` that a bounded query left, else a new one.
        A new unbounded run under a term order on the ideal starts from the
        newest cone's basis; any other starts from the generators."""
        run = self._runs.pop(_order_sig(order), None)
        if run is not None:
            return run
        seed = self.generators
        if degree_bound is None and self._cones and _well_ordered(self, order):
            seed = self._cones[-1][1]
        return _Run(self.ring, seed, order)

    def _completed(self, order: MonomialOrder, basis: List[Polynomial]) -> List[Polynomial]:
        """Keep `basis` as the complete reduced basis under `order`, and as
        a cone when `order` is a term order on the ideal."""
        self._complete[_order_sig(order)] = basis
        if _well_ordered(self, order):
            self._cones.append(([g.leading_monomial(order) for g in basis], basis))
        return basis

    def _known_basis(self, order: MonomialOrder) -> Optional[List[Polynomial]]:
        """The complete reduced basis under `order` that the ideal holds,
        else the first kept cone basis whose leading monomials all stay
        leading under `order`, a term order here, sorted as `_Run.reduced`
        sorts; None when there is neither."""
        sig = _order_sig(order)
        basis = self._complete.get(sig)
        if basis is not None or not _well_ordered(self, order):
            return basis
        key = order.key
        for leads, basis in self._cones:
            if all(max(g.terms, key=key) == m for m, g in zip(leads, basis)):
                self._runs.pop(sig, None)  # a bounded run of this order is moot
                pairs = sorted(zip(leads, basis), key=lambda mg: key(mg[0]))
                self._complete[sig] = [g for _, g in pairs]
                return self._complete[sig]
        return None

    def _leads(self, order: MonomialOrder, bound: Optional[int] = None) -> List[int]:
        """The minimal leading monomials, packed, under `order`, for counts
        in degrees <= `bound` (None: all): those of a complete run or basis;
        else of degree <= bound of the basis truncated there, unless that
        query completes it; else of a cone basis, or of the run advanced to
        completion, which stays in `_runs` unreduced until a basis query.
        A complete count makes no basis query."""
        sig = _order_sig(order)
        run = self._runs.get(sig)
        if run is not None and run.leads is not None:
            return run.leads
        if bound is not None and sig not in self._complete:
            basis = self.groebner_basis(order, degree_bound=bound)
            if sig not in self._complete:
                eng = _engine(self.ring, order)
                lead = (_pack(g.leading_monomial(order)) for g in basis)
                return eng.minimal(m for m in lead if eng.degree(m) <= bound)
        basis = self._known_basis(order)
        if basis is not None:
            return [_pack(g.leading_monomial(order)) for g in basis]
        run = self._run(order, None)
        run.advance(None)
        # kept for a later basis query, which builds an index of its own
        run.index._memo.clear()
        self._runs[sig] = run
        return run.leads

    def _basis_for(self, order: MonomialOrder, p: Polynomial) -> List[Polynomial]:
        if self.is_homogeneous() and p.is_homogeneous() and not p.is_zero():
            return self.groebner_basis(order, degree_bound=p.degree())
        return self.groebner_basis(order)

    def contains(self, p: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        """Whether p reduces to zero, without converting the remainder."""
        if p.ring != self.ring:
            raise ValueError("ring mismatch")
        if p.is_zero() or self.is_zero():
            return p.is_zero()
        return not self._remainder(p, order)[1]

    def _remainder(
        self, p: Polynomial, order: MonomialOrder
    ) -> Tuple[_Engine, Dict[int, int], Fraction]:
        """(eng, r, s): s*r, r packed by eng, is the normal form of p; p and
        the ideal are nonzero."""
        basis = self._basis_for(order, p)
        packed = self._packed.get(id(basis))
        if packed is None:
            eng = _engine(self.ring, order)
            packed = self._packed[id(basis)] = (
                basis, eng, _Divisors(eng.guard, map(eng.entry, basis))
            )
        _, eng, index = packed
        d, scale = eng.from_poly(p)
        r, mu = eng.remainder(d, index)
        return eng, r, scale / mu


def _with_reduced_basis(ring: Ring, basis: Sequence[Polynomial], order: MonomialOrder) -> Ideal:
    """The ideal generated by `basis`, which the caller knows to be its
    reduced Groebner basis under `order`; it answers every query of that
    order without a Buchberger run."""
    ideal = Ideal(ring, basis)
    ideal._completed(
        order, sorted(ideal.generators, key=lambda p: order.key(p.leading_monomial(order)))
    )
    return ideal


def _well_ordered(ideal: Ideal, order: MonomialOrder) -> bool:
    """Whether `order` is a well-order on the ideal, so that its Groebner
    bases are those of a term order.  Lex and grevlex are; a weighted
    order is when no weight is positive, and with a positive weight only
    on homogeneous input, where shifting every weight by the same amount
    until none is positive changes no comparison within one degree."""
    return order.kind != "weighted" or max(order.weights) <= 0 or ideal.is_homogeneous()


def groebner_basis(
    ideal: Ideal, order: MonomialOrder = GREVLEX, degree_bound: Optional[int] = None
) -> List[Polynomial]:
    return ideal.groebner_basis(order, degree_bound)


def normal_form(p: Polynomial, ideal: Ideal, order: MonomialOrder = GREVLEX) -> Polynomial:
    """Remainder of p modulo the reduced Groebner basis; zero iff p is in the ideal."""
    if p.ring != ideal.ring:
        raise ValueError("ring mismatch")
    if p.is_zero() or ideal.is_zero():
        return p
    eng, r, s = ideal._remainder(p, order)
    return Polynomial(p.ring, eng.terms(r, s))


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Whether a and b are the same ideal: their complete reduced grevlex
    bases are equal if both hold one, else each side's generators lie in
    the other; no basis is computed only to compare."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    sig = _order_sig(GREVLEX)
    if sig in a._complete and sig in b._complete:
        return a._complete[sig] == b._complete[sig]
    return all(b.contains(g) for g in a.generators) and all(
        a.contains(g) for g in b.generators
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
    """I cap J via the auxiliary variable: t*I + (1-t)*J, then eliminate t.
    The order ranks t-degree first, ties by grevlex, so the t-free part of
    the reduced basis, in grevlex order, is the reduced grevlex basis of I
    cap J (elimination theorem: Cox, Little, O'Shea, ch. 3 sec. 1)."""
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
    kept = [g.map_ring(base) for g in basis if all(m[0] == 0 for m in g.terms)]
    return _with_reduced_basis(base, kept, GREVLEX)


# ---- standard monomial counting -----------------------------------------


_NUMERATORS: Dict[frozenset, List[int]] = {}  # minimal generators -> N(t)


def _hilbert_numerator(gens: List[int]) -> List[int]:
    """Coefficients of N(t), where k[x]/(gens) has Hilbert series
    N(t)/(1-t)^n.  `gens` must be a minimal generating set, packed; N does
    not depend on n.  Each set is computed once per process, and every
    call returns a list of its own.

    Pivot recursion (Bayer-Stillman 1992, Bigatti 1997) on an explicit
    stack: N(M) = N(M + (x_v^e)) + t^e N(M : x_v^e), where v occurs most
    often among the generators with more than one variable and e is its
    smallest positive exponent there.  Both branches shrink: the sum
    drops a mixed generator (a minimal pure power x_v^a forces e < a),
    the quotient lowers a degree.  Pairwise coprime generators end the
    recursion with N = prod(1 - t^deg g).
    """
    key = frozenset(gens)
    if key not in _NUMERATORS:
        width = max(gens, default=0).bit_length() // _SHIFT + 1  # fields in use
        guard = _guard_mask(width)
        num: List[int] = []
        stack = [(gens, 0)]
        while stack:
            gens, shift = stack.pop()
            fields = [g.to_bytes(width, "little") for g in gens]
            supports = [[v for v, e in enumerate(f) if e] for f in fields]
            occurs = Counter(v for s in supports for v in s)
            if all(c == 1 for c in occurs.values()):
                term = [1]
                for f in fields:
                    d = sum(f)
                    term = term + [0] * d
                    for i in range(len(term) - d - 1, -1, -1):
                        term[i + d] -= term[i]
                num += [0] * (shift + len(term) - len(num))
                for i, c in enumerate(term):
                    num[shift + i] += c
                continue
            mixed = Counter(v for s in supports if len(s) > 1 for v in s)
            v = max(mixed, key=mixed.__getitem__)
            e = min(f[v] for f, s in zip(fields, supports) if len(s) > 1 and f[v])
            sv = v * _SHIFT
            stack.append(([g for g, f in zip(gens, fields) if f[v] < e] + [e << sv], shift))
            # In the quotient only a generator that lost some x_v can divide
            # another: a g with g[v] = 0 that divides h' also divides h.
            quotient = [g - (min(f[v], e) << sv) for g, f in zip(gens, fields)]
            lowered = [q for q, f in zip(quotient, fields) if f[v]]
            minimal = []
            for h in quotient:
                hg = h | guard
                for d in lowered:
                    if (hg - d) & guard == guard and d != h:
                        break
                else:
                    minimal.append(h)
            stack.append((minimal, shift + e))
        _NUMERATORS[key] = num
    return list(_NUMERATORS[key])


def _counts_from_numerator(num: List[int], arity: int, pmax: int) -> List[int]:
    """Coefficients of t^0..t^pmax in N(t)/(1-t)^arity.

    Each of the divisions by (1-t) is a prefix sum, so the count in
    degree p is sum_{j<=p} N_j C(p-j+n-1, n-1) with n = arity.  Counts up
    to pmax need only the minimal leading monomials of degree <= pmax:
    higher ones do not reach degree pmax.  The cost follows the minimal
    generators, not the number of standard monomials.
    """
    counts = (num + [0] * (pmax + 1))[: pmax + 1]
    for _ in range(arity):
        counts = list(accumulate(counts))
    return counts


def hilbert_function(ideal: Ideal, p: int, order: MonomialOrder = GREVLEX) -> int:
    """Dimension of the degree-p part of ring/ideal (ideal homogeneous),
    read off the Hilbert-series numerator of the minimal leading
    monomials that `Ideal._leads` gives for degrees <= p."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if not ideal.is_homogeneous():
        raise ValueError("hilbert_function requires homogeneous generators")
    num = _hilbert_numerator(ideal._leads(order, p))
    return _counts_from_numerator(num, ideal.ring.arity, p)[p]


def affine_hilbert_function(ideal: Ideal, d: int) -> int:
    """Number of standard monomials of degree <= d under grevlex.

    For an arbitrary (possibly inhomogeneous) ideal this is the dimension
    of the degree-<=d filtration of ring/ideal, because grevlex refines
    total degree.  Used as the flatness witness for the torus families.
    Every d reads its count off the one grevlex numerator of the ideal.
    """
    if d < 0:
        raise ValueError("degree must be nonnegative")
    num = _hilbert_numerator(ideal._leads(GREVLEX))
    return _counts_from_numerator(num, ideal.ring.arity + 1, d)[d]


def krull_dim(ideal: Ideal) -> int:
    """Dimension of the quotient ring via the leading-term ideal.

    The Hilbert series of the leading-term ideal is N(t)/(1-t)^n, and
    the dimension is n - m where m is the multiplicity of t = 1 as a root
    of N; m counts the synthetic divisions of N by (1-t) that leave no
    remainder (N(1) = 0 each time).
    """
    n = ideal.ring.arity
    if ideal.is_zero():
        return n
    num = _hilbert_numerator(ideal._leads(GREVLEX))
    if not any(num):  # the leading monomial 1: a zero Hilbert series
        raise ValueError("unit ideal has no Krull dimension")
    m = 0
    while sum(num) == 0:
        num = list(accumulate(num))[:-1]
        m += 1
    return n - m


def certify_gb(basis: Sequence[Polynomial], order: MonomialOrder = GREVLEX) -> bool:
    """Buchberger certificate: every S-pair whose leading terms are not
    coprime reduces to zero against the basis (a coprime pair always does)."""
    polys = [p for p in basis if not p.is_zero()]
    if not polys:
        raise ValueError("empty basis")
    eng = _engine(polys[0].ring, order)
    index = _Divisors(eng.guard, map(eng.entry, polys))
    entries = index.entries
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i][0], entries[j][0]
            if eng.lcm(a, b) == a + b:
                continue  # coprime leading terms: Buchberger's product criterion
            s = eng.spoly(entries[i], entries[j])
            if s and eng.top_reduce(s, index):
                return False
    return True
