"""Equality of permutation centralizers in S_n and A_n.

Write g = v_1 v_2 ... v_n where v_i collects the cycles of g of length
i.  Two permutations are locally equivalent at i when the layers have
the same support and w_i is a power v_i^k with k invertible modulo i
(at i = 1 this just compares fixed-point sets).  Centralizers in S_n
are equal iff g and h are equivalent at every layer, or differ by one
of two swaps between a transposition and a pair of fixed points on the
same points.  In A_n more exotic variations appear (a repaired double
transposition, 3-point blocks trading roles between 3-cycles and fixed
triples, and a pair of odd cycles powered by different exponents),
each gated by an "elsewhere only odd cycles of distinct lengths"
condition that keeps the ambient centralizer free of odd permutations.

A permutation is checked once, where it enters.  `Permutation(images)`
checks that the images are integers (a float or a string is a
ParseError, not truncated) forming a bijection of 1..n; `from_cycles` and
`parse` check that the cycle points are positive ints, each written
once and at most the degree, which already makes the images a bijection.
`identity`, `extend`, `*`, `inverse` and `**` build on checked
permutations and check nothing again.

The decision procedures work on `CycleLayers`, which one walk over the
images fills; the brute-force counterparts enumerate the full group
through the checking constructor and serve as independent oracles for
small n.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

from .errors import OddPermutation, ParseError, TooLarge
from .exactfield import _power


def _index(v, what):
    """An image or a degree, named by `what`, as a plain int
    (operator.index turns a bool into one); anything that is not an
    integer is a ParseError, never truncated.  A degree's sign is checked
    where the permutation is built."""
    try:
        return operator.index(v)
    except TypeError:
        raise ParseError("bad %s %r" % (what, v)) from None


class Permutation:
    """Permutation of {1, ..., n} stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        imgs = tuple(_index(v, "image") for v in images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ParseError("images %r are not a bijection of 1..%d" % (imgs, n))
        self.images = imgs

    @classmethod
    def _trusted(cls, images):
        """The permutation with this tuple of int images, which the caller
        has built as a bijection of 1..n; nothing is checked again."""
        g = object.__new__(cls)
        g.images = images
        return g

    @classmethod
    def identity(cls, n):
        return cls.from_cycles((), n)

    @classmethod
    def from_cycles(cls, cycles, n=None):
        # a point that is not an int is rejected by `_from_cycles`
        top = max((p for c in cycles for p in c if isinstance(p, int)), default=0)
        return cls._from_cycles(cycles, None if n is None else _index(n, "degree"), top)

    @classmethod
    def _from_cycles(cls, cycles, n, top):
        """`from_cycles`, given `top`, the largest point of the cycles, and
        n as an int (or None).

        Points that are positive ints, each written once and at most n,
        already make the images a bijection, so that is all this checks.
        """
        n = top if n is None else n
        if n < 0:
            raise ParseError("degree must be non-negative, got %d" % n)
        if n < top:
            raise ParseError("cycle point %d exceeds degree %d" % (top, n))
        imgs = list(range(1, n + 1))
        seen = set()
        for c in cycles:
            m = len(c)
            for j, p in enumerate(c):
                if not isinstance(p, int) or p < 1:
                    raise ParseError("bad cycle point %r" % (p,))
                if p in seen:
                    raise ParseError("point %d repeated across cycles" % p)
                seen.add(p)
                imgs[p - 1] = c[j + 1 - m]  # c[(j + 1) % m]
        # map(int) turns bool points into plain ints
        return cls._trusted(tuple(map(int, imgs)))

    @classmethod
    def parse(cls, text, n=None):
        """Cycle notation like '(1 2)(3 4)'; '()' is the identity."""
        return cls.from_cycles(parse_cycles(text), n=n)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point - 1]

    def extend(self, n):
        """Same permutation viewed in S_n (new points fixed)."""
        n = _index(n, "degree")
        if n == self.degree:
            return self
        if n < self.degree:
            raise ParseError("cannot shrink a permutation")
        return Permutation._trusted(self.images + tuple(range(self.degree + 1, n + 1)))

    def __mul__(self, other):
        """(g * h)(x) = g(h(x))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        n = max(self.degree, other.degree)
        g, h = self.extend(n), other.extend(n)
        return Permutation._trusted(tuple(map(((0,) + g.images).__getitem__, h.images)))

    def inverse(self):
        out = [0] * self.degree
        for i, v in enumerate(self.images, 1):
            out[v - 1] = i
        return Permutation._trusted(tuple(out))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        base = self.inverse() if e < 0 else self
        return _power(base, abs(e), Permutation.identity(self.degree), operator.mul)

    def cycles(self, include_fixed=False):
        """Disjoint cycles, each starting at its least point, sorted."""
        layers = CycleLayers(self)
        return tuple(
            sorted(c for i in layers.lengths() if i > 1 or include_fixed for c in layers.cycles(i))
        )

    def fixed_points(self):
        return frozenset(i + 1 for i, v in enumerate(self.images) if v == i + 1)

    def support(self):
        return frozenset(i + 1 for i, v in enumerate(self.images) if v != i + 1)

    def is_even(self):
        return CycleLayers(self).even

    def order(self):
        return math.lcm(*CycleLayers(self).lengths())

    def __eq__(self, other):
        if isinstance(other, Permutation):
            return other.images == self.images
        return NotImplemented

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation.parse(%r, n=%d)" % (str(self), self.degree)

    def __str__(self):
        cs = self.cycles()
        if not cs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cs)


def parse_cycles(text):
    """The cycles written in cycle notation, as tuples of points."""
    s = text.strip()
    if s in ("", "()", "id", "e"):
        return ()
    if s[0] != "(" or s[-1] != ")":
        raise ParseError("bad cycle notation %r" % text)
    # int() also reads other scripts' digits, "_" separators and a "+";
    # a point is ASCII digits, with a "-" left for from_cycles to refuse
    if not s.isascii() or "_" in s or "+" in s:
        raise ParseError("bad cycle point in %r" % text)
    cycles = []
    for chunk in s[1:-1].replace(",", " ").split(")("):
        pts = chunk.split()
        if not pts:
            raise ParseError("empty cycle in %r" % text)
        try:
            cycles.append(tuple(map(int, pts)))
        except ValueError as exc:
            raise ParseError("bad cycle point in %r" % text) from exc
    return tuple(cycles)


class CycleLayers:
    """Cycles of one permutation grouped by length, layer by layer."""

    __slots__ = ("degree", "images", "even", "_cycles", "_supports")

    def __init__(self, g):
        """One walk over the images files each cycle (fixed points
        included, each cycle starting at its least point) under its
        length."""
        images = g.images
        n = len(images)
        self.degree = n
        self.images = images
        seen = [False] * (n + 1)
        by_len = {}
        for start in range(1, n + 1):
            if seen[start]:
                continue
            c = [start]
            seen[start] = True
            p = images[start - 1]
            while p != start:
                c.append(p)
                seen[p] = True
                p = images[p - 1]
            by_len.setdefault(len(c), []).append(tuple(c))
        self._cycles = {i: tuple(cs) for i, cs in by_len.items()}
        self._supports = {
            i: frozenset(itertools.chain.from_iterable(cs)) for i, cs in by_len.items()
        }
        # a k-cycle is k - 1 transpositions
        self.even = (n - sum(map(len, by_len.values()))) % 2 == 0

    def lengths(self):
        return tuple(sorted(self._cycles))

    def cycles(self, i):
        return self._cycles.get(i, ())

    def support(self, i):
        return self._supports.get(i, frozenset())


def _cycle_power(cycles, images, i):
    """The k in [1, i) coprime with i such that `images` maps every point
    of the length-i `cycles` as their product to the power k, or None.

    The image of the first point fixes k, since the points of a cycle
    are distinct; the rest only confirm it.
    """
    c = cycles[0]
    try:
        k = c.index(images[c[0] - 1])
    except ValueError:
        return None
    if math.gcd(k, i) != 1:
        return None
    for c in cycles:
        for j, p in enumerate(c):
            if images[p - 1] != c[(j + k) % i]:
                return None
    return k


def _local_k(la, lb, i):
    """The k in [1, i) coprime with i such that w_i = v_i^k (1 at i = 1)."""
    ca = la.cycles(i)
    if not ca and not lb.cycles(i):
        return 1
    if la.support(i) != lb.support(i):
        return None
    if i == 1:
        return 1
    # on the common support of the i-layers, h's images are those of w_i
    return _cycle_power(ca, lb.images, i)


@dataclass(frozen=True)
class VariationReport:
    """Decision together with which theorem branch produced it."""

    equal: bool
    kind: str
    variation: tuple = ()
    details: dict = field(default_factory=dict)


def _bad_layers(la, lb):
    return [
        i
        for i in sorted(la._cycles.keys() | lb._cycles.keys())
        if _local_k(la, lb, i) is None
    ]


def _pattern_s1(la, lb):
    """One transposition and no fixed points against exactly those two
    points fixed and no transpositions."""
    if len(la.cycles(2)) != 1 or la.cycles(1) or lb.cycles(2):
        return None
    if lb.support(1) != la.support(2):
        return None
    return {"swap": sorted(la.support(2))}

def _pattern_s2(la, lb):
    """A transposition plus two fixed points, with the roles of the two
    point pairs exchanged."""
    if len(la.cycles(2)) != 1 or len(la.cycles(1)) != 2:
        return None
    if len(lb.cycles(2)) != 1 or len(lb.cycles(1)) != 2:
        return None
    if lb.support(1) != la.support(2) or lb.support(2) != la.support(1):
        return None
    return {
        "transpositions": [sorted(la.support(2)), sorted(lb.support(2))],
    }


def _elsewhere_odd_distinct(layers, excluded):
    """Outside the excluded lengths: no even cycles, no repeated length."""
    for i, cs in layers._cycles.items():
        if i not in excluded and (i % 2 == 0 or len(cs) > 1):
            return False
    return True


def _pattern_a2(la, lb):
    """Two double transpositions on the same four points, repaired."""
    if len(la.cycles(2)) != 2 or len(lb.cycles(2)) != 2:
        return None
    if la.support(2) != lb.support(2):
        return None
    if not (_elsewhere_odd_distinct(la, {2}) and _elsewhere_odd_distinct(lb, {2})):
        return None
    return {"points": sorted(la.support(2))}


def _pattern_a3(la, lb):
    """Three-point blocks trading roles between a 3-cycle and a fixed
    triple.

    In the even part of the centralizer, a 3-cycle on a block B and
    three fixed points on B contribute the same subgroup (the cyclic
    group Alt(B)), and with two or more blocks the block swaps are odd,
    so they drop out.  Hence the centralizers agree exactly when both
    elements decompose layers 1 and 3 into the same 3-point blocks:
    at most two blocks in total, each independently a 3-cycle or a
    fixed triple, at most one fixed triple per element (a larger fixed
    set brings in a non-cyclic alternating group, and a fixed pair
    would pair with an odd block swap), orientations free."""
    if not (_elsewhere_odd_distinct(la, {1, 3}) and _elsewhere_odd_distinct(lb, {1, 3})):
        return None
    sides = []
    for layers in (la, lb):
        cycles3 = layers.cycles(3)
        fixed = layers.support(1)
        if len(fixed) not in (0, 3):
            return None
        if len(cycles3) > (1 if fixed else 2):
            return None
        blocks = {frozenset(c) for c in cycles3}
        if fixed:
            blocks.add(frozenset(fixed))
        sides.append(blocks)
    if sides[0] != sides[1]:
        return None
    return {"blocks": sorted(sorted(b) for b in sides[0])}


def _pattern_a4(la, lb, m):
    """Two m-cycles (m odd) powered by exponents distinct modulo m."""
    if m % 2 == 0 or m < 3:
        return None
    ca, cb = la.cycles(m), lb.cycles(m)
    if len(ca) != 2 or len(cb) != 2:
        return None
    if {frozenset(c) for c in ca} != {frozenset(c) for c in cb}:
        return None
    if not (_elsewhere_odd_distinct(la, {m}) and _elsewhere_odd_distinct(lb, {m})):
        return None
    exps = [_cycle_power((c,), lb.images, m) for c in ca]
    if None in exps or exps[0] == exps[1]:
        return None
    return {"length": m, "exponents": exps}


def _decide_sn(la, lb):
    if la.degree != lb.degree:
        return VariationReport(False, "not-equal", details={"reason": "degrees differ"})
    bad = _bad_layers(la, lb)
    if not bad:
        return VariationReport(True, "equivalent")
    if set(bad) == {1, 2}:
        for a, b in ((la, lb), (lb, la)):
            d = _pattern_s1(a, b)
            if d is not None:
                return VariationReport(True, "S-case-1", (1, 2), d)
            d = _pattern_s2(a, b)
            if d is not None:
                return VariationReport(True, "S-case-2", (1, 2), d)
    return VariationReport(False, "not-equal", tuple(bad))


def _decide_an(la, lb):
    if la.degree != lb.degree:
        return VariationReport(False, "not-equal", details={"reason": "degrees differ"})
    bad = _bad_layers(la, lb)
    if not bad:
        return VariationReport(True, "equivalent")
    bset = set(bad)
    if bset == {1, 2}:
        for a, b in ((la, lb), (lb, la)):
            d = _pattern_s2(a, b)
            if d is not None:
                return VariationReport(True, "A-case-1", (1, 2), d)
    if bset == {2}:
        d = _pattern_a2(la, lb)
        if d is not None:
            return VariationReport(True, "A-case-2", (2,), d)
    if bset == {1, 3}:
        d = _pattern_a3(la, lb)
        if d is not None:
            return VariationReport(True, "A-case-3", (1, 3), d)
    if len(bad) == 1:
        d = _pattern_a4(la, lb, bad[0])
        if d is not None:
            return VariationReport(True, "A-case-4", (bad[0],), d)
    return VariationReport(False, "not-equal", tuple(bad))


def sn_cent_equal(g, h):
    """Do g and h have equal centralizers in the full symmetric group?"""
    return _decide_sn(CycleLayers(g), CycleLayers(h))


def an_cent_equal(g, h):
    """Do g and h have equal centralizers in the alternating group?

    Both inputs must be even permutations.
    """
    la, lb = CycleLayers(g), CycleLayers(h)
    if not la.even:
        raise OddPermutation("first argument is odd")
    if not lb.even:
        raise OddPermutation("second argument is odd")
    return _decide_an(la, lb)


# -- brute force --


def _all_images(n):
    return tuple(itertools.permutations(range(1, n + 1)))


def _commutes(x, g):
    for i in range(len(g)):
        if x[g[i] - 1] != g[x[i] - 1]:
            return False
    return True


def _centralizer_images(g_images, universe):
    return frozenset(x for x in universe if _commutes(x, g_images))


def perm_centralizer_bruteforce(g, group="S"):
    """Centralizer of g by full enumeration of S_n or A_n (n <= 9)."""
    n = g.degree
    if n > 9:
        raise TooLarge("brute force capped at degree 9 (got %d)" % n)
    if group not in ("S", "A"):
        raise ParseError("group must be 'S' or 'A'")
    if group == "A" and not g.is_even():
        raise OddPermutation("element lies outside the alternating group")
    cent = _centralizer_images(g.images, _all_images(n))
    perms = (Permutation(x) for x in cent)
    if group == "A":
        return frozenset(p for p in perms if p.is_even())
    return frozenset(perms)
