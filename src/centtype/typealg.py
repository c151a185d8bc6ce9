"""Cycle types, Green types, and generalized types of matrices.

The cycle type of X collects, for each monic irreducible f dividing the
characteristic polynomial, the partition of multiplicities of f across
the invariant factors.  The Green type forgets each f down to its
degree.  The generalized type sits in between: it forgets f down to its
equivalence class under

    f ~ g  iff  deg f = deg g and g has a root in K[x]/(f),

which is exactly the relation deciding conjugacy of centralizer
algebras.  Over a finite field every two irreducibles of equal degree
are equivalent, so the generalized type carries the same information as
the Green type there; over Q it is strictly finer.  All three levels
share one entry layout: (head, partition) pairs sorted by degree,
partition and head, the head an irreducible or, in a Green type, a degree.

`poly_equivalent` does not just decide the relation: it returns a root
r of g in K[x]/(f), a polynomial over K mapping the distinguished root
of f to a root of g.  The witness construction downstream builds p from
r, and finds its inverse q by `_compose_inverse`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import CtxMismatch, NotIrreducible, SizeMismatch, VerificationError
from .exactfield import ExtensionField
from .exactmat import FrobeniusForm, _Echelon, frobenius_form
from .upoly import (
    Poly,
    is_irreducible,
    poly_compose_mod,
    poly_factor,
    poly_roots_in_ext,
)


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive parts."""

    parts: tuple

    def __init__(self, parts=()):
        # operator.index takes ints (a bool becomes one) and rejects the rest
        ps = tuple(sorted(map(operator.index, parts), reverse=True))
        if any(p <= 0 for p in ps):
            raise ValueError("partition parts must be positive")
        object.__setattr__(self, "parts", ps)

    @property
    def size(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def mults(self):
        """{part: multiplicity}."""
        out = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def conjugate(self):
        if not self.parts:
            return Partition(())
        cols = [sum(1 for p in self.parts if p > i) for i in range(self.parts[0])]
        return Partition(cols)

    def replicate(self, d):
        """Each part repeated d times: the partition written d*lambda."""
        if d < 0:
            raise ValueError("negative replication")
        return Partition([p for p in self.parts for _ in range(d)])

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.parts) + ")"


def partitions_of(n):
    """All partitions of n, parts decreasing, in reverse lex order."""
    if n < 0:
        raise ValueError("negative weight")

    def rec(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in rec(total - first, first):
                yield (first,) + rest

    for tup in rec(n, n):
        yield Partition(tup)


def cent_dim_weight(lam):
    """Sum of squared conjugate parts: the centralizer dimension carried
    by one irreducible with multiplicity partition lam, per unit degree."""
    return sum(c * c for c in lam.conjugate().parts)


def dominance_leq(a, b):
    """True iff a is dominated by b (same weight, prefix sums never ahead)."""
    if a.size != b.size:
        return False
    pa = pb = 0
    for i in range(max(len(a.parts), len(b.parts))):
        pa += a.parts[i] if i < len(a.parts) else 0
        pb += b.parts[i] if i < len(b.parts) else 0
        if pa > pb:
            return False
    return True


# -- the three type levels --


def _degree(head):
    return head if isinstance(head, int) else head.degree


@dataclass(frozen=True, eq=False)
class _TypeEntries:
    """Pairs (head, multiplicity partition) sorted by degree, partition
    and head: the entry layout of all three type levels.  A head is a
    monic irreducible over `ctx`, or in a Green type its degree."""

    entries: tuple

    def __init__(self, entries):
        out = []
        for head, lam in entries:
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            out.append((head, lam))
        # an int head, a Green type's degree, has an empty key
        out.sort(
            key=lambda e: (_degree(e[0]), e[1].parts, () if isinstance(e[0], int) else e[0].key())
        )
        object.__setattr__(self, "entries", tuple(out))

    @property
    def ctx(self):
        return self.entries[0][0].ctx

    @property
    def size(self):
        return sum(_degree(head) * lam.size for head, lam in self.entries)

    def green(self):
        return GreenType([(_degree(head), lam) for head, lam in self.entries])


@dataclass(frozen=True, init=False)
class CycleType(_TypeEntries):
    """Pairs (monic irreducible, multiplicity partition), canonically sorted."""

    def generalized(self):
        return GeneralizedType(self.entries)

    def __str__(self):
        return " ".join("(%s)^%s" % (f, lam) for f, lam in self.entries)


@dataclass(frozen=True)
class GreenType(_TypeEntries):
    """Pairs (degree, multiplicity partition) with repetition, sorted."""

    def __init__(self, entries):
        super().__init__((int(d), lam) for d, lam in entries)

    def __str__(self):
        return " ".join("%d^%s" % (d, lam) for d, lam in self.entries)


@dataclass(frozen=True, init=False, eq=False)
class GeneralizedType(_TypeEntries):
    """Pairs (class representative, multiplicity partition).

    Each irreducible stands for its own ~ class, so two equal generalized
    types may carry different representatives; equality goes through the
    class matching, and hashing through the Green projection.
    """

    def __eq__(self, other):
        if not isinstance(other, GeneralizedType):
            return NotImplemented
        if other.ctx != self.ctx:
            return False
        return gentype_matching(self, other) is not None

    def __hash__(self):
        return hash(self.green())

    def __str__(self):
        return " ".join("[%s]^%s" % (f, lam) for f, lam in self.entries)


def cent_dim_formula(t):
    """Centralizer algebra dimension from a type: sum of deg * weight."""
    return sum(_degree(head) * cent_dim_weight(lam) for head, lam in t.entries)


# -- computing types of matrices --


def cycle_type(X, seed=0):
    """Cycle type, from the invariant factors, of a matrix or its FrobeniusForm.

    Only the largest invariant factor is factored: every smaller one
    divides it, so its multiplicities come from dividing by the same
    irreducibles."""
    form = X if isinstance(X, FrobeniusForm) else frobenius_form(X)
    *smaller, largest = form.invariant_factors
    entries = []
    for f, top in poly_factor(largest, seed=seed).factors:
        parts = [top]
        for d in smaller:
            m = 0
            q, r = divmod(d, f)
            while r.is_zero():
                m, d = m + 1, q
                q, r = divmod(d, f)
            if m:
                parts.append(m)
        entries.append((f, Partition(parts)))
    return CycleType(entries)


def green_type(X, seed=0):
    return cycle_type(X, seed=seed).green()


def generalized_type(X, seed=0):
    return cycle_type(X, seed=seed).generalized()


# -- the ~ relation with root witnesses --


@lru_cache(maxsize=4096)
def _irreducible_or_raise(f):
    if f.degree < 1 or not is_irreducible(f):
        raise NotIrreducible("%s is not irreducible over %s" % (f, f.ctx.short_name()))
    return True


def _compose_inverse(p, m):
    """The q of degree < deg m with q(p) = x mod m, or None when 1, p, ...,
    p^(d-1) mod m do not span K[x]/(m): their span is K[p mod m]."""
    K, d = m.ctx, m.degree
    zero = K.zero.val
    pad = lambda h: h._vals + (zero,) * (d - 1 - h.degree)
    # p^i mod m goes in tagged i; once all d are independent they are a
    # basis, and x mod m is the one combination q(p) of them
    ech, acc = _Echelon(K, d), Poly.one(K)
    for i in range(d):
        if ech.insert(pad(acc), i) is not None:
            return None
        acc = acc * p % m
    coeffs = ech.express(pad(Poly.x(K) % m))
    return Poly._from_vals(K, [coeffs.get(i, zero) for i in range(d)])


@lru_cache(maxsize=4096)
def _poly_equivalent_cached(f, g):
    if f.degree != g.degree:
        return None
    if f == g:
        return Poly.x(f.ctx)
    roots = poly_roots_in_ext(g, ExtensionField(f.ctx, f.coeffs))
    if not roots:
        return None
    r = roots[0]
    if not poly_compose_mod(g, r, f).is_zero():
        raise VerificationError("claimed root is not a root")
    return r


def poly_equivalent(f, g):
    """A root r of g in K[x]/(f) when f ~ g, else None.

    Both inputs must be monic irreducible over the same field.  On
    success r is a polynomial over K of degree < deg f with
    g(r) = 0 mod f: it sends the distinguished root of f to a root of g.
    When f == g, r is x.
    """
    if f.ctx != g.ctx:
        raise CtxMismatch("equivalence over different fields")
    f, g = f.monic(), g.monic()
    _irreducible_or_raise(f)
    _irreducible_or_raise(g)
    return _poly_equivalent_cached(f, g)


def gentype_matching(ta, tb):
    """Pairing of generalized-type entries, or None when the types differ.

    Returns a tuple of ((f_a, lam), (f_b, lam), r) triples covering
    every entry once, with r the root of f_b in K[x]/(f_a) that
    `poly_equivalent` returns.
    """
    if not isinstance(ta, GeneralizedType) or not isinstance(tb, GeneralizedType):
        raise SizeMismatch("matching needs two generalized types")
    if ta.ctx != tb.ctx:
        raise CtxMismatch("matching over different fields")
    if len(ta.entries) != len(tb.entries):
        return None
    buckets = {}
    for i, (f, lam) in enumerate(tb.entries):
        buckets.setdefault((f.degree, lam.parts), []).append(i)
    used = set()
    out = []
    for f, lam in ta.entries:
        hit = None
        for i in buckets.get((f.degree, lam.parts), ()):
            if i in used:
                continue
            r = poly_equivalent(f, tb.entries[i][0])
            if r is not None:
                hit = (i, r)
                break
        if hit is None:
            return None
        i, r = hit
        used.add(i)
        out.append(((f, lam), tb.entries[i], r))
    return tuple(out)
