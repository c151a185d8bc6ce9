"""Univariate polynomials over an exact field context.

A Poly is an immutable coefficient tuple (constant term first) over one
FieldCtx.  Like `Matrix`, it keeps its coefficients as raw field payloads
(`_vals`) and runs its arithmetic on them through the context's
`_add/_sub/_mul/_neg/_inv`; products and division update their working
row once per coefficient through the context's `_submul` kernel.
Results are built by `Poly._from_vals`, which neither coerces nor boxes,
and `coeffs` boxes the payloads as FieldElems on first read.  The public
constructor coerces what it is given.  The module provides the
arithmetic the rest of the package leans on: gcd/xgcd, modular
composition, CRT, squarefree decomposition, full factorization, and
root-finding inside a named extension.

Factorization routes, one per field family, each after one squarefree
split (Musser's loop, whose p-th root descent runs only in
characteristic p):
  * finite fields, towers over F_p included: distinct-degree via
    gcd(x^(q^k) - x, f), then equal-degree splitting (quadratic-residue
    test for odd q, trace polynomials for q = 2^e);
  * rationals: per squarefree part of the primitive integer multiple,
    a Zassenhaus round -- factor modulo a good prime p, Hensel-lift the
    factors to p^l past twice the Landau-Mignotte bound, and recombine
    subsets by trial division over Z.  The lifting and the subset
    products are Poly arithmetic over Z/p^k (`exactfield._Residues`),
    read back by symmetric lift; only integer trial division and content
    removal stay on integer lists.  Degree is capped at QF_DEGREE_CAP;
  * extensions L = K[y]/(m) of characteristic 0: Trager's norm -- an
    integer shift s for which the norm of f(x - s y) down to K is
    squarefree, read off one Krylov chain of multiplication by x + s y
    on L[x]/(f) (companion(f) + s y I over L, each entry expanded once
    into its block over K), factored over K and mapped back to factors
    of f by gcds over L.  So a tower over Q recurses down to Q, where the
    same cap applies to [L:Q] deg f.
The roots of g in an extension L are its linear factors over L, on every
field; a root's payload is directly its expression over the base.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CtxMismatch,
    DivisionByZero,
    NonCoprimeModuli,
    NotAnExtension,
    UnsupportedField,
    VerificationError,
    ZeroPolynomial,
)
from .exactfield import (
    ExtensionField,
    FieldElem,
    RationalField,
    _is_prime,
    _Residues,
    _power,
    prime_field,
    random_elem,
    rationals,
)


class Poly:
    """Dense univariate polynomial over a field context: canonical field
    payloads in `_vals` (constant term first, no trailing zeros), boxed
    as FieldElem `coeffs` on first read."""

    __slots__ = ("ctx", "_vals", "_coeffs")

    def __init__(self, ctx, coeffs=()):
        self._init(ctx, [ctx.coerce(c).val for c in coeffs])

    @classmethod
    def _from_vals(cls, ctx, vals):
        """Poly from canonical payloads of ctx, trailing zeros stripped,
        neither coerced nor boxed: for results computed here."""
        p = object.__new__(cls)
        p._init(ctx, list(vals))
        return p

    def _init(self, ctx, vals):
        zero = ctx.zero.val
        while vals and vals[-1] == zero:
            vals.pop()
        self.ctx = ctx
        self._vals = tuple(vals)
        self._coeffs = None

    @property
    def coeffs(self):
        cs = self._coeffs
        if cs is None:
            ctx = self.ctx
            cs = self._coeffs = tuple(FieldElem(ctx, v) for v in self._vals)
        return cs

    # -- constructors --

    @classmethod
    def zero(cls, ctx):
        return cls._from_vals(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls._from_vals(ctx, (ctx.one.val,))

    @classmethod
    def x(cls, ctx):
        return cls._from_vals(ctx, (ctx.zero.val, ctx.one.val))

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, (c,))

    # -- structure --

    @property
    def degree(self):
        return len(self._vals) - 1

    def is_zero(self):
        return not self._vals

    def is_one(self):
        return len(self._vals) == 1 and self._vals[0] == self.ctx.one.val

    @property
    def lc(self):
        if not self._vals:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return FieldElem(self.ctx, self._vals[-1])

    def is_monic(self):
        return bool(self._vals) and self._vals[-1] == self.ctx.one.val

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        ctx = self.ctx
        inv = ctx._inv(self._vals[-1])
        return Poly._from_vals(ctx, [ctx._mul(c, inv) for c in self._vals])

    def coeff(self, i):
        return FieldElem(self.ctx, self._vals[i]) if i <= self.degree else self.ctx.zero

    # -- ring operations --

    def _same(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise CtxMismatch("polynomials over different fields")
            return other
        try:
            return Poly.constant(self.ctx, other)
        except (TypeError, ValueError):
            return None

    def _zip(self, other, op):
        """op applied coefficientwise, the shorter side padded with zeros."""
        a, b = self._vals, other._vals
        pad = (self.ctx.zero.val,) * abs(len(a) - len(b))
        if len(a) < len(b):
            a += pad
        else:
            b += pad
        return Poly._from_vals(self.ctx, map(op, a, b))

    def __add__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return self._zip(other, self.ctx._add)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return self._zip(other, self.ctx._sub)

    def __rsub__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        return other._zip(self, self.ctx._sub)

    def __neg__(self):
        return Poly._from_vals(self.ctx, map(self.ctx._neg, self._vals))

    def __mul__(self, other):
        ctx = self.ctx
        if isinstance(other, FieldElem) and other.ctx == ctx:
            c = other.val
            return Poly._from_vals(ctx, [ctx._mul(v, c) for v in self._vals])
        other = self._same(other)
        if other is None:
            return NotImplemented
        a, b = self._vals, other._vals
        if not a or not b:
            return Poly.zero(ctx)
        return Poly._from_vals(ctx, ctx._polymul(a, b))

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return _power(self, e, Poly.one(self.ctx), operator.mul)

    def __divmod__(self, other):
        other = self._same(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        ctx = self.ctx
        if self.degree < other.degree:
            return Poly.zero(ctx), self
        zero, mul, submul = ctx.zero.val, ctx._mul, ctx._submul
        b = other._vals
        inv = ctx._inv(b[-1])
        r = list(self._vals)
        q = [zero] * (len(r) - len(b) + 1)
        for k in range(len(r) - len(b), -1, -1):
            c = mul(r[k + len(b) - 1], inv)
            if c == zero:
                continue
            q[k] = c
            submul(r, c, enumerate(b, k))
        return Poly._from_vals(ctx, q), Poly._from_vals(ctx, r[: len(b) - 1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point):
        """Horner evaluation at a field element."""
        ctx = self.ctx
        point = ctx.coerce(point).val
        add, mul = ctx._add, ctx._mul
        acc = ctx.zero.val
        for c in reversed(self._vals):
            acc = add(mul(acc, point), c)
        return FieldElem(ctx, acc)

    def compose(self, inner):
        """self(inner) without reduction."""
        inner = self._same(inner)
        ctx = self.ctx
        acc = Poly.zero(ctx)
        for c in reversed(self._vals):
            acc = acc * inner + Poly._from_vals(ctx, (c,))
        return acc

    def derivative(self):
        """Formal derivative; the multiples i * 1 are built by addition."""
        ctx = self.ctx
        one, add, mul = ctx.one.val, ctx._add, ctx._mul
        out, i = [], ctx.zero.val
        for c in self._vals[1:]:
            i = add(i, one)
            out.append(mul(i, c))
        return Poly._from_vals(ctx, out)

    # -- comparison and display --

    def __eq__(self, other):
        if isinstance(other, Poly):
            return other.ctx == self.ctx and other._vals == self._vals
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self._vals))

    def key(self):
        """Deterministic sort key: degree, then coefficients from the top."""
        return (self.degree, tuple(map(self.ctx._key, reversed(self._vals))))

    def __repr__(self):
        return "Poly(%s)" % self

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = "x" if i == 1 else "x^%d" % i
                if c.is_one():
                    parts.append(xs)
                elif cs == "-1":
                    parts.append("-" + xs)
                else:
                    parts.append("%s%s" % (cs if "/" not in cs and " " not in cs else "(%s)" % cs, xs))
        out = parts[0]
        for term in parts[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


def poly_embed(a, L):
    """Map a polynomial over K into L[x] for an extension L of K."""
    if not isinstance(L, ExtensionField) or L.base != a.ctx:
        raise NotAnExtension("target is not an extension of the coefficient field")
    return Poly(L, [L.embed(c) for c in a.coeffs])


# -- gcd family --


def poly_gcd(a, b):
    """Monic greatest common divisor (zero when both inputs are zero)."""
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise CtxMismatch("gcd over different fields")
    while not b.is_zero():
        a, b = b, (a % b)
        if not b.is_zero():
            b = b.monic()  # keeps rational coefficients small
    return a if a.is_zero() else a.monic()


def poly_xgcd(a, b):
    """(g, s, t) with s*a + t*b = g, g monic or zero.  Each remainder is
    made monic before it divides: one inverse per step, not three."""
    if a.ctx is not b.ctx and a.ctx != b.ctx:
        raise CtxMismatch("xgcd over different fields")
    ctx = a.ctx
    r0, r1 = a, b
    s0, s1 = Poly.one(ctx), Poly.zero(ctx)
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        if not r1.is_monic():
            inv = r1.lc.inverse()
            r1, s1, t1 = r1 * inv, s1 * inv, t1 * inv
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero() or r0.is_monic():
        return r0, s0, t0
    inv = r0.lc.inverse()  # b is zero, so a never divided
    return r0 * inv, s0 * inv, t0 * inv


# -- modular composition, powering, CRT --


def poly_compose_mod(outer, inner, modulus):
    """outer(inner) reduced modulo `modulus`."""
    if not (outer.ctx is inner.ctx is modulus.ctx) and (
        outer.ctx != inner.ctx or outer.ctx != modulus.ctx
    ):
        raise CtxMismatch("composition over different fields")
    if modulus.is_zero():
        raise DivisionByZero("composition modulo zero")
    ctx = outer.ctx
    acc = Poly.zero(ctx)
    inner = inner % modulus
    for c in reversed(outer._vals):
        acc = (acc * inner + Poly._from_vals(ctx, (c,))) % modulus
    return acc


def poly_pow_mod(base, e, modulus):
    """base**e reduced modulo `modulus` (e >= 0)."""
    if e < 0:
        raise ValueError("negative exponent")
    one = Poly.one(base.ctx) % modulus
    return _power(base % modulus, e, one, lambda a, b: (a * b) % modulus)


def poly_crt(residues, moduli):
    """The unique polynomial below the product degree hitting every residue."""
    if len(residues) != len(moduli) or not moduli:
        raise ValueError("need matching nonempty residue/modulus lists")
    acc_r = residues[0] % moduli[0]
    acc_m = moduli[0]
    for r, m in zip(residues[1:], moduli[1:]):
        g, u, v = poly_xgcd(acc_m, m)
        if g.degree != 0:
            raise NonCoprimeModuli("moduli share the factor %s" % g)
        # u*acc_m + v*m = 1
        diff = (r - acc_r) % m
        acc_r = (acc_r + acc_m * ((u * diff) % m)) % (acc_m * m)
        acc_m = acc_m * m
    return acc_r


# -- squarefree decomposition --


def squarefree_decomposition(f):
    """[(g_i, m_i)] with f = lc * prod g_i^m_i, the g_i squarefree coprime monic."""
    if f.is_zero():
        raise ZeroPolynomial("squarefree decomposition of zero")
    f = f.monic()
    if f.degree < 1:
        return []
    return _squarefree(f)


def squarefree_part(f):
    """Product of the distinct irreducible factors of f, monic."""
    out = Poly.one(f.ctx)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


def _pth_root_poly(f):
    # every exponent in f is divisible by p; take p-th roots of coefficients
    ctx = f.ctx
    p = ctx.characteristic
    q = ctx.order()
    if q is None:
        raise UnsupportedField("p-th root needs a finite field")
    root_exp = q // p
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(f.coeff(i) ** root_exp)
    return Poly(ctx, out)


def _squarefree(f):
    """Musser's loop: at step k, w is the product of the factors whose
    multiplicity is at least k and prime to p, and z those of exactly k.
    What is left in c is 1 in characteristic 0, so the p-th root descent
    runs only in characteristic p."""
    p = f.ctx.characteristic
    out = []
    d = f.derivative()
    if d.is_zero():
        return [(g, m * p) for g, m in _squarefree(_pth_root_poly(f))]
    c = poly_gcd(f, d)
    w = f // c
    k = 1
    while w.degree >= 1:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree >= 1:
            out.append((z, k))
        c = c // y
        w = y
        k += 1
    if c.degree >= 1:
        out.extend((g, m * p) for g, m in _squarefree(_pth_root_poly(c)))
    return out


# -- factorization --


@dataclass(frozen=True)
class Factorization:
    """unit * prod(poly**mult) == the factored input, factors monic sorted."""

    unit: FieldElem
    factors: tuple

    def expand(self):
        out = Poly.constant(self.unit.ctx, self.unit)
        for f, m in self.factors:
            out = out * f**m
        return out


QF_DEGREE_CAP = 24


def _check_qf_cap(n):
    """Refuse a factorization over Q of degree n above QF_DEGREE_CAP."""
    if n > QF_DEGREE_CAP:
        raise UnsupportedField(
            "rational factorization capped at degree %d (got %d)" % (QF_DEGREE_CAP, n)
        )


def poly_factor(a, seed=0):
    """Factor into monic irreducibles over Q, a finite field, or an
    extension of characteristic 0 (a number field or a tower over Q)."""
    if a.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    ctx = a.ctx
    unit = a.lc
    f = a.monic()
    if f.degree == 0:
        return Factorization(unit, ())
    if isinstance(ctx, RationalField):
        split = _factor_squarefree_rational
    elif ctx.is_finite():
        rng = random.Random(seed)
        split = lambda g: _factor_squarefree_finite(g, rng)
    else:
        # Trager's norm down to Q has degree [L:Q] deg f: refuse it past
        # the cap before the squarefree split, whose Euclid over L is slow
        over_q, K = f.degree, ctx
        while isinstance(K, ExtensionField):
            over_q, K = over_q * K.degree, K.base
        _check_qf_cap(over_q)
        split = _factor_trager
    pairs = [(h, m) for g, m in squarefree_decomposition(f) for h in split(g)]
    pairs.sort(key=lambda im: im[0].key())
    return Factorization(unit, tuple(pairs))


def is_irreducible(f, seed=0):
    """Over a finite field: f is squarefree and the distinct-degree split
    finds no factor below deg f, which its first pair shows, since a
    reducible f has a factor of degree at most deg f / 2.  Elsewhere the
    answer comes from `poly_factor`, which takes the seed."""
    if f.is_zero():
        raise ZeroPolynomial("irreducibility of zero is undefined")
    if f.degree < 1:
        return False
    if f.ctx.is_finite():
        f = f.monic()
        if poly_gcd(f, f.derivative()).degree != 0:
            return False
        return next(_distinct_degree(f))[1] == f.degree
    fact = poly_factor(f, seed=seed)
    return len(fact.factors) == 1 and fact.factors[0][1] == 1


# finite-field route


def _factor_squarefree_finite(f, rng):
    """Irreducible factors of a squarefree monic f over a finite field."""
    out = []
    for g, k in _distinct_degree(f):
        out.extend(_equal_degree(g, k, rng))
    return out


def _distinct_degree(f):
    """Yield (product of the irreducible factors of degree k, k) for a
    squarefree monic f, in increasing k."""
    ctx = f.ctx
    q = ctx.order()
    h = Poly.x(ctx)
    fstar = f
    k = 0
    while fstar.degree >= 2 * (k + 1):
        k += 1
        h = poly_pow_mod(h, q, fstar)
        g = poly_gcd(h - Poly.x(ctx), fstar)
        if g.degree >= 1:
            yield g, k
            fstar = fstar // g
            h = h % fstar
    if fstar.degree >= 1:
        yield fstar, fstar.degree


def _random_poly_below(ctx, n, rng):
    # a nonconstant polynomial of degree < n (n >= 2)
    while True:
        coeffs = [random_elem(ctx, rng) for _ in range(n)]
        p = Poly(ctx, coeffs)
        if p.degree >= 1:
            return p


def _equal_degree(f, k, rng):
    """Split a squarefree monic f whose irreducible factors all have degree k."""
    if f.degree == k:
        return [f.monic()]
    ctx = f.ctx
    q = ctx.order()
    p = ctx.characteristic
    n = f.degree
    while True:
        a = _random_poly_below(ctx, n, rng)
        g = poly_gcd(a, f)
        if 1 <= g.degree < n:
            d = g
        elif p != 2:
            b = poly_pow_mod(a, (q**k - 1) // 2, f)
            d = poly_gcd(b - Poly.one(ctx), f)
            if not (1 <= d.degree < n):
                continue
        else:
            # char 2: trace polynomial over F_2 splits the product ring
            e = 0
            qq = q
            while qq > 1:
                qq //= 2
                e += 1
            t = a
            b = a
            for _ in range(e * k - 1):
                b = (b * b) % f
                t = t + b
            d = poly_gcd(t, f)
            if not (1 <= d.degree < n):
                continue
        left = _equal_degree(d.monic(), k, rng)
        right = _equal_degree((f // d).monic(), k, rng)
        return left + right


# rational route


def _factor_squarefree_rational(f):
    """Irreducible factors of a squarefree monic f over Q, through its
    primitive integer multiple (constant first, positive lc)."""
    den = math.lcm(*(c.denominator for c in f._vals))
    zs = _zz_factor_squarefree(_z_primitive([int(c * den) for c in f._vals]))
    return [Poly._from_vals(f.ctx, [Fraction(c, z[-1]) for c in z]) for z in zs]


def _primes():
    yield 2
    n = 3
    while True:
        if _is_prime(n):
            yield n
        n += 2


def _zz_factor_squarefree(P):
    """Irreducible primitive integer factors of a primitive squarefree P."""
    n = len(P) - 1
    if n == 1:
        return [P]
    _check_qf_cap(n)
    lc = P[-1]
    chosen = None
    for p in _primes():
        if lc % p == 0:
            continue
        Fp = prime_field(p)
        fp = Poly(Fp, P)
        if fp.degree == n and poly_gcd(fp, fp.derivative()).degree == 0:
            chosen = (p, fp.monic())
            break
    p, fp = chosen
    rng = random.Random(0)
    modular = sorted(_factor_squarefree_finite(fp, rng), key=lambda g: g.key())
    if len(modular) == 1:
        return [P]
    A = max(abs(c) for c in P)
    B = (math.isqrt(n + 1) + 1) * (1 << n) * A * abs(lc)
    ell = 1
    while p**ell <= 2 * B:
        ell += 1
    return _zz_recombine(P, _hensel_lift(Poly(_Residues(p**ell), P), modular))


def _hensel_lift(f, flist):
    """Lift the monic, coprime mod-p factors in flist of f over Z/p^l =
    f.ctx (lc(f) a unit) to its monic factors there: split flist in
    halves g = lc(f) * prod and h = prod with s g + t h = 1 mod p, lift
    all four from m to min(m^2, p^l) by the quadratic step of Modern
    Computer Algebra, Alg. 15.10, and recurse into each half."""
    if len(flist) == 1:
        return [f.monic()]
    Fp, pl = flist[0].ctx, f.ctx.p
    k = len(flist) // 2
    g = math.prod(flist[:k], start=Poly._from_vals(Fp, [f._vals[-1] % Fp.p]))
    h = math.prod(flist[k:], start=Poly.one(Fp))
    one, s, t = poly_xgcd(g, h)
    if not one.is_one():
        raise VerificationError("mod-p factors are not coprime")
    m = Fp.p
    while m < pl:
        m = min(m * m, pl)
        R = _Residues(m)
        g, h, s, t = (Poly._from_vals(R, a._vals) for a in (g, h, s, t))
        e = Poly._from_vals(R, [c % m for c in f._vals]) - g * h
        q, r = divmod(s * e, h)
        g = g + t * e + q * g
        h = h + r
        if m < pl:  # only g and h are read after the last step
            b = s * g + t * h - 1
            c, d = divmod(s * b, h)
            s = s - d
            t = t - t * b - c * g
    return _hensel_lift(g, flist[:k]) + _hensel_lift(h, flist[k:])


def _ztrunc(a):
    """The payloads of a over Z/m lifted into the range (-m/2, m/2]."""
    m = a.ctx.p
    half = m // 2
    return [c - m if c > half else c for c in a._vals]


def _z_primitive(a):
    """a divided by its content, signed so that the last entry is positive."""
    g = math.gcd(*a)
    return [c // (-g if a[-1] < 0 else g) for c in a]


def _z_trial_divide(P, g):
    """Quotient list if primitive g divides P over Z, else None."""
    Q = rationals()
    pa, pb = Poly(Q, P), Poly(Q, g)
    q, r = divmod(pa, pb)
    if not r.is_zero():
        return None
    return [int(c) for c in q._vals]


def _zz_recombine(P, lifted):
    """Zassenhaus subset search over the factors lifted mod p^l."""
    out = []
    live = list(range(len(lifted)))
    current = list(P)
    s = 1
    while 2 * s <= len(live):
        hit = None
        for combo in itertools.combinations(live, s):
            g = Poly(lifted[0].ctx, [current[-1]])
            g = _z_primitive(_ztrunc(math.prod((lifted[i] for i in combo), start=g)))
            q = _z_trial_divide(current, g)
            if q is not None:
                hit = (combo, g, q)
                break
        if hit is None:
            s += 1
            continue
        combo, g, q = hit
        out.append(g)
        current = _z_primitive(q)
        live = [i for i in live if i not in combo]
    if len(current) > 1:
        out.append(_z_primitive(current))
    return out


# extension route


def _factor_trager(f):
    """Irreducible factors of a squarefree monic f over L = K[y]/(m) in
    characteristic 0, by Trager's norm (SYMSAC 1976).

    Multiplication by x + s*y on L[x]/(f) is K-linear of size
    D = [L:K] deg f: in the basis x^j y^i (index j [L:K] + i) it is the
    matrix companion(f) + s*y*I over L with each entry c expanded into its
    multiplication block over K, whose columns are c, c*y, ..., c*y^(k-1).
    Over the algebraic closure L[x]/(f) splits into D lines, one per root
    alpha of m and root beta of f over it, and x + s*y acts on each as
    beta + s*alpha.  1 has a nonzero part on every line, so its Krylov
    chain has length D exactly when these values are distinct, that is
    when the characteristic polynomial N = Norm f(x - s*y) is squarefree.
    Then each irreducible factor h of N over K gives the irreducible
    factor gcd(f, h(x + s*y)) of f; a tower over Q recurses through
    poly_factor over K.
    """
    if f.degree == 1:
        return [f]
    L = f.ctx
    K, k = L.base, L.degree
    D = k * f.degree
    # exactmat imports this module at its top level
    from .exactmat import Matrix, _coset_order, _Echelon, _unit_vec, companion

    zero, y = L.zero.val, L.generator
    C, I = companion(f), Matrix.identity(L, f.degree)
    e0, empty = _unit_vec(K, D, 0), _Echelon(K, D)
    for s in range(1, 4 * D * D + 5):
        rows = [[K.zero.val] * D for _ in range(D)]
        for a, crow in enumerate((C + I * (s * y))._vals):
            for b, c in enumerate(crow):
                if c == zero:
                    continue
                for col in range(b * k, b * k + k):  # c, c*y, ..., c*y^(k-1)
                    for i, v in enumerate(c):
                        rows[a * k + i][col] = v
                    c = L._mul(c, y.val)
        N, chain = _coset_order(Matrix._from_vals(K, rows), e0, empty)
        if len(chain) == D and poly_gcd(N, N.derivative()).degree == 0:
            break
    else:
        raise UnsupportedField("no squarefree shift found for the norm resultant")
    x_plus_sy = Poly(L, [s * y, L.one])
    factors = [poly_gcd(f, poly_embed(h, L).compose(x_plus_sy)) for h, _ in poly_factor(N).factors]
    if math.prod(factors, start=Poly.one(L)) != f:
        raise VerificationError("norm factors do not multiply back to the input")
    return factors


# -- roots inside an extension --


def poly_roots_in_ext(g, L, seed=0):
    """Roots of g (over K) lying in the extension L = K[x]/(f): the
    degree-1 factors over L of g's squarefree part.

    Returns a tuple of root polynomials sorted by `Poly.key`: each is a
    polynomial over K of degree < deg f evaluating to the root at the
    distinguished generator, so `L.coerce(r.coeffs)` is the root itself.
    """
    if not isinstance(L, ExtensionField):
        raise NotAnExtension("root search needs an extension field")
    if g.ctx != L.base:
        raise CtxMismatch("polynomial is not over the base of the extension")
    if g.is_zero():
        raise ZeroPolynomial("every element is a root of zero")
    roots = [
        Poly(L.base, list((-h.coeffs[0]).val))
        for h, _ in poly_factor(poly_embed(squarefree_part(g), L), seed).factors
        if h.degree == 1
    ]
    roots.sort(key=Poly.key)
    return tuple(roots)
