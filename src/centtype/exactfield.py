"""Exact field arithmetic: rationals, prime fields, and algebraic extensions.

A FieldCtx owns the arithmetic of one field and FieldElem is an immutable
(ctx, value) pair.  Values are canonical at construction, so element
equality is representational equality: a Fraction in lowest terms for the
rationals, a residue in [0, p) for a prime field, and a tuple of the
immediate base field's payloads for an extension, so no payload at any
level holds a FieldElem.  Extensions may be stacked (towers), and every
context is hashable and value-comparable.  One `FieldCtx.coerce` takes
values into Q and F_p, through each field's `_rational`; an extension
coerces vectors and base elements itself.  Field descriptors are read by
`serialize.field_from_descriptor`; this module holds the element codecs.

Besides the element operations `_add/_sub/_mul/_neg/_inv`, a context
carries four row kernels, the loops that elimination, matrix products
and polynomial arithmetic spend their time in: `_matvec` (payload rows
times a payload vector), `_submul` (work[i] -= c * v on a payload list),
`_submul_sparse` (the same on a {index: payload} dict, dropping entries
that become zero) and `_polymul` (the product of two payload rows read
as polynomials).  `FieldCtx` runs them through the element operations;
`PrimeField` overrides them with plain int arithmetic and one reduction
mod p per entry written.  The private `_Residues(m)` is that arithmetic
on Z/m for a prime power m, the ring of Hensel lifting over Q.
"""

from __future__ import annotations

import itertools
import operator
import re
from fractions import Fraction

from .errors import (
    CompositeModulus,
    CtxMismatch,
    DivisionByZero,
    ParseError,
    ReducibleModulus,
    TooLarge,
    UnsupportedField,
)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin over the first 13 prime bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic primality test; TooLarge above the proven bound."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    if n >= _MR_BOUND:
        raise TooLarge("primality test is exact only below 3.3e24, got %d" % n)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _power(base, e, one, mul):
    """base**e for an int e >= 0 by square-and-multiply, where `mul` is
    the product and `one` its identity."""
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return acc


class FieldElem:
    """Immutable field element; supports +, -, *, /, ** and equality."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val

    def _coerce_other(self, other):
        if isinstance(other, FieldElem) and other.ctx is self.ctx:
            return other
        try:
            return self.ctx.coerce(other)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._add(self.val, other.val))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(self.val, other.val))

    def __rsub__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(other.val, self.val))

    def __mul__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.val, other.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce_other(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx._neg(self.val))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return _power(self.inverse(), -e, self.ctx.one, operator.mul)
        return _power(self, e, self.ctx.one, operator.mul)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return FieldElem(self.ctx, self.ctx._inv(self.val))

    def is_zero(self):
        return self.val == self.ctx.zero.val

    def is_one(self):
        return self.val == self.ctx.one.val

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                return NotImplemented if not isinstance(other.ctx, FieldCtx) else False
            return self.val == other.val
        coerced = self._coerce_other(other)
        if coerced is None:
            return NotImplemented
        return self.val == coerced.val

    def __hash__(self):
        return hash((self.ctx, self.val))

    def key(self):
        """Deterministic sort key within one context."""
        return self.ctx._key(self.val)

    def __repr__(self):
        return "FieldElem(%s, %s)" % (self.ctx.short_name(), self.ctx._fmt(self.val))

    def __str__(self):
        return self.ctx._fmt(self.val)


class FieldCtx:
    """Arithmetic context of one field."""

    kind = "?"

    # subclasses provide: characteristic, _add, _sub, _mul, _neg, _inv,
    # _rational or coerce, order(), _key, _fmt, descriptor(), short_name();
    # they may override the row kernels _matvec, _submul, _submul_sparse
    # and _polymul below, whose generic bodies run through _add/_sub/_mul

    def elem(self, value):
        return self.coerce(value)

    def coerce(self, v):
        """v as an element: an element of this field passes, an int or a
        Fraction goes through `_rational`, anything else is refused."""
        if isinstance(v, FieldElem):
            if v.ctx is not self and v.ctx != self:
                raise CtxMismatch(
                    "element of %s used over %s" % (v.ctx.short_name(), self.short_name())
                )
            return v
        if isinstance(v, bool):
            raise TypeError("bool is not a field value")
        if isinstance(v, (int, Fraction)):
            return FieldElem(self, self._rational(v))
        if isinstance(v, float):
            raise TypeError("floating point is not supported")
        raise TypeError("cannot coerce %r into %s" % (v, self.short_name()))

    # -- row kernels: the package's hot payload loops --

    def _matvec(self, rows, vec):
        """Payload rows times a payload vector, skipping zero entries."""
        zero, add, mul = self.zero.val, self._add, self._mul
        nz = [(j, b) for j, b in enumerate(vec) if b != zero]
        out = []
        for row in rows:
            s = zero
            for j, b in nz:
                a = row[j]
                if a != zero:
                    s = add(s, mul(a, b))
            out.append(s)
        return out

    def _submul(self, work, c, items):
        """work[i] -= c * v for each (i, v) in items, on a payload list."""
        sub, mul = self._sub, self._mul
        for i, v in items:
            work[i] = sub(work[i], mul(c, v))

    def _submul_sparse(self, target, c, items):
        """target[k] -= c * v for each (k, v) in items, on a {k: payload}
        dict; an entry that becomes zero is dropped."""
        zero, sub, mul = self.zero.val, self._sub, self._mul
        for k, v in items:
            d = sub(target.get(k, zero), mul(c, v))
            if d == zero:
                target.pop(k, None)
            else:
                target[k] = d

    def _polymul(self, a, b):
        """The product of two nonempty payload rows read as polynomials
        (constant first), as a list of length len(a) + len(b) - 1."""
        zero, neg, submul = self.zero.val, self._neg, self._submul
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != zero:
                submul(out, neg(x), enumerate(b, i))
        return out

    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def is_finite(self):
        return self.order() is not None


class RationalField(FieldCtx):
    """The field of rational numbers with canonical Fraction payloads."""

    kind = "Q"
    characteristic = 0

    def __init__(self):
        self.zero = FieldElem(self, Fraction(0))
        self.one = FieldElem(self, Fraction(1))

    def _rational(self, v):
        return v if type(v) is Fraction else Fraction(v)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        return 1 / a

    def _key(self, a):
        return (a.numerator, a.denominator)

    def _fmt(self, a):
        return str(a)

    def short_name(self):
        return "Q"

    def descriptor(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


class PrimeField(FieldCtx):
    """Integers modulo a prime p, residues stored in [0, p)."""

    kind = "Fp"

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise CompositeModulus("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1 % p)

    def _rational(self, v):
        p = self.p
        if isinstance(v, int):
            return v % p
        den = v.denominator % p
        if den == 0:
            raise DivisionByZero("denominator divisible by %d" % p)
        return v.numerator * pow(den, -1, p) % p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        return pow(a, -1, self.p)

    # row kernels on plain ints: one reduction per entry written

    def _matvec(self, rows, vec):
        p = self.p
        return [sum(map(operator.mul, row, vec)) % p for row in rows]

    def _submul(self, work, c, items):
        p = self.p
        for i, v in items:
            work[i] = (work[i] - c * v) % p

    def _submul_sparse(self, target, c, items):
        p = self.p
        for k, v in items:
            d = (target.get(k, 0) - c * v) % p
            if d:
                target[k] = d
            else:
                target.pop(k, None)

    def _polymul(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        p = self.p
        return [c % p for c in out]

    def _key(self, a):
        return a

    def _fmt(self, a):
        return str(a)

    def order(self):
        return self.p

    def short_name(self):
        return "F%d" % self.p

    def descriptor(self):
        return {"kind": "Fp", "p": self.p}

    def elements(self):
        for i in range(self.p):
            yield FieldElem(self, i)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class _Residues(PrimeField):
    """Z/m without the primality check; only units are ever inverted."""

    def __init__(self, m):
        self.p = self.characteristic = m
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1 % m)


class ExtensionField(FieldCtx):
    """base[x]/(modulus): elements are coefficient vectors over the base.

    The modulus is monic of degree d >= 1 over the immediate base; an
    element payload is a tuple of exactly d base payloads (c0, ..., c_{d-1})
    meaning c0 + c1*t + ... where t is the distinguished generator (the
    coset of x).  Arithmetic runs on the payloads through the base's
    `_add/_mul/...`; FieldElems are built only at the API boundary.
    """

    kind = "ext"

    def __init__(self, base, modulus_coeffs):
        # modulus_coeffs: sequence of base-coercible values, monic, deg >= 1.
        self.base = base
        coeffs = tuple(base.coerce(c) for c in modulus_coeffs)
        if len(coeffs) < 2 or not coeffs[-1].is_one():
            raise ReducibleModulus("modulus must be monic of degree >= 1")
        self.modulus_coeffs = coeffs
        self.degree = d = len(coeffs) - 1
        self.characteristic = base.characteristic
        self._red = tuple(base._neg(c.val) for c in coeffs[:d])  # x^d = sum _red[i] x^i
        zb = base.zero.val
        self.zero = FieldElem(self, (zb,) * d)
        self.one = FieldElem(self, (base.one.val,) + (zb,) * (d - 1))

    @property
    def generator(self):
        """The coset of x."""
        if self.degree == 1:
            return FieldElem(self, self._red)
        vec = list(self.zero.val)
        vec[1] = self.base.one.val
        return FieldElem(self, tuple(vec))

    def embed(self, elem):
        """Lift an element of the immediate base into this extension."""
        return FieldElem(self, (self.base.coerce(elem).val,) + self.zero.val[1:])

    def coerce(self, v):
        if isinstance(v, FieldElem):
            if v.ctx is self or v.ctx == self:
                return v
            if v.ctx == self.base:
                return self.embed(v)
            raise CtxMismatch(
                "element of %s used over %s" % (v.ctx.short_name(), self.short_name())
            )
        if isinstance(v, (tuple, list)):
            if len(v) > self.degree:
                raise TypeError("vector longer than extension degree")
            vec = tuple(self.base.coerce(c).val for c in v)
            return FieldElem(self, vec + self.zero.val[len(vec) :])
        if isinstance(v, float):
            raise TypeError("floating point is not supported")
        return self.embed(v)

    def _add(self, a, b):
        return tuple(map(self.base._add, a, b))

    def _sub(self, a, b):
        return tuple(map(self.base._sub, a, b))

    def _neg(self, a):
        return tuple(map(self.base._neg, a))

    def _mul(self, a, b):
        d = self.degree
        add, mul, zb = self.base._add, self.base._mul, self.base.zero.val
        conv = [zb] * (2 * d - 1)
        for i, x in enumerate(a):
            if x != zb:
                for j, y in enumerate(b):
                    if y != zb:
                        conv[i + j] = add(conv[i + j], mul(x, y))
        red = self._red
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c != zb:
                lo = k - d
                for i, r in enumerate(red):
                    conv[lo + i] = add(conv[lo + i], mul(c, r))
        return tuple(conv[:d])

    def _inv(self, a):
        if a == self.one.val:  # monic divisors: no xgcd for 1
            return a
        from .upoly import Poly, poly_xgcd

        modulus = Poly._from_vals(self.base, [c.val for c in self.modulus_coeffs])
        g, s, _ = poly_xgcd(Poly._from_vals(self.base, a), modulus)
        if not g.is_one():
            raise DivisionByZero("element not invertible (reducible modulus?)")
        return s._vals + self.zero.val[len(s._vals) :]

    def _key(self, a):
        return tuple(map(self.base._key, a))

    def _fmt(self, a):
        return "(" + ", ".join(map(self.base._fmt, a)) + ")"

    def order(self):
        q = self.base.order()
        return None if q is None else q**self.degree

    def elements(self):
        if not self.is_finite():
            raise UnsupportedField("cannot enumerate an infinite field")
        base_vals = [e.val for e in self.base.elements()]
        for vec in itertools.product(base_vals, repeat=self.degree):
            yield FieldElem(self, vec)

    def short_name(self):
        return "%s[x]/(deg %d)" % (self.base.short_name(), self.degree)

    def descriptor(self):
        return {
            "kind": "ext",
            "base": self.base.descriptor(),
            "modulus": [elem_to_json(c) for c in self.modulus_coeffs],
        }

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus_coeffs == self.modulus_coeffs
        )

    def __hash__(self):
        return hash(("ext", self.base, self.modulus_coeffs))

    def __repr__(self):
        return "ExtensionField(%r, deg=%d)" % (self.base, self.degree)


# -- construction helpers --

_Q_SINGLETON = RationalField()


def rationals():
    """The field Q."""
    return _Q_SINGLETON


def prime_field(p):
    """The prime field F_p."""
    return PrimeField(p)


def extension_field(base, modulus):
    """base[x]/(modulus) for a monic irreducible modulus.

    `modulus` is a Poly over `base` or a coefficient sequence (constant
    first).  The modulus is verified irreducible over the base and
    ReducibleModulus is raised otherwise; `ExtensionField(base, coeffs)`
    builds the field without that check.
    """
    # upoly imports this module at its top level
    from .upoly import Poly, is_irreducible

    coeffs = getattr(modulus, "coeffs", None)
    if coeffs is None:
        coeffs = tuple(modulus)
    L = ExtensionField(base, coeffs)
    f = Poly(base, coeffs)
    # a degree-1 modulus is irreducible over every base: skip the factoring
    if f.degree > 1 and not is_irreducible(f):
        raise ReducibleModulus("modulus %s is reducible over %s" % (f, base.short_name()))
    return L


def random_elem(ctx, rng, bound=9):
    """A random element: uniform over a finite field, an integer in
    [-bound, bound] over Q, coordinatewise over an extension."""
    if isinstance(ctx, ExtensionField):
        vec = tuple(random_elem(ctx.base, rng, bound).val for _ in range(ctx.degree))
        return FieldElem(ctx, vec)
    if ctx.is_finite():
        return ctx.elem(rng.randrange(ctx.order()))
    return ctx.elem(Fraction(rng.randint(-bound, bound)))


# -- JSON element codecs --


def elem_to_json(e):
    """JSON value for an element: 'a/b' over Q, int over F_p, list over ext."""
    ctx = e.ctx
    if isinstance(ctx, RationalField):
        return "%d/%d" % (e.val.numerator, e.val.denominator)
    if isinstance(ctx, PrimeField):
        return e.val
    return [elem_to_json(FieldElem(ctx.base, c)) for c in e.val]


_RATIONAL = r"[+-]?[0-9]+(?:/[0-9]+)?"


def elem_from_json(ctx, v):
    if isinstance(ctx, RationalField):
        if isinstance(v, int) and not isinstance(v, bool):
            return ctx.coerce(v)
        # only the "a/b" form elem_to_json writes: Fraction also takes
        # exponents, and "1e300000000" would build a number of any size
        if isinstance(v, str) and re.fullmatch(_RATIONAL, v.strip()):
            try:
                return ctx.coerce(Fraction(v.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError("bad rational %r" % v) from exc
        raise ParseError("bad rational %r" % (v,))
    if isinstance(ctx, PrimeField):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ParseError("bad residue %r" % (v,))
        return FieldElem(ctx, ctx._rational(v))  # a checked int: no coerce ladder
    if isinstance(ctx, ExtensionField):
        if isinstance(v, (int, str)):
            return ctx.coerce(elem_from_json(ctx.base, v))
        if isinstance(v, list):
            if len(v) > ctx.degree:
                raise ParseError("vector longer than extension degree")
            return ctx.coerce([elem_from_json(ctx.base, c) for c in v])
        raise ParseError("bad extension element %r" % (v,))
    raise ParseError("unknown field kind")
