import random
import re
from fractions import Fraction

import pytest

from centtype import (
    CompositeModulus,
    DivisionByZero,
    ExtensionField,
    Matrix,
    ParseError,
    Poly,
    ReducibleModulus,
    TooLarge,
    UnsupportedField,
    elem_from_json,
    elem_to_json,
    extension_field,
    field_from_descriptor,
    make_field,
    poly_pow_mod,
    prime_field,
    rationals,
)
from centtype.exactfield import FieldCtx, FieldElem, _is_prime, random_elem
from centtype.upoly import poly_embed


def test_prime_field_basics():
    F5 = prime_field(5)
    a = F5.elem(3)
    b = F5.elem(4)
    assert a + b == F5.elem(2)
    assert a * b == F5.elem(2)
    assert a - b == F5.elem(4)
    assert a / b == a * b.inverse()
    assert (a / b) * b == a
    assert F5.elem(-1) == F5.elem(4)
    assert F5.elem(12) == F5.elem(2)
    assert F5.zero + a == a
    assert F5.one * a == a
    assert F5.characteristic == 5
    assert F5.order() == 5
    assert F5.is_finite()


def test_prime_field_fraction_coercion():
    F7 = prime_field(7)
    assert F7.elem(Fraction(1, 2)) == F7.elem(4)
    assert F7.elem(Fraction(3, 5)) == F7.elem(3) / F7.elem(5)
    with pytest.raises(DivisionByZero):
        F7.elem(Fraction(1, 7))


def test_composite_modulus_rejected():
    with pytest.raises(CompositeModulus):
        prime_field(6)
    with pytest.raises(CompositeModulus):
        prime_field(1)
    with pytest.raises(CompositeModulus):
        prime_field(91)


def test_primality_is_deterministic_miller_rabin():
    sieve = [True] * 3000
    sieve[0] = sieve[1] = False
    for i in range(2, 55):
        for j in range(i * i, 3000, i):
            sieve[j] = False
    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if sieve[n]]
    assert prime_field(10**18 + 3).p == 10**18 + 3
    # Carmichael, strong pseudoprime to bases 2..7, to bases 2..23, and a
    # product of two 10-digit primes that trial division would take ages on
    for n in (561, 3215031751, 3825123056546413051, (10**9 + 7) * (10**9 + 9)):
        with pytest.raises(CompositeModulus):
            prime_field(n)
    with pytest.raises(TooLarge):
        prime_field(2**89 - 1)


def test_rationals():
    Q = rationals()
    a = Q.elem(Fraction(2, 4))
    assert a == Q.elem(Fraction(1, 2))
    assert a + a == Q.one
    assert not Q.is_finite()
    with pytest.raises(DivisionByZero):
        Q.one / Q.zero


def test_field_elem_division_by_zero():
    F3 = prime_field(3)
    with pytest.raises(DivisionByZero):
        F3.one / F3.zero
    with pytest.raises(DivisionByZero):
        F3.zero.inverse()


def test_char2_arithmetic():
    F2 = prime_field(2)
    assert F2.one + F2.one == F2.zero
    assert -F2.one == F2.one


def test_extension_field_f9():
    F3 = prime_field(3)
    L = extension_field(F3, Poly(F3, [1, 0, 1]))  # x^2 + 1
    assert L.order() == 9
    assert L.characteristic == 3
    a = L.generator
    assert a * a == -L.one
    # multiplicative order of the generator divides 8
    acc = L.one
    seen = set()
    for _ in range(8):
        acc = acc * a
        seen.add(acc)
    assert acc == L.one
    # every nonzero element is invertible
    for e in seen:
        assert e * e.inverse() == L.one


def test_extension_field_f8():
    F2 = prime_field(2)
    L = extension_field(F2, Poly(F2, [1, 1, 0, 1]))  # x^3 + x + 1
    assert L.order() == 8
    a = L.generator
    # the generator of F8 by this modulus is primitive
    acc = a
    powers = [acc]
    for _ in range(6):
        acc = acc * a
        powers.append(acc)
    assert len(set(powers)) == 7
    assert acc == L.one


def test_extension_rejects_reducible_modulus():
    F2 = prime_field(2)
    with pytest.raises(ReducibleModulus):
        extension_field(F2, Poly(F2, [1, 0, 1]))  # x^2 + 1 = (x+1)^2 mod 2


def test_extension_field_has_no_check_keyword():
    # ExtensionField(base, coeffs) is the unchecked constructor
    F2 = prime_field(2)
    with pytest.raises(ReducibleModulus, match=r"^modulus x\^2 \+ 1 is reducible over F2$"):
        extension_field(F2, [1, 0, 1])
    with pytest.raises(TypeError):
        extension_field(F2, [1, 0, 1], check=False)
    assert ExtensionField(F2, (F2.one, F2.zero, F2.one)).degree == 2


def test_degree_one_modulus_over_a_q_extension_skips_factoring():
    Q = rationals()
    K = extension_field(Q, Poly(Q, [-2, 0, 1]))
    # a degree-1 modulus is irreducible, so no factoring runs over Q(sqrt2)
    L = extension_field(K, [-K.generator, K.one])  # x - sqrt2
    assert L.degree == 1 and L.base == K


def test_extension_over_q():
    Q = rationals()
    L = extension_field(Q, Poly(Q, [-2, 0, 1]))  # sqrt(2)
    r = L.generator
    assert r * r == L.embed(Q.elem(2))
    half = (r * r).inverse() * r  # 1/(2) * sqrt(2) ... still in L
    assert half + half == r


def test_extension_random_field_axioms():
    rng = random.Random(7)
    F5 = prime_field(5)
    L = extension_field(F5, Poly(F5, [2, 0, 1]))  # x^2 + 2 irreducible mod 5
    elems = [L.elem([rng.randrange(5), rng.randrange(5)]) for _ in range(12)]
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * a == a * a + b * a


def test_elem_json_roundtrip():
    Q = rationals()
    a = Q.elem(Fraction(-3, 7))
    assert elem_from_json(Q, elem_to_json(a)) == a
    F3 = prime_field(3)
    b = F3.elem(2)
    assert elem_from_json(F3, elem_to_json(b)) == b
    L = extension_field(F3, Poly(F3, [1, 0, 1]))
    c = L.generator + L.one
    assert elem_from_json(L, elem_to_json(c)) == c


def test_tower_inverse_xgcd_makes_two_inverses_per_level(monkeypatch):
    # each remainder is made monic once, so an inverse at depth d costs
    # about 2 d inverses in all, not 3^d
    depth = 10
    K = prime_field(3)
    for _ in range(depth):
        K = ExtensionField(K, [1, 1])
    calls = []
    inv = ExtensionField._inv
    monkeypatch.setattr(ExtensionField, "_inv", lambda self, a: calls.append(a) or inv(self, a))
    two = K.coerce(2)
    assert (two.inverse() * two).is_one()
    assert len(calls) <= 2 * depth


def test_make_field():
    assert make_field("Q") == rationals()
    assert make_field("F2") == prime_field(2)
    assert make_field("F101") == prime_field(101)
    from centtype import CompositeModulus, ParseError

    with pytest.raises(ParseError):
        make_field("R")
    with pytest.raises(CompositeModulus):
        make_field("F0")


def test_field_descriptor_roundtrip():
    for K in (rationals(), prime_field(2), prime_field(13)):
        assert field_from_descriptor(K.descriptor()) == K
    F3 = prime_field(3)
    L = extension_field(F3, Poly(F3, [1, 0, 1]))
    assert field_from_descriptor(L.descriptor()) == L


def test_field_equality_and_interning():
    assert prime_field(5) == prime_field(5)
    assert prime_field(5) != prime_field(7)
    assert rationals() == rationals()
    F3 = prime_field(3)
    assert extension_field(F3, Poly(F3, [1, 0, 1])) == extension_field(
        F3, Poly(F3, [1, 0, 1])
    )
    F5, Q = prime_field(5), rationals()
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    assert F5 != Q and Q != F5 and not (F5 != prime_field(5))
    assert F9 != F3 and F3 != F9 and not (F9 != extension_field(F3, Poly(F3, [1, 0, 1])))
    for ctx in (F5, Q, F9):
        assert ctx != 5 and ctx != "F5" and ctx != None  # noqa: E711
        assert not (ctx == None)  # noqa: E711


def _extensions():
    F2, F3, F5, Q = prime_field(2), prime_field(3), prime_field(5), rationals()
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    return {
        "F4": extension_field(F2, Poly(F2, [1, 1, 1])),
        "F8": extension_field(F2, Poly(F2, [1, 1, 0, 1])),
        "F9": F9,
        "F25": extension_field(F5, Poly(F5, [2, 0, 1])),
        "Q(sqrt2)": extension_field(Q, Poly(Q, [-2, 0, 1])),
        # a tower: F9[y] modulo the irreducible y^2 + y + t
        "F81": extension_field(F9, Poly(F9, [F9.generator, 1, 1])),
    }


def _raw(L, v):
    """Is v a tuple of exactly deg L base payloads, all the way down?"""
    if not isinstance(v, tuple) or len(v) != L.degree:
        return False
    if isinstance(L.base, ExtensionField):
        return all(_raw(L.base, c) for c in v)
    return not any(isinstance(c, (FieldElem, tuple)) for c in v)


@pytest.mark.parametrize("name", list(_extensions()))
def test_extension_payload_arithmetic_matches_poly_reference(name):
    """_add/_sub/_mul/_neg/_inv on raw payloads equal Poly arithmetic over
    the base reduced modulo the modulus, and hold no FieldElem."""
    L = _extensions()[name]
    K = L.base
    modulus = Poly(K, L.modulus_coeffs)
    rng = random.Random(11)

    def ref(v):
        return Poly(K, v)

    elems = [random_elem(L, rng, bound=3) for _ in range(10)] + [L.zero, L.one, L.generator]
    for a in elems:
        assert _raw(L, a.val)
        assert ref(L._neg(a.val)) == -ref(a.val)
        if not a.is_zero():
            inv = L._inv(a.val)
            assert _raw(L, inv) and (ref(a.val) * ref(inv)) % modulus == Poly.one(K)
        for b in elems:
            s, d, p = L._add(a.val, b.val), L._sub(a.val, b.val), L._mul(a.val, b.val)
            assert all(_raw(L, v) for v in (s, d, p))
            assert ref(s) == ref(a.val) + ref(b.val)
            assert ref(d) == ref(a.val) - ref(b.val)
            assert ref(p) == (ref(a.val) * ref(b.val)) % modulus


@pytest.mark.parametrize("name", list(_extensions()))
def test_extension_boundary_round_trips(name):
    L = _extensions()[name]
    K = L.base
    rng = random.Random(12)
    assert poly_embed(Poly(K, L.modulus_coeffs), L)(L.generator).is_zero()
    assert _raw(L, L.generator.val) and _raw(L, L.zero.val) and _raw(L, L.one.val)
    for _ in range(8):
        e = random_elem(L, rng, bound=3)
        assert elem_from_json(L, elem_to_json(e)) == e
        assert L.coerce(list(e.val)) == e and hash(L.coerce(e.val)) == hash(e)
        c, c2 = random_elem(K, rng, bound=3), random_elem(K, rng, bound=3)
        lifted = L.embed(c)
        assert _raw(L, lifted.val) and lifted.val[0] == c.val and L.coerce(c) == lifted
        assert L.embed(c) * L.embed(c2) == L.embed(c * c2)
        assert elem_from_json(L, elem_to_json(lifted)) == lifted
    if L.is_finite():
        elems = list(L.elements())
        assert len(set(elems)) == L.order()
        assert all(_raw(L, e.val) and L.coerce(list(e.val)) == e for e in elems)
        assert sorted(elems, key=FieldElem.key) == elems


@pytest.mark.parametrize("p", [2, 3, 5, 2**61 - 1])
def test_prime_field_row_kernels_match_the_generic_bodies(p):
    """Each PrimeField row kernel gives what the generic FieldCtx body it
    overrides gives, with every payload in [0, p): on random inputs, with
    c = 0, with empty items, with entries that cancel to zero, which the
    sparse kernel must drop, and with polynomial rows of length 1 or with
    zeros at either end."""
    F = prime_field(p)
    rng = random.Random(p)

    def vals(k):
        return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(k)]

    def in_range(xs):
        return all(isinstance(x, int) and 0 <= x < p for x in xs)

    for _ in range(40):
        n, m = rng.randint(0, 5), rng.randint(1, 6)
        rows, vec = [vals(m) for _ in range(n)], vals(m)
        got = F._matvec(rows, vec)
        assert got == FieldCtx._matvec(F, rows, vec)
        assert len(got) == n and in_range(got)

        a, b = [rng.randrange(1, p) for _ in range(m)], vals(rng.randint(1, 3))
        for x, y in ((a, b), (b, a), (a, a), (a[:1], b), ([0], a), (a + [0], [0] + b)):
            got = F._polymul(x, y)
            assert got == FieldCtx._polymul(F, x, y)
            assert len(got) == len(x) + len(y) - 1 and in_range(got)

        c = rng.randrange(1, p)
        inv = pow(c, -1, p)
        work = vals(m)
        target = {k: v for k, v in enumerate(vals(m)) if v}
        # the first dense and sparse items cancel their entry to zero; the
        # rest are random, some on indices the sparse target does not hold
        dense_items = [(0, work[0] * inv % p)] + [(i, rng.randrange(p)) for i in range(1, m)]
        kill = next(iter(target), m)
        sparse_items = [(kill, target.get(kill, 0) * inv % p)]
        sparse_items += [(k, rng.randrange(p)) for k in range(m + 2) if k != kill]
        cases = ((c, dense_items, sparse_items), (0, dense_items, sparse_items), (c, [], []))
        for cc, dense, sparse in cases:
            a, b = list(work), list(work)
            F._submul(a, cc, dense)
            FieldCtx._submul(F, b, cc, dense)
            assert a == b and in_range(a)
            if cc and dense:
                assert a[0] == 0
            if not cc or not dense:
                assert a == work
            ta, tb = dict(target), dict(target)
            F._submul_sparse(ta, cc, sparse)
            FieldCtx._submul_sparse(F, tb, cc, sparse)
            assert ta == tb and in_range(ta.values()) and 0 not in ta.values()
            if cc and sparse:
                assert kill not in ta
            if not cc or not sparse:
                assert ta == target


def test_power_edge_cases():
    """The one square-and-multiply behind FieldElem, Poly, Matrix and
    poly_pow_mod: exponents 0 and 1, negative field exponents."""
    F5 = prime_field(5)
    a = F5.elem(2)
    assert a**0 == F5.one and a**1 == a
    assert a**-1 == a.inverse() == F5.elem(3)
    assert a**-3 == (a**3).inverse() == F5.elem(2)
    assert F5.zero**0 == F5.one
    with pytest.raises(DivisionByZero):
        F5.zero ** -1
    assert rationals().elem(Fraction(1, 2)) ** -2 == rationals().elem(4)
    f = Poly(F5, [1, 2, 3])
    assert f**0 == Poly.one(F5) and f**1 == f
    m = Matrix(F5, [[1, 2], [3, 4]])
    assert m**0 == Matrix.identity(F5, 2) and m**1 == m
    # e = 0 reduces one modulo the modulus, which is 0 modulo a unit
    assert poly_pow_mod(f, 0, Poly.one(F5)) == Poly.zero(F5)
    with pytest.raises(ValueError):
        poly_pow_mod(f, -1, Poly(F5, [2, 0, 1]))


_F9 = ExtensionField(prime_field(3), [1, 0, 1])
_FLOAT = "floating point is not supported"

GUARDS = [
    ("non-monic modulus", lambda: ExtensionField(prime_field(3), [1, 2]),
     ReducibleModulus, "modulus must be monic of degree >= 1"),
    ("vector longer than the degree", lambda: _F9.coerce([1, 2, 0]),
     TypeError, "vector longer than extension degree"),
    ("JSON vector longer than the degree", lambda: elem_from_json(_F9, [1, 2, 0]),
     ParseError, "vector longer than extension degree"),
    ("rational with a fullwidth digit", lambda: elem_from_json(rationals(), "\uff11/2"),
     ParseError, "bad rational '\uff11/2'"),
    ("float over Q", lambda: rationals().coerce(0.5), TypeError, _FLOAT),
    ("float over F5", lambda: prime_field(5).coerce(0.5), TypeError, _FLOAT),
    ("float over F9", lambda: _F9.coerce(0.5), TypeError, _FLOAT),
    ("bool over F9", lambda: _F9.coerce(True), TypeError, "bool is not a field value"),
    ("elements of an infinite field", lambda: list(ExtensionField(rationals(), [-2, 0, 1]).elements()),
     UnsupportedField, "cannot enumerate an infinite field"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
