import itertools
import random
import re
import time
from fractions import Fraction

import pytest

from centtype import (
    CtxMismatch,
    DivisionByZero,
    ExtensionField,
    Matrix,
    NonCoprimeModuli,
    NotAnExtension,
    Poly,
    ReducibleModulus,
    UnsupportedField,
    ZeroPolynomial,
    companion,
    extension_field,
    is_irreducible,
    make_field,
    poly_compose_mod,
    poly_crt,
    poly_embed,
    poly_factor,
    poly_gcd,
    poly_pow_mod,
    poly_roots_in_ext,
    poly_xgcd,
    prime_field,
    rationals,
    squarefree_decomposition,
    squarefree_part,
)
from centtype import exactmat
from centtype.construct import random_monic
from centtype.exactfield import random_elem
from centtype.exactmat import _coset_order, _Echelon, _unit_vec

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def rand_poly(ctx, d, rng, monic=False):
    if ctx.is_finite():
        cs = [ctx.elem(rng.randrange(ctx.order())) for _ in range(d + 1)]
    else:
        cs = [ctx.elem(rng.randint(-9, 9)) for _ in range(d + 1)]
    p = Poly(ctx, cs)
    if monic or p.is_zero():
        cs[-1] = ctx.one
        p = Poly(ctx, cs)
    return p


def test_poly_str():
    assert str(Poly(Q, [-2, 0, 1])) == "x^2 - 2"
    assert str(Poly(Q, [0, -1])) == "-x"
    assert str(Poly(Q, [Fraction(1, 2)])) == "1/2"
    assert str(Poly(Q, [])) == "0"
    assert str(Poly(F2, [1, 1, 1])) == "x^2 + x + 1"


def test_poly_normalizes_leading_zeros():
    p = Poly(Q, [1, 2, 0, 0])
    assert p.degree == 1
    assert p == Poly(Q, [1, 2])
    assert Poly(Q, [0, 0]).is_zero()
    assert Poly(Q, []).degree == -1


def test_poly_arithmetic_ring_axioms():
    rng = random.Random(3)
    for ctx in (Q, F2, F5):
        for _ in range(25):
            a = rand_poly(ctx, rng.randrange(5), rng)
            b = rand_poly(ctx, rng.randrange(5), rng)
            c = rand_poly(ctx, rng.randrange(4), rng)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a - b) + b == a
            assert a * Poly(ctx, [ctx.one]) == a


def test_divmod_invariant():
    rng = random.Random(11)
    for ctx in (Q, F3):
        for _ in range(40):
            a = rand_poly(ctx, rng.randrange(7), rng)
            b = rand_poly(ctx, rng.randrange(4), rng, monic=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree
    with pytest.raises(DivisionByZero):
        divmod(Poly(Q, [1, 1]), Poly(Q, []))


def test_gcd_xgcd():
    rng = random.Random(5)
    for ctx in (Q, F2, F5):
        for _ in range(25):
            a = rand_poly(ctx, rng.randrange(6), rng)
            b = rand_poly(ctx, rng.randrange(6), rng)
            g = poly_gcd(a, b)
            if a.is_zero() and b.is_zero():
                assert g.is_zero()
                continue
            assert (a % g).is_zero() and (b % g).is_zero()
            assert g.is_monic()
            g2, u, v = poly_xgcd(a, b)
            assert g2 == g
            assert u * a + v * b == g
    # gcd of coprime quadratics
    assert poly_gcd(Poly(Q, [-2, 0, 1]), Poly(Q, [-3, 0, 1])) == Poly(Q, [1])


def _xgcd_normalised_at_the_end(a, b):
    """The extended Euclidean loop that divides by each remainder as it
    comes and makes only the last one monic."""
    ctx = a.ctx
    r0, r1 = a, b
    s0, s1 = Poly.one(ctx), Poly.zero(ctx)
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.lc.inverse()
    return r0.monic(), s0 * inv, t0 * inv


def test_xgcd_matches_the_loop_that_normalises_at_the_end():
    # the Bezout pair of the monic gcd is unique within the degree bounds
    # both loops keep, so monic remainders change no output
    rng = random.Random(23)
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    Qr2 = extension_field(Q, Poly(Q, [-2, 0, 1]))

    def draw(ctx, top):
        return Poly(ctx, [random_elem(ctx, rng, 3) for _ in range(rng.randrange(top))])

    for ctx in (F2, F3, F5, Q, F9, Qr2):
        for _ in range(150):
            a, b = draw(ctx, 7), draw(ctx, 7)
            if rng.random() < 0.3:  # a shared factor
                c = draw(ctx, 4)
                a, b = a * c, b * c
            g, s, t = poly_xgcd(a, b)
            assert (g, s, t) == _xgcd_normalised_at_the_end(a, b), (str(a), str(b))
            assert s * a + t * b == g


def test_compose_and_compose_mod():
    x = Poly.x(Q)
    f = x**2 - Poly(Q, [2])
    shift = x + Poly(Q, [3])
    assert f.compose(shift) == x**2 + Poly(Q, [6]) * x + Poly(Q, [7])
    m = Poly(Q, [1, 1, 1, 1])
    rng = random.Random(2)
    for _ in range(15):
        a = rand_poly(Q, 4, rng)
        b = rand_poly(Q, 3, rng)
        assert poly_compose_mod(a, b, m) == a.compose(b) % m


def test_pow_mod():
    m = Poly(F5, [2, 0, 1])
    x = Poly.x(F5)
    acc = Poly(F5, [1])
    for e in range(10):
        assert poly_pow_mod(x, e, m) == acc
        acc = (acc * x) % m
    # Fermat: x^(p^2) == x mod any irreducible quadratic over F_p
    assert poly_pow_mod(x, 25, m) == x % m


def test_squarefree():
    x = Poly.x(Q)
    f = (x - Poly(Q, [1])) ** 3 * (x + Poly(Q, [2])) ** 2 * (x**2 + Poly(Q, [1]))
    sf = squarefree_part(f)
    assert sf == ((x - Poly(Q, [1])) * (x + Poly(Q, [2])) * (x**2 + Poly(Q, [1]))).monic()
    dec = squarefree_decomposition(f)
    rebuilt = Poly(Q, [1])
    for part, mult in dec:
        rebuilt = rebuilt * part**mult
    assert rebuilt == f.monic()


@pytest.mark.parametrize("tag", ["Q", "F2", "F3", "F5", "F9"])
def test_squarefree_one_loop_across_characteristics(tag):
    """Products with multiplicities up to 2p, so the p-th root descent
    runs: the parts are squarefree and pairwise coprime, no multiplicity
    repeats, and they multiply back to f.  The loop's multiplicities
    (prime to p) come first and increase; the descent's follow, so the
    whole list increases in characteristic 0 only."""
    ctx = extension_field(F3, Poly(F3, [1, 0, 1])) if tag == "F9" else make_field(tag)
    p = ctx.characteristic
    mults = (1, 2, 3, 4) if p == 0 else (1, 2, p, p + 1, 2 * p)
    rng = random.Random(7)
    for _ in range(12):
        f = Poly.constant(ctx, random_elem(ctx, rng, 3) or ctx.one)
        for _ in range(rng.randint(1, 3)):
            coeffs = [random_elem(ctx, rng, 3) for _ in range(rng.randint(1, 2))]
            f = f * Poly(ctx, coeffs + [ctx.one]) ** rng.choice(mults)
        dec = squarefree_decomposition(f)
        rebuilt = Poly.one(ctx)
        for part, mult in dec:
            assert part.is_monic() and part.degree >= 1
            assert poly_gcd(part, part.derivative()).is_one()
            rebuilt = rebuilt * part**mult
        assert rebuilt == f.monic()
        ms = [m for _, m in dec]
        assert len(set(ms)) == len(ms)
        loop = [m for m in ms if p == 0 or m % p]
        assert loop == sorted(loop) == ms[: len(loop)]
        for (g, _), (h, _) in itertools.combinations(dec, 2):
            assert poly_gcd(g, h).is_one()


def test_factor_over_f2():
    f = Poly(F2, [1, 0, 1])  # (x+1)^2
    fac = poly_factor(f)
    assert fac.factors == ((Poly(F2, [1, 1]), 2),)
    # all monic irreducible quadratics and cubics over F2
    irr2 = [p for p in all_monics(F2, 2) if is_irreducible(p)]
    assert irr2 == [Poly(F2, [1, 1, 1])]
    irr3 = sorted(str(p) for p in all_monics(F2, 3) if is_irreducible(p))
    assert irr3 == ["x^3 + x + 1", "x^3 + x^2 + 1"]


def all_monics(ctx, d):
    from itertools import product

    els = list(ctx.elements())
    out = []
    for tail in product(els, repeat=d):
        out.append(Poly(ctx, list(tail) + [ctx.one]))
    return out


def test_factor_random_finite():
    rng = random.Random(17)
    for ctx in (F2, F3, F5):
        for _ in range(20):
            f = rand_poly(ctx, rng.randrange(1, 7), rng, monic=True)
            fac = poly_factor(f, seed=rng.randrange(10**6))
            assert fac.expand() == f
            for p, m in fac.factors:
                assert m >= 1
                assert p.is_monic()
                assert is_irreducible(p)


def test_factor_over_q_fixtures():
    x = Poly.x(Q)
    # swinnerton-dyer style: irreducible of degree 4
    f = x**4 - Poly(Q, [10]) * x**2 + Poly(Q, [1])
    assert poly_factor(f).factors == ((f, 1),)
    assert is_irreducible(f)
    # x^4 + 4 = (x^2-2x+2)(x^2+2x+2)
    g = x**4 + Poly(Q, [4])
    got = sorted(str(p) for p, _ in poly_factor(g).factors)
    assert got == ["x^2 + 2x + 2", "x^2 - 2x + 2"]
    # content and unit handling
    h = Poly(Q, [Fraction(3, 2), Fraction(3, 2)])  # (3/2)(x+1)
    fac = poly_factor(h)
    assert fac.unit == Q.elem(Fraction(3, 2))
    assert fac.factors == ((x + Poly(Q, [1]), 1),)


# three irreducible quartics with 30-digit coefficients, constant first
_QUARTICS = [
    [528247590260491159499314380762, -900388254939617821852281134803,
     -632256291782283589632698431222, -963433587491583448048641852606,
     648057856043966642114097081145],
    [-76641415169252216701171264739, -43903767503748886685212791260,
     489908912063694865554362122602, 90418130924195534329308656906,
     470304014279474709985449908670],
    [-221239063165707237050465953937, 287618487339730217333208653334,
     762289736279155213890535641900, -939023230371497555137431692293,
     793238469533113688167995920639],
]

_Q_FACTOR_CASES = [
    ("prod x^2 - p for p <= 19", [[-p, 0, 1] for p in (2, 3, 5, 7, 11, 13, 17, 19)]),
    ("x^16 - 1", [[-1, 1], [1, 1], [1, 0, 1], [1, 0, 0, 0, 1], [1] + [0] * 7 + [1]]),
    ("x^24 - 2", [[-2] + [0] * 23 + [1]]),
    ("three 30-digit quartics", _QUARTICS),
]


@pytest.mark.parametrize("factors", [c[1] for c in _Q_FACTOR_CASES], ids=[c[0] for c in _Q_FACTOR_CASES])
def test_factor_q_many_modular_factors_and_large_coefficients(factors):
    """Hensel lifting and recombination with many modular factors (11 mod
    23 for the product of the x^2 - p) or large coefficients (the
    quartics are lifted to a 185-digit power of 7) give back exactly the
    irreducible factors the product was built from."""
    parts = [Poly(Q, c) for c in factors]
    f = Poly(Q, [1])
    for p in parts:
        f = f * p
    fac = poly_factor(f)
    assert fac.unit == f.lc
    assert fac.factors == tuple(sorted(((p.monic(), 1) for p in parts), key=lambda pm: pm[0].key()))


def test_factor_random_q():
    rng = random.Random(23)
    x = Poly.x(Q)
    for _ in range(12):
        parts = [rand_poly(Q, rng.randrange(1, 3), rng, monic=True) for _ in range(rng.randrange(1, 4))]
        f = Poly(Q, [1])
        for p in parts:
            f = f * p
        fac = poly_factor(f)
        assert fac.expand() == f
        for p, _ in fac.factors:
            assert is_irreducible(p)


def test_is_irreducible_fixtures():
    assert is_irreducible(Poly(Q, [-2, 0, 1]))
    assert not is_irreducible(Poly(Q, [-4, 0, 1]))
    assert not is_irreducible(Poly(Q, [2]))  # constants are units
    assert is_irreducible(Poly(F2, [1, 1, 1]))
    assert not is_irreducible(Poly(F2, [1, 0, 1]))
    assert is_irreducible(Poly(F3, [1, 0, 1]))
    assert not is_irreducible(Poly(F5, [1, 0, 1]))  # x^2+1 = (x+2)(x+3) mod 5


def _factored_irreducible(f, seed):
    fact = poly_factor(f, seed=seed)
    return len(fact.factors) == 1 and fact.factors[0][1] == 1


def test_is_irreducible_agrees_with_poly_factor_over_finite_fields():
    """The distinct-degree shortcut gives `poly_factor`'s verdict on random
    polynomials, on squares and on p-th powers (f' = 0)."""
    rng = random.Random(29)
    F4 = extension_field(F2, Poly(F2, [1, 1, 1]))
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    verdicts = []
    for ctx, p in ((F2, 2), (F3, 3), (F5, 5), (F4, 2), (F9, 3)):
        cases = [random_monic(ctx, rng.randrange(1, 31), rng) for _ in range(24)]
        cases += [random_monic(ctx, rng.randrange(1, 4), rng) for _ in range(16)]
        cases += [random_monic(ctx, rng.randrange(1, 8), rng) ** 2 for _ in range(3)]
        cases += [random_monic(ctx, rng.randrange(1, 31 // p), rng) ** p for _ in range(3)]
        for f in cases:
            seed = rng.getrandbits(32)
            got = is_irreducible(f, seed=seed)
            assert got == _factored_irreducible(f, seed), f
            verdicts.append(got)
    assert verdicts.count(True) >= 40 and verdicts.count(False) >= 100


def test_is_irreducible_stops_at_the_first_distinct_degree_factor(monkeypatch):
    import centtype.upoly

    rng = random.Random(47)
    F4 = extension_field(F2, Poly(F2, [1, 1, 1]))
    while True:
        f = random_monic(F4, 1, rng) * random_monic(F4, 47, rng)
        if poly_gcd(f, f.derivative()).degree == 0:
            break
    calls = []

    def counted(*args):
        calls.append(args)
        return poly_pow_mod(*args)

    monkeypatch.setattr(centtype.upoly, "poly_pow_mod", counted)
    assert not is_irreducible(f)
    assert len(calls) == 1


def test_roots_in_extension_frozen():
    # roots of x^2 + x + 2 in F9 = F3[t]/(t^2+1) are t+1 and 2t+1
    L = extension_field(F3, Poly(F3, [1, 0, 1]))
    g = Poly(F3, [2, 1, 1])
    roots = poly_roots_in_ext(g, L)
    vals = sorted(str(r) for r in roots)
    assert vals == ["2x + 1", "x + 1"]
    for beta in (L.coerce(r.coeffs) for r in roots):
        assert poly_embed(g, L).compose(Poly(L, [beta])).is_zero() or evaluate_ok(g, L, beta)


def evaluate_ok(g, L, beta):
    acc = L.zero
    for c in reversed(g.coeffs):
        acc = acc * beta + L.embed(c)
    return acc == L.zero


def test_roots_in_q_extension_frozen():
    L = extension_field(Q, Poly(Q, [-2, 0, 1]))  # Q(sqrt2)
    g8 = Poly(Q, [-8, 0, 1])
    roots = sorted(str(r) for r in poly_roots_in_ext(g8, L))
    assert roots == ["-2x", "2x"]
    g3 = Poly(Q, [-3, 0, 1])
    assert len(poly_roots_in_ext(g3, L)) == 0


# -- the norm of the rational root path, against an independent oracle --


def _kron_sum(f, g, s):
    """C_g (x) I + s I (x) C_f over Q, entry by entry from the definition."""
    a, b = companion(g)._vals, companion(f)._vals
    m, d = len(a), len(b)
    return Matrix(
        Q,
        [
            [a[j][k] * (i == l) + s * (j == k) * b[i][l] for k in range(m) for l in range(d)]
            for j in range(m)
            for i in range(d)
        ],
    )


def _sylvester_res(f, h):
    """Res_x(f, h) as the determinant of the Sylvester matrix: no Euclid,
    no Krylov chain."""
    n, m = f.degree, h.degree
    fc, hc = list(reversed(f._vals)), list(reversed(h._vals))
    rows = [[0] * i + fc + [0] * (m - 1 - i) for i in range(m)]
    rows += [[0] * i + hc + [0] * (n - 1 - i) for i in range(n)]
    return Matrix(Q, rows).det()


def _norm_at(f, g, s, y):
    """Res_x(f(x), g(y - s x)) at an integer y."""
    return _sylvester_res(f, g.compose(Poly(Q, [y, -s])))


def _rand_monic_q(rng, top, c):
    return Poly(Q, [rng.randint(-c, c) for _ in range(rng.randint(1, top))] + [1])


def test_norm_of_a_full_chain_is_the_resultant():
    rng = random.Random(5)
    full = 0
    for _ in range(60):
        f, g = _rand_monic_q(rng, 4, 3), _rand_monic_q(rng, 4, 3)
        D = f.degree * g.degree
        for s in (1, 2, 3):
            N, chain = _coset_order(_kron_sum(f, g, s), _unit_vec(Q, D, 0), _Echelon(Q, D))
            if len(chain) != D:
                continue
            full += 1
            for y in range(D + 2):
                assert N(Q.coerce(y)) == _norm_at(f, g, s, y), (str(f), str(g), s, y)
    assert full > 150


def test_short_chain_means_the_norm_has_a_repeated_root():
    # small coefficients make coinciding eigenvalues beta + s alpha common
    rng = random.Random(6)
    short = 0
    for _ in range(200):
        f, g = _rand_monic_q(rng, 3, 2), _rand_monic_q(rng, 3, 2)
        D = f.degree * g.degree
        for s in (1, 2):
            _, chain = _coset_order(_kron_sum(f, g, s), _unit_vec(Q, D, 0), _Echelon(Q, D))
            if len(chain) == D:
                continue
            short += 1
            # the true norm, interpolated from D + 1 Sylvester determinants
            ys = range(D + 1)
            V = Matrix(Q, [[Fraction(y) ** k for k in range(D + 1)] for y in ys])
            norm = Poly(Q, V.solve_right([_norm_at(f, g, s, y) for y in ys]))
            assert norm.degree == D
            assert poly_gcd(norm, norm.derivative()).degree > 0, (str(f), str(g), s)
    assert short >= 5


def test_roots_trager_skips_a_shift_with_a_short_chain(monkeypatch):
    # f = g = x^2 - 2: at s = 1 the eigenvalues +-sqrt2 + s(+-sqrt2) are
    # 2sqrt2, -2sqrt2, 0, 0 and the chain stops at 3, so s = 2 is the first
    # usable shift
    f = Poly(Q, [-2, 0, 1])
    seen = []

    def recording(A, u, basis):
        out = _coset_order(A, u, basis)
        seen.append((A, len(out[1])))
        return out

    monkeypatch.setattr(exactmat, "_coset_order", recording)
    roots = poly_roots_in_ext(f, ExtensionField(Q, f.coeffs))
    assert [str(r) for r in roots] == ["-x", "x"]
    assert seen == [(_kron_sum(f, f, 1), 3), (_kron_sum(f, f, 2), 4)]


def _q(*coeffs):
    return Poly(Q, [Fraction(c) for c in coeffs])


# roots of g in Q[x]/(f), recorded when the norm came from D + 1
# Euclidean resultants and Lagrange interpolation (x^2 - 2 against
# x^2 - 8 is test_roots_in_q_extension_frozen)
Q_ROOT_CASES = [
    ("x3-2~x3-16", _q(-2, 0, 0, 1), _q(-16, 0, 0, 1), ["2x"]),
    ("x4-2~x4-32", _q(-2, 0, 0, 0, 1), _q(-32, 0, 0, 0, 1), ["-2x", "2x"]),
    ("x4-2!~x4-3", _q(-2, 0, 0, 0, 1), _q(-3, 0, 0, 0, 1), []),
    (
        "x4+1~x4+1(x+1)",
        _q(1, 0, 0, 0, 1),
        _q(1, 0, 0, 0, 1).compose(_q(1, 1)),
        ["-x - 1", "x - 1", "-x^3 - 1", "x^3 - 1"],
    ),
    (
        "x4-10x2+1~itself(x+3)",
        _q(1, 0, -10, 0, 1),
        _q(1, 0, -10, 0, 1).compose(_q(3, 1)),
        ["-x - 3", "x - 3", "-x^3 + 10x - 3", "x^3 - 10x - 3"],
    ),
    ("x4-x-1~itself(x-5)", _q(-1, -1, 0, 0, 1), _q(-1, -1, 0, 0, 1).compose(_q(-5, 1)), ["x + 5"]),
    ("(x2-8)^2", _q(-2, 0, 1), _q(-8, 0, 1) ** 2, ["-2x", "2x"]),
    ("-4x2+1/2", _q(-2, 0, 1), Poly(Q, [Fraction(1, 2), 0, -4]), ["(-1/4)x", "(1/4)x"]),
    ("x2-9 in Q", _q(-3, 1), _q(-9, 0, 1), ["-3", "3"]),
]


@pytest.mark.parametrize(
    "f, g, expected", [c[1:] for c in Q_ROOT_CASES], ids=[c[0] for c in Q_ROOT_CASES]
)
def test_roots_in_q_extension_frozen_cases(f, g, expected):
    L = extension_field(Q, f)
    roots = poly_roots_in_ext(g, L)
    assert [str(r) for r in roots] == expected
    gl = poly_embed(g, L)
    assert all(gl(L.coerce(r.coeffs)).is_zero() for r in roots)


# -- factoring over number fields and towers over Q (Trager's norm) --


def _number_field(*modulus):
    return extension_field(Q, Poly(Q, list(modulus)))


SQRT2 = _number_field(-2, 0, 1)
CBRT2 = _number_field(-2, 0, 0, 1)
GAUSS = _number_field(1, 0, 1)


def _over(K, *coeffs):
    return Poly(K, list(coeffs))


def _item14_case(name, K, f, factors):
    """f over K and its factors, the factors given from K's generator y."""
    return name, _over(K, *f), [_over(K, *cs) for cs in factors(K.generator)]


ITEM14_CASES = [
    _item14_case("x4-2/Q(sqrt2)", SQRT2, (-2, 0, 0, 0, 1), lambda y: [(-y, 0, 1), (y, 0, 1)]),
    _item14_case("x3-2/Q(cbrt2)", CBRT2, (-2, 0, 0, 1), lambda y: [(-y, 1), (y * y, y, 1)]),
    _item14_case("x4+1/Q(i)", GAUSS, (1, 0, 0, 0, 1), lambda y: [(-y, 0, 1), (y, 0, 1)]),
    _item14_case(
        "x6-2/Q(cbrt2)", CBRT2, (-2, 0, 0, 0, 0, 0, 1), lambda y: [(-y, 0, 1), (y * y, 0, y, 0, 1)]
    ),
]


@pytest.mark.parametrize("f, factors", [c[1:] for c in ITEM14_CASES], ids=[c[0] for c in ITEM14_CASES])
def test_numberfield_factor_cases(f, factors):
    fac = poly_factor(f)
    assert fac.factors == tuple((h, 1) for h in factors)
    assert fac.expand() == f


def _multiset(pairs):
    out = {}
    for h, m in pairs:
        out[h] = out.get(h, 0) + m
    return out


@pytest.mark.parametrize(
    "K, irreducibles",
    [(SQRT2, [(-3, 0, 1), (-5, 0, 1)]), (GAUSS, [(-2, 0, 1)])],
    ids=["Q(sqrt2)", "Q(i)"],
)
def test_numberfield_factor_random_products(K, irreducibles):
    # random products of known irreducibles factor back to the same
    # multiset: linear factors with random coefficients in K, and
    # quadratics irreducible over K
    rng = random.Random(21)
    known = [_over(K, *cs) for cs in irreducibles]
    for _ in range(10):
        parts = []
        while sum(h.degree for h in parts) < 4:
            if rng.random() < 0.5:
                c = random_elem(K, rng, bound=4)
                parts.append(_over(K, -c, 1))
            else:
                parts.append(rng.choice(known))
        f = Poly.one(K)
        for h in parts:
            f = f * h
        fac = poly_factor(f)
        assert _multiset(fac.factors) == _multiset((h, 1) for h in parts)
        assert fac.expand() == f


FINITE_FIELDS = [
    ("F4", F2, (1, 1, 1)),
    ("F8", F2, (1, 1, 0, 1)),
    ("F9", F3, (1, 0, 1)),
    ("F25", F5, (3, 0, 1)),
    ("F27", F3, (1, 2, 0, 1)),
]


@pytest.mark.parametrize("base, modulus", [c[1:] for c in FINITE_FIELDS], ids=[c[0] for c in FINITE_FIELDS])
def test_roots_in_finite_extension_against_enumeration(base, modulus):
    # oracle independent of any root finder: evaluate g at every element
    L = extension_field(base, Poly(base, list(modulus)))
    elements = list(L.elements())
    rng = random.Random(len(elements))
    found = 0
    for _ in range(12):
        g = rand_poly(base, rng.randrange(1, 6), rng)
        if g.degree < 1:
            continue
        gl = poly_embed(g, L)
        want = {beta.val for beta in elements if gl(beta).is_zero()}
        roots = poly_roots_in_ext(g, L, seed=rng.randrange(100))
        assert {L.coerce(r.coeffs).val for r in roots} == want
        assert len(roots) == len(want)
        found += len(want)
    assert found > 0


def test_numberfield_roots_in_a_tower():
    # Q(sqrt2)(sqrt3) holds the square roots of 6, namely +-sqrt2 sqrt3
    y = SQRT2.generator
    L = extension_field(SQRT2, _over(SQRT2, -3, 0, 1))
    roots = poly_roots_in_ext(_over(SQRT2, -6, 0, 1), L)
    assert list(roots) == [_over(SQRT2, 0, -y), _over(SQRT2, 0, y)]
    with pytest.raises(ReducibleModulus):
        extension_field(SQRT2, _over(SQRT2, -2, 0, 1))


def test_numberfield_factor_refuses_past_the_cap_quickly():
    # [Q(sqrt2):Q] * 13 = 26 > 24: refused before any norm is computed
    f = _over(SQRT2, -3, *([0] * 12), 1)
    start = time.perf_counter()
    with pytest.raises(UnsupportedField, match=r"^rational factorization capped at degree 24 \(got 26\)$"):
        poly_factor(f)
    assert time.perf_counter() - start < 1.0


def test_poly_crt():
    m1 = Poly(F3, [1, 1])       # x + 1
    m2 = Poly(F3, [1, 0, 1])    # x^2 + 1
    r = poly_crt([Poly(F3, [2]), Poly(F3, [0, 1])], [m1, m2])
    assert (r % m1) == Poly(F3, [2])
    assert (r % m2) == Poly(F3, [0, 1])
    rng = random.Random(9)
    for _ in range(10):
        a = rand_poly(F5, 1, rng)
        b = rand_poly(F5, 2, rng)
        mA = Poly(F5, [1, 1]) ** 2
        mB = Poly(F5, [2, 1]) ** 3
        r = poly_crt([a % mA, b % mB], [mA, mB])
        assert (r - a) % mA == Poly(F5, [])
        assert (r - b) % mB == Poly(F5, [])


def test_poly_embed():
    L = extension_field(F3, Poly(F3, [1, 0, 1]))
    f = Poly(F3, [2, 1, 1])
    fe = poly_embed(f, L)
    assert fe.ctx == L
    assert fe.degree == f.degree
    assert [L.embed(c) for c in f.coeffs] == list(fe.coeffs)


def test_context_checks_accept_equal_contexts_and_keep_their_messages():
    """Contexts are compared by value once identity fails: an equal but
    distinct F5 mixes freely, while F3 against F5 raises as before."""
    F5b = prime_field(5)
    a, b = Poly(F5, [1, 2, 1]), Poly(F5b, [1, 1])
    assert a * b == Poly(F5, [1, 3, 3, 1]) and (a * b).ctx is F5
    assert poly_gcd(a, b) == Poly(F5, [1, 1])
    assert poly_xgcd(a, b)[0] == Poly(F5, [1, 1])
    assert poly_compose_mod(a, b, Poly(F5b, [0, 0, 1])) == Poly(F5, [4, 4])
    assert F5.elem(2) + F5b.elem(3) == F5.elem(0)
    assert F5.elem(2) == F5b.elem(2) and F5.elem(2) != F3.elem(2)
    assert F5.coerce(F5b.elem(4)) == F5.elem(4)
    c = Poly(F3, [1, 1])
    for call, message in (
        (lambda: a * c, "polynomials over different fields"),
        (lambda: poly_gcd(a, c), "gcd over different fields"),
        (lambda: poly_xgcd(a, c), "xgcd over different fields"),
        (lambda: poly_compose_mod(a, c, b), "composition over different fields"),
        (lambda: poly_compose_mod(a, b, c), "composition over different fields"),
        (lambda: F5.coerce(F3.elem(1)), "element of F3 used over F5"),
        (lambda: Q.coerce(F3.elem(1)), "element of F3 used over Q"),
    ):
        with pytest.raises(CtxMismatch) as info:
            call()
        assert str(info.value) == message


_X, _ZQ = Poly(Q, [0, 1]), Poly.zero(Q)
_QR2 = ExtensionField(Q, [-2, 0, 1])

GUARDS = [
    ("lc of zero", lambda: _ZQ.lc, ZeroPolynomial, "zero polynomial has no leading coefficient"),
    ("monic zero", lambda: _ZQ.monic(), ZeroPolynomial, "cannot normalize the zero polynomial"),
    ("embed into a prime field", lambda: poly_embed(_X, F5),
     NotAnExtension, "target is not an extension of the coefficient field"),
    ("compose modulo zero", lambda: poly_compose_mod(_X, _X, _ZQ),
     DivisionByZero, "composition modulo zero"),
    ("crt of mismatched lists", lambda: poly_crt([_X], [_X, _X + 1]),
     ValueError, "need matching nonempty residue/modulus lists"),
    ("crt of empty lists", lambda: poly_crt([], []),
     ValueError, "need matching nonempty residue/modulus lists"),
    ("crt of moduli sharing a factor", lambda: poly_crt([_X, _X], [_X * _X - 1, _X - 1]),
     NonCoprimeModuli, "moduli share the factor x - 1"),
    ("squarefree split of zero", lambda: squarefree_decomposition(_ZQ),
     ZeroPolynomial, "squarefree decomposition of zero"),
    ("factor zero", lambda: poly_factor(_ZQ), ZeroPolynomial, "cannot factor the zero polynomial"),
    ("irreducible zero", lambda: is_irreducible(_ZQ),
     ZeroPolynomial, "irreducibility of zero is undefined"),
    ("roots outside an extension", lambda: poly_roots_in_ext(_X, Q),
     NotAnExtension, "root search needs an extension field"),
    ("roots over the wrong base", lambda: poly_roots_in_ext(Poly(F5, [0, 1]), _QR2),
     CtxMismatch, "polynomial is not over the base of the extension"),
    ("roots of zero", lambda: poly_roots_in_ext(_ZQ, _QR2),
     ZeroPolynomial, "every element is a root of zero"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
