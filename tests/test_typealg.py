import random
import re

import pytest

from centtype import (
    CtxMismatch,
    CycleType,
    ExtensionField,
    Matrix,
    NotIrreducible,
    Partition,
    Poly,
    SizeMismatch,
    cent_dim_weight,
    companion,
    block_diag,
    cycle_type,
    dominance_leq,
    extension_field,
    frobenius_form,
    generalized_type,
    gentype_matching,
    green_type,
    mat_eval_poly,
    partitions_of,
    poly_compose_mod,
    poly_equivalent,
    poly_factor,
    poly_roots_in_ext,
    prime_field,
    rationals,
)
from centtype.construct import (
    equivalent_pair,
    random_invertible,
    random_irreducible,
    random_matrix,
    random_partition,
)
from centtype.exactfield import random_elem

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)


def test_partition_normalization():
    assert Partition(()).conjugate() == Partition(())
    lam = Partition([1, 3, 2])
    assert lam.parts == (3, 2, 1)
    assert lam.size == 6
    assert Partition([]).size == 0
    with pytest.raises(Exception):
        Partition([0, 1])
    with pytest.raises(Exception):
        Partition([-2])


def test_partition_parts_are_integers():
    # never truncated or converted; a bool is an int
    with pytest.raises(ValueError):
        Partition([0])
    for bad in ([2.5, 1], ["3", 1]):
        with pytest.raises(TypeError):
            Partition(bad)
    assert Partition([True, 2]).parts == (2, 1)


def test_partition_conjugate_involution():
    assert Partition([3, 1]).conjugate().parts == (2, 1, 1)
    rng = random.Random(14)
    for _ in range(50):
        lam = random_partition(rng.randrange(1, 15), rng)
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().size == lam.size


def test_partition_mults_replicate():
    lam = Partition([4, 2, 2, 1])
    assert lam.mults() == {4: 1, 2: 2, 1: 1}
    assert lam.replicate(3).parts == (4, 4, 4, 2, 2, 2, 2, 2, 2, 1, 1, 1)
    assert lam.replicate(1) == lam


def test_partitions_of_counts():
    # p(n) for n = 1..12
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n, c in enumerate(expected, start=1):
        ps = list(partitions_of(n))
        assert len(ps) == c
        assert len(set(p.parts for p in ps)) == c
        for p in ps:
            assert p.size == n


def test_dominance():
    assert dominance_leq(Partition([1, 1, 1, 1]), Partition([4]))
    assert dominance_leq(Partition([2, 2]), Partition([3, 1]))
    assert not dominance_leq(Partition([3, 1]), Partition([2, 2]))
    assert not dominance_leq(Partition([3, 3]), Partition([4, 1, 1]))
    assert not dominance_leq(Partition([4, 1, 1]), Partition([3, 3]))
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randrange(1, 12)
        a = random_partition(n, rng)
        b = random_partition(n, rng)
        # antisymmetry
        if dominance_leq(a, b) and dominance_leq(b, a):
            assert a == b
        # conjugation reverses the order
        if dominance_leq(a, b):
            assert dominance_leq(b.conjugate(), a.conjugate())
        # reflexive, with top and bottom elements
        assert dominance_leq(a, a)
        assert dominance_leq(a, Partition([n]))
        assert dominance_leq(Partition([1] * n), a)


def test_cent_dim_weight():
    assert cent_dim_weight(Partition([1])) == 1
    assert cent_dim_weight(Partition([1, 1])) == 4
    assert cent_dim_weight(Partition([2, 1])) == 5
    assert cent_dim_weight(Partition([n for n in [3, 1]])) == 3 + 1 + 2 * 1  # sum (2i-1) lam_i


def test_cycle_type_primary_fixture():
    f = Poly(F3, [1, 0, 1])
    M = block_diag([companion(f**2), companion(f)])
    ct = cycle_type(M)
    assert ct.entries == ((f, Partition([2, 1])),)
    assert green_type(M).entries == ((2, Partition([2, 1])),)


def test_cycle_type_mixed():
    f = Poly(Q, [-2, 0, 1])
    g = Poly(Q, [-1, 1])
    M = block_diag([companion(f), companion(g), companion(g)])
    ct = cycle_type(M)
    got = {str(p): lam.parts for p, lam in ct.entries}
    assert got == {"x^2 - 2": (1,), "x - 1": (1, 1)}


def test_cycle_type_similarity_invariant():
    rng = random.Random(41)
    f = Poly(F5, [3, 1, 1])
    M = block_diag([companion(f**2), companion(f)])
    for _ in range(5):
        U = random_invertible(F5, M.nrows, rng)
        assert cycle_type(U * M * U.inverse()) == cycle_type(M)
    # the cycle type reads the same off the matrix's Frobenius form
    assert cycle_type(frobenius_form(M)) == cycle_type(M)


def test_green_type_collapses_over_finite_fields():
    # two distinct irreducible quadratics over F3 give equal green and
    # generalized types but different cycle types
    f = Poly(F3, [1, 0, 1])
    g = Poly(F3, [2, 1, 1])
    A = companion(f)
    B = companion(g)
    assert cycle_type(A) != cycle_type(B)
    assert green_type(A) == green_type(B)
    assert generalized_type(A) == generalized_type(B)


def test_generalized_type_finer_over_q():
    A = companion(Poly(Q, [-2, 0, 1]))
    B = companion(Poly(Q, [-3, 0, 1]))
    C = companion(Poly(Q, [-8, 0, 1]))
    assert green_type(A) == green_type(B)
    assert generalized_type(A) != generalized_type(B)
    assert generalized_type(A) == generalized_type(C)
    # equal types with different representatives hash alike
    assert hash(generalized_type(A)) == hash(generalized_type(C))
    # types over different fields are unequal, not an error
    assert generalized_type(Matrix(F2, [[1]])) != generalized_type(Matrix(F3, [[1]]))


def test_poly_equivalent_over_finite():
    rng = random.Random(10)
    for ctx in (F2, F3, F5):
        for d in (1, 2, 3):
            f = random_irreducible(ctx, d, rng)
            g = random_irreducible(ctx, d, rng)
            rs = poly_equivalent(f, g)
            assert rs is not None
            check_inverse_pair(f, g, rs)
        # different degrees never match
        assert poly_equivalent(
            random_irreducible(ctx, 1, rng), random_irreducible(ctx, 2, rng)
        ) is None


def check_inverse_pair(f, g, rs):
    r, s = rs
    x = Poly.x(f.ctx)
    assert poly_compose_mod(g, r, f).is_zero()
    assert poly_compose_mod(f, s, g).is_zero()
    assert ((poly_compose_mod(s, r, f) - x) % f).is_zero()
    assert ((poly_compose_mod(r, s, g) - x) % g).is_zero()


def test_poly_equivalent_degree_one():
    # r and s are constants here; the identities hold modulo the
    # degree-one moduli
    f = Poly(F2, [0, 1])
    g = Poly(F2, [1, 1])
    rs = poly_equivalent(f, g)
    assert rs is not None
    check_inverse_pair(f, g, rs)
    f = Poly(Q, [-3, 1])
    g = Poly(Q, [5, 1])
    rs = poly_equivalent(f, g)
    assert rs is not None
    check_inverse_pair(f, g, rs)


def test_poly_equivalent_over_q():
    f = Poly(Q, [-2, 0, 1])
    g = Poly(Q, [-8, 0, 1])
    rs = poly_equivalent(f, g)
    assert rs is not None
    check_inverse_pair(f, g, rs)
    assert poly_equivalent(f, Poly(Q, [-3, 0, 1])) is None
    # shifts are always equivalent
    x = Poly.x(Q)
    h = Poly(Q, [-1, -1, 0, 1])  # x^3 - x - 1
    hs = h.compose(x + Poly(Q, [2]))
    rs = poly_equivalent(h, hs)
    assert rs is not None
    check_inverse_pair(h, hs, rs)
    # golden ratio vs sqrt5: same field, different polynomials
    fib = Poly(Q, [-1, -1, 1])
    s5 = Poly(Q, [-5, 0, 1])
    rs = poly_equivalent(fib, s5)
    assert rs is not None
    check_inverse_pair(fib, s5, rs)


def test_numberfield_poly_equivalent():
    # sqrt6 = sqrt2 sqrt3, so x^2 - 3 ~ x^2 - 6 over Q(sqrt2) but not over Q
    K = extension_field(Q, Poly(Q, [-2, 0, 1]))
    f, g = Poly(K, [-3, 0, 1]), Poly(K, [-6, 0, 1])
    rs = poly_equivalent(f, g)
    assert rs is not None
    check_inverse_pair(f, g, rs)
    assert poly_equivalent(f, Poly(K, [-5, 0, 1])) is None
    assert poly_equivalent(Poly(Q, [-3, 0, 1]), Poly(Q, [-6, 0, 1])) is None


def test_numberfield_cycle_type():
    # x^4 - 2 = (x^2 - sqrt2)(x^2 + sqrt2) over Q(sqrt2)
    K = extension_field(Q, Poly(Q, [-2, 0, 1]))
    y = K.generator
    t = cycle_type(companion(Poly(K, [-2, 0, 0, 0, 1])))
    assert [(str(f), lam.parts) for f, lam in t.entries] == [
        ("x^2 + (0, -1)", (1,)),
        ("x^2 + (0, 1)", (1,)),
    ]
    assert [f for f, _ in t.entries] == [Poly(K, [-y, 0, 1]), Poly(K, [y, 0, 1])]


def _random_poly(ctx, d, rng, monic=False):
    coeffs = [random_elem(ctx, rng, bound=3) for _ in range(d)]
    return Poly(ctx, coeffs + [ctx.one if monic else random_elem(ctx, rng, bound=3)])


def test_compose_inverse_inverts_p_modulo_m():
    """q(p) = x mod m with deg q < deg m; None exactly when the powers of p
    mod m have rank below deg m, and always for a constant p."""
    from centtype.typealg import _compose_inverse

    rng = random.Random(71)
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    found = missing = 0
    for ctx in (F2, F3, F5, Q, F9):
        x = Poly.x(ctx)
        for _ in range(30):
            d = rng.randint(1, 6)
            m = _random_poly(ctx, d, rng, monic=True)
            if rng.random() < 0.3:
                m = _random_poly(ctx, rng.randint(1, 2), rng, monic=True) ** rng.randint(2, 3)
            p = _random_poly(ctx, rng.randint(0, m.degree + 2), rng)
            powers = [(p**i % m).coeffs for i in range(m.degree)]
            cols = [list(c) + [ctx.zero] * (m.degree - len(c)) for c in powers]
            spans = Matrix.from_columns(ctx, cols).rank() == m.degree
            q = _compose_inverse(p, m)
            if q is None:
                missing += 1
                assert not spans
            else:
                found += 1
                assert spans
                assert q.degree < m.degree
                assert poly_compose_mod(q, p, m) == x % m
            if m.degree >= 2:
                assert _compose_inverse(Poly(ctx, [random_elem(ctx, rng)]), m) is None
    assert found >= 60 and missing >= 10


def _powers_of_beta_pair(f, g):
    """(r, s) as the powers-of-beta solve in L = K[x]/(f) finds them, or
    None: the construction `poly_equivalent` used before `_compose_inverse`."""
    if f == g:
        return (Poly.x(f.ctx),) * 2
    L = ExtensionField(f.ctx, f.coeffs)
    roots = poly_roots_in_ext(g, L)
    if not roots:
        return None
    beta, r = roots[0]
    powers, acc = [], L.one
    for _ in range(f.degree):
        powers.append(tuple(acc.val))
        acc = acc * beta
    svec = Matrix.from_columns(f.ctx, powers).solve_right(L.generator.val)
    return (r, Poly(f.ctx, svec))


def test_poly_equivalent_pairs_equal_the_powers_of_beta_solve():
    rng = random.Random(83)
    F9 = extension_field(F3, Poly(F3, [1, 0, 1]))
    K = extension_field(Q, Poly(Q, [-2, 0, 1]))
    pairs = []
    for ctx, count in ((F2, 40), (F3, 40), (F5, 40), (F9, 30)):
        for _ in range(count):
            d = rng.randint(1, 3)
            pairs.append((random_irreducible(ctx, d, rng), random_irreducible(ctx, d, rng)))
    pairs += [equivalent_pair(Q, rng) for _ in range(30)]
    y, x = K.generator, Poly.x(K)
    for f in (Poly(K, [-3, 0, 1]), Poly(K, [-y, 0, 1]), Poly(K, [-2, 0, 0, 1]), Poly(K, [1, 0, 1])):
        for a, b in ((1, 1), (2, 0), (1, y), (3, -y), (y, 2)):
            shifted = f.compose(x * a + Poly(K, [b]))
            pairs.append((f, shifted.monic()))
    pairs += [(Poly(K, [-3, 0, 1]), Poly(K, [-5, 0, 1])), (Poly(Q, [-2, 0, 1]), Poly(Q, [-3, 0, 1]))]
    matched = 0
    for f, g in pairs:
        got = poly_equivalent(f, g)
        assert got == _powers_of_beta_pair(f, g)
        matched += got is not None
    assert len(pairs) >= 200 and matched >= 190


def test_poly_equivalent_rejects_reducible():
    with pytest.raises(NotIrreducible):
        poly_equivalent(Poly(Q, [-4, 0, 1]), Poly(Q, [-2, 0, 1]))


def test_gentype_matching():
    f = Poly(Q, [-2, 0, 1])
    g = Poly(Q, [-8, 0, 1])
    ta = CycleType([(f, Partition([2]))]).generalized()
    tb = CycleType([(g, Partition([2]))]).generalized()
    match = gentype_matching(ta, tb)
    assert match is not None
    assert len(match) == 1
    (ea, eb, rs) = match[0]
    check_inverse_pair(ea[0], eb[0], rs)
    # partition mismatch kills the match
    tc = CycleType([(g, Partition([1, 1]))]).generalized()
    assert gentype_matching(ta, tc) is None


def test_nilpotent_after_eval():
    # f(M) is nilpotent when M is primary of type f^lam
    rng = random.Random(55)
    for ctx in (F2, F5):
        f = random_irreducible(ctx, 2, rng)
        lam = Partition([2, 1])
        M = block_diag([companion(f**p) for p in lam.parts])
        N = mat_eval_poly(f, M)
        assert (N ** M.nrows).is_zero_matrix()
        nt = cycle_type(N)
        assert len(nt.entries) == 1
        p, mu = nt.entries[0]
        assert p == Poly.x(ctx)
        assert mu == Partition([2, 2, 1, 1])  # d * lam with d = 2


def _cycle_type_reference(X):
    """Cycle type by factoring every invariant factor."""
    mults = {}
    for d in frobenius_form(X).invariant_factors:
        for f, m in poly_factor(d).factors:
            mults.setdefault(f, []).append(m)
    return CycleType([(f, Partition(ms)) for f, ms in mults.items()])


def test_cycle_type_matches_factoring_every_invariant_factor():
    rng = random.Random(71)
    F9 = extension_field(F3, [1, 0, 1])
    for ctx in (F2, F3, F5, F9, Q):
        x = Poly.x(ctx)
        f = random_irreducible(ctx, 1, rng, bound=3)
        g = random_irreducible(ctx, 2, rng, bound=3)
        chains = [
            [f, f * g, f**2 * g**2],
            [g, g, g**3 * f],
            [f**3],
            [x, x * f**2 if f != x else x**2, x**2 * f**2 * g],
        ]
        for chain in chains:
            M = block_diag([companion(d) for d in chain])
            U = random_invertible(ctx, M.nrows, rng, bound=2)
            X = U.inverse() * M * U
            assert cycle_type(X).entries == _cycle_type_reference(X).entries
        for n in (1, 3, 5):
            X = random_matrix(ctx, n, rng, bound=3)
            assert cycle_type(X).entries == _cycle_type_reference(X).entries


_GT2, _GT3 = generalized_type(Matrix(F2, [[1]])), generalized_type(Matrix(F3, [[1]]))

GUARDS = [
    ("matching cycle types", lambda: gentype_matching(cycle_type(Matrix(F2, [[1]])), _GT2),
     SizeMismatch, "matching needs two generalized types"),
    ("matching across fields", lambda: gentype_matching(_GT2, _GT3),
     CtxMismatch, "matching over different fields"),
    ("equivalence across fields", lambda: poly_equivalent(Poly(F2, [1, 1]), Poly(F3, [1, 1])),
     CtxMismatch, "equivalence over different fields"),
    ("negative replication", lambda: Partition([2, 1]).replicate(-1),
     ValueError, "negative replication"),
    ("partitions of a negative weight", lambda: list(partitions_of(-1)),
     ValueError, "negative weight"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
