import json
import os
import random
import re

import pytest

from centtype import (
    CtxMismatch,
    Matrix,
    NonSquarefreeDerivativeUnit,
    NotSquare,
    Poly,
    SizeMismatch,
    TooLarge,
    block_diag,
    cent_conjugate_bruteforce,
    cent_dim,
    cent_dim_formula,
    cent_span_equal,
    centralizer_basis,
    centralizers_conjugate,
    companion,
    cycle_type,
    extension_field,
    frobenius_form,
    mat_eval_poly,
    poly_compose_mod,
    poly_gcd,
    prime_field,
    rationals,
    similar_conjugator,
    witness_polynomials,
)
from centtype.construct import (
    equivalent_pair,
    random_invertible,
    random_matrix,
    random_partition,
)
from centtype.exactfield import random_elem
from centtype.serialize import matrix_from_json

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F9 = extension_field(F3, [1, 0, 1])


def test_centralizer_basis_commutes():
    rng = random.Random(12)
    outside = 0
    for ctx in (Q, F2, F5):
        for _ in range(10):
            n = rng.randrange(1, 5)
            A = random_matrix(ctx, n, rng)
            basis = centralizer_basis(A)
            assert basis.dim == len(basis.matrices)
            for B in basis.matrices:
                assert A * B == B * A
            assert basis.contains(Matrix.identity(ctx, n))
            assert basis.contains(A)
            assert basis.dim == cent_dim(A)
            # matrix units: contained exactly when they commute with A
            for i in range(n):
                for j in range(n):
                    E = Matrix(ctx, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
                    commutes = A * E == E * A
                    assert basis.contains(E) == commutes
                    outside += not commutes
    assert outside > 0
    basis = centralizer_basis(Matrix(F5, [[1, 2], [3, 4]]))
    with pytest.raises(SizeMismatch):
        basis.contains(Matrix.identity(F5, 3))
    with pytest.raises(CtxMismatch):
        basis.contains(Matrix.identity(Q, 2))


def test_cent_dim_formula_agrees():
    rng = random.Random(3)
    for ctx in (Q, F3):
        for _ in range(15):
            A = random_matrix(ctx, rng.randrange(1, 5), rng)
            assert cent_dim(A) == cent_dim_formula(cycle_type(A))


def test_cent_dim_extremes():
    # scalar matrix commutes with everything
    S = Matrix(Q, [[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert cent_dim(S) == 9
    # companion of an irreducible: centralizer is K[X], dimension n
    C = companion(Poly(Q, [1, 1, 1, 1, 1]))
    assert cent_dim(C) == 4


def test_similar_conjugator():
    rng = random.Random(9)
    for ctx in (Q, F5):
        for _ in range(10):
            n = rng.randrange(1, 5)
            A = random_matrix(ctx, n, rng)
            U = random_invertible(ctx, n, rng)
            B = U * A * U.inverse()
            V = similar_conjugator(A, B)
            assert V is not None
            assert V.inverse() * A * V == B
    # dissimilar matrices give None
    assert similar_conjugator(Matrix(Q, [[0, 0], [0, 0]]), Matrix(Q, [[0, 1], [0, 0]])) is None


def test_conjugate_sqrt2_sqrt8():
    X = companion(Poly(Q, [-2, 0, 1]))
    Y = companion(Poly(Q, [-8, 0, 1]))
    cert = centralizers_conjugate(X, Y)
    assert cert.conjugate
    assert cert.p is not None and cert.q is not None
    U = cert.conjugator
    # U conjugates Cent(X) onto Cent(Y): p(X) is similar to Y via U and
    # the spans match after conjugation
    PX = mat_eval_poly(cert.p, X)
    assert U.inverse() * PX * U == Y
    bx = centralizer_basis(X)
    conj = [U.inverse() * B * U for B in bx.matrices]
    by = centralizer_basis(Y)
    for C in conj:
        assert by.contains(C)
    assert cent_span_equal(PX, X)


def test_not_conjugate_sqrt2_sqrt3():
    X = companion(Poly(Q, [-2, 0, 1]))
    Y = companion(Poly(Q, [-3, 0, 1]))
    cert = centralizers_conjugate(X, Y)
    assert not cert.conjugate
    assert cert.conjugator is None and cert.p is None and cert.q is None


def test_conjugate_but_spans_differ_over_f2():
    X = Matrix(F2, [[1, 0], [0, 0]])
    Y = Matrix(F2, [[1, 1], [0, 0]])
    cert = centralizers_conjugate(X, Y)
    assert cert.conjugate
    assert not cent_span_equal(X, Y)
    assert cent_conjugate_bruteforce(X, Y)


def test_cent_conjugate_bruteforce_agreement():
    # all 2x2 matrices over F2, pairwise
    mats = []
    for bits in range(16):
        rows = [[(bits >> 0) & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]]
        mats.append(Matrix(F2, rows))
    for X in mats:
        for Y in mats:
            assert cent_conjugate_bruteforce(X, Y) == centralizers_conjugate(X, Y).conjugate


def test_brute_force_keeps_only_the_last_group_it_enumerated():
    from centtype.centkit import _gl_with_inverses

    _gl_with_inverses.cache_clear()
    for n in (2, 3):
        X = Matrix.identity(F2, n)
        assert cent_conjugate_bruteforce(X, X)
    info = _gl_with_inverses.cache_info()
    assert (info.currsize, info.misses) == (1, 2)
    assert len(_gl_with_inverses(2, 3)) == 168  # |GL_3(F2)|, from the cache
    assert _gl_with_inverses.cache_info().hits == info.hits + 1


def test_cent_span_equal_basics():
    rng = random.Random(30)
    A = random_matrix(F3, 3, rng)
    assert cent_span_equal(A, A)
    # a matrix and its polynomial images share the centralizer when the
    # image generates the same algebra
    X = companion(Poly(Q, [-2, 0, 1]))
    assert cent_span_equal(X, mat_eval_poly(Poly(Q, [0, -2]), X))
    # different fields or shapes: never equal subspaces
    assert not cent_span_equal(Matrix(F2, [[1]]), Matrix(F3, [[1]]))
    assert not cent_span_equal(A, Matrix.identity(F3, 2))


def test_newton_root_lifts_x_to_the_root_of_f_modulo_a_power(monkeypatch):
    """For squarefree f and m = f^k, the root z of f in K[x]/(m) with
    z = x mod f; k >= 3 takes more than one Newton step."""
    from centtype import centkit

    steps = []
    xgcd = centkit.poly_xgcd
    monkeypatch.setattr(centkit, "poly_xgcd", lambda a, b: steps.append(a) or xgcd(a, b))
    rng = random.Random(46)
    multi = 0
    for ctx in (Q, F2, F3, F5, F9):
        x = Poly.x(ctx)
        for _ in range(12):
            while True:
                d = rng.randint(1, 3)
                f = Poly(ctx, [random_elem(ctx, rng, 3) for _ in range(d)] + [ctx.one])
                if poly_gcd(f, f.derivative()).degree == 0:
                    break
            for k in range(1, 5):
                m = f**k
                steps.clear()
                z = centkit._newton_root(f, m)
                assert z.degree < m.degree
                assert poly_compose_mod(f, z, m).is_zero()
                assert ((z - x) % f).is_zero()
                multi += len(steps) > 1
    assert multi >= 40
    # x^2 - 2 over Q: one step lifts the root to f^2, a second to f^4
    f = Poly(Q, [-2, 0, 1])
    steps.clear()
    assert poly_compose_mod(f, centkit._newton_root(f, f**4), f**4).is_zero()
    assert len(steps) == 2


@pytest.mark.parametrize("ctx", [Q, F2, F3], ids=["Q", "F2", "F3"])
def test_newton_root_refuses_a_repeated_factor(ctx):
    from centtype.centkit import _newton_root

    x2 = Poly(ctx, [0, 0, 1])
    with pytest.raises(NonSquarefreeDerivativeUnit, match="not invertible"):
        _newton_root(x2, x2**2)


def test_witness_polynomials_roundtrip():
    rng = random.Random(88)
    for ctx in (F3, F5, Q):
        for _ in range(6):
            f, g = equivalent_pair(ctx, rng)
            lam = random_partition(rng.randrange(1, 4), rng)
            X = block_diag([companion(f**p) for p in lam.parts])
            Y = block_diag([companion(g**p) for p in lam.parts])
            U = random_invertible(ctx, X.nrows, rng, bound=3)
            V = random_invertible(ctx, Y.nrows, rng, bound=3)
            X = U * X * U.inverse()
            Y = V * Y * V.inverse()
            pq = witness_polynomials(X, Y)
            assert pq is not None
            p, q = pq
            fy = frobenius_form(Y).invariant_factors
            assert frobenius_form(mat_eval_poly(p, X)).invariant_factors == fy
            fx = frobenius_form(X).invariant_factors
            assert frobenius_form(mat_eval_poly(q, Y)).invariant_factors == fx
            # the image p(X) lives in K[X], so the centralizers agree
            assert cent_span_equal(mat_eval_poly(p, X), X)


def test_witness_polynomials_none_when_types_differ():
    X = companion(Poly(Q, [-2, 0, 1]))
    Y = companion(Poly(Q, [-3, 0, 1]))
    assert witness_polynomials(X, Y) is None
    # same field, different partitions
    f = Poly(F3, [1, 0, 1])
    A = block_diag([companion(f), companion(f)])
    B = companion(f**2)
    assert witness_polynomials(A, B) is None


def test_witness_scalar_shift():
    # degree-one components: the witness is a shift
    X = Matrix(Q, [[2, 1], [0, 2]])
    Y = Matrix(Q, [[5, 0], [1, 5]])
    pq = witness_polynomials(X, Y)
    assert pq is not None
    p, q = pq
    assert frobenius_form(mat_eval_poly(p, X)).invariant_factors == frobenius_form(Y).invariant_factors


def test_component_witness_branches():
    from centtype.centkit import _component_witness
    from centtype.typealg import CycleType, Partition, poly_equivalent
    from centtype.upoly import poly_compose_mod

    f3, g3 = Poly(F2, [1, 1, 0, 1]), Poly(F2, [1, 0, 1, 1])
    # alpha^2 + 1 = alpha^6 is a root of g3 in F2[x]/(f3), and r' = 0
    r3 = Poly(F2, [1, 0, 1])
    assert poly_compose_mod(g3, r3, f3).is_zero()
    # (f, g, root r, partition, witness); the witnesses were recorded
    # with the matrix checks and the valuation-doubling loop they replace
    cases = [
        (f3, f3, Poly.x(F2), (2, 1), Poly.x(F2)),
        # f does not divide r': r itself
        (Poly(Q, [-2, 0, 1]), Poly(Q, [-8, 0, 1]), None, (2, 1), Poly(Q, [0, -2])),
        (f3, g3, None, (2,), Poly(F2, [1, 1])),
        # f divides r': the Newton lift
        (Poly(Q, [-1, 1]), Poly(Q, [-2, 1]), None, (2,), Poly(Q, [1, 1])),
        (f3, g3, r3, (2,), Poly(F2, [1, 1, 0, 0, 1])),
        (f3, g3, r3, (3, 2), Poly(F2, [1, 1, 0, 0, 1])),
    ]
    for f, g, r, parts, want in cases:
        r = poly_equivalent(f, g) if r is None else r
        lam = Partition(parts)
        p = _component_witness(f, lam, g, r)
        assert p == want
        M = block_diag([companion(f**k) for k in parts])
        assert cycle_type(mat_eval_poly(p, M)) == CycleType([(g, lam)])


def test_certificate_verified_via_bruteforce_f2():
    # theorem path agrees with exhaustive search on 3x3 over F2 spot checks
    rng = random.Random(5)
    for _ in range(10):
        X = random_matrix(F2, 3, rng)
        Y = random_matrix(F2, 3, rng)
        assert centralizers_conjugate(X, Y).conjugate == cent_conjugate_bruteforce(X, Y)


def test_no_matrix_is_formed_twice(monkeypatch):
    import centtype.centkit
    import centtype.typealg

    formed = []

    def counted(M):
        formed.append(M)
        return frobenius_form(M)

    monkeypatch.setattr(centtype.centkit, "frobenius_form", counted)
    monkeypatch.setattr(centtype.typealg, "frobenius_form", counted)
    rng = random.Random(17)
    X = random_matrix(F5, 4, rng)
    S = random_invertible(F5, 4, rng)
    f, g = Poly(Q, [-2, 0, 1]), Poly(Q, [-8, 0, 1])
    T = random_invertible(Q, 8, rng, bound=3)
    pairs = [
        # p = x: Y is a conjugate of X
        (X, S.inverse() * X * S),
        # f != g but f ~ g, and r itself is the witness
        (companion(f), companion(g)),
        (
            block_diag([companion(f**2), companion(f), companion(f)]),
            T.inverse() * block_diag([companion(g**2), companion(g), companion(g)]) * T,
        ),
        # f = x - 1, g = x - 2 and r = 2 is constant: the Newton branch
        (companion(Poly(Q, [1, -2, 1])), companion(Poly(Q, [4, -4, 1]))),
    ]
    for A, B in pairs:
        del formed[:]
        cert = centralizers_conjugate(A, B)
        assert cert.conjugate
        # q(B) is checked from the form of B, never formed
        allowed = {A, B, mat_eval_poly(cert.p, A)}
        assert formed and len(set(formed)) == len(formed)
        assert set(formed) <= allowed
        del formed[:]
        assert witness_polynomials(A, B) is not None
        assert formed and len(set(formed)) == len(formed)
        assert set(formed) <= allowed


def test_equal_invariant_factors_are_factored_once(monkeypatch):
    import centtype.typealg

    factored = []
    poly_factor = centtype.typealg.poly_factor

    def counted(f, seed=0):
        factored.append(f)
        return poly_factor(f, seed=seed)

    monkeypatch.setattr(centtype.typealg, "poly_factor", counted)
    rng = random.Random(18)
    X = random_matrix(F5, 4, rng)
    S = random_invertible(F5, 4, rng)
    # a conjugate of X has X's invariant factors, so X's type
    assert centralizers_conjugate(X, S.inverse() * X * S).conjugate
    assert len(factored) == 1
    del factored[:]
    # the same type with different irreducibles: each side is factored
    assert centralizers_conjugate(companion(Poly(Q, [-2, 0, 1])), companion(Poly(Q, [-8, 0, 1]))).conjugate
    assert len(factored) == 2


def test_wrong_component_witness_is_caught(monkeypatch, tmp_path, capsys):
    import centtype.centkit
    from centtype import VerificationError
    from centtype.cli import main

    # r = 2 sends the root 1 of x - 1 to the root 2 of x - 2 but kills the
    # nilpotent part: p(X) = 2I is not similar to Y
    monkeypatch.setattr(centtype.centkit, "_component_witness", lambda f, lam, g, r: r)
    X = companion(Poly(Q, [1, -2, 1]))
    Y = companion(Poly(Q, [4, -4, 1]))
    with pytest.raises(VerificationError):
        centralizers_conjugate(X, Y)
    docs = []
    for name, poly in (("x.json", "x^2 - 2*x + 1"), ("y.json", "x^2 - 4*x + 4")):
        path = tmp_path / name
        path.write_text(json.dumps({"field": {"kind": "Q"}, "companion": poly}))
        docs.append(str(path))
    assert main(["centconj"] + docs) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "VerificationError"


# -- the Sylvester kernel and the stored inverse conjugator against references --


def _sylvester_reference(X):
    """Cent(X) from the row-major Sylvester matrix of XB - BX, its kernel
    built from Matrix.rref's free columns, each reshaped to a matrix."""
    ctx, n = X.ctx, X.nrows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [ctx.zero] * (n * n)
            for k in range(n):
                row[k * n + j] += X.entry(i, k)
                row[i * n + k] -= X.entry(k, j)
            rows.append(row)
    red, pivots = Matrix(ctx, rows).rref()
    out = []
    for j in range(n * n):
        if j in pivots:
            continue
        vec = [ctx.zero] * (n * n)
        vec[j] = ctx.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.entry(r, j)
        out.append(Matrix(ctx, [vec[r * n : (r + 1) * n] for r in range(n)]))
    return tuple(out)


def test_centralizer_basis_matches_the_row_major_rref_kernel():
    rng = random.Random(61)
    for ctx in (F2, F3, F5, F9, Q):
        x = Poly.x(ctx)
        c = rng.choice([ctx.one, ctx.zero, ctx.one + ctx.one])
        cases = [Matrix.identity(ctx, 3) * c, Matrix.zero(ctx, 2)]
        cases.append(block_diag([companion(x - c), companion(x - c), companion((x - c) ** 2)]))
        cases.append(block_diag([companion(x**2 + x + 1), companion(x**2 + x + 1)]))
        cases.extend(random_matrix(ctx, n, rng, bound=3) for n in (1, 2, 3, 4))
        for M in cases:
            U = random_invertible(ctx, M.nrows, rng, bound=2)
            for X in (M, U.inverse() * M * U):
                assert centralizer_basis(X).matrices == _sylvester_reference(X)


def _golden(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def _positive_pairs():
    rng = random.Random(63)
    X = random_matrix(F5, 6, rng)
    U = random_invertible(F5, 6, rng, bound=3)
    return [
        (_golden("f5_x.json"), _golden("f5_y.json")),
        (_golden("q_sqrt2.json"), _golden("q_sqrt8.json")),
        (_golden("f9_x.json"), _golden("f9_y.json")),
        (companion(Poly(Q, [1, -2, 1])), companion(Poly(Q, [4, -4, 1]))),
        (X, U.inverse() * X * U),
    ]


@pytest.mark.parametrize("wrong", ["constant", "plus_one"])
def test_wrong_q_is_caught(monkeypatch, wrong):
    import centtype.centkit
    from centtype import VerificationError

    inverse = centtype.centkit._compose_inverse

    def mutated(p, m):
        q = inverse(p, m)
        return Poly(q.ctx, [2]) if wrong == "constant" else q + Poly.one(q.ctx)

    pairs = [(X, Y) for X, Y in _positive_pairs() if witness_polynomials(X, Y) is not None]
    assert len(pairs) == 5
    monkeypatch.setattr(centtype.centkit, "_compose_inverse", mutated)
    for X, Y in pairs:
        with pytest.raises(VerificationError, match=r"q\(Y\) is not similar to X"):
            centralizers_conjugate(X, Y)


def test_short_centralizer_basis_is_caught(monkeypatch):
    import centtype.centkit
    from centtype import VerificationError
    from centtype.centkit import CentralizerBasis

    for X, Y in _positive_pairs():
        monkeypatch.setattr(
            centtype.centkit,
            "centralizer_basis",
            lambda M, Y=Y: (
                CentralizerBasis(centralizer_basis(M).matrices[:-1])
                if M == Y
                else centralizer_basis(M)
            ),
        )
        with pytest.raises(VerificationError, match="differ in dimension"):
            centralizers_conjugate(X, Y)
        monkeypatch.undo()
        assert centralizers_conjugate(X, Y).conjugate


def test_witness_conjugator_carries_p_of_x_onto_y():
    from centtype.centkit import _witnesses

    pairs = _positive_pairs()
    rng = random.Random(62)
    for ctx in (F3, F5, Q):
        for _ in range(4):
            f, g = equivalent_pair(ctx, rng)
            lam = random_partition(rng.randrange(1, 4), rng)
            X = block_diag([companion(f**p) for p in lam.parts])
            Y = block_diag([companion(g**p) for p in lam.parts])
            U = random_invertible(ctx, X.nrows, rng, bound=3)
            pairs.append((U * X * U.inverse(), Y))
    for X, Y in pairs:
        p, _, U = _witnesses(X, Y, 0)[2]
        assert U.inverse() * mat_eval_poly(p, X) * U == Y


_RECT = Matrix(F5, [[1, 2, 3], [4, 5, 6]])
_ONE2, _ONE3, _ONEQ = Matrix(F2, [[1]]), Matrix(F3, [[1]]), Matrix(Q, [[1]])
_PAIR = "conjugacy needs square matrices of equal size"

GUARDS = [
    ("centralizer_basis non-square", lambda: centralizer_basis(_RECT), NotSquare, "2x3 matrix"),
    ("witnesses across fields", lambda: witness_polynomials(_ONE2, _ONE3),
     CtxMismatch, "witnesses over different fields"),
    ("witnesses across shapes", lambda: witness_polynomials(_ONE2, Matrix.identity(F2, 2)),
     SizeMismatch, "witnesses need square matrices of equal size"),
    ("witnesses non-square", lambda: witness_polynomials(_RECT, _RECT),
     SizeMismatch, "witnesses need square matrices of equal size"),
    ("conjugate across fields", lambda: centralizers_conjugate(_ONE2, _ONE3),
     CtxMismatch, "conjugacy over different fields"),
    ("conjugate across shapes", lambda: centralizers_conjugate(_ONEQ, Matrix.identity(Q, 2)),
     SizeMismatch, _PAIR),
    ("brute force across fields", lambda: cent_conjugate_bruteforce(_ONE2, _ONE3),
     CtxMismatch, "conjugacy over different fields"),
    ("brute force over Q", lambda: cent_conjugate_bruteforce(_ONEQ, _ONEQ),
     TooLarge, "brute force runs over prime fields only"),
    ("brute force over F9", lambda: cent_conjugate_bruteforce(Matrix(F9, [[1]]), Matrix(F9, [[1]])),
     TooLarge, "brute force runs over prime fields only"),
    ("brute force across shapes", lambda: cent_conjugate_bruteforce(_ONE2, Matrix.identity(F2, 2)),
     SizeMismatch, _PAIR),
    ("brute force past 2^25", lambda: cent_conjugate_bruteforce(*[Matrix.identity(F2, 6)] * 2),
     TooLarge, "GL_6(F_2) enumeration is out of range"),
    ("brute force 3x3 over F5", lambda: cent_conjugate_bruteforce(*[Matrix.identity(F5, 3)] * 2),
     TooLarge, "GL_3(F_5) enumeration is out of range"),
    ("brute force 5x5 over F2", lambda: cent_conjugate_bruteforce(*[Matrix.identity(F2, 5)] * 2),
     TooLarge, "GL_5(F_2) enumeration is out of range"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
