import collections
import copy
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys

import pytest

from centtype import (
    CtxMismatch,
    FieldElem,
    Matrix,
    NotSquare,
    Poly,
    SingularMatrix,
    SizeMismatch,
    block_diag,
    companion,
    extension_field,
    frobenius_form,
    mat_eval_poly,
    poly_factor,
    prime_field,
    rationals,
)
from centtype.construct import random_elem, random_invertible, random_matrix, random_monic
from centtype.exactfield import PrimeField
from centtype.exactmat import _Echelon

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)
F5 = prime_field(5)
F9 = extension_field(F3, [1, 0, 1])
FIELDS = (F2, F3, F5, Q, F9)


def test_matrix_constructors():
    M = Matrix(Q, [[1, 2], [3, 4]])
    assert M.shape == (2, 2)
    assert M.entry(0, 1) == Q.elem(2)
    assert Matrix.identity(Q, 3) * M.zero(Q, 3, 2) == M.zero(Q, 3, 2)
    with pytest.raises(SizeMismatch):
        Matrix(Q, [[1, 2], [3]])


def test_matrix_ring_ops():
    rng = random.Random(4)
    for ctx in (Q, F5):
        for _ in range(15):
            A = random_matrix(ctx, 3, rng)
            B = random_matrix(ctx, 3, rng)
            C = random_matrix(ctx, 3, rng)
            assert A + B == B + A
            assert (A * B) * C == A * (B * C)
            assert A * (B + C) == A * B + A * C
            assert (A.transpose()).transpose() == A
            assert (A * B).transpose() == B.transpose() * A.transpose()


def test_rref_rank_kernel():
    rng = random.Random(8)
    for ctx in (Q, F2, F5):
        for _ in range(20):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            A = random_matrix(ctx, m, rng) if m == n else Matrix(
                ctx, [[random_matrix(ctx, 1, rng).entry(0, 0) for _ in range(n)] for _ in range(m)]
            )
            r = A.rank()
            ker = A.kernel()
            assert len(ker) == n - r
            for v in ker:
                assert all(e == ctx.zero for e in A.apply(v))
    A = Matrix(Q, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert A.rank() == 2
    assert len(A.kernel()) == 1


def test_det_inverse():
    rng = random.Random(21)
    for ctx in (Q, F5):
        for _ in range(15):
            n = rng.randrange(1, 5)
            A = random_invertible(ctx, n, rng)
            Ainv = A.inverse()
            assert A * Ainv == Matrix.identity(ctx, n)
            assert A.det() * Ainv.det() == ctx.one
    S = Matrix(Q, [[1, 2], [2, 4]])
    assert S.det() == Q.zero
    with pytest.raises(SingularMatrix):
        S.inverse()


def test_det_multiplicative():
    rng = random.Random(13)
    for _ in range(15):
        A = random_matrix(F5, 4, rng)
        B = random_matrix(F5, 4, rng)
        assert (A * B).det() == A.det() * B.det()


def test_solve_right():
    A = Matrix(Q, [[2, 1], [1, 3]])
    b = (Q.elem(5), Q.elem(10))
    x = A.solve_right(b)
    assert A.apply(x) == b
    S = Matrix(Q, [[1, 1], [1, 1]])
    assert S.solve_right((Q.elem(0), Q.elem(1))) is None


def _charpoly(A):
    """The product of the invariant factors."""
    out = Poly.one(A.ctx)
    for f in frobenius_form(A).invariant_factors:
        out = out * f
    return out


def _check_minimal(d, A):
    """d(A) = 0, and (d / g)(A) != 0 for every irreducible factor g of d,
    so no proper divisor of d kills A."""
    assert mat_eval_poly(d, A).is_zero_matrix()
    for g, _ in poly_factor(d).factors:
        assert not mat_eval_poly(d // g, A).is_zero_matrix()


def test_charpoly_minpoly():
    C = companion(Poly(Q, [-2, 0, 1]))
    assert _charpoly(C) == Poly(Q, [-2, 0, 1])
    assert frobenius_form(C).invariant_factors[-1] == Poly(Q, [-2, 0, 1])
    # scalar matrix: charpoly (x-c)^n, minimal polynomial x-c
    S = Matrix(Q, [[3, 0], [0, 3]])
    assert _charpoly(S) == Poly(Q, [-3, 1]) ** 2
    assert frobenius_form(S).invariant_factors[-1] == Poly(Q, [-3, 1])
    with pytest.raises(NotSquare):
        frobenius_form(Matrix(Q, [[1, 2, 3], [4, 5, 6]]))


def test_minpoly_divides_charpoly():
    rng = random.Random(31)
    for ctx in (Q, F2, F5):
        for _ in range(20):
            A = random_matrix(ctx, rng.randrange(1, 5), rng)
            cp = _charpoly(A)
            mp = frobenius_form(A).invariant_factors[-1]
            assert (cp % mp).is_zero()
            _check_minimal(mp, A)


def test_companion():
    f = Poly(F5, [2, 3, 0, 1])
    C = companion(f)
    assert C.shape == (3, 3)
    assert _charpoly(C) == f
    assert frobenius_form(C).invariant_factors[-1] == f
    # non-monic input is normalized, constants are rejected
    assert companion(Poly(F5, [4, 1, 0, 2])) == companion(Poly(F5, [4, 1, 0, 2]).monic())
    with pytest.raises(SizeMismatch):
        companion(Poly(F5, [2]))


def test_block_diag():
    A = companion(Poly(Q, [-2, 0, 1]))
    B = companion(Poly(Q, [-1, 1]))
    M = block_diag([A, B])
    assert M.shape == (3, 3)
    assert _charpoly(M) == _charpoly(A) * _charpoly(B)


def test_mat_eval_poly():
    rng = random.Random(6)
    for ctx in (F5, Q, F9):
        A = random_matrix(ctx, 3, rng)
        f = Poly(ctx, [1, 2, 0, 3])
        g = Poly(ctx, [4, 0, 1])
        assert mat_eval_poly(f, A) * mat_eval_poly(g, A) == mat_eval_poly(f * g, A)
        assert mat_eval_poly(f + g, A) == mat_eval_poly(f, A) + mat_eval_poly(g, A)
        assert mat_eval_poly(Poly(ctx, [1]), A) == Matrix.identity(ctx, 3)
        assert mat_eval_poly(Poly.zero(ctx), A) == Matrix.zero(ctx, 3)
        for h in (f, g, Poly(ctx, [random_elem(ctx, rng) for _ in range(5)])):
            powers = Matrix.zero(ctx, 3)
            for k, c in enumerate(h.coeffs):
                powers = powers + c * A**k
            assert mat_eval_poly(h, A) == powers


def test_frobenius_form_fixture():
    # diag(1, 1) has invariant factors (x-1, x-1)
    S = Matrix(Q, [[1, 0], [0, 1]])
    ff = frobenius_form(S)
    assert ff.invariant_factors == (Poly(Q, [-1, 1]), Poly(Q, [-1, 1]))
    C = companion(Poly(Q, [1, 2, 3, 1]))
    assert frobenius_form(C).invariant_factors == (Poly(Q, [1, 2, 3, 1]),)


def _check_frobenius(A):
    ff = frobenius_form(A)
    # divisibility chain and reconstruction
    prev = None
    for d in ff.invariant_factors:
        assert d.is_monic()
        if prev is not None:
            assert (d % prev).is_zero()
        prev = d
    assert sum(d.degree for d in ff.invariant_factors) == A.nrows
    assert ff.form == block_diag([companion(d) for d in ff.invariant_factors])
    assert ff.basis.inverse() * A * ff.basis == ff.form
    _check_minimal(ff.invariant_factors[-1], A)
    return ff.invariant_factors


def test_frobenius_form_random():
    rng = random.Random(77)
    for ctx in (Q, F2, F5):
        for _ in range(15):
            n = rng.randrange(1, 5)
            _check_frobenius(random_matrix(ctx, n, rng))
    # block-diagonal inputs that repeat invariant factors, as given and
    # conjugated by a random invertible matrix
    rng = random.Random(78)
    for ctx in (F2, F5, Q, F9):
        x = Poly.x(ctx)
        c = random_elem(ctx, rng, bound=3)
        cases = [([x - c] * n) for n in (1, 3, 8)]
        for parts in ((1, 1), (2, 2, 1), (3, 3, 2), (2, 2, 2, 2), (1, 1, 1, 5)):
            cases.append([(x - 1) ** a for a in parts])
        for factors in cases:
            M = block_diag([companion(d) for d in factors])
            U = random_invertible(ctx, M.nrows, rng, bound=2)
            expected = tuple(sorted(factors, key=lambda d: d.degree))
            assert _check_frobenius(M) == expected
            assert _check_frobenius(U.inverse() * M * U) == expected


def test_frobenius_form_similarity_invariance():
    rng = random.Random(19)
    for _ in range(10):
        A = random_matrix(F5, 4, rng)
        U = random_invertible(F5, 4, rng)
        B = U.inverse() * A * U
        assert frobenius_form(A).invariant_factors == frobenius_form(B).invariant_factors


def test_empty_column_list_is_a_size_mismatch():
    # as for Matrix(ctx, []) and block_diag([])
    with pytest.raises(SizeMismatch):
        Matrix.from_columns(Q, [])


# -- the elimination core against references that do not use it --


def _rand_matrix(ctx, m, n, rng):
    return Matrix(ctx, [[random_elem(ctx, rng, bound=3) for _ in range(n)] for _ in range(m)])


def _rand_maybe_singular(ctx, n, rng):
    """Random square matrix; for n >= 3 about one in three gets its third
    row replaced by a combination of the first two, so singular inputs
    occur over Q too."""
    A = _rand_matrix(ctx, n, n, rng)
    if n < 3 or rng.randrange(3):
        return A
    rows = [list(r) for r in A.rows]
    a, b = random_elem(ctx, rng, bound=3), random_elem(ctx, rng, bound=3)
    rows[2] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return Matrix(ctx, rows)


def _leibniz_det(A):
    n = A.nrows
    total = A.ctx.zero
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = A.ctx.one
        for i, j in enumerate(perm):
            term = term * A.rows[i][j]
        total = total - term if inversions % 2 else total + term
    return total


def _vectors(ctx, n):
    return [tuple(v) for v in itertools.product(list(ctx.elements()), repeat=n)]


def _in_rref_span(R, pivots, v):
    """v == sum v[pivot_r] * R_r: row-space membership read off the shape."""
    acc = [R.ctx.zero] * R.ncols
    for r, pc in enumerate(pivots):
        acc = [a + v[pc] * x for a, x in zip(acc, R.rows[r])]
    return tuple(acc) == tuple(v)


def test_det_matches_leibniz():
    rng = random.Random(101)
    for ctx in FIELDS:
        for _ in range(12):
            A = _rand_maybe_singular(ctx, rng.randrange(1, 5), rng)
            assert A.det() == _leibniz_det(A)


def test_rank_and_nullity_match_enumeration():
    rng = random.Random(102)
    for ctx in (F2, F3):
        for _ in range(12):
            m, n = rng.randrange(1, 4), rng.randrange(1, 5)
            A = _rand_matrix(ctx, m, n, rng)
            null = {v for v in _vectors(ctx, n) if all(e.is_zero() for e in A.apply(v))}
            ker = A.kernel()
            spanned = set()
            for cs in itertools.product(list(ctx.elements()), repeat=len(ker)):
                v = [ctx.zero] * n
                for c, k in zip(cs, ker):
                    v = [x + c * y for x, y in zip(v, k)]
                spanned.add(tuple(v))
            assert spanned == null
            assert len(null) == ctx.order() ** (n - A.rank())
            image = {A.apply(v) for v in _vectors(ctx, n)}
            for b in _vectors(ctx, m):
                x = A.solve_right(b)
                assert (x is None) == (b not in image)
                if x is not None:
                    assert A.apply(x) == b


def test_rref_canonical_shape():
    rng = random.Random(103)
    for ctx in FIELDS:
        for _ in range(10):
            A = _rand_matrix(ctx, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            R, pivots = A.rref()
            assert R.shape == A.shape
            assert list(pivots) == sorted(set(pivots))
            for r, row in enumerate(R.rows):
                if r >= len(pivots):
                    assert all(c.is_zero() for c in row)
                    continue
                assert all(c.is_zero() for c in row[: pivots[r]])
                assert row[pivots[r]].is_one()
                assert all(R.rows[k][pivots[r]].is_zero() for k in range(R.nrows) if k != r)
            assert R.rref() == (R, pivots)
            assert all(_in_rref_span(R, pivots, row) for row in A.rows)


def test_inverse_and_solve_round_trips():
    rng = random.Random(104)
    for ctx in FIELDS:
        for _ in range(6):
            n = rng.randrange(1, 5)
            A = random_invertible(ctx, n, rng, bound=3)
            Ainv = A.inverse()
            assert A * Ainv == Matrix.identity(ctx, n)
            assert Ainv * A == Matrix.identity(ctx, n)
            x = tuple(random_elem(ctx, rng, bound=3) for _ in range(n))
            assert A.solve_right(A.apply(x)) == x


def test_echelon_dependencies_rebuild_modulo_seeds():
    rng = random.Random(105)
    for ctx in FIELDS:
        for _ in range(8):
            width = rng.randrange(2, 6)
            # untagged inserts, which dependencies are taken modulo
            seeds = [[random_elem(ctx, rng, bound=3) for _ in range(width)] for _ in range(rng.randrange(3))]
            ech = _Echelon(ctx, width)
            for s in seeds:
                ech.insert([c.val for c in s])
            originals = {}
            for t in range(rng.randrange(1, width + 1)):
                v = [random_elem(ctx, rng, bound=3) for _ in range(width)]
                if ech.insert([c.val for c in v], tag=t) is None:
                    originals[t] = v
            # a combination of the independent tagged inserts plus seed noise
            coeffs = {t: random_elem(ctx, rng, bound=3) for t in originals}
            vec = [ctx.zero] * width
            for t, a in coeffs.items():
                vec = [x + a * y for x, y in zip(vec, originals[t])]
            noise = [ctx.zero] * width
            for s in seeds:
                b = random_elem(ctx, rng, bound=3)
                noise = [x + b * y for x, y in zip(noise, s)]
            vec = [x + y for x, y in zip(vec, noise)]
            expected = {t: a.val for t, a in coeffs.items() if not a.is_zero()}
            # a span shares the bookkeeping, so it reports the same dependency
            assert ech.span().insert([c.val for c in vec], tag="probe") == expected
            dep = ech.insert([c.val for c in vec], tag="probe")
            assert dep == expected
            rebuilt = list(noise)
            for t, c in dep.items():
                rebuilt = [x + ctx.coerce(c) * y for x, y in zip(rebuilt, originals[t])]
            assert rebuilt == vec


def test_frobenius_checks_survive_python_O():
    script = (
        "import sys\n"
        "from centtype import Matrix, VerificationError, exactmat, rationals\n"
        "orig = exactmat.companion\n"
        "exactmat.companion = lambda f: orig(f + 1)\n"
        "try:\n"
        "    exactmat.frobenius_form(Matrix(rationals(), [[1, 2], [3, 4]]))\n"
        "except VerificationError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
    )
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.stdout.split()[:2] == ["raised", "1"], proc.stdout + proc.stderr


# -- payload products against boxed references --


def _boxed_product(A, B):
    """Rows of A * B as sums of a_ik * b_kj in FieldElem arithmetic."""
    out = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            s = A.ctx.zero
            for k in range(A.ncols):
                s = s + A.rows[i][k] * B.rows[k][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def test_payload_products_match_boxed_reference():
    rng = random.Random(106)
    F7 = prime_field(7)
    for ctx in (F2, F5, Q, F9):
        for _ in range(8):
            m, k, n = (rng.randrange(1, 5) for _ in range(3))
            A, B = _rand_matrix(ctx, m, k, rng), _rand_matrix(ctx, k, n, rng)
            AB = A * B
            assert AB.shape == (m, n)
            assert AB.rows == _boxed_product(A, B)
            v = [random_elem(ctx, rng, bound=3) for _ in range(k)]
            column = Matrix(ctx, [[c] for c in v])
            assert A.apply(v) == tuple(r[0] for r in _boxed_product(A, column))
            with pytest.raises(SizeMismatch):
                A.apply(v + [ctx.one])
            with pytest.raises(CtxMismatch):
                A.apply([F7.one] * k)
            # internally built matrices box their entries and equal, and
            # hash like, the public constructor's matrix of the same entries
            S = random_invertible(ctx, m, rng, bound=3)
            for M in (AB, A.transpose(), A.rref()[0], S.inverse()):
                twin = Matrix(ctx, [[c.val for c in r] for r in M.rows])
                assert M == twin and hash(M) == hash(twin)
                assert M.rows == twin.rows
                assert all(isinstance(c, FieldElem) and c.ctx == ctx for r in M.rows for c in r)
            assert A.transpose().rows == tuple(zip(*A.rows))
            assert S * S.inverse() == Matrix.identity(ctx, m)


class _CoerceAndBoxCounter:
    """Counts PrimeField.coerce calls and FieldElem constructions (boxings),
    each by the first calling module outside exactfield."""

    def __enter__(self):
        self.coerced = collections.Counter()
        self.boxed = collections.Counter()
        self._coerce, self._init = PrimeField.coerce, FieldElem.__init__
        coerce, init = self._coerce, self._init

        def counting_coerce(ctx, v):
            self.coerced[_caller()] += 1
            return coerce(ctx, v)

        def counting_init(elem, ctx, val):
            self.boxed[_caller()] += 1
            init(elem, ctx, val)

        PrimeField.coerce, FieldElem.__init__ = counting_coerce, counting_init
        return self

    def __exit__(self, *exc):
        PrimeField.coerce, FieldElem.__init__ = self._coerce, self._init

    def take(self):
        """(coerced, boxed) counted since the last take, then reset."""
        out = (dict(self.coerced), dict(self.boxed))
        self.coerced.clear()
        self.boxed.clear()
        return out


def _caller():
    frame = sys._getframe(2)
    while frame.f_globals.get("__name__") == "centtype.exactfield":
        frame = frame.f_back
    return frame.f_globals.get("__name__")


def test_products_and_frobenius_form_do_not_recoerce():
    """A product coerces nothing at all; frobenius_form coerces nothing
    from exactmat or upoly; centralizer_basis neither coerces nor boxes;
    every count repeats exactly on a second run."""
    from centtype.centkit import centralizer_basis

    x = Poly(F5, [0, 1])
    d1 = x + 1
    d2 = d1 * (x**2 + 2)
    d3 = d2 * (x + 3)
    rng = random.Random(107)
    U = random_invertible(F5, 8, rng)
    A = U.inverse() * block_diag([companion(d1), companion(d2), companion(d3)]) * U
    B = random_matrix(F5, 8, rng)
    with _CoerceAndBoxCounter() as counter:
        A * B
        assert not counter.take()[0]
        ff = frobenius_form(A)
        first = counter.take()
        again = frobenius_form(A)
        second = counter.take()
        basis = centralizer_basis(A)
        cent_first = counter.take()
        centralizer_basis(A)
        cent_second = counter.take()
    assert ff.invariant_factors == (d1, d2, d3) and again == ff
    coerced = first[0]
    assert "centtype.exactmat" not in coerced and "centtype.upoly" not in coerced
    assert first == second
    assert basis.dim == 1 + 3 + 4 + 2 * (1 + 1 + 3)
    assert cent_first == ({}, {}) and cent_second == ({}, {})


def test_extension_products_and_frobenius_form_coerce_nothing():
    """Extension payloads are tuples of base payloads, so F9 arithmetic
    never coerces a base element: an F9 product and frobenius_form over
    F9 make no PrimeField.coerce call at all."""
    rng = random.Random(109)
    A, B = random_matrix(F9, 8, rng), random_matrix(F9, 8, rng)
    with _CoerceAndBoxCounter() as counter:
        AB = A * B
        product = counter.take()
        ff = frobenius_form(A)
        first = counter.take()
    assert AB.rows == _boxed_product(A, B)
    assert product == ({}, {}) and first[0] == {}
    assert sum(f.degree for f in ff.invariant_factors) == 8


def test_internal_polys_match_public_constructor():
    """Polynomials built by arithmetic on payloads equal, hash like and
    box to the same coefficients as Poly(ctx, same values), and agree
    with the same arithmetic done on FieldElems."""
    rng = random.Random(108)
    for ctx in (F2, F5, Q, F9):
        x = Poly.x(ctx)
        for _ in range(12):
            f = Poly(ctx, [random_elem(ctx, rng, bound=3) for _ in range(rng.randrange(0, 6))])
            g = Poly(ctx, [random_elem(ctx, rng, bound=3) for _ in range(rng.randrange(1, 5))])
            c = random_elem(ctx, rng, bound=3)
            made = [f + g, f - g, g - g, (f + g) - g, 1 - f, -f, f * g, f * c, f * ctx.zero]
            made += [f.derivative(), f.compose(g), f**2, Poly.one(ctx), Poly.zero(ctx), x]
            if not g.is_zero():
                q, r = divmod(f, g)
                made += [q, r, g.monic()]
                assert q * g + r == f and r.degree < g.degree
            for h in made:
                twin = Poly(ctx, [c.val for c in h.coeffs])
                assert h == twin and hash(h) == hash(twin) and h.coeffs == twin.coeffs
                assert h.key() == twin.key() and h.degree == twin.degree
                assert all(isinstance(e, FieldElem) and e.ctx == ctx for e in h.coeffs)
                assert not h.coeffs or not h.coeffs[-1].is_zero()
            # boxed references: convolution and Horner on FieldElems
            conv = [ctx.zero] * (len(f.coeffs) + len(g.coeffs))
            for i, a in enumerate(f.coeffs):
                for j, b in enumerate(g.coeffs):
                    conv[i + j] = conv[i + j] + a * b
            assert f * g == Poly(ctx, conv)
            acc = ctx.zero
            for a in reversed(f.coeffs):
                acc = acc * c + a
            assert f(c) == acc
            assert (g - g).is_zero() and (f + g) - g == f
        # the order and conductor polynomials frobenius_form builds
        M = random_matrix(ctx, 4, rng, bound=3)
        for d in frobenius_form(M).invariant_factors:
            twin = Poly(ctx, [c.val for c in d.coeffs])
            assert d == twin and hash(d) == hash(twin) and d.coeffs == twin.coeffs


def test_frobenius_scan_stops_once_the_quotient_is_spanned(monkeypatch):
    """The unit-vector scan skips vectors inside the span already
    reached and stops when that span is everything, and each generator's
    Krylov work is done once, by `_coset_order`, whose echelon becomes
    the kept basis.  The counts are every `_Echelon.insert` and every
    matrix-vector product of the call, the 2n products of the check
    A Q = Q F included."""
    from centtype import exactmat

    x = Poly.x(F5)
    f = x**10 + 3 * x**7 + x**3 + 2 * x + 1
    d1 = x + 1
    C, M = companion(f), block_diag([companion(d1), companion(d1 * f)])
    counts = collections.Counter()
    coset_order, insert, matvec = exactmat._coset_order, exactmat._Echelon.insert, PrimeField._matvec

    def counting_order(*args):
        counts["coset_order"] += 1
        return coset_order(*args)

    def counting_insert(self, vec, tag=None):
        counts["insert"] += 1
        return insert(self, vec, tag)

    def counting_matvec(self, rows, vec):
        counts["matvec"] += 1
        return matvec(self, rows, vec)

    monkeypatch.setattr(exactmat, "_coset_order", counting_order)
    monkeypatch.setattr(exactmat._Echelon, "insert", counting_insert)
    monkeypatch.setattr(PrimeField, "_matvec", counting_matvec)
    assert frobenius_form(C).invariant_factors == (f,)
    # e_0 into the scan, then its chain: 11 inserts and 10 products
    assert counts == {"coset_order": 1, "insert": 12, "matvec": 30}
    counts.clear()
    assert frobenius_form(M).invariant_factors == (d1, d1 * f)
    # round 1: e_0 (order x + 1, 1 + 2 inserts, 1 product), then e_1
    # (order (x + 1) f, 1 + 12 inserts, 11 products, 10 chain vectors into
    # the scan); round 2: e_0 again, now modulo e_1's chain (1 + 2, 1)
    assert counts == {"coset_order": 3, "insert": 29, "matvec": 37}


@pytest.mark.parametrize(
    "rows, splits, factors, basis, seen",
    [
        # round 2 corrects the scanned e_1 to e_0 + e_1
        (
            [[0, 0, 0], [0, 0, 0], [1, 1, 0]],
            0,
            ["x", "x^2"],
            [["1", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]],
            [[1, 0, 0], [0, 1, 0], [0, 1, 0], [1, 1, 0]],
        ),
        # round 1 combines e_0 and e_1 by the lcm split, round 2 corrects e_2
        (
            [[0, 0, 0], [0, 1, 1], [0, 0, 0]],
            1,
            ["x", "x^2 + x"],
            [["1", "1", "1"], ["1", "1", "0"], ["0", "1", "0"]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 0, 1], [1, 1, 1]],
        ),
    ],
    ids=["corrected", "combined"],
)
def test_frobenius_rounds_rerun_the_order_only_of_changed_generators(monkeypatch, rows, splits, factors, basis, seen):
    """`_coset_order` sees each scanned unit vector once per round, and
    again only a generator that the lcm split or the conductor correction
    changed, once it is changed: its echelon and chain then replace the
    unit vector's."""
    from centtype import exactmat

    orders, split_calls = [], []
    coset_order, lcm_split = exactmat._coset_order, exactmat._lcm_coprime_split

    def recording_order(A, u, basis, tag):
        orders.append(list(u))
        return coset_order(A, u, basis, tag)

    def recording_split(f, g):
        split_calls.append((f, g))
        return lcm_split(f, g)

    monkeypatch.setattr(exactmat, "_coset_order", recording_order)
    monkeypatch.setattr(exactmat, "_lcm_coprime_split", recording_split)
    A = Matrix(F2, rows)
    ff = frobenius_form(A)
    assert orders == seen
    assert len(split_calls) == splits
    assert [str(f) for f in ff.invariant_factors] == factors
    assert [[str(c) for c in col] for col in zip(*ff.basis.rows)] == basis
    assert ff.basis.inverse() * A * ff.basis == ff.form


def test_frobenius_refuses_a_generator_chain_that_depends_on_itself(monkeypatch):
    """An order of too high a degree claims more vectors than its chain
    holds: on a cyclic matrix the form's certificate refuses it, and on a
    corrected generator the rerun's order differs from the conductor."""
    from centtype import exactmat
    from centtype.errors import VerificationError

    coset_order = exactmat._coset_order
    x = Poly.x(F5)

    def inflated(A, u, basis, tag):
        g, chain, ech, rest = coset_order(A, u, basis, tag)
        return g * x, chain, ech, rest

    monkeypatch.setattr(exactmat, "_coset_order", inflated)
    with pytest.raises(VerificationError, match="canonical form verification failed"):
        frobenius_form(companion(x**3 + 2 * x + 1))

    def inflated_rerun(A, u, basis, tag):
        g, chain, ech, rest = coset_order(A, u, basis, tag)
        if sorted(u) != [0, 0, 1]:  # not a unit vector
            g = g * Poly.x(A.ctx)
        return g, chain, ech, rest

    monkeypatch.setattr(exactmat, "_coset_order", inflated_rerun)
    # round 2 corrects e_1 to e_0 + e_1, as in the test above
    with pytest.raises(VerificationError, match="corrected generator changed order"):
        frobenius_form(Matrix(F2, [[0, 0, 0], [0, 0, 0], [1, 1, 0]]))
    # round 1 combines e_0 and e_1 by the lcm split
    with pytest.raises(VerificationError, match="combined generator changed order"):
        frobenius_form(Matrix(F2, [[0, 0, 0], [0, 1, 1], [0, 0, 0]]))


def _derogatory(ctx, rng):
    """A seeded derogatory matrix: the companions of f^k, repeated and
    nested, and of g = f + 1, g^2, f g and f^2 g, which keep the
    invariant factors apart, in shuffled order and conjugated by a random
    invertible U.  Half the time U is a permuted unit upper-triangular
    matrix with n entries off the diagonal, so that unit vectors of
    coprime orders meet in one round and the lcm split runs."""
    f = random_monic(ctx, rng.randint(1, 2), rng, bound=3)
    polys = [f**k for k in rng.choice(([1, 1, 2], [1, 2, 2], [1, 1, 3], [2, 3]))]
    polys += [f + 1, (f + 1) ** 2, f * (f + 1), f**2 * (f + 1)][: rng.randint(1, 4)]
    rng.shuffle(polys)
    M = block_diag([companion(h) for h in polys])
    n = M.nrows
    if rng.random() < 0.5:
        U = random_invertible(ctx, n, rng, bound=3)
    else:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(n):
            i, j = sorted(rng.sample(range(n), 2))
            rows[i][j] = random_elem(ctx, rng, bound=3)
        rng.shuffle(rows)
        U = Matrix(ctx, rows)
    return U.inverse() * M * U


# sha256 over repr((invariant factor payloads, basis payloads)) of the
# Frobenius forms of six `_derogatory` matrices per field of FIELDS
FROBENIUS_EXPECTED = "684d7aa5108ec6ea1d23a73340dc0c8c222197798a9dd11b398e9a176dd130dd"


def test_frobenius_forms_hash_as_recorded(monkeypatch):
    """The invariant factors and the Krylov basis of each form stay the
    same across changes to `frobenius_form`; the expected hash was
    recorded at an earlier commit.  Over every field the lcm split runs,
    and the conductor correction, which alone adds `_poly_apply` calls to
    the two of each split, runs too."""
    from centtype import exactmat

    calls = collections.Counter()
    lcm_split, poly_apply = exactmat._lcm_coprime_split, exactmat._poly_apply

    def counting_split(f, g):
        calls["split"] += 1
        return lcm_split(f, g)

    def counting_apply(f, A, u):
        calls["apply"] += 1
        return poly_apply(f, A, u)

    monkeypatch.setattr(exactmat, "_lcm_coprime_split", counting_split)
    monkeypatch.setattr(exactmat, "_poly_apply", counting_apply)
    rng = random.Random(34)
    h = hashlib.sha256()
    for ctx in FIELDS:
        calls.clear()
        for _ in range(6):
            ff = frobenius_form(_derogatory(ctx, rng))
            h.update(repr((tuple(d._vals for d in ff.invariant_factors), ff.basis._vals)).encode())
        assert calls["apply"] > 2 * calls["split"] > 0, (ctx.short_name(), calls)
    assert h.hexdigest() == FROBENIUS_EXPECTED


def test_echelon_span_shares_the_write_once_rows_and_bookkeeping():
    """A span holds the parent's row objects, bookkeeping and leads, an
    insert into either echelon leaves the other as it was, and no stored
    row, the parent's or the span's, is written after its insert,
    whatever is inserted into either echelon or read off `reduced`."""
    stored = []  # (stored row, deep copy taken at its insert)

    def insert(ech, vec, tag=None):
        dep = ech.insert(vec, tag=tag)
        if dep is None:
            stored.append((ech.rows[-1], copy.deepcopy(ech.rows[-1])))
        return dep

    ech = _Echelon(F5, 4)
    for t, v in enumerate(([1, 2, 0, 0], [0, 1, 4, 0])):
        assert insert(ech, v, tag=t) is None
    span = ech.span()
    assert span.rows is not ech.rows and span.leads is not ech.leads
    assert all(s is e for s, e in zip(span.rows, ech.rows)) and span.leads == ech.leads == [1, 1]
    assert span.insert([1, 3, 4, 0]) == ech.insert([1, 3, 4, 0]) == {0: 1, 1: 1}
    assert insert(span, [0, 0, 1, 0], tag="new") is None
    # 3 * (1, 2, 0, 0) + 2 * (0, 0, 1, 0), over the parent's tag and the span's
    assert insert(span, [3, 1, 2, 0], tag="dep") == {0: 3, "new": 2}
    # the span's insert left the parent as it was
    assert ech.span().insert([3, 1, 2, 0]) is None and len(ech.rows) == len(ech.leads) == 2
    # the second shared row is nonzero at column 2, which is a pivot of
    # both echelons from here on; a reduced form would clear it there
    assert insert(ech, [0, 0, 2, 1]) is None
    assert insert(ech, [0, 1, 0, 0], tag=2) is None
    assert insert(span, [1, 1, 1, 1], tag="late") is None
    assert ech.insert([1, 3, 4, 0]) == span.insert([1, 3, 4, 0]) == {0: 1, 1: 1}
    assert len(ech.leads) == len(ech.rows) == len(span.leads) == len(span.rows) == 4
    assert ech.reduced() == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}}
    assert ech.reduced() == span.reduced()
    assert len(stored) == 6
    assert all(row == snapshot for row, snapshot in stored)


# -- kernels read off the echelon, and the stored Krylov basis --


def _rref_kernel(A):
    """Right null space by the free-column construction on Matrix.rref:
    for each free column j, e_j minus column j of the reduced form placed
    at the pivot columns."""
    red, pivots = A.rref()
    ctx = A.ctx
    out = []
    for j in range(A.ncols):
        if j in pivots:
            continue
        vec = [ctx.zero] * A.ncols
        vec[j] = ctx.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.entry(r, j)
        out.append(tuple(vec))
    return tuple(out)


def test_kernel_matches_the_rref_free_column_construction():
    rng = random.Random(31)
    for ctx in FIELDS:
        cases = [Matrix.zero(ctx, 3, 5), Matrix.zero(ctx, 1), Matrix.identity(ctx, 4)]
        cases.append(random_invertible(ctx, 4, rng, bound=3))
        wide = random_invertible(ctx, 3, rng, bound=3)
        cases.append(Matrix(ctx, [r + r[:2] for r in wide.rows]))  # full row rank
        cases.append(Matrix(ctx, list(wide.rows) + [wide.rows[0]]))  # full column rank
        for _ in range(12):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            cases.append(_rand_matrix(ctx, m, n, rng))
            cases.append(_rand_maybe_singular(ctx, n, rng))
        for A in cases:
            ker = A.kernel()
            assert ker == _rref_kernel(A)
            assert len(ker) == A.ncols - A.rank()
            for v in ker:
                assert all(e == ctx.zero for e in A.apply(v))


def _frobenius_cases(rng):
    """Scalar, cyclic, derogatory and random matrices over every field,
    each as given and conjugated by a random invertible matrix."""
    for ctx in FIELDS:
        x = Poly.x(ctx)
        c = random_elem(ctx, rng, bound=3)
        cases = [Matrix.identity(ctx, 3) * c, companion((x - c) ** 3)]
        cases.append(block_diag([companion(x - c), companion((x - c) ** 2), companion(x**2 + 1)]))
        cases.extend(random_matrix(ctx, n, rng, bound=3) for n in (1, 2, 4, 5))
        for M in cases:
            U = random_invertible(ctx, M.nrows, rng, bound=2)
            yield M
            yield U.inverse() * M * U


def test_frobenius_basis_carries_a_onto_its_form():
    for A in _frobenius_cases(random.Random(32)):
        ff = frobenius_form(A)
        assert A * ff.basis == ff.basis * ff.form
        assert ff.basis.inverse() * A * ff.basis == ff.form


def test_frobenius_form_inverts_nothing(monkeypatch):
    """The form is checked by A Q = Q F; only the conjugator of a
    positive pair inverts a basis, once."""
    from centtype import centralizers_conjugate

    calls = []
    inverse = Matrix.inverse

    def counted(M):
        calls.append(M)
        return inverse(M)

    rng = random.Random(34)
    cases = list(_frobenius_cases(rng))
    X = random_matrix(F5, 4, rng)
    S = random_invertible(F5, 4, rng)
    Y = S.inverse() * X * S
    monkeypatch.setattr(Matrix, "inverse", counted)
    for A in cases:
        frobenius_form(A)
    assert calls == []
    assert centralizers_conjugate(X, Y).conjugate
    assert len(calls) == 1
    del calls[:]
    assert not centralizers_conjugate(X, companion(Poly.x(F5) ** 4)).conjugate
    assert calls == []


def test_form_conjugator_check_catches_a_wrong_basis():
    from dataclasses import replace

    from centtype.errors import VerificationError
    from centtype.exactmat import _form_conjugator

    rng = random.Random(33)
    A = random_matrix(F5, 4, rng)
    U = random_invertible(F5, 4, rng)
    B = U.inverse() * A * U
    fa, fb = frobenius_form(A), frobenius_form(B)
    S = _form_conjugator(A, fa, B, fb)
    assert S.inverse() * A * S == B
    with pytest.raises(VerificationError):
        _form_conjugator(A, replace(fa, basis=Matrix.identity(F5, 4)), B, fb)


_M2, _M3 = Matrix.identity(F5, 2), Matrix.identity(F5, 3)
_N1 = Matrix(F3, [[1]])

GUARDS = [
    ("sum across shapes", lambda: _M2 + _M3, SizeMismatch, "sum of (2, 2) and (3, 3) matrices"),
    ("sum across fields", lambda: Matrix(F5, [[1]]) + _N1,
     CtxMismatch, "sum over different fields"),
    ("product across shapes", lambda: _M2 * _M3, SizeMismatch, "product of (2, 2) and (3, 3)"),
    ("product across fields", lambda: Matrix(F5, [[1]]) * _N1,
     CtxMismatch, "product over different fields"),
    ("solve with a short right-hand side", lambda: _M2.solve_right([1]),
     SizeMismatch, "rhs of length 1 for (2, 2)"),
    ("block_diag of nothing", lambda: block_diag([]), SizeMismatch, "no blocks"),
    ("block_diag across fields", lambda: block_diag([_M2, _N1]),
     CtxMismatch, "blocks over different fields"),
    ("evaluate across fields", lambda: mat_eval_poly(Poly(F3, [1, 1]), _M2),
     CtxMismatch, "polynomial and matrix over different fields"),
    ("columns shorter after the first", lambda: Matrix.from_columns(F5, [[1, 2], [3]]),
     SizeMismatch, "ragged columns"),
    ("columns longer after the first", lambda: Matrix.from_columns(F5, [[1], [2, 3]]),
     SizeMismatch, "ragged columns"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
