import collections
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
    minpoly,
    prime_field,
    rationals,
)
from centtype.construct import random_elem, random_invertible, random_matrix
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


def test_charpoly_minpoly():
    C = companion(Poly(Q, [-2, 0, 1]))
    assert _charpoly(C) == Poly(Q, [-2, 0, 1])
    assert minpoly(C) == Poly(Q, [-2, 0, 1])
    # scalar matrix: charpoly (x-c)^n, minpoly x-c
    S = Matrix(Q, [[3, 0], [0, 3]])
    assert _charpoly(S) == Poly(Q, [-3, 1]) ** 2
    assert minpoly(S) == Poly(Q, [-3, 1])
    with pytest.raises(NotSquare):
        minpoly(Matrix(Q, [[1, 2, 3], [4, 5, 6]]))


def test_minpoly_divides_charpoly():
    rng = random.Random(31)
    for ctx in (Q, F2, F5):
        for _ in range(20):
            A = random_matrix(ctx, rng.randrange(1, 5), rng)
            cp = _charpoly(A)
            mp = minpoly(A)
            assert (cp % mp).is_zero()
            assert mat_eval_poly(mp, A).is_zero_matrix()


def test_companion():
    f = Poly(F5, [2, 3, 0, 1])
    C = companion(f)
    assert C.shape == (3, 3)
    assert _charpoly(C) == f
    assert minpoly(C) == f
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
    P = ff.transform
    assert P * A * P.inverse() == ff.form
    assert ff.invariant_factors[-1] == minpoly(A)
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
            assert ech.express([c.val for c in vec]) == expected
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
    reached and stops when that span is everything, and reuses the
    Krylov chain of a scanned generator that nothing changed: on a
    companion matrix, one `_coset_order` call for one scanned vector."""
    from centtype import exactmat

    calls = []
    orig = exactmat._coset_order

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(exactmat, "_coset_order", counting)
    x = Poly.x(F5)
    f = x**10 + 3 * x**7 + x**3 + 2 * x + 1
    assert frobenius_form(companion(f)).invariant_factors == (f,)
    assert len(calls) == 1
    del calls[:]
    d1 = x + 1
    M = block_diag([companion(d1), companion(d1 * f)])
    assert frobenius_form(M).invariant_factors == (d1, d1 * f)
    assert len(calls) == 3


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


def test_frobenius_basis_inverts_the_transform():
    rng = random.Random(32)
    for ctx in FIELDS:
        x = Poly.x(ctx)
        c = random_elem(ctx, rng, bound=3)
        cases = [Matrix.identity(ctx, 3) * c, companion((x - c) ** 3)]
        cases.append(block_diag([companion(x - c), companion((x - c) ** 2), companion(x**2 + 1)]))
        cases.extend(random_matrix(ctx, n, rng, bound=3) for n in (1, 2, 4, 5))
        for M in cases:
            U = random_invertible(ctx, M.nrows, rng, bound=2)
            for A in (M, U.inverse() * M * U):
                ff = frobenius_form(A)
                assert ff.basis * ff.transform == Matrix.identity(ctx, A.nrows)
                assert ff.transform * A * ff.basis == ff.form


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
     SizeMismatch, "sum of (1, 1) and (1, 1) matrices"),
    ("product across shapes", lambda: _M2 * _M3, SizeMismatch, "product of (2, 2) and (3, 3)"),
    ("product across fields", lambda: Matrix(F5, [[1]]) * _N1,
     SizeMismatch, "product over different fields"),
    ("solve with a short right-hand side", lambda: _M2.solve_right([1]),
     SizeMismatch, "rhs of length 1 for (2, 2)"),
    ("block_diag of nothing", lambda: block_diag([]), SizeMismatch, "no blocks"),
    ("block_diag across fields", lambda: block_diag([_M2, _N1]),
     SizeMismatch, "blocks over different fields"),
    ("evaluate across fields", lambda: mat_eval_poly(Poly(F3, [1, 1]), _M2),
     SizeMismatch, "polynomial and matrix over different fields"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
