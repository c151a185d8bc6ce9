"""Exact dense matrices and the rational canonical form.

Matrices are immutable and hold rows of raw field payloads over one
FieldCtx (see below).  On top of the usual arithmetic the module
provides reduced row echelon form, kernels, inverses, determinants, and
`frobenius_form`, which computes invariant factors together with an
explicit change of basis.

A matrix keeps its entries as raw field payloads (ints mod p, Fractions,
or for an extension tuples of base payloads) in `_vals`; `rows` boxes
them as FieldElems on first read and keeps the result, which is safe
because matrices are immutable.  Arithmetic, products and elimination
run on the payloads and box nothing.  The hot loops run through the
context's row kernels: every matrix-vector and matrix-matrix product
through `ctx._matvec`, and every row update of `_Echelon` (the one
elimination loop) and of `_poly_apply` through `ctx._submul` and
`ctx._submul_sparse`, which a prime field runs on plain ints.  Results
computed here are built by `Matrix._from_vals`, which neither coerces
nor boxes, while the public constructor and `Matrix.apply` coerce and
check what they are given.  `Matrix.rref`, `Matrix.det` and `_kernel`
insert the rows into one echelon.  `_kernel` (behind `kernel`) reads the
null space straight off the echelon's sparse reduced rows, one vector
per free column, without building the dense reduced matrix; `inverse`,
`solve_right` and `rank` read `Matrix.rref`.

The canonical form is built by cyclic decomposition: repeatedly find a
vector whose order in the quotient module V/Z is the quotient's minimal
polynomial (combining candidate vectors through a coprime lcm split),
correct it to an honest complement generator, and append its Krylov
chain to the basis.  Dependency bookkeeping runs through `_Echelon`,
which remembers how every reduced row decomposes over the tracked
inserts.  Its polynomial steps need only vectors f(A) u, computed by
Horner's rule on vectors (`_poly_apply`), which `mat_eval_poly` reuses.
One echelon holds the kept Krylov vectors for the whole call, tagged by
chain and power; each round's scan and each `_coset_order` call start
from a copy of its rows (`_Echelon.span`), and the conductor correction
reads chain coefficients off it.  A round scans unit vectors only until
they and the kept chains span V, skipping those already in that span.
The generator's chain is deg f - 1 matrix-vector products away, and it
goes into the echelon once: a dependency there means the correction
changed the order.  Vectors stay payload lists throughout; the Krylov
basis Q is built from them with `_from_vals`, and the form is certified
by the product A Q = Q F, so computing it inverts nothing.  Only the
conjugator between two forms inverts a basis, once.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import NotSquare, SingularMatrix, SizeMismatch, VerificationError
from .exactfield import FieldElem, _power
from .upoly import Poly, poly_gcd


class Matrix:
    """Immutable matrix over a field context: raw payload rows in `_vals`,
    boxed as FieldElem `rows` on first read."""

    __slots__ = ("ctx", "_vals", "_rows")

    def __init__(self, ctx, rows):
        rs = tuple(tuple(ctx.coerce(c) for c in row) for row in rows)
        if not rs or not rs[0]:
            raise SizeMismatch("matrices must have at least one row and column")
        w = len(rs[0])
        if any(len(r) != w for r in rs):
            raise SizeMismatch("ragged rows")
        self.ctx = ctx
        self._rows = rs
        self._vals = tuple(tuple(c.val for c in r) for r in rs)

    @classmethod
    def _from_vals(cls, ctx, vals):
        """Matrix from equal-length rows of canonical payloads of ctx,
        neither coerced nor boxed: for results computed here."""
        m = object.__new__(cls)
        m.ctx = ctx
        m._vals = tuple(map(tuple, vals))
        if not m._vals or not m._vals[0]:
            raise SizeMismatch("matrices must have at least one row and column")
        m._rows = None
        return m

    @property
    def rows(self):
        rs = self._rows
        if rs is None:
            ctx = self.ctx
            rs = self._rows = tuple(tuple(FieldElem(ctx, v) for v in r) for r in self._vals)
        return rs

    # -- constructors --

    @classmethod
    def identity(cls, ctx, n):
        one, zero = ctx.one.val, ctx.zero.val
        return cls._from_vals(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ctx, n, m=None):
        m = n if m is None else m
        return cls._from_vals(ctx, [[ctx.zero.val] * m for _ in range(n)])

    @classmethod
    def from_columns(cls, ctx, cols):
        if not cols:
            raise SizeMismatch("matrices must have at least one row and column")
        if any(len(col) != len(cols[0]) for col in cols):
            raise SizeMismatch("ragged columns")
        return cls(ctx, [[col[i] for col in cols] for i in range(len(cols[0]))])

    # -- shape --

    @property
    def nrows(self):
        return len(self._vals)

    @property
    def ncols(self):
        return len(self._vals[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_square(self):
        return self.nrows == self.ncols

    def _require_square(self):
        if not self.is_square():
            raise NotSquare("%dx%d matrix" % self.shape)

    def entry(self, i, j):
        return FieldElem(self.ctx, self._vals[i][j])

    def transpose(self):
        return Matrix._from_vals(self.ctx, zip(*self._vals))

    def is_zero_matrix(self):
        zero = self.ctx.zero.val
        return all(v == zero for r in self._vals for v in r)

    # -- arithmetic --

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if other.shape != self.shape or other.ctx != self.ctx:
            raise SizeMismatch("sum of %s and %s matrices" % (self.shape, other.shape))
        add = self.ctx._add
        rows = zip(self._vals, other._vals)
        return Matrix._from_vals(self.ctx, [map(add, ra, rb) for ra, rb in rows])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        neg = self.ctx._neg
        return Matrix._from_vals(self.ctx, [map(neg, r) for r in self._vals])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if other.ctx != self.ctx:
                raise SizeMismatch("product over different fields")
            if self.ncols != other.nrows:
                raise SizeMismatch("product of %s and %s" % (self.shape, other.shape))
            ctx = self.ctx
            cols = [ctx._matvec(self._vals, col) for col in zip(*other._vals)]
            return Matrix._from_vals(ctx, zip(*cols))
        return self._scale(other)

    def __rmul__(self, other):
        if isinstance(other, Matrix):
            return NotImplemented
        return self._scale(other)

    def _scale(self, other):
        """other * self for a scalar other."""
        ctx = self.ctx
        try:
            c = ctx.coerce(other).val
        except (TypeError, ValueError):
            return NotImplemented
        return Matrix._from_vals(ctx, [[ctx._mul(c, v) for v in r] for r in self._vals])

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        self._require_square()
        return _power(self, e, Matrix.identity(self.ctx, self.nrows), operator.mul)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of ncols entries."""
        ctx = self.ctx
        vec = [ctx.coerce(v).val for v in vec]
        if len(vec) != self.ncols:
            raise SizeMismatch("vector of length %d under %s" % (len(vec), self.shape))
        return tuple(FieldElem(ctx, v) for v in ctx._matvec(self._vals, vec))

    # -- equality and display --

    def __eq__(self, other):
        if isinstance(other, Matrix):
            return other.ctx == self.ctx and other._vals == self._vals
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx, self._vals))

    def key(self):
        return tuple(tuple(map(self.ctx._key, r)) for r in self._vals)

    def __repr__(self):
        return "Matrix(%s, %s)" % (
            self.ctx.short_name(),
            [list(map(self.ctx._fmt, r)) for r in self._vals],
        )

    # -- elimination --

    def rref(self):
        """(reduced row echelon Matrix, pivot column tuple)."""
        ech = _Echelon(self.ctx, self.ncols)
        for r in self._vals:
            ech.insert(r)
        stored = sorted(ech.rows, key=lambda e: e[0])
        zero = self.ctx.zero.val
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for dense, (_, row, _) in zip(rows, stored):
            for i, v in row.items():
                dense[i] = v
        return Matrix._from_vals(self.ctx, rows), tuple(p for p, _, _ in stored)

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        """Product of the pivots the echelon meets before normalising,
        signed by the order of the pivot columns."""
        self._require_square()
        ctx = self.ctx
        ech = _Echelon(ctx, self.ncols)
        for r in self._vals:
            if ech.insert(r) is not None:
                return ctx.zero
        det = ctx.one.val
        for lead in ech.leads:
            det = ctx._mul(det, lead)
        pivots = [p for p, _, _ in ech.rows]
        inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
        if inversions % 2:
            det = ctx._neg(det)
        return FieldElem(ctx, det)

    def inverse(self):
        self._require_square()
        n = self.nrows
        ident = Matrix.identity(self.ctx, n)
        aug = Matrix._from_vals(self.ctx, [a + b for a, b in zip(self._vals, ident._vals)])
        red, pivots = aug.rref()
        if pivots[:n] != tuple(range(n)):
            raise SingularMatrix("matrix of rank %d" % len([p for p in pivots if p < n]))
        return Matrix._from_vals(self.ctx, [r[n:] for r in red._vals])

    def kernel(self):
        """Basis of the right null space as a tuple of vectors."""
        ctx = self.ctx
        return tuple(tuple(FieldElem(ctx, v) for v in vec) for vec in self._kernel())

    def _kernel(self):
        """Basis of the right null space as payload lists, one per free
        column, read off the echelon rows: the vector of free column j is
        e_j minus, at each row's pivot, that row's entry in column j."""
        ctx = self.ctx
        ech = _Echelon(ctx, self.ncols)
        for r in self._vals:
            ech.insert(r)
        neg = ctx._neg
        pivots = {p for p, _, _ in ech.rows}
        free = {j: _unit_vec(ctx, self.ncols, j) for j in range(self.ncols) if j not in pivots}
        # stored rows are reduced, so every column but the pivot is free
        for p, row, _ in ech.rows:
            for j, v in row.items():
                if j != p:
                    free[j][p] = neg(v)
        return list(free.values())

    def solve_right(self, rhs):
        """One solution x of self * x = rhs, or None if inconsistent."""
        rhs = [self.ctx.coerce(v).val for v in rhs]
        if len(rhs) != self.nrows:
            raise SizeMismatch("rhs of length %d for %s" % (len(rhs), self.shape))
        aug = Matrix._from_vals(self.ctx, [r + (b,) for r, b in zip(self._vals, rhs)])
        red, pivots = aug.rref()
        if pivots and pivots[-1] == self.ncols:
            return None
        x = [self.ctx.zero] * self.ncols
        for r, pc in enumerate(pivots):
            x[pc] = FieldElem(self.ctx, red._vals[r][self.ncols])
        return tuple(x)


def companion(f):
    """Companion matrix of a monic polynomial of degree >= 1."""
    f = f.monic()
    n = f.degree
    if n < 1:
        raise SizeMismatch("companion matrix needs degree >= 1")
    ctx = f.ctx
    zero, one = ctx.zero.val, ctx.one.val
    rows = []
    for i in range(n):
        row = [zero] * n
        if i > 0:
            row[i - 1] = one
        row[n - 1] = ctx._neg(f._vals[i])
        rows.append(row)
    return Matrix._from_vals(ctx, rows)


def block_diag(blocks):
    """Block-diagonal matrix from square blocks over one field."""
    blocks = list(blocks)
    if not blocks:
        raise SizeMismatch("no blocks")
    ctx = blocks[0].ctx
    n = sum(b.nrows for b in blocks)
    rows = [[ctx.zero.val] * n for _ in range(n)]
    off = 0
    for b in blocks:
        b._require_square()
        if b.ctx != ctx:
            raise SizeMismatch("blocks over different fields")
        for i, r in enumerate(b._vals):
            rows[off + i][off : off + b.nrows] = r
        off += b.nrows
    return Matrix._from_vals(ctx, rows)


def _poly_apply(f, A, u):
    """f(A) u for a payload vector u by Horner's rule, one `_matvec` per
    coefficient; a payload list."""
    ctx = A.ctx
    zero, neg = ctx.zero.val, ctx._neg
    acc = [zero] * len(u)
    for c in reversed(f._vals):
        acc = ctx._matvec(A._vals, acc)
        if c != zero:
            ctx._submul(acc, neg(c), enumerate(u))
    return acc


def mat_eval_poly(f, A):
    """f(A), whose columns are the vectors f(A) e_i."""
    A._require_square()
    if f.ctx != A.ctx:
        raise SizeMismatch("polynomial and matrix over different fields")
    n = A.nrows
    cols = [_poly_apply(f, A, _unit_vec(A.ctx, n, i)) for i in range(n)]
    return Matrix._from_vals(A.ctx, zip(*cols))


def matrix_embed(M, L):
    """Entrywise lift of a matrix over K into an extension L of K."""
    return Matrix(L, [[L.embed(c) for c in r] for r in M.rows])


class _Echelon:
    """Row space in reduced echelon form over raw field payloads, with
    dependency bookkeeping.  This is the package's one elimination loop.

    Vectors go in as sequences of payloads (a `Matrix`'s `_vals` rows or
    the payload vectors of `frobenius_form`).  Untracked inserts, and the
    rows a `span` copy starts from, are seeds; tracked inserts carry a
    tag.  Every stored row is kept sparse as {column: payload}, is
    normalised to 1 at its pivot, and remembers its expression over the
    tagged originals modulo the seed span, so `express` can decompose a
    vector over the tracked inserts.
    `leads` holds, in insertion order, each independent insert's pivot
    payload before normalisation.
    """

    def __init__(self, ctx, width):
        self.ctx = ctx
        self.width = width
        self.rows = []  # (pivot index, {column: payload}, {tag: coeff})
        self.leads = []

    def _reduce(self, vec):
        work = list(vec)
        if len(work) != self.width:
            raise SizeMismatch("vector of length %d in width-%d echelon" % (len(work), self.width))
        ctx = self.ctx
        zero, neg, submul, submul_sparse = ctx.zero.val, ctx._neg, ctx._submul, ctx._submul_sparse
        acc = {}
        for pivot, row, combo in self.rows:
            c = work[pivot]
            if c == zero:
                continue
            submul(work, c, row.items())
            if combo:
                submul_sparse(acc, neg(c), combo.items())
        return work, acc

    def insert(self, vec, tag=None):
        """Add a vector.  Returns None if independent, else the
        dependency {tag: coeff} with vec == sum(coeff * original) modulo
        the seed span."""
        work, acc = self._reduce(vec)
        ctx = self.ctx
        zero, submul_sparse = ctx.zero.val, ctx._submul_sparse
        nz = [(i, c) for i, c in enumerate(work) if c != zero]
        if not nz:
            return acc
        piv, lead = nz[0]
        inv = ctx._inv(lead)
        # row_n = work / lead and combo_n = -acc / lead, through the kernel
        row_n, combo_n = {}, {}
        submul_sparse(row_n, ctx._neg(inv), nz)
        submul_sparse(combo_n, inv, acc.items())
        if tag is not None:
            combo_n[tag] = ctx._add(combo_n.get(tag, zero), inv)
        for _, row, combo in self.rows:
            c = row.get(piv)
            if c is None:
                continue
            submul_sparse(row, c, row_n.items())
            if combo_n:
                submul_sparse(combo, c, combo_n.items())
        self.rows.append((piv, row_n, combo_n))
        self.leads.append(lead)
        return None

    def span(self):
        """A new echelon with the same rows and no bookkeeping, so its rows
        act as seeds; inserts into it leave this one as it is."""
        ech = _Echelon(self.ctx, self.width)
        ech.rows = [(p, dict(row), {}) for p, row, _ in self.rows]
        return ech

    def express(self, vec):
        """{tag: coeff} with vec == sum(coeff * original) modulo seeds,
        or None when vec is outside the stored span."""
        work, acc = self._reduce(vec)
        zero = self.ctx.zero.val
        if any(c != zero for c in work):
            return None
        return acc


# -- rational canonical form --


@dataclass(frozen=True)
class FrobeniusForm:
    """Invariant factors d_1 | d_2 | ... | d_k (monic, increasing
    divisibility), the block-companion form, and the invertible `basis`,
    whose columns are the Krylov chains of the cyclic decomposition, with
    A * basis == basis * form; so form == basis.inverse() * A * basis."""

    invariant_factors: tuple
    form: Matrix
    basis: Matrix


def _unit_vec(ctx, n, i):
    """The i-th unit vector of length n as a payload list."""
    v = [ctx.zero.val] * n
    v[i] = ctx.one.val
    return v


def _coset_order(A, u, basis):
    """Order of the coset of the payload vector u in V / span(basis) as a
    module over K[x], for an `_Echelon` basis, which stays as it is.

    Returns (f, chain): f monic with f(A)u in the span, chain the Krylov
    payload vectors u, Au, ..., A^(deg f - 1) u.
    """
    ctx = A.ctx
    ech = basis.span()
    chain = []
    vec = u
    k = 0
    while True:
        dep = ech.insert(vec, tag=k)
        if dep is not None:
            coeffs = [ctx.zero.val] * (k + 1)
            for j, c in dep.items():
                coeffs[j] = ctx._neg(c)
            coeffs[k] = ctx.one.val
            return Poly._from_vals(ctx, coeffs), chain
        chain.append(vec)
        vec = ctx._matvec(A._vals, vec)
        k += 1


def _lcm_coprime_split(f, g):
    """(f1, g1) coprime with f1 | f, g1 | g and f1 * g1 = lcm(f, g)."""
    d = poly_gcd(f, g)
    lcm = ((f * g) // d).monic()
    f1 = (f // d).monic()
    while True:
        h = poly_gcd(f // f1, f1)
        if h.degree == 0:
            break
        f1 = (f1 * h).monic()
    g1 = (lcm // f1).monic()
    if poly_gcd(f1, g1).degree != 0 or not (f1 * g1 - lcm).is_zero():
        raise VerificationError("coprime lcm split failed")
    return f1, g1


def frobenius_form(A):
    """Cyclic decomposition of a square matrix.

    The invariant factors come out monic in increasing divisibility
    order, their companion blocks form `form`, and `basis` carries A onto
    it: A * basis == basis * form.  The check is that product; no inverse
    is formed.
    """
    A._require_square()
    ctx = A.ctx
    n = A.nrows
    zero = ctx.zero.val
    chains = []  # (generator, invariant factor, Krylov chain), largest first
    # the kept Krylov vectors, A^j of the generator of chains[ci] tagged (ci, j)
    basis = _Echelon(ctx, n)
    while len(basis.rows) < n:
        u, f = None, None
        # span of the kept chains and of the Krylov chains of the unit
        # vectors scanned this round: a unit vector inside it lies in the
        # module the scanned ones generate modulo the kept chains, so its
        # order divides f
        scanned = basis.span()
        for i in range(n):
            if len(scanned.rows) == n:
                break
            e = _unit_vec(ctx, n, i)
            if scanned.express(e) is not None:
                continue
            g, chain = _coset_order(A, e, basis)
            for v in chain:
                scanned.insert(v)
            if u is None:
                u, f = e, g
                continue
            if (f % g).is_zero():
                continue
            if (g % f).is_zero():
                u, f = e, g
                continue
            f1, g1 = _lcm_coprime_split(f, g)
            pair = zip(_poly_apply(f // f1, A, u), _poly_apply(g // g1, A, e))
            u = [ctx._add(a, b) for a, b in pair]
            f = f1 * g1
        expr = basis.express(_poly_apply(f, A, u))
        if expr is None:
            raise VerificationError("conductor image escaped the accumulated span")
        for ci, (v, _, kry) in enumerate(chains):
            gi = Poly._from_vals(ctx, [expr.get((ci, j), zero) for j in range(len(kry))])
            if gi.is_zero():
                continue
            q, r = divmod(gi, f)
            if not r.is_zero():
                raise VerificationError("conductor fails to divide a chain coefficient")
            u = [ctx._sub(a, b) for a, b in zip(u, _poly_apply(q, A, v))]
        # f(A) u = 0 now, so a chain of deg f vectors independent of the
        # kept ones makes f the order of u
        chain = [u]
        while len(chain) < f.degree:
            chain.append(ctx._matvec(A._vals, chain[-1]))
        for j, v in enumerate(chain):
            if basis.insert(v, tag=(len(chains), j)) is not None:
                raise VerificationError("corrected generator changed order")
        chains.append((u, f, chain))
    chains.reverse()
    factors = tuple(f for _, f, _ in chains)
    for a, b in zip(factors, factors[1:]):
        if not (b % a).is_zero():
            raise VerificationError("invariant factors fail the divisibility chain")
    cols = []
    for _, _, chain in chains:
        cols.extend(chain)
    Q = Matrix._from_vals(ctx, zip(*cols))
    F = block_diag([companion(f) for f in factors])
    # the n columns of Q are the vectors `basis` accepted as independent,
    # and the loop ends only once it holds n of them, so Q is invertible
    # and A Q = Q F means Q^-1 A Q = F
    if A * Q != Q * F:
        raise VerificationError("canonical form verification failed")
    return FrobeniusForm(factors, F, Q)


def minpoly(A):
    """Minimal polynomial: the largest invariant factor."""
    return frobenius_form(A).invariant_factors[-1]


def similar_conjugator(A, B):
    """S with S.inverse() * A * S == B, or None if A and B are not similar."""
    if A.ctx != B.ctx or A.shape != B.shape:
        return None
    return _form_conjugator(A, frobenius_form(A), B, frobenius_form(B))


def _form_conjugator(A, fa, B, fb):
    """S with S.inverse() * A * S == B, built from the Frobenius forms fa
    of A and fb of B and checked; None when their invariant factors differ.

    S = fa.basis * fb.basis.inverse() is a product of two invertible
    matrices, so A * S == S * B is the whole check.  This is the one place
    a Krylov basis is inverted."""
    if fa.invariant_factors != fb.invariant_factors:
        return None
    S = fa.basis * fb.basis.inverse()
    if A * S != S * B:
        raise VerificationError("conjugator verification failed")
    return S

