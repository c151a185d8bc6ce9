"""Centralizer algebras: bases, conjugacy certificates, witnesses.

The central fact driving this module: the centralizer algebras of X and
Y are conjugate inside GL_n(K) exactly when X and Y have the same
generalized type.  The positive direction is effective, and everything
here returns checkable objects:

  * `centralizer_basis` solves the commutant equation XB = BX exactly,
    as the kernel of its n^2 x n^2 Sylvester matrix, independently of
    the Frobenius form;
  * `witness_polynomials` produces p, q with p(X) similar to Y and
    q(p(X)) = X whenever the generalized types agree;
  * `centralizers_conjugate` turns the witness into a conjugator U with
    U^-1 p(X) U = Y and X U = U q(Y), and proves U^-1 Cent(X) U = Cent(Y)
    from the first plus equal Sylvester-kernel dimensions: every B
    commuting with X commutes with p(X), so U^-1 B U commutes with Y;
    conjugation is injective, so equal dimensions make the two equal.
    Both share one pipeline that forms X, Y and p(X) in Frobenius form once;
  * `cent_conjugate_bruteforce` is an independent oracle that searches
    all of GL_n(F_p) for a conjugator, for small instances.

Witness construction per primary component of type f^lambda matched to
g^lambda via a root r of g in K[x]/(f): write the canonical f^lambda matrix
as S + N.  Then r(S + N) = r(S) + N(r'(S) + N...), so r keeps the
nilpotent type, and p = r works, exactly when lambda has no part above 1
or f does not divide r'.  Otherwise Newton's iteration lifts the root x
of f to the root sigma of f modulo f^max(lambda) (unique by Hensel's
lemma), so sigma(S + N) = S and p = r o sigma + x - sigma evaluates to
r(S) + N, which lands in class g^lambda.  Components are glued by the
Chinese Remainder Theorem.  q is p's inverse under composition modulo
the minimal polynomial of X: Cent(X) lies in Cent(p(X)), and both have
the dimension of Cent(Y), as the types are equal; so they are equal, and
so are their centralizers K[X] and K[p(X)].  So x is a polynomial q in
p, found by one linear solve, and q(Y) = U^-1 q(p(X)) U = U^-1 X U; the
products alone thus give U^-1 Cent(X) U = Cent(Y).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CtxMismatch,
    NonSquarefreeDerivativeUnit,
    NotSquare,
    SingularMatrix,
    SizeMismatch,
    TooLarge,
    VerificationError,
)
from .exactfield import PrimeField, prime_field
from .exactmat import (
    Matrix,
    _form_conjugator,
    frobenius_form,
    mat_eval_poly,
)
from .typealg import _compose_inverse, cycle_type, gentype_matching
from .upoly import Poly, poly_compose_mod, poly_crt, poly_xgcd


# -- centralizer bases --


@dataclass(frozen=True)
class CentralizerBasis:
    """Basis of the algebra of matrices commuting with a fixed matrix."""

    matrices: tuple

    @property
    def dim(self):
        return len(self.matrices)

    def contains(self, M):
        B = self.matrices[0]
        if M.ctx != B.ctx:
            raise CtxMismatch("matrix and centralizer over different fields")
        if M.shape != B.shape:
            raise SizeMismatch("%dx%d matrix against a %dx%d centralizer" % (M.shape + B.shape))
        return len(_span_rref(M.ctx, self.matrices + (M,))) == self.dim


def _span_rref(ctx, mats):
    """Canonical row-space basis of a list of vectorized matrices, as
    payload rows."""
    vecs = [[c for row in M._vals for c in row] for M in mats]
    red, pivots = Matrix._from_vals(ctx, vecs).rref()
    return red._vals[: len(pivots)]


def centralizer_basis(X):
    """Solve XB - BX = 0: basis of the centralizer algebra of X."""
    if not X.is_square():
        raise NotSquare("%dx%d matrix" % X.shape)
    ctx = X.ctx
    n = X.nrows
    xv = X._vals
    zero, neg, sub = ctx.zero.val, ctx._neg, ctx._sub
    negcols = [[neg(c) for c in col] for col in zip(*xv)]
    rows = []
    # bottom-up: the reduced echelon, so the kernel, does not depend on
    # the row order, and this one leaves the least back-substitution.
    # Row (i, j) holds x_ik at (k, j) and -x_lj at (i, l); the two meet
    # at (i, j), which holds x_ii - x_jj
    for i in reversed(range(n)):
        for j in reversed(range(n)):
            row = [zero] * (n * n)
            row[j::n] = xv[i]
            row[i * n : (i + 1) * n] = negcols[j]
            row[i * n + j] = sub(xv[i][i], xv[j][j])
            rows.append(row)
    kernel = Matrix._from_vals(ctx, rows)._kernel()
    mats = tuple(
        Matrix._from_vals(ctx, [vec[r * n : (r + 1) * n] for r in range(n)]) for vec in kernel
    )
    return CentralizerBasis(mats)


def cent_dim(X):
    """Dimension of the centralizer algebra, by solving the commutant
    equation (independent of the partition formula)."""
    return centralizer_basis(X).dim


def cent_span_equal(X, Y):
    """Are Cent(X) and Cent(Y) literally equal as matrix subspaces?"""
    if X.ctx != Y.ctx or X.shape != Y.shape:
        return False
    bx = centralizer_basis(X)
    by = centralizer_basis(Y)
    return _span_rref(X.ctx, bx.matrices) == _span_rref(Y.ctx, by.matrices)


# -- witness polynomials --


def _newton_root(f, m):
    """The root of the squarefree f in K[x]/(m) that Newton's iteration
    reaches from x: the semisimple part of x modulo m."""
    z = Poly.x(f.ctx) % m
    df = f.derivative()
    for _ in range(64):
        val = poly_compose_mod(f, z, m)
        if val.is_zero():
            return z
        g, a, _ = poly_xgcd(poly_compose_mod(df, z, m), m)
        if g.degree != 0:
            raise NonSquarefreeDerivativeUnit(
                "derivative of the squarefree part is not invertible modulo %s" % m
            )
        z = (z - val * a) % m
    raise VerificationError("Newton iteration failed to stabilize")


def _component_witness(f, lam, g, r):
    """Polynomial sending the class f^lam onto the class g^lam."""
    x = Poly.x(f.ctx)
    if f == g:
        return x
    if lam.parts[0] == 1 or not (r.derivative() % f).is_zero():
        return r
    mm = f ** lam.parts[0]
    sigma = _newton_root(f, mm)
    return (poly_compose_mod(r, sigma, mm) + x - sigma) % mm


def _glue_direction(match):
    residues, moduli = [], []
    for (f, lam), (g, _), r in match:
        mc = f ** lam.parts[0]
        residues.append(_component_witness(f, lam, g, r) % mc)
        moduli.append(mc)
    if len(moduli) == 1:
        return residues[0]
    return poly_crt(residues, moduli)


def _witnesses(X, Y, seed):
    """The pipeline of `witness_polynomials` and `centralizers_conjugate`:
    (generalized types of X and Y, (p, q, U) or None when they differ),
    with U^-1 p(X) U = Y and X U = U q(Y).  Each distinct matrix met in
    the call (X, Y, p(X)) is put into Frobenius form once.  Equal types
    force K[p(X)] = K[X], so a q that is None or fails the product is a
    bug, and raises."""
    form = lru_cache(maxsize=None)(frobenius_form)
    gta = cycle_type(form(X), seed=seed).generalized()
    # a type depends on the invariant factors alone
    if form(Y).invariant_factors == form(X).invariant_factors:
        gtb = gta
    else:
        gtb = cycle_type(form(Y), seed=seed).generalized()
    match = gentype_matching(gta, gtb)
    if match is None:
        return gta, gtb, None
    p = _glue_direction(match)
    pX = mat_eval_poly(p, X)
    U = _form_conjugator(pX, form(pX), Y, form(Y))
    if U is None:
        raise VerificationError("p(X) is not similar to Y")
    q = _compose_inverse(p, form(X).invariant_factors[-1])
    if q is None or X * U != U * mat_eval_poly(q, Y):
        raise VerificationError("q(Y) is not similar to X")
    return gta, gtb, (p, q, U)


def witness_polynomials(X, Y, seed=0):
    """(p, q) with p(X) similar to Y and q(p(X)) = X, or None.

    Exists exactly when X and Y have the same generalized type.  q is p's
    inverse under composition modulo the minimal polynomial of X.  Both
    directions are verified by matrix products through one conjugator
    before returning; a failed verification raises VerificationError.
    """
    if X.ctx != Y.ctx:
        raise CtxMismatch("witnesses over different fields")
    if not X.is_square() or X.shape != Y.shape:
        raise SizeMismatch("witnesses need square matrices of equal size")
    witness = _witnesses(X, Y, seed)[2]
    return None if witness is None else witness[:2]


# -- conjugacy of centralizer algebras --


@dataclass(frozen=True)
class ConjugacyCertificate:
    """Decision with evidence.

    When conjugate: U is invertible with p(X) U = U Y and X U = U q(Y).
    q is p's inverse under composition modulo the minimal polynomial of
    X, so X and p(X) are polynomials in each other, and these products
    alone show U^-1 Cent(X) U = Cent(Y).  Before the certificate is
    issued, the span identity is also proved from equal Sylvester-kernel
    dimensions (see the module docstring).  When not conjugate, the two
    generalized types differ and the witness fields are None.
    """

    conjugate: bool
    gentype_x: object
    gentype_y: object
    p: object = None
    q: object = None
    conjugator: object = None


def centralizers_conjugate(X, Y, seed=0):
    """Decide conjugacy of the centralizer algebras and certify it."""
    if X.ctx != Y.ctx:
        raise CtxMismatch("conjugacy over different fields")
    if not X.is_square() or X.shape != Y.shape:
        raise SizeMismatch("conjugacy needs square matrices of equal size")
    gta, gtb, witness = _witnesses(X, Y, seed)
    if witness is None:
        return ConjugacyCertificate(False, gta, gtb)
    p, q, U = witness
    if centralizer_basis(X).dim != centralizer_basis(Y).dim:
        raise VerificationError("centralizers of X and Y differ in dimension")
    return ConjugacyCertificate(True, gta, gtb, p=p, q=q, conjugator=U)


# -- brute-force oracle over small prime fields --


@lru_cache(maxsize=None)
def _gl_with_inverses(p, n):
    ctx = prime_field(p)
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        M = Matrix(ctx, [entries[i * n : (i + 1) * n] for i in range(n)])
        try:
            inv = M.inverse()
        except SingularMatrix:
            continue
        out.append((M, inv))
    return tuple(out)


def cent_conjugate_bruteforce(X, Y):
    """Search all of GL_n(F_p) for U with U^-1 Cent(X) U = Cent(Y).

    Independent of the type machinery.  It keeps every (U, U^-1) pair of
    GL_n(F_p), about 1.4 KB each, so instances with more than 2^16
    candidate matrices are refused before any is enumerated.
    """
    if X.ctx != Y.ctx:
        raise CtxMismatch("conjugacy over different fields")
    if not isinstance(X.ctx, PrimeField):
        raise TooLarge("brute force runs over prime fields only")
    if not X.is_square() or X.shape != Y.shape:
        raise SizeMismatch("conjugacy needs square matrices of equal size")
    p, n = X.ctx.p, X.nrows
    if p ** (n * n) > 1 << 16:
        raise TooLarge("GL_%d(F_%d) enumeration is out of range" % (n, p))
    bx = centralizer_basis(X)
    by = centralizer_basis(Y)
    if bx.dim != by.dim:
        return False
    target = _span_rref(X.ctx, by.matrices)
    for U, Uinv in _gl_with_inverses(p, n):
        moved = [Uinv * B * U for B in bx.matrices]
        if _span_rref(X.ctx, moved) == target:
            return True
    return False
