"""Random matrices and polynomials for the verification suites and tests.

Everything takes an explicit `random.Random` so runs are reproducible
from a single seed.  Over Q entries stay single-digit before
conjugation; exact arithmetic keeps everything honest afterwards.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import TooLarge, UnsupportedField
from .exactfield import RationalField, random_elem
from .exactmat import Matrix, block_diag, companion
from .typealg import Partition, partitions_of
from .upoly import Poly, is_irreducible


def random_matrix(ctx, n, rng, bound=9):
    return Matrix(
        ctx, [[random_elem(ctx, rng, bound) for _ in range(n)] for _ in range(n)]
    )


def random_invertible(ctx, n, rng, bound=9):
    for _ in range(5000):
        m = random_matrix(ctx, n, rng, bound)
        if m.rank() == n:
            return m
    raise TooLarge("failed to draw an invertible %dx%d matrix" % (n, n))


def random_monic(ctx, d, rng, bound=9):
    coeffs = [random_elem(ctx, rng, bound) for _ in range(d)]
    coeffs.append(ctx.one)
    return Poly(ctx, coeffs)


def random_irreducible(ctx, d, rng, bound=9):
    for _ in range(10000):
        f = random_monic(ctx, d, rng, bound)
        if is_irreducible(f, seed=rng.getrandbits(32)):
            return f
    raise TooLarge("failed to draw an irreducible of degree %d" % d)


def random_partition(size, rng):
    return rng.choice(list(partitions_of(size)))


def primary_matrix(f, lam, rng, conjugate=True):
    """A matrix of cycle type f^lam, optionally randomly conjugated."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    m = block_diag([companion(f**part) for part in lam.parts])
    if conjugate:
        u = random_invertible(f.ctx, m.nrows, rng, bound=2)
        m = u * m * u.inverse()
    return m


# Over Q, pairs of irreducibles with a root of one rational in the
# other: scaled square roots and additive shifts.
_Q_SCALE_FAMILIES = ((-2, (1, 4, 9)), (-3, (1, 4)), (1, (1, 4)), (-5, (1, 4)))
_Q_SHIFT_BASES = (
    (-2, 0, 1),  # x^2 - 2
    (-3, 0, 1),  # x^2 - 3
    (1, 0, 1),  # x^2 + 1
    (-1, -1, 1),  # x^2 - x - 1
    (-2, 0, 0, 1),  # x^3 - 2
    (-1, -1, 0, 1),  # x^3 - x - 1
)


def equivalent_pair(ctx, rng):
    """Two irreducibles over ctx lying in the same root-exchange class."""
    if ctx.is_finite():
        d = rng.randint(1, 3)
        return random_irreducible(ctx, d, rng), random_irreducible(ctx, d, rng)
    if not isinstance(ctx, RationalField):
        raise UnsupportedField("no equivalent-pair catalog for %r" % (ctx,))
    if rng.random() < 0.5:
        c, squares = rng.choice(_Q_SCALE_FAMILIES)
        k2 = rng.choice(squares)
        f = Poly(ctx, [Fraction(c), Fraction(0), Fraction(1)])
        g = Poly(ctx, [Fraction(c * k2), Fraction(0), Fraction(1)])
        return f, g
    f = Poly(ctx, [Fraction(v) for v in rng.choice(_Q_SHIFT_BASES)])
    shift = Poly(ctx, [Fraction(rng.choice((-2, -1, 1, 2))), Fraction(1)])
    return f, f.compose(shift)
