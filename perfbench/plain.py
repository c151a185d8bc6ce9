"""Plain exact arithmetic on lists, independent of centtype.

The input generator and the answer checker use these helpers, so that
neither the benchmark's inputs nor its verdicts depend on the code under
test.  The field is F_p for a prime ``p``; entries are ints in [0, p).
Polynomials are coefficient lists, constant term first, with no trailing
zeros.  Matrices are lists of rows.
"""

from __future__ import annotations


def red(v, p):
    return v % p


def inv(v, p):
    return pow(v, -1, p)


# -- polynomials --


def ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return ptrim(red(c, p) for c in out)


def ppow(a, k, p):
    out = [1]
    for _ in range(k):
        out = pmul(out, a, p)
    return out


def has_root_mod(f, p):
    return any(sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0 for x in range(p))


# -- matrices --


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B, p):
    bt = list(zip(*B))
    return [[red(sum(x * y for x, y in zip(row, col)), p) for col in bt] for row in A]


def mat_add(A, B, p):
    return [[red(x + y, p) for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, c, p):
    return [[red(c * x, p) for x in row] for row in A]


def mat_eval(f, A, p):
    """f(A) by Horner's rule."""
    n = len(A)
    acc = [[0] * n for _ in range(n)]
    for c in reversed(f):
        acc = mat_add(mat_mul(acc, A, p), mat_scale(identity(n), c, p), p)
    return acc


def det(A, p):
    rows = [list(r) for r in A]
    n = len(rows)
    out = 1
    for c in range(n):
        sel = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if sel is None:
            return 0
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            out = -out
        out = red(out * rows[c][c], p)
        piv = inv(rows[c][c], p)
        for i in range(c + 1, n):
            f = red(rows[i][c] * piv, p)
            if f:
                rows[i] = [red(a - f * b, p) for a, b in zip(rows[i], rows[c])]
    return red(out, p)


def companion(f, p):
    """Companion matrix of a monic polynomial: subdiagonal ones, last column -f."""
    n = len(f) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = red(-f[i], p)
    return rows


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def conjugate_by_transvections(B, ops, p):
    """E B E^-1 for E the product of transvections I + c e_ab, applied in order.

    Each (a, b, c) adds c times row b to row a, then subtracts c times
    column a from column b, so the result is similar to B.
    """
    M = [list(r) for r in B]
    n = len(M)
    for a, b, c in ops:
        M[a] = [red(x + c * y, p) for x, y in zip(M[a], M[b])]
        for i in range(n):
            M[i][b] = red(M[i][b] - c * M[i][a], p)
    return M
