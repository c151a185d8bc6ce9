"""Certificate JSON stays byte-identical across changes to the witness
pipeline, every positive certificate passes the span check on
conjugated centralizer bases, and its printed JSON checks with plain
list arithmetic alone.

The inputs are the first conj-fp benchmark queries of two seeds, built by
`perfbench/gen.py`, which never imports centtype.  The expected hash was
recorded at an earlier commit; a change here is a change of the
byte-stable CLI output and must be made on purpose.
"""

import hashlib
import json
import os
import re
import sys
from fractions import Fraction

from centtype import centralizer_basis, centralizers_conjugate
from centtype.centkit import _span_rref
from centtype.serialize import certificate_to_json, matrix_from_json

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import gen  # noqa: E402
import plain  # noqa: E402

# sha256 over the certificate JSON of queries 0..59 of seeds 1 and 3, one
# line each, in the compact sorted form the CLI prints
EXPECTED = "ea48c35975322385baad8964cd95357cb1347876f541e5faba2458cbf62fd55f"


def test_conj_fp_certificates_hash_as_recorded():
    h = hashlib.sha256()
    for seed in (1, 3):
        for q in gen.generate("conj-fp", seed)[:60]:
            d = json.loads(q.doc)
            cert = centralizers_conjugate(matrix_from_json(d["x"]), matrix_from_json(d["y"]), seed=0)
            h.update(json.dumps(certificate_to_json(cert), sort_keys=True, separators=(",", ":")).encode())
            h.update(b"\n")
    assert h.hexdigest() == EXPECTED


def _doc(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _golden(name):
    return matrix_from_json(_doc(name))


def test_positive_certificates_conjugate_the_centralizer_spans():
    """Oracle for the dimension argument of `centralizers_conjugate`:
    U^-1 Cent(X) U and Cent(Y) have the same canonical row space."""
    pairs = [
        (_golden("f5_x.json"), _golden("f5_y.json")),
        (_golden("q_sqrt2.json"), _golden("q_sqrt8.json")),
        (_golden("f9_x.json"), _golden("f9_y.json")),
    ]
    for seed in (1, 3):
        for q in gen.generate("conj-fp", seed)[:60]:
            d = json.loads(q.doc)
            pairs.append((matrix_from_json(d["x"]), matrix_from_json(d["y"])))
    positives = 0
    for X, Y in pairs:
        cert = centralizers_conjugate(X, Y, seed=0)
        if not cert.conjugate:
            continue
        positives += 1
        U = cert.conjugator
        Uinv = U.inverse()
        moved = [Uinv * B * U for B in centralizer_basis(X).matrices]
        assert _span_rref(X.ctx, moved) == _span_rref(Y.ctx, centralizer_basis(Y).matrices)
    assert positives == 3 + 40 + 40


# -- the printed certificate, checked with plain arithmetic --

_TERM = re.compile(r"(-?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?$")


def _plain_poly(text):
    """Fraction coefficients, constant term first, of '3x^2 - x + 1/2'."""
    coeffs = {}
    for term in text.replace(" ", "").replace("-", "+-").split("+"):
        if term:
            sign, num, xs, exp = _TERM.match(term).groups()
            k = 0 if xs is None else int(exp or 1)
            coeffs[k] = coeffs.get(k, 0) + Fraction(num or 1) * (-1 if sign else 1)
    return [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]


def _plain_matrix(doc, red):
    if "rows" in doc:
        return [[red(v) for v in row] for row in doc["rows"]]
    f = [red(c) for c in _plain_poly(doc["companion"])]
    n = len(f) - 1
    return [[red(i == j + 1) if j < n - 1 else red(-f[i]) for j in range(n)] for i in range(n)]


def _q_mul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)] for row in A]


def _q_eval(f, A):
    n = len(A)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(f):
        acc = _q_mul(acc, A)
        for i in range(n):
            acc[i][i] += c
    return acc


def _q_det(A):
    rows = [list(r) for r in A]
    out = Fraction(1)
    for c in range(len(rows)):
        sel = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            rows[c], rows[sel] = rows[sel], rows[c]
            out = -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            t = rows[i][c] / rows[c][c]
            rows[i] = [a - t * b for a, b in zip(rows[i], rows[c])]
    return out


def _check_plain(xdoc, ydoc, cert):
    """U invertible, p(X) U = U Y and X U = U q(Y), from the JSON alone:
    plain's helpers mod p over F_p, Fraction lists over Q."""
    field = cert["conjugator"]["field"]
    if field["kind"] == "Fp":
        p = field["p"]

        def red(v):
            v = Fraction(v)
            return v.numerator * pow(v.denominator, -1, p) % p

        def mul(A, B):
            return plain.mat_mul(A, B, p)

        def ev(f, A):
            return plain.mat_eval(f, A, p)

        def det(A):
            return plain.det(A, p)

    else:
        assert field["kind"] == "Q"
        red, mul, ev, det = Fraction, _q_mul, _q_eval, _q_det
    X, Y = _plain_matrix(xdoc, red), _plain_matrix(ydoc, red)
    U = _plain_matrix(cert["conjugator"], red)
    p_, q_ = [red(c) for c in cert["p"]], [red(c) for c in cert["q"]]
    assert det(U) != 0
    assert mul(ev(p_, X), U) == mul(U, Y)
    assert mul(X, U) == mul(U, ev(q_, Y))


def test_positive_certificates_check_with_plain_arithmetic():
    """X U = U q(Y) holds because q is p's inverse under composition
    modulo the minimal polynomial of X.  The F3 pair has lambda = (3) and
    p = r, where an inverse modulo f alone would fail the product."""
    docs = [
        (_doc("f5_x.json"), _doc("f5_y.json")),
        (_doc("q_sqrt2.json"), _doc("q_sqrt8.json")),
        (_doc("f3_x.json"), _doc("f3_y.json")),
    ]
    for seed in (1, 3):
        for q in gen.generate("conj-fp", seed)[:60]:
            d = json.loads(q.doc)
            docs.append((d["x"], d["y"]))
    positives = 0
    for xdoc, ydoc in docs:
        cert = centralizers_conjugate(matrix_from_json(xdoc), matrix_from_json(ydoc), seed=0)
        printed = json.loads(json.dumps(certificate_to_json(cert), sort_keys=True))
        if printed["conjugate"]:
            positives += 1
            _check_plain(xdoc, ydoc, printed)
    assert positives == 3 + 40 + 40
