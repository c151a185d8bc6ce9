"""Certificate JSON stays byte-identical across changes to the witness
pipeline, and every positive certificate passes the span check on
conjugated centralizer bases.

The inputs are the first conj-fp benchmark queries of two seeds, built by
`perfbench/gen.py`, which never imports centtype.  The expected hash was
recorded at an earlier commit; a change here is a change of the
byte-stable CLI output and must be made on purpose.
"""

import hashlib
import json
import os
import sys

from centtype import centralizer_basis, centralizers_conjugate
from centtype.centkit import _span_rref
from centtype.serialize import certificate_to_json, matrix_from_json

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import gen  # noqa: E402

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


def _golden(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", name)
    with open(path, encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


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
