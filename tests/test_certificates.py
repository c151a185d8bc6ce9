"""Certificate JSON stays byte-identical across changes to the witness
pipeline.

The inputs are the first conj-fp benchmark queries of two seeds, built by
`perfbench/gen.py`, which never imports centtype.  The expected hash was
recorded at an earlier commit; a change here is a change of the
byte-stable CLI output and must be made on purpose.
"""

import hashlib
import json
import os
import sys

from centtype import centralizers_conjugate
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
