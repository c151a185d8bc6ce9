"""Smoke tests for the benchmark's answer checker and tracer.

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

ct = run.import_centtype()


def _outcome(workload, queries, flip=None):
    """Run each query once; optionally flip one answer's verdict field."""
    query = run.make_query(workload, ct)
    out = run.run_loop(queries, run.untraced(query), len(queries), len(queries), limit=len(queries))
    if flip is not None:
        j, key = flip
        doc = json.loads(out.first[j])
        doc[key] = not doc[key]
        out.first[j] = json.dumps(doc)
    return out


def _failed(workload, queries, outcome):
    return check.tally(queries, outcome, check.checker(workload, run.make_oracle(ct)))


def test_flipped_perm_verdict_is_counted():
    queries = gen.generate("perm-decide", 7)[:10]
    assert _failed("perm-decide", queries, _outcome("perm-decide", queries))[0] == 0
    failed, reasons = _failed("perm-decide", queries, _outcome("perm-decide", queries, (3, "equal")))
    assert failed == 1
    assert reasons[0][:2] == ("wrong", 3)


def test_flipped_conjugacy_verdict_is_counted():
    queries = [q for q in gen.generate("conj-fp", 7)[:40] if len(q.expect["X"]) == 4][:4]
    assert _failed("conj-fp", queries, _outcome("conj-fp", queries))[0] == 0
    failed, _ = _failed("conj-fp", queries, _outcome("conj-fp", queries, (0, "conjugate")))
    assert failed == 1


def test_raised_and_unstable_answers_are_counted():
    queries = gen.generate("perm-decide", 7)[:10]
    calls = []

    def flaky(doc):
        calls.append(doc)
        if len(calls) == 2:
            raise ValueError("boom")
        return "{}" if len(calls) > 10 else run.make_query("perm-decide", ct)(doc)

    out = run.run_loop(queries, run.untraced(flaky), len(queries), 20, limit=20)
    failed, _ = _failed("perm-decide", queries, out)
    assert out.attempted == 20 and len(out.errors) == 1
    # the raise, the 9 second-pass answers that differ from the first, and
    # the query whose only answer was "{}"
    assert failed == 1 + 9 + 1


def test_tracer_sees_calls_bound_in_other_modules():
    queries = [q for q in gen.generate("conj-fp", 7)[:40] if len(q.expect["X"]) == 4][:2]
    tracer = spans.Tracer(ct)
    call, walls = run.paired(run.make_query("conj-fp", ct), tracer)
    out = run.run_loop(queries, call, 2, 2, limit=2)
    assert out.errors == [] and walls[0] > 0 and walls[1] > 0
    # centkit and typealg call frobenius_form through their own bindings
    assert tracer.calls["exactmat.frobenius_form"] >= 4
    assert tracer.calls["centkit.centralizer_basis"] >= 2
    assert tracer.calls["exactmat.rref"] > 0 and tracer.calls["exactmat.matmul"] > 0
    assert ct.typealg.frobenius_form is ct.exactmat.frobenius_form
    assert not hasattr(ct.Matrix.rref, "__wrapped__")
    assert tracer.calls["query"] == 2
    for q, _, parent, t0, t1 in tracer.spans:
        assert t1 >= t0 and parent < len(tracer.spans)
