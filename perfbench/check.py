"""Answer checks, run after the timed loop.

Every answer is compared with what the input construction guarantees,
using the plain arithmetic in `plain` rather than centtype:

* conj-fp: the verdict matches the construction; a positive certificate
  has an invertible conjugator U with p(X) U = U Y.
* perm-decide: at degree <= 8 the verdict agrees with brute-force
  centralizers (the `oracle` argument), above that with the
  construction; the theorem branch (`kind`) always matches it.
"""

from __future__ import annotations

import json

import plain


def check_conj(expect, out):
    if out["conjugate"] != expect["conjugate"]:
        return "verdict %s, construction says %s" % (out["conjugate"], expect["conjugate"])
    if not expect["conjugate"]:
        return None
    p, X, Y = expect["p"], expect["X"], expect["Y"]
    U = [[v % p for v in row] for row in out["conjugator"]["rows"]]
    poly = plain.ptrim(c % p for c in out["p"])
    if len(U) != len(X) or plain.det(U, p) == 0:
        return "conjugator is not invertible"
    if plain.mat_mul(plain.mat_eval(poly, X, p), U, p) != plain.mat_mul(U, Y, p):
        return "p(X) U != U Y"
    return None


def check_perm(expect, out, oracle):
    g, h, group = expect["g"], expect["h"], expect["group"]
    equal = expect["equal"]
    if len(g) <= 8:
        equal = oracle(g, group) == oracle(h, group)
    if out["equal"] != equal:
        return "verdict %s, expected %s" % (out["equal"], equal)
    if out["kind"] != expect["kind"]:
        return "kind %s, construction says %s" % (out["kind"], expect["kind"])
    return None


def checker(workload, oracle=None):
    """Function (expect, output text) -> None when right, else a reason."""
    fn = {
        "conj-fp": check_conj,
        "perm-decide": lambda e, o: check_perm(e, o, oracle),
    }[workload]

    def check(expect, text):
        try:
            return fn(expect, json.loads(text))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return "malformed answer: %r" % (exc,)

    return check


def tally(queries, outcome, check):
    """Failed attempts and the first few reasons, from a loop's outcome.

    An attempt fails when it raised, when its output differs from the
    first output of the same query, or when that first output is wrong.
    """
    failed = len(outcome.errors) + outcome.unstable
    reasons = [("raised", j, msg) for j, msg in outcome.errors[:5]]
    for j, text in enumerate(outcome.first):
        if text is None:
            continue
        why = check(queries[j].expect, text)
        if why is not None:
            failed += outcome.same[j]
            if len(reasons) < 10:
                reasons.append(("wrong", j, why))
    return failed, reasons
