"""Command-line front end.

Subcommands: mtype (type invariants of a matrix), centconj (conjugacy
of two centralizer algebras with witnesses), perm (equality of
permutation centralizers in S_n or A_n), verify (named acceptance
suites).  Machine-readable JSON goes to stdout, always, including
error objects; human diagnostics go to stderr.  Exit codes: 0 for
success or a positive verdict, 1 for a clean negative verdict, 2 for
parse errors, 3 for unsupported fields, 4 for other domain errors, 5
for any other exception (InternalError, traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .centkit import centralizers_conjugate
from .errors import ExactAlgebraError, ParseError, UnsupportedField
from .permcent import an_cent_equal, sn_cent_equal
from .serialize import (
    certificate_to_json,
    cycle_type_to_json,
    generalized_type_to_json,
    green_type_to_json,
    matrix_from_json,
    permutation_from_text,
    variation_report_to_json,
    verify_report_to_json,
)
from .typealg import cycle_type
from .verify import run_suite, suite_names


def _emit(obj, fmt):
    if fmt == "pretty":
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_json_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a number over the integer-string digit limit,
        # or arrays nested deeper than the decoder's recursion limit
        raise ParseError("bad JSON in %s: %s" % (path, exc)) from exc


def _cmd_mtype(args):
    m = matrix_from_json(_load_json_file(args.matrix))
    ct = cycle_type(m, seed=args.seed)
    out = {
        "field": m.ctx.descriptor(),
        "n": m.nrows,
        "cycle_type": cycle_type_to_json(ct),
        "green_type": green_type_to_json(ct.green()),
        "generalized_type": generalized_type_to_json(ct.generalized()),
    }
    return out, 0


def _cmd_centconj(args):
    x = matrix_from_json(_load_json_file(args.x))
    y = matrix_from_json(_load_json_file(args.y))
    cert = centralizers_conjugate(x, y, seed=args.seed)
    return certificate_to_json(cert), 0 if cert.conjugate else 1


def _cmd_perm(args):
    g = permutation_from_text(args.g, n=args.n)
    h = permutation_from_text(args.h, n=args.n)
    n = max(g.degree, h.degree)
    g, h = g.extend(n), h.extend(n)
    decide = sn_cent_equal if args.group == "sn" else an_cent_equal
    rep = decide(g, h)
    return variation_report_to_json(rep), 0 if rep.equal else 1


def _cmd_verify(args):
    rep = run_suite(args.suite, seed=args.seed, scale=args.scale, jobs=args.jobs)
    print(
        "suite %s: %d checked, %d failures, %.3fs"
        % (rep.suite, rep.instances_checked, len(rep.failures), rep.elapsed),
        file=sys.stderr,
    )
    return verify_report_to_json(rep), 0 if rep.passed else 1


def _add_common(sp, seeded=True):
    if seeded:
        sp.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sp.add_argument(
        "--format",
        choices=("json", "pretty"),
        default="json",
        help="output layout (default compact json)",
    )


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="centtype",
        description="Type invariants of matrices and conjugacy of their "
        "centralizer algebras; permutation-centralizer decisions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mtype", help="cycle, Green, and generalized type of a matrix")
    p.add_argument("matrix", help="JSON file: {field, rows} or {field, companion}")
    _add_common(p)
    p.set_defaults(fn=_cmd_mtype)

    p = sub.add_parser("centconj", help="decide conjugacy of two centralizers")
    p.add_argument("x", help="JSON file for the first matrix")
    p.add_argument("y", help="JSON file for the second matrix")
    _add_common(p)
    p.set_defaults(fn=_cmd_centconj)

    p = sub.add_parser("perm", help="equality of permutation centralizers")
    p.add_argument("g", help="first permutation, cycle notation like '(1 2)(3 4)'")
    p.add_argument("h", help="second permutation")
    p.add_argument("--group", choices=("sn", "an"), default="sn")
    p.add_argument("--n", type=int, default=None, help="degree (default: inferred)")
    _add_common(p, seeded=False)
    p.set_defaults(fn=_cmd_perm)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="one of: %s" % ", ".join(suite_names()))
    p.add_argument("--scale", type=int, default=None, help="suite-specific size cap")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        out, code = args.fn(args)
    except ExactAlgebraError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.format)
        return 2 if isinstance(exc, ParseError) else 3 if isinstance(exc, UnsupportedField) else 4
    except Exception as exc:
        traceback.print_exc()
        _emit({"error": {"type": "InternalError", "message": repr(exc)}}, args.format)
        return 5
    _emit(out, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
