"""Conversion between library objects and plain JSON-ready values.

Polynomials serialize as coefficient arrays, constant term first, in
the element encoding of their field ("a/b" strings over Q, residues
over F_p, coefficient vectors over extensions).  Matrices carry their
field descriptor.  A small text form like "x^2 - 2" is accepted for
polynomials over Q and prime fields.

Input polynomials (text or coefficient arrays) are capped at degree
`MAX_INPUT_DEGREE`, checked before any coefficient list is built: a
companion matrix of degree d has d^2 entries, so without the cap a
document of a few bytes such as {"companion": "x^100000"} would exhaust
memory.  A larger degree raises TooLarge; a number too long for Python's
integer-string conversion limit raises ParseError.  `make_field` reads
'Q', 'F<p>' or a field descriptor; `field_from_descriptor` reads a
descriptor in one walk, the same for library and CLI callers.  It
collects the moduli from the top and checks every cap before any field
is built, since every modulus is factored over the level below: the
tower depth at `MAX_TOWER_DEPTH`, each modulus at degree
`MAX_INPUT_DEGREE`, the product of the degrees at `QF_DEGREE_CAP` over
Q and, for two or more levels, at 256 over F_p.  Then it builds the
levels from the bottom up.  Permutations are
capped likewise at degree `MAX_PERM_DEGREE`, checked on the cycle
points, the image array and the requested degree before any image list
is built; a negative degree is a ParseError.  Each point of cycle text
is converted to int once, by `parse_cycles`, and checked once, by the
checks of `Permutation.from_cycles`; the largest point, found for the
cap, is passed on rather than found again.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, SizeMismatch, TooLarge
from .exactfield import (
    FieldCtx,
    elem_from_json,
    elem_to_json,
    extension_field,
    prime_field,
    rationals,
)
from .exactmat import Matrix, companion
from .permcent import Permutation, _index, parse_cycles
from .upoly import Poly, _check_qf_cap

_TERM = re.compile(r"(-)?([0-9]+(?:/[0-9]+)?)?(x(?:\^([0-9]+))?)?")

MAX_INPUT_DEGREE = 512

# A permutation of degree n holds an n-long image list and its cycles:
# `centtype perm "(1 N)" "(1 N)"` took 0.22 s and 58 MB at N = 10^5,
# 2.55 s and 406 MB at N = 10^6 and 7.3 s and 1.19 GB at N = 3*10^6, so
# the 13-byte "(1 100000000)" would need about 40 GB.
MAX_PERM_DEGREE = 100000

# Each level of an extension tower is built over the one below and its
# modulus is factored there.  `mtype` on [[1]] (2-core x86_64, CPython
# 3.11) over F2 extended by x^2 + x + 1 and then by x^2 + y x + 1 at each
# level (y the generator below) took 0.6 s at depth 6, 3.0 s at depth 7
# and over 40 s at depth 9; with x + 1 at every level, 0.4 s at depth 10,
# 2.7 s at depth 12 and over 60 s at depth 50.
MAX_TOWER_DEPTH = 6

# Over F_p that cost grows with the absolute degree: `mtype` on [[1]] over
# F2 < F4 < a degree-255 level took 39.6 s.  A single level keeps the
# MAX_INPUT_DEGREE cap: it is factored with the prime field's int kernels.
_MAX_FP_TOWER_DEGREE = 256


def _check_cap(what, value, cap):
    if value > cap:
        raise TooLarge("%s %d exceeds the cap %d" % (what, value, cap))


def parse_poly_text(ctx, text):
    """Parse '3x^2 - x + 1/2' into a Poly over ctx."""
    s = text.replace(" ", "").replace("**", "^").replace("*", "")
    if not s:
        raise ParseError("empty polynomial text")
    s = s.replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs = {}
    for term in s.split("+"):
        m = _TERM.fullmatch(term)
        if not m or not term:
            raise ParseError("bad polynomial term %r in %r" % (term, text))
        sign, digits, xpart, exp_s = m.groups()
        if digits is None and xpart is None:
            raise ParseError("bad polynomial term %r in %r" % (term, text))
        try:
            coef = Fraction(digits) if digits is not None else Fraction(1)
            exp = 0 if xpart is None else (1 if exp_s is None else int(exp_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError("bad number in polynomial text: %s" % exc) from exc
        if sign:
            coef = -coef
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + coef
    top = max(coeffs)
    _check_cap("input polynomial of degree", top, MAX_INPUT_DEGREE)
    vals = [coeffs.get(i, Fraction(0)) for i in range(top + 1)]
    try:
        return Poly(ctx, [ctx.elem(v) for v in vals])
    except (TypeError, ValueError) as exc:
        raise ParseError("cannot coerce %r over %s" % (text, ctx.short_name())) from exc


def poly_to_json(p):
    return [elem_to_json(c) for c in p.coeffs]


def poly_from_json(ctx, val):
    if isinstance(val, str):
        return parse_poly_text(ctx, val)
    if isinstance(val, (list, tuple)):
        _check_cap("input polynomial of degree", len(val) - 1, MAX_INPUT_DEGREE)
        return Poly(ctx, [elem_from_json(ctx, v) for v in val])
    raise ParseError("polynomial must be a coefficient array or text, got %r" % (val,))


def matrix_to_json(m):
    return {
        "field": m.ctx.descriptor(),
        "rows": [[elem_to_json(e) for e in row] for row in m.rows],
    }


def make_field(spec):
    """Build a field from 'Q', 'F<p>', or a JSON descriptor dict."""
    if isinstance(spec, FieldCtx):
        return spec
    if isinstance(spec, str):
        s = spec.strip()
        if s in ("Q", "q"):
            return rationals()
        body = s[1:].lstrip("_")
        if s.startswith("F") and body.isascii() and body.isdigit():
            try:
                p = int(body)
            except ValueError as exc:  # over the integer-string digit limit
                raise ParseError("prime in field spec too long: %s" % exc) from exc
            return prime_field(p)
        raise ParseError("unrecognized field spec %r" % spec)
    if isinstance(spec, dict):
        return field_from_descriptor(spec)
    raise ParseError("unrecognized field spec %r" % (spec,))


def field_from_descriptor(d):
    """Build the field of a JSON descriptor in one walk: collect the moduli
    from the top, check every cap, read the bottom field, then build each
    level over the one below."""
    moduli = []
    while isinstance(d, dict) and d.get("kind") == "ext":
        moduli.append(d.get("modulus"))
        d = d.get("base")
    _check_cap("extension tower of depth", len(moduli), MAX_TOWER_DEPTH)
    degree = 1
    for mod in moduli:
        if isinstance(mod, list):
            _check_cap("field modulus of degree", len(mod) - 1, MAX_INPUT_DEGREE)
            degree *= max(len(mod) - 1, 1)  # a shorter list is a ParseError below
    if not isinstance(d, dict) or "kind" not in d:
        raise ParseError("bad field descriptor %r" % (d,))
    if d["kind"] == "Q":
        _check_qf_cap(degree)
        K = rationals()
    elif d["kind"] == "Fp":
        if len(moduli) > 1:
            _check_cap("extension tower over F_p of degree", degree, _MAX_FP_TOWER_DEGREE)
        p = d.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise ParseError("bad prime in descriptor %r" % (d,))
        K = prime_field(p)
    else:
        raise ParseError("unknown field kind %r" % (d["kind"],))
    for mod in reversed(moduli):
        if not isinstance(mod, list) or len(mod) < 2:
            raise ParseError("bad extension modulus %r" % (mod,))
        K = extension_field(K, [elem_from_json(K, c) for c in mod])
    return K


def matrix_from_json(obj):
    if not isinstance(obj, dict) or "field" not in obj:
        raise ParseError("matrix JSON must be an object with a 'field' key")
    if "companion" in obj and "rows" in obj:
        raise ParseError("matrix JSON has both 'companion' and 'rows'")
    ctx = make_field(obj["field"])
    if "companion" in obj:
        return companion(poly_from_json(ctx, obj["companion"]))
    rows = obj.get("rows")
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError("matrix JSON needs a nonempty 'rows' array of arrays")
    try:
        return Matrix(ctx, [[elem_from_json(ctx, v) for v in row] for row in rows])
    except (TypeError, SizeMismatch) as exc:
        raise ParseError("bad matrix rows: %s" % exc) from exc


def cycle_type_to_json(t):
    return [
        {"poly": poly_to_json(f), "partition": list(lam.parts)} for f, lam in t.entries
    ]


def green_type_to_json(t):
    return [{"degree": d, "partition": list(lam.parts)} for d, lam in t.entries]


def generalized_type_to_json(t):
    return [
        {"class_rep": poly_to_json(f), "partition": list(lam.parts)}
        for f, lam in t.entries
    ]


def certificate_to_json(cert):
    out = {
        "conjugate": cert.conjugate,
        "generalized_type_x": generalized_type_to_json(cert.gentype_x),
        "generalized_type_y": generalized_type_to_json(cert.gentype_y),
        "p": None if cert.p is None else poly_to_json(cert.p),
        "q": None if cert.q is None else poly_to_json(cert.q),
        "conjugator": None if cert.conjugator is None else matrix_to_json(cert.conjugator),
    }
    return out


def variation_report_to_json(rep):
    return {
        "equal": rep.equal,
        "kind": rep.kind,
        "variation": list(rep.variation),
        "details": rep.details,
    }


def permutation_from_text(val, n=None):
    if n is not None:
        n = _index(n, "degree")
        _check_cap("permutation degree", n, MAX_PERM_DEGREE)
    if isinstance(val, str):
        cycles = parse_cycles(val)
        # parse_cycles gives nonempty tuples of ints
        top = max(map(max, cycles), default=0)
        _check_cap("permutation degree", top, MAX_PERM_DEGREE)
        return Permutation._from_cycles(cycles, n, top)
    if isinstance(val, (list, tuple)):
        _check_cap("permutation degree", len(val), MAX_PERM_DEGREE)
        p = Permutation(val)
        return p if n is None else p.extend(n)
    raise ParseError("permutation must be cycle text or an image array")


def verify_report_to_json(rep):
    """Report without the elapsed time, so output is byte-stable."""
    return {
        "suite": rep.suite,
        "seed": rep.seed,
        "scale": rep.scale,
        "instances_checked": rep.instances_checked,
        "failures": list(rep.failures),
    }
