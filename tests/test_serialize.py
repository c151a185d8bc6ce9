import re
from fractions import Fraction

import pytest

from centtype import (
    Matrix,
    ParseError,
    Permutation,
    Poly,
    ReducibleModulus,
    TooLarge,
    UnsupportedField,
    cycle_type,
    companion,
    field_from_descriptor,
    make_field,
    prime_field,
    rationals,
)
from centtype.serialize import (
    MAX_INPUT_DEGREE,
    MAX_PERM_DEGREE,
    MAX_TOWER_DEPTH,
    cycle_type_to_json,
    generalized_type_to_json,
    green_type_to_json,
    matrix_from_json,
    matrix_to_json,
    parse_poly_text,
    permutation_from_text,
    poly_from_json,
    poly_to_json,
)

Q = rationals()
F3 = prime_field(3)


def test_parse_poly_text():
    assert parse_poly_text(Q, "x^2 - 2") == Poly(Q, [-2, 0, 1])
    assert parse_poly_text(Q, "x**2 - 2") == Poly(Q, [-2, 0, 1])
    assert parse_poly_text(Q, "-x") == Poly(Q, [0, -1])
    assert parse_poly_text(Q, "3/2") == Poly(Q, [Fraction(3, 2)])
    assert parse_poly_text(Q, "2*x^3 + x - 5") == Poly(Q, [-5, 1, 0, 2])
    assert parse_poly_text(Q, "x") == Poly(Q, [0, 1])
    assert parse_poly_text(Q, "0") == Poly(Q, [])
    assert parse_poly_text(F3, "x^2 + 2x + 2") == Poly(F3, [2, 2, 1])
    assert parse_poly_text(Q, "1/2x^2") == Poly(Q, [0, 0, Fraction(1, 2)])


def test_parse_poly_text_rejects_garbage():
    for bad in ("x^", "y + 1", "x^2 ++ 1", "1//2", "x2"):
        with pytest.raises(ParseError):
            parse_poly_text(Q, bad)


def test_poly_json_roundtrip():
    for p in (Poly(Q, [Fraction(-1, 3), 2, 1]), Poly(F3, [1, 2]), Poly(Q, [])):
        assert poly_from_json(p.ctx, poly_to_json(p)) == p
    # text form is accepted too
    assert poly_from_json(Q, "x^2 - 2") == Poly(Q, [-2, 0, 1])


def test_matrix_json_roundtrip():
    M = Matrix(Q, [[Fraction(1, 2), 2], [0, -3]])
    assert matrix_from_json(matrix_to_json(M)) == M
    N = Matrix(F3, [[1, 2], [0, 1]])
    assert matrix_from_json(matrix_to_json(N)) == N


def test_matrix_from_companion_key():
    obj = {"field": {"kind": "Q"}, "companion": "x^2 - 2"}
    assert matrix_from_json(obj) == companion(Poly(Q, [-2, 0, 1]))
    obj2 = {"field": {"kind": "Fp", "p": 3}, "companion": [1, 0, 1]}
    assert matrix_from_json(obj2) == companion(Poly(F3, [1, 0, 1]))
    with pytest.raises(ParseError):
        matrix_from_json({"field": {"kind": "Q"}})


def test_type_json_shapes():
    M = companion(Poly(Q, [-2, 0, 1]))
    ct = cycle_type(M)
    assert cycle_type_to_json(ct) == [{"partition": [1], "poly": ["-2/1", "0/1", "1/1"]}]
    assert green_type_to_json(ct.green()) == [{"degree": 2, "partition": [1]}]
    gj = generalized_type_to_json(ct.generalized())
    assert gj[0]["partition"] == [1]
    assert gj[0]["class_rep"] == ["-2/1", "0/1", "1/1"]


def test_permutation_from_text():
    assert permutation_from_text("(1 2)(3 4)") == Permutation((2, 1, 4, 3))
    assert permutation_from_text("()", n=2) == Permutation.identity(2)
    assert permutation_from_text([2, 1, 3]) == Permutation((2, 1, 3))
    with pytest.raises(ParseError):
        permutation_from_text("(1 2", n=3)


def test_permutation_degree_cap():
    cap = MAX_PERM_DEGREE
    assert permutation_from_text("(1 %d)" % cap).degree == cap
    assert permutation_from_text(list(range(1, cap + 1))).degree == cap
    for val, n in (("(1 %d)" % (cap + 1), None), ("()", cap + 1), ([1, 2], cap + 1)):
        with pytest.raises(TooLarge):
            permutation_from_text(val, n=n)
    with pytest.raises(TooLarge):
        permutation_from_text(list(range(1, cap + 2)))
    for val in ("()", "(1 2)", [2, 1]):
        with pytest.raises(ParseError):
            permutation_from_text(val, n=-1)


def _over_f2(*moduli):
    """A 1x1 matrix document over F2 extended by each modulus in turn."""
    field = {"kind": "Fp", "p": 2}
    for mod in moduli:
        field = {"kind": "ext", "base": field, "modulus": mod}
    return {"field": field, "rows": [[1]]}


def test_field_descriptor_caps():
    """Tower depth and modulus degrees are capped before any field is
    built, at every level; at the caps the field is built as before."""
    depth = MAX_TOWER_DEPTH
    assert matrix_from_json(_over_f2(*[[1, 1]] * depth)).ctx.degree == 1
    with pytest.raises(TooLarge):
        matrix_from_json(_over_f2(*[[1, 1]] * (depth + 1)))
    # x^d + 1 = (x + 1)^d over F2 when d is a power of two
    top = [1] + [0] * (MAX_INPUT_DEGREE - 1) + [1]
    with pytest.raises(ReducibleModulus):
        matrix_from_json(_over_f2(top))
    with pytest.raises(TooLarge):
        matrix_from_json(_over_f2([0] + top, [1, 1]))


def test_descriptor_caps_hold_for_library_callers():
    """make_field and field_from_descriptor read a descriptor in the same
    walk as matrix_from_json, so every cap holds for them too."""
    deep = {"kind": "Fp", "p": 3}
    for _ in range(9):
        deep = {"kind": "ext", "base": deep, "modulus": [1, 1]}
    wide_q = {"kind": "ext", "base": {"kind": "Q"}, "modulus": [-2] + [0] * 24 + [1]}
    for build in (make_field, field_from_descriptor):
        with pytest.raises(TooLarge):
            build(deep)
        with pytest.raises(UnsupportedField):
            build(wide_q)
        with pytest.raises(TooLarge):
            build(_over_f2([1] * (MAX_INPUT_DEGREE + 2))["field"])


def test_descriptor_caps_a_tower_over_fp_by_its_degree():
    """Two or more levels over F_p are capped at absolute degree 256; one
    level keeps the MAX_INPUT_DEGREE cap."""
    trinomial = [1] + [0] * 51 + [1] + [0] * 202 + [1]  # x^255 + x^52 + 1
    with pytest.raises(TooLarge, match="degree 510 exceeds the cap 256"):
        field_from_descriptor(_over_f2([1, 1, 1], trinomial)["field"])
    with pytest.raises(TooLarge):
        field_from_descriptor(_over_f2([1, 1, 1], [1, 1], [1] * 130)["field"])
    # at the caps the walk goes on to build, and meets the bad coefficient
    bad = ["a"] + [0] * 15 + [1]
    for moduli in ((bad, bad), (bad, [1, 1], [1] * 17), (["a"] + [0] * 510 + [1],)):
        with pytest.raises(ParseError, match="bad residue 'a'"):
            field_from_descriptor(_over_f2(*moduli)["field"])


GUARDS = [
    ("empty polynomial text", lambda: parse_poly_text(Q, "  "), ParseError, "empty polynomial text"),
    ("bad polynomial term", lambda: parse_poly_text(Q, "x^2 + y"),
     ParseError, "bad polynomial term 'y' in 'x^2 + y'"),
    ("polynomial neither text nor array", lambda: poly_from_json(Q, 5),
     ParseError, "polynomial must be a coefficient array or text, got 5"),
    ("matrix without a field", lambda: matrix_from_json({"rows": [[1]]}),
     ParseError, "matrix JSON must be an object with a 'field' key"),
    ("field spec of another type", lambda: make_field(3), ParseError, "unrecognized field spec 3"),
    ("field spec text", lambda: make_field("GF4"), ParseError, "unrecognized field spec 'GF4'"),
    ("field spec with a fullwidth digit", lambda: make_field("F\uff15"),
     ParseError, "unrecognized field spec 'F\uff15'"),
    ("field spec with a superscript digit", lambda: make_field("F\u00b2"),
     ParseError, "unrecognized field spec 'F\u00b2'"),
    ("descriptor not an object", lambda: field_from_descriptor(None),
     ParseError, "bad field descriptor None"),
    ("descriptor prime as text", lambda: field_from_descriptor({"kind": "Fp", "p": "5"}),
     ParseError, "bad prime in descriptor {'kind': 'Fp', 'p': '5'}"),
    ("descriptor of an unknown kind", lambda: field_from_descriptor({"kind": "Z"}),
     ParseError, "unknown field kind 'Z'"),
    ("descriptor with a short modulus", lambda: field_from_descriptor(_over_f2([1])["field"]),
     ParseError, "bad extension modulus [1]"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_public_guards(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
