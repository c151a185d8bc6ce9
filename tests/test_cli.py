import json
import os
import random
import subprocess
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "centtype.cli"] + list(args),
        capture_output=True,
        text=True,
    )
    return proc


class RawJSON:
    """Document text written as is: json.dumps cannot produce it."""

    def __init__(self, text):
        self.text = text


def write_matrix(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(obj.text if isinstance(obj, RawJSON) else json.dumps(obj))
    return str(p)


def test_mtype(tmp_path):
    f = write_matrix(tmp_path, "m.json", {"field": {"kind": "Q"}, "companion": "x^2 - 2"})
    proc = run_cli("mtype", f)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["field"] == {"kind": "Q"}
    assert out["n"] == 2
    assert out["cycle_type"] == [{"partition": [1], "poly": ["-2/1", "0/1", "1/1"]}]
    assert out["green_type"] == [{"degree": 2, "partition": [1]}]
    assert out["generalized_type"][0]["partition"] == [1]


def test_mtype_rows(tmp_path):
    f = write_matrix(
        tmp_path, "m.json", {"field": {"kind": "Fp", "p": 2}, "rows": [[1, 0], [0, 0]]}
    )
    proc = run_cli("mtype", f)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert len(out["cycle_type"]) == 2


def test_mtype_huge_prime(tmp_path):
    p = 10**18 + 3
    f = write_matrix(tmp_path, "m.json", {"field": {"kind": "Fp", "p": p}, "rows": [[1, 2], [3, 4]]})
    proc = subprocess.run(
        [sys.executable, "-m", "centtype.cli", "mtype", f], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["field"] == {"kind": "Fp", "p": p}


def test_centconj_positive(tmp_path):
    x = write_matrix(tmp_path, "x.json", {"field": {"kind": "Q"}, "companion": "x^2 - 2"})
    y = write_matrix(tmp_path, "y.json", {"field": {"kind": "Q"}, "companion": "x^2 - 8"})
    proc = run_cli("centconj", x, y)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["conjugate"] is True
    assert out["p"] is not None
    assert out["conjugator"]["rows"]


def test_centconj_negative(tmp_path):
    x = write_matrix(tmp_path, "x.json", {"field": {"kind": "Q"}, "companion": "x^2 - 2"})
    y = write_matrix(tmp_path, "y.json", {"field": {"kind": "Q"}, "companion": "x^2 - 3"})
    proc = run_cli("centconj", x, y)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["conjugate"] is False
    assert out["conjugator"] is None


def test_perm_subcommand():
    proc = run_cli("perm", "(1 2)", "()", "--group", "sn", "--n", "2")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["equal"] is True
    assert out["kind"] == "S-case-1"

    proc = run_cli("perm", "(1 2)(3 4)", "(1 3)(2 4)", "--group", "an")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "A-case-2"

    proc = run_cli("perm", "(1 2 3)", "(1 3 2)", "--group", "sn")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "equivalent"

    proc = run_cli("perm", "(1 2 3)", "()", "--group", "sn", "--n", "3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["equal"] is False


def test_perm_takes_no_seed():
    # perm draws nothing at random, so --seed is an argparse error (exit 2)
    proc = run_cli("perm", "(1 2)", "()", "--seed", "1")
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed 1" in proc.stderr
    assert proc.stdout == ""


def _cap_address_space():
    # an uncapped image list of 10^8 points would need tens of GB: fail
    # with MemoryError (exit 5) instead of exhausting the machine
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args, error",
    [
        (("(1 100000000)", "()"), "TooLarge"),
        (("(1 2)", "()", "--n", "100001"), "TooLarge"),
        (("()", "()", "--n", "-1"), "ParseError"),
    ],
    ids=["cycle point over the cap", "degree over the cap", "negative degree"],
)
def test_perm_degree_over_the_cap_or_negative(args, error):
    """Degrees over MAX_PERM_DEGREE are refused before any image list is
    built; a negative degree is a parse error, not the empty permutation."""
    proc = subprocess.run(
        [sys.executable, "-m", "centtype.cli", "perm", *args],
        capture_output=True,
        text=True,
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert proc.returncode == (4 if error == "TooLarge" else 2), proc.stderr
    assert json.loads(proc.stdout)["error"]["type"] == error


def test_perm_odd_input_rejected():
    proc = run_cli("perm", "(1 2)", "(1 2)", "--group", "an")
    assert proc.returncode == 4
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "OddPermutation"


def test_exit_code_parse_error(tmp_path):
    proc = run_cli("mtype", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("mtype", str(bad))
    assert proc.returncode == 2



def test_matrix_with_both_companion_and_rows_exits_2(tmp_path, capsys):
    from centtype import cli

    # neither key may be dropped in silence: the answer would be for the
    # 2x2 companion matrix, not the 1x1 rows
    f = write_matrix(tmp_path, "m.json", {"field": "Q", "companion": "x^2-2", "rows": [[1]]})
    assert cli.main(["mtype", f]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ParseError", "message": "matrix JSON has both 'companion' and 'rows'"}


SQRT2 = {"kind": "ext", "base": {"kind": "Q"}, "modulus": [-2, 0, 1]}


def check_conjugator(x_path, y_path, out):
    """U^-1 p(X) U = Y for the printed conjugator U and polynomial p."""
    from centtype import mat_eval_poly
    from centtype.serialize import matrix_from_json, poly_from_json

    with open(x_path, encoding="utf-8") as fx, open(y_path, encoding="utf-8") as fy:
        X, Y = matrix_from_json(json.load(fx)), matrix_from_json(json.load(fy))
    U = matrix_from_json(out["conjugator"])
    p = poly_from_json(X.ctx, out["p"])
    assert out["conjugate"] is True
    assert U.inverse() * mat_eval_poly(p, X) * U == Y


def test_exit_code_unsupported_field(tmp_path):
    # matrices over Q(sqrt2) factor through Trager's norm, so this pair
    # gets a certificate; exit 3 is left for inputs past the degree cap
    f = write_matrix(tmp_path, "m.json", {"field": SQRT2, "rows": [[["0/1", "1/1"]]]})
    proc = run_cli("centconj", f, f)
    assert proc.returncode == 0
    check_conjugator(f, f, json.loads(proc.stdout))
    # [Q(sqrt2):Q] * 13 = 26 is past the cap of 24
    c = write_matrix(tmp_path, "c.json", {"field": SQRT2, "companion": "x^13 - 3"})
    proc = run_cli("mtype", c)
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == {
        "message": "rational factorization capped at degree 24 (got 26)",
        "type": "UnsupportedField",
    }
    # composite modulus is the generic algebra error
    g = write_matrix(tmp_path, "n.json", {"field": {"kind": "Fp", "p": 6}, "rows": [[1]]})
    proc = run_cli("mtype", g)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["type"] == "CompositeModulus"


def test_numberfield_mtype(tmp_path):
    f = write_matrix(
        tmp_path, "m.json", {"field": SQRT2, "rows": [[["1/1", "1/1"], 2], [[0, 3], "-1/2"]]}
    )
    proc = run_cli("mtype", f)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert out["field"] == {"base": {"kind": "Q"}, "kind": "ext", "modulus": ["-2/1", "0/1", "1/1"]}
    assert out["n"] == 2
    assert out["green_type"] == [{"degree": 2, "partition": [1]}]


@pytest.mark.parametrize("other, code", [("x^2 - 6", 0), ("x^2 - 5", 1)])
def test_numberfield_centconj(tmp_path, other, code):
    # sqrt6 = sqrt2 sqrt3 lies in Q(sqrt2)(sqrt3), sqrt5 does not
    x = write_matrix(tmp_path, "x.json", {"field": SQRT2, "companion": "x^2 - 3"})
    y = write_matrix(tmp_path, "y.json", {"field": SQRT2, "companion": other})
    proc = run_cli("centconj", x, y)
    assert proc.returncode == code, proc.stdout
    out = json.loads(proc.stdout)
    if code == 0:
        check_conjugator(x, y, out)
    else:
        assert out["conjugate"] is False and out["conjugator"] is None


def test_exit_code_internal_error(monkeypatch, capsys):
    from centtype import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_perm", boom)
    assert cli.main(["perm", "(1 2)", "(1 2)"]) == 5
    captured = capsys.readouterr()
    err = json.loads(captured.out)["error"]
    assert err["type"] == "InternalError"
    assert "boom" in err["message"]
    assert "Traceback" in captured.err
    # argparse's SystemExit is not caught
    with pytest.raises(SystemExit) as exc:
        cli.main(["perm"])
    assert exc.value.code == 2


def _error_classes():
    from centtype import errors

    return [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]


@pytest.mark.parametrize("cls", _error_classes() + [RuntimeError], ids=lambda c: c.__name__)
def test_exit_code_and_type_of_every_error(monkeypatch, capsys, cls):
    from centtype import cli

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_perm", fail)
    code = {"ParseError": 2, "UnsupportedField": 3, "RuntimeError": 5}.get(cls.__name__, 4)
    assert cli.main(["perm", "(1 2)", "(1 2)"]) == code
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == ("InternalError" if code == 5 else cls.__name__)
    assert "boom" in err["message"]


def test_json_errors_go_to_stdout(tmp_path):
    proc = run_cli("mtype", str(tmp_path / "absent.json"))
    json.loads(proc.stdout)  # must parse
    assert proc.stdout.endswith("\n")


def test_byte_identical_output(tmp_path):
    f = write_matrix(tmp_path, "m.json", {"field": {"kind": "Q"}, "companion": "x^3 - 2"})
    a = run_cli("mtype", f, "--seed", "7")
    b = run_cli("mtype", f, "--seed", "7")
    assert a.stdout == b.stdout
    a = run_cli("verify", "partition-formulas", "--seed", "3")
    b = run_cli("verify", "partition-formulas", "--seed", "3")
    assert a.stdout == b.stdout
    assert a.returncode == 0
    # compact json: no spaces after separators, keys sorted
    assert '"instances_checked"' in a.stdout
    assert ": " not in a.stdout.replace('": ', '":')


def test_verify_subcommand_and_stderr():
    proc = run_cli("verify", "partition-formulas")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["suite"] == "partition-formulas"
    assert out["failures"] == []
    assert out["instances_checked"] > 0
    assert "elapsed" not in out
    assert "suite partition-formulas" in proc.stderr

    proc = run_cli("verify", "no-such-suite")
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["type"] == "UnknownSuite"


def test_verify_scale():
    proc = run_cli("verify", "sn-oracle", "--scale", "4")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["scale"] == 4
    assert out["failures"] == []


def test_verify_rejects_scale_and_jobs_below_one(capsys):
    from centtype import cli

    for extra in (["--scale", "-3"], ["--scale", "0"], ["--jobs", "0"]):
        assert cli.main(["verify", "centdim"] + extra) == 2
        assert json.loads(capsys.readouterr().out)["error"]["type"] == "ParseError"


def test_pretty_format(tmp_path):
    f = write_matrix(tmp_path, "m.json", {"field": {"kind": "Q"}, "companion": "x^2 - 2"})
    proc = run_cli("mtype", f, "--format", "pretty")
    assert proc.returncode == 0
    assert "\n  " in proc.stdout  # indented
    assert json.loads(proc.stdout)["n"] == 2


def test_ragged_rows_are_parse_errors(tmp_path):
    for rows in ([[1, 2], [3]], [[]], [[1], 2]):
        f = write_matrix(tmp_path, "m.json", {"field": "F5", "rows": rows})
        proc = run_cli("mtype", f)
        assert proc.returncode == 2, rows
        assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
    # a well-formed but non-square matrix is a domain error
    f = write_matrix(tmp_path, "m.json", {"field": "F5", "rows": [[1, 2]]})
    proc = run_cli("mtype", f)
    assert proc.returncode == 4
    assert json.loads(proc.stdout)["error"]["type"] == "NotSquare"


_MR_BOUND = 3317044064679887385961981
# longer than Python's integer-string conversion limit (4300 digits)
_DIGITS = "9" * 5000
_RNG = random.Random(512)



def _f2_tower(depth):
    """F2 extended `depth` times: by x^2 + x + 1, then by x^2 + y x + 1
    with y the generator of the level below."""
    field = {"kind": "Fp", "p": 2}
    for k in range(depth):
        field = {"kind": "ext", "base": field, "modulus": [1, [0, 1], 1] if k else [1, 1, 1]}
    return field


FUZZ = [
    ("ragged rows", {"field": "F5", "rows": [[1, 2], [3]]}, "ParseError"),
    ("empty row", {"field": "F5", "rows": [[]]}, "ParseError"),
    ("no rows", {"field": "F5", "rows": []}, "ParseError"),
    ("string row", {"field": "Q", "rows": ["12"]}, "ParseError"),
    ("bool entry", {"field": "F5", "rows": [[True]]}, "ParseError"),
    ("bool modulus", {"field": {"kind": "Fp", "p": True}, "rows": [[1]]}, "ParseError"),
    ("bool coefficient over Q", {"field": "Q", "companion": [True, 1]}, "ParseError"),
    ("false coefficient over Q", {"field": "Q", "companion": [False, 0, 1]}, "ParseError"),
    ("bool in a Q-extension modulus",
     {"field": {"kind": "ext", "base": {"kind": "Q"}, "modulus": [True, 0, 1]}, "rows": [[1]]},
     "ParseError"),
    ("bool coefficient over a Q-extension",
     {"field": {"kind": "ext", "base": {"kind": "Q"}, "modulus": [-2, 0, 1]}, "companion": [True, 1]},
     "ParseError"),
    ("nested entry", {"field": "F5", "rows": [[[1]]]}, "ParseError"),
    ("nested rational", {"field": "Q", "rows": [[["1/2"]]]}, "ParseError"),
    ("array document", [[1, 2], [3, 4]], "ParseError"),
    ("string document", "F5", "ParseError"),
    ("null document", None, "ParseError"),
    ("composite modulus", {"field": {"kind": "Fp", "p": 6}, "rows": [[1]]}, "CompositeModulus"),
    ("modulus at the bound", {"field": {"kind": "Fp", "p": _MR_BOUND}, "rows": [[1]]}, "TooLarge"),
    ("prime above the bound", {"field": {"kind": "Fp", "p": 2**89 - 1}, "rows": [[1]]}, "TooLarge"),
    ("Q degree over the cap", {"field": "Q", "companion": "x^25 - 2"}, "UnsupportedField"),
    ("companion text over the degree cap", {"field": "F5", "companion": "x^1200"}, "TooLarge"),
    ("companion array over the degree cap",
     {"field": "F5", "companion": [0] * 1200 + [1]}, "TooLarge"),
    ("5000-digit exponent", {"field": "F5", "companion": "x^" + _DIGITS}, "ParseError"),
    ("5000-digit coefficient", {"field": "F5", "companion": "x^2 + " + _DIGITS}, "ParseError"),
    ("5000-digit JSON number",
     RawJSON('{"field": "F5", "rows": [[%s]]}' % _DIGITS), "ParseError"),
    ("5000-digit prime in the field name", {"field": "F" + _DIGITS, "rows": [[1]]}, "ParseError"),
    ("zero denominator in polynomial text",
     {"field": "Q", "companion": "x^2 + 1/0"}, "ParseError"),
    ("deeply nested JSON", RawJSON("[" * 100000 + "]" * 100000), "ParseError"),
    ("exponent in a rational", {"field": "Q", "rows": [["1e300000000"]]}, "ParseError"),
    ("rational over the digit limit by exponent",
     {"field": "Q", "rows": [["1e1000000"]]}, "ParseError"),
    ("5000-digit decimal", {"field": "Q", "rows": [["0." + _DIGITS]]}, "ParseError"),
    ("tower over the depth cap", {"field": _f2_tower(9), "rows": [[1]]}, "TooLarge"),
    ("field modulus over the degree cap",
     {"field": {"kind": "ext", "base": {"kind": "Fp", "p": 2}, "modulus": [1] * 601},
      "rows": [[1]]},
     "TooLarge"),
    # refused by the absolute degree of the tower: building this
    # irreducible top level over F4 took about 40 s
    ("two-level tower over F2 past degree 256",
     {"field": {"kind": "ext",
                "base": {"kind": "ext", "base": {"kind": "Fp", "p": 2}, "modulus": [1, 1, 1]},
                "modulus": [1] + [0] * 51 + [1] + [0] * 202 + [1]},
      "rows": [[1]]},
     "TooLarge"),
    # refused before any field is built: the squarefree split of this
    # modulus over Q takes minutes
    ("dense Q modulus of degree 512",
     {"field": {"kind": "ext", "base": {"kind": "Q"},
                "modulus": [_RNG.randint(-9, 9) for _ in range(512)] + [1]},
      "rows": [[1]]},
     "UnsupportedField"),
]

_FUZZ_EXIT = {"ParseError": 2, "UnsupportedField": 3}


@pytest.mark.parametrize("doc, error", [c[1:] for c in FUZZ], ids=[c[0] for c in FUZZ])
def test_cli_fuzz_malformed_and_extreme_inputs(tmp_path, doc, error):
    f = write_matrix(tmp_path, "m.json", doc)
    for command in (["mtype", f], ["centconj", f, f]):
        proc = subprocess.run(
            [sys.executable, "-m", "centtype.cli"] + command,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode in (2, 3, 4)
        assert proc.returncode == _FUZZ_EXIT.get(error, 4)
        assert json.loads(proc.stdout)["error"]["type"] == error


# stdout recorded from the CLI at an earlier commit; a change here is a
# change of the byte-stable JSON and must be made on purpose
GOLDEN_CASES = [
    ("centconj_f5", ["centconj", "f5_x.json", "f5_y.json"], 0),
    ("centconj_q_pos", ["centconj", "q_sqrt2.json", "q_sqrt8.json"], 0),
    ("centconj_q_neg", ["centconj", "q_sqrt2.json", "q_sqrt3.json"], 1),
    ("mtype_f9", ["mtype", "f9_m.json"], 0),
    # f ~ g for distinct irreducible quadratics over F9 runs root finding
    # in the tower F9[y]/(f)
    ("centconj_f9", ["centconj", "f9_x.json", "f9_y.json"], 0),
    # companions of (x^3 + 2x + 1)^3 and (x^3 + 2x^2 + 1)^3: p = r, and q is
    # p's inverse modulo the minimal polynomial, not merely modulo f
    ("centconj_f3", ["centconj", "f3_x.json", "f3_y.json"], 0),
]


@pytest.mark.parametrize("name, args, code", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output_across_commits(name, args, code):
    argv = [os.path.join(GOLDEN, a) if a.endswith(".json") else a for a in args]
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    with open(os.path.join(GOLDEN, name + ".stdout"), encoding="utf-8") as fh:
        assert proc.stdout == fh.read()
