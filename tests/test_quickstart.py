"""The README's library quickstart runs and returns what its comments say."""

import ast
import pathlib

import centtype
from centtype import mat_eval_poly

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _quickstart():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_returns_what_its_comments_state():
    code = _quickstart()
    lines = code.splitlines()
    ns = {}
    values = []
    body = ast.parse(code).body
    for stmt in body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append((eval(expr, ns), lines[stmt.lineno - 1]))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    (conjugate, l1), (p_text, l2), (z_conjugate, l3), (report, _) = values
    assert conjugate is True
    assert p_text == "-2x"
    assert z_conjugate is False
    # each inline comment opens with the repr of its line's value
    for value, line in ((conjugate, l1), (p_text, l2), (z_conjugate, l3)):
        assert line.split("#", 1)[1].split()[0] == repr(value)
    X, Y, U = ns["X"], ns["Y"], ns["U"]
    assert U.inverse() * mat_eval_poly(ns["cert"].p, X) * U == Y
    # the comment lines that close the block show the report's repr
    shown = " ".join(
        line.strip()[1:].strip() for line in lines[body[-1].end_lineno :] if line.strip()
    )
    assert report.kind == "A-case-3"
    assert repr(report) == shown


def test_quickstart_all_is_what_init_imports():
    # the block starts with `from centtype import *`, which a stale
    # __all__ entry would break
    tree = ast.parse((ROOT / "src" / "centtype" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(centtype.__all__) == imported
