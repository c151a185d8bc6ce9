"""Static checks on the package source: no module imports a name it never
uses, no import sits inside a function without a reason, and no
module-level private function is left without a caller."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "centtype"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Every name read as a variable or as an attribute in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree):
    """The names the module's import statements bind, with their line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # __init__ imports only to re-export
    tree = _tree(path)
    used = _used_names(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert not unused, "%s imports but never uses %s" % (path.name, ", ".join(unused))


# stdlib imports kept inside a function on purpose: `import centtype`
# must not load the process pool
LAZY_STDLIB = {("verify", "concurrent.futures")}


def _relative_targets(node):
    """The package modules a relative import statement names."""
    return [node.module] if node.module else [alias.name for alias in node.names]


def test_function_level_imports_only_break_cycles():
    # an import inside a function is allowed only where the same import
    # at the top would close a cycle: the target imports this module at
    # its own top level
    trees = {p.stem: _tree(p) for p in MODULES}
    top = {
        name: {
            t
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for t in _relative_targets(node)
        }
        for name, tree in trees.items()
    }
    bad = set()
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    if all(name in top.get(t, ()) for t in _relative_targets(node)):
                        continue
                elif isinstance(node, ast.ImportFrom) and (name, node.module) in LAZY_STDLIB:
                    continue
                bad.add("%s.py:%d" % (name, node.lineno))
    assert not bad, "imports inside functions that no import cycle needs: %s" % ", ".join(
        sorted(bad)
    )


def test_every_private_function_has_a_caller():
    trees = {p.stem: _tree(p) for p in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [
        "%s.%s" % (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not dead, "private functions nothing in src refers to: %s" % ", ".join(dead)
