"""Every module-level import and private module-level name in the package is
used by the module itself, and each of two decisions has one owner."""

import ast
from pathlib import Path

import pytest

import mixrec

PACKAGE = Path(mixrec.__file__).resolve().parent


def unused_imports(source):
    """Names bound by module-level imports that nothing in the module reads;
    ``__future__`` imports and names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nimport sys\n" \
             "from .a import b as c, d\n__all__ = ['d']\nprint(sys.argv)\n"
    assert unused_imports(source) == [(2, "json"), (3, "os"), (5, "c")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unread_private_names(source):
    """Private module-level functions, classes and assigned names that nothing
    in the module reads; dunder names are not private."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unread_private_name():
    source = "_A = 1\n_B, c = 2, 3\n__all__ = []\ndef _f():\n    return _A\n" \
             "class _K:\n    pass\ndef g():\n    _B = 4\n    return _f\n_unused: int = 5\n"
    assert unread_private_names(source) == [(2, "_B"), (6, "_K"), (11, "_unused")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_module_level_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def calls_of(source, name):
    """(enclosing function, line) of each call of ``name``, bare or as an
    attribute; a call outside any function has function None."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_finds_every_call_of_a_name():
    source = "f()\ndef g():\n    nk.f(1)\n    def h():\n        return [f(x) for x in y]\n" \
             "    return f\nclass C:\n    def m(self):\n        self._f()\n"
    assert calls_of(source, "f") == [(None, 1), ("g", 3), ("h", 5)]


def test_one_gradient_pass_and_one_popularity_source():
    # train.backprop replays every batch loss (numkit's own grad_check aside),
    # and only data.py builds a popularity distribution: the dataset's
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    replays = {(name, function) for name, source in sources.items() if name != "numkit.py"
               for function, _ in calls_of(source, "backward")}
    assert replays == {("train.py", "backprop")}
    builders = {name for name, source in sources.items() if calls_of(source, "PopularityDist")}
    assert builders == {"data.py"}
