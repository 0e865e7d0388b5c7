"""Checks over the source of ncgen itself, read with ast: every parameter
is read, every object has one name, and every import is read (the last
also over the tests and the demos)."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncgen"
MODULES = sorted(SRC.glob("*.py"))
# perfbench is left out: its worker imports numpy and scipy unread, as
# part of the set-up it times
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unread_parameters(tree):
    """(function, parameter) for each parameter of a def, self and cls
    aside, that no name in its body (nested functions included) loads.
    A lambda's parameters are left out: a callback's signature is set by
    its caller."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        params = [p.arg for p in (a.posonlyargs + a.args + a.kwonlyargs
                                  + [a.vararg, a.kwarg]) if p is not None]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(fn.name, p) for p in params
                if p not in ("self", "cls") and p not in read]
    return out


def second_names(tree):
    """Module-level A = B: a second name bound to an object that already
    has one."""
    return [(t.id, stmt.value.id) for stmt in tree.body
            if isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Name)
            for t in stmt.targets if isinstance(t, ast.Name)]


def unread_imports(tree):
    """Each name an import binds, in the module or in a def, that no name
    in the module loads (import a.b binds a)."""
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for stmt in ast.walk(tree)
            if isinstance(stmt, (ast.Import, ast.ImportFrom))
            for name in (a.asname or a.name.split(".")[0] for a in stmt.names)
            if name not in read]


def test_the_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {"ncpoly", "hopf", "polylog",
                                         "negpolylog", "renorm", "cli"}
    assert {p.parent.name for p in SCRIPTS} == {"tests", "demos"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_binds_a_second_name(path):
    assert second_names(_tree(path)) == []


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=[p.stem for p in MODULES]
    + ["%s/%s" % (p.parent.name, p.stem) for p in SCRIPTS])
def test_every_import_is_read(path):
    assert unread_imports(_tree(path)) == []


def test_the_scan_finds_what_it_looks_for():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    return [b for _ in (lambda x, y: y)(d, e)]\n"
                     "class K:\n"
                     "    def m(self, p):\n"
                     "        return 1\n"
                     "Other = K\n"
                     "import os.path, sys as system\n"
                     "from math import factorial, comb as choose\n"
                     "def g():\n"
                     "    from itertools import accumulate\n"
                     "    return os.sep, choose\n")
    assert sorted(unread_parameters(tree)) == [
        ("f", "a"), ("f", "c"), ("m", "p")]
    assert second_names(tree) == [("Other", "K")]
    assert unread_imports(tree) == ["system", "factorial", "accumulate"]
