"""Checks over the source of ncgen itself, read with ast: every parameter
is read, and every object has one name."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncgen"
MODULES = sorted(SRC.glob("*.py"))


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


def test_the_scan_sees_every_module():
    assert {p.stem for p in MODULES} >= {"ncpoly", "hopf", "polylog",
                                         "negpolylog", "renorm", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(_tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_binds_a_second_name(path):
    assert second_names(_tree(path)) == []


def test_the_scan_finds_what_it_looks_for():
    tree = ast.parse("def f(a, b, *c, d, **e):\n"
                     "    return [b for _ in (lambda x, y: y)(d, e)]\n"
                     "class K:\n"
                     "    def m(self, p):\n"
                     "        return 1\n"
                     "Other = K\n")
    assert sorted(unread_parameters(tree)) == [
        ("f", "a"), ("f", "c"), ("m", "p")]
    assert second_names(tree) == [("Other", "K")]
