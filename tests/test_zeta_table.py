"""Zeta values from the Hoelder convolution: Z_sh = sigma(L(1/2))^{-1} L(1/2).

The values are certified against independent references: the closed forms
of perfbench/reference.py (weight <= 5), and at weights 6 and 7 the sum
theorem and duality.  Every tolerance is float rounding, not truncation.
"""

import importlib.util
import json
import os
import subprocess
import sys

import mpmath
import pytest

import ncgen
from ncgen import renorm
from ncgen.cli import main
from ncgen.renorm import (
    bridge_check,
    zeta_numeric,
    zeta_shuffle_reg,
    zeta_stuffle_reg,
)

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "reference", os.path.join(_HERE, os.pardir, "perfbench", "reference.py"))
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)


@pytest.mark.parametrize("depth", [5, 6, 7])
def test_bridge_to_float_rounding(depth):
    report = bridge_check(depth)
    assert report["max_abs_err"] <= 1e-12, report
    assert report["pass"], report


def test_regularized_zetas_match_closed_forms():
    for w in ref.words_up_to("Y", 5)[1:]:
        want = float(ref.zeta_stuffle(w))
        assert abs(zeta_stuffle_reg(w) - want) <= 1e-13, w
    for w in ref.words_up_to("X", 5)[1:]:
        want = float(ref.zeta_shuffle(w))
        assert abs(zeta_shuffle_reg(w) - want) <= 1e-13, w


@pytest.mark.parametrize("weight", [6, 7])
def test_sum_theorem_and_duality(weight):
    words = [w for w in ref.words_up_to("Y", weight)
             if sum(w) == weight and w[0] >= 2]
    total = float(mpmath.zeta(weight))
    for depth in range(1, weight):
        got = sum(zeta_numeric(w) for w in words if len(w) == depth)
        assert abs(got - total) <= 1e-13, depth
    for w in words:
        assert abs(zeta_numeric(w) - zeta_numeric(ref.dual_word(w))) <= 1e-13, w


_READS = [("zeta_shuffle_reg", (1, 0, 1)), ("zeta_shuffle_reg", (0, 1, 1, 0)),
          ("zeta_stuffle_reg", (1, 2)), ("zeta_stuffle_reg", (3, 1, 1)),
          ("zeta_numeric", (2, 1)), ("zeta_numeric", (5,))]


def test_read_does_not_depend_on_deeper_tables():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncgen.__file__)))
    code = ("import json\nfrom ncgen import renorm\nprint(json.dumps("
            "[getattr(renorm, f)(w) for f, w in %r]))" % (_READS,))
    fresh = json.loads(subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True).stdout)
    renorm._z_sh(8)
    renorm._z_st(8)
    assert [getattr(renorm, f)(w) for f, w in _READS] == fresh


@pytest.mark.parametrize("depth", range(3, 9))
def test_default_tolerances_are_float_rounding(depth, capsys):
    report = bridge_check(depth)
    assert report["pass"], report
    assert report["tol"] <= 1e-10
    assert main(["verify", "grouplike", "--depth", str(depth)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["max_abs_err"] <= 1e-12


def test_explicit_tol_is_honoured():
    assert bridge_check(4, tol=1e-2)["tol"] == 1e-2
    assert not bridge_check(6, tol=0.0)["pass"]
