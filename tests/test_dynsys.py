"""Polynomial systems, Chen series, Fliess outputs, and their oracles."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from ncgen.dynsys import (
    PolySystem,
    StatePoly,
    VectorField,
    _solve,
    chen_drift,
    chen_ode,
    dyson_output,
    fliess_output,
    fliess_output_rep,
    iterated_integral,
    load_system,
    ode_reference,
    ode_reference_forms,
    residual_identity_check,
    shuffle_morphism_check,
    system_duffing,
    system_hypergeometric,
    system_oscillator,
    system_vanderpol,
)
from ncgen import dynsys
from ncgen.ncpoly import conc, is_grouplike, residual_left, words_up_to
from ncgen.rational import rep_hypergeometric
from ncgen.renorm import chen_between, l_series
from ncgen.words import X

F = Fraction

T0, T1, T2 = F(1, 4), F(1, 4), F(1, 3)


def hyp_oracle(z):
    return float(mpmath.hyp2f1(float(T0), float(T1), float(T2), z))


def hyp_oracle_deriv(z):
    c = float(T0 * T1 / T2)
    return c * float(mpmath.hyp2f1(float(T0) + 1, float(T1) + 1,
                                   float(T2) + 1, z))


def hyp_system(z0):
    f = hyp_oracle(z0)
    fp = hyp_oracle_deriv(z0)
    q0 = (F(f), F(-(1.0 - z0) * fp))
    return system_hypergeometric(T0, T1, T2, q0)


def test_state_poly_algebra():
    q1 = StatePoly.coord(2, 0)
    q2 = StatePoly.coord(2, 1)
    p = (q1 + q2.scale(2)) * q1
    assert p.eval((F(3), F(5))) == (3 + 10) * 3
    assert p.diff(0).eval((F(3), F(5))) == 2 * 3 + 10
    assert p.diff(1).eval((F(3), F(5))) == 2 * 3
    assert StatePoly(2).eval((F(1), F(1))) == 0


def test_vector_field_apply():
    q = StatePoly.coord(1, 0)
    drift = VectorField([q * q])  # q^2 d/dq
    assert drift.apply(q).eval((F(2),)) == 4
    assert drift.apply(q * q).eval((F(2),)) == 2 * 2 * 4


def test_operator_order_matches_linear_representation():
    # the dedicated convention test: fold order vs matrix reading order
    q0 = (F(2, 3), F(-1, 5))
    system = system_hypergeometric(T0, T1, T2, q0)
    rep = rep_hypergeometric(T0, T1, T2, q0)
    for w in words_up_to(X, 5):
        assert system.fliess_coefficient(w) == rep.coefficient(w), w


def test_chen_ode_matches_factorized():
    ode = chen_ode(0.2, 0.5, 4)
    fact = chen_between(0.2, 0.5, 4)
    assert ode.max_abs_diff(fact) < 1e-8


def test_chen_is_grouplike():
    assert is_grouplike(chen_ode(0.2, 0.5, 4), "shuffle", 4, tol=1e-9)


def test_iterated_integral_values():
    assert abs(iterated_integral((0,), 0.2, 0.5) - math.log(2.5)) < 1e-12
    assert abs(iterated_integral((1,), 0.2, 0.5) - math.log(0.8 / 0.5)) < 1e-12
    chen = chen_ode(0.2, 0.5, 3)
    for w in [(0, 1), (1, 0), (0, 0, 1), (1, 0, 1)]:
        assert abs(iterated_integral(w, 0.2, 0.5) - chen.coeff(w)) < 1e-9, w


_ends = st.floats(0.05, 0.95)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=6).map(tuple),
       _ends, _ends)
def test_iterated_integral_is_chen_coefficient(w, z0, z1):
    # the word ODE on the suffixes of w against the one on all words up
    # to |w|; either direction of the segment
    want = chen_ode(z0, z1, len(w)).coeff(w)
    assert abs(iterated_integral(w, z0, z1) - want) <= 1e-10


def test_chen_path_composition():
    full = chen_ode(0.2, 0.5, 4)
    second = chen_ode(0.35, 0.5, 4)
    first = chen_ode(0.2, 0.35, 4)
    assert full.max_abs_diff(second * first) < 1e-8


def test_fliess_hypergeometric_against_oracle():
    z0 = 0.2
    system = hyp_system(z0)
    for z in (0.3, 0.4, 0.5):
        chen = chen_ode(z0, z, 12)
        y = fliess_output(system, chen, 12)
        assert abs(y - hyp_oracle(z)) < 1e-6, z


def test_fliess_rep_route_agrees():
    z0, z = 0.2, 0.4
    f = hyp_oracle(z0)
    fp = hyp_oracle_deriv(z0)
    q0 = (F(f), F(-(1.0 - z0) * fp))
    system = system_hypergeometric(T0, T1, T2, q0)
    rep = rep_hypergeometric(T0, T1, T2, q0)
    chen = chen_ode(z0, z, 10)
    assert abs(fliess_output(system, chen, 10)
               - fliess_output_rep(rep, chen, 10)) < 1e-12


def test_fliess_against_forms_ode():
    z0, z = 0.2, 0.4
    system = hyp_system(z0)
    chen = chen_ode(z0, z, 12)
    y = fliess_output(system, chen, 12)
    assert abs(y - ode_reference_forms(system, z0, z)) < 1e-8


def test_duffing_degenerate_exact():
    system = system_duffing(0, 0, 0, (0, 0))
    sigma = system.generating_series(6)
    assert sigma.coeff((0, 1)) == 1
    assert set(sigma.terms) == {(0, 1)}
    y = fliess_output(system, chen_drift(0.5, 6, (1.0, 1.0)), 6)
    assert abs(y - 0.125) < 1e-14


def test_oscillator_drift_output():
    system = system_oscillator(F(1, 3), F(1, 5), (F(1, 4),))
    controls = (1.0, 0.7)
    T = 0.1
    y = fliess_output(system, chen_drift(T, 10, controls), 10)
    ref = ode_reference(system, controls, T)
    assert abs(y - ref) < 1e-9


def test_vanderpol_drift_output():
    system = system_vanderpol(F(1, 2), (F(1, 4), F(-1, 6)))
    controls = (1.0, 0.3)
    T = 0.08
    y = fliess_output(system, chen_drift(T, 10, controls), 10)
    ref = ode_reference(system, controls, T)
    assert abs(y - ref) < 1e-8


def test_duffing_drift_output():
    system = system_duffing(F(1), F(1, 2), F(1, 10), (F(1, 4), F(0)))
    controls = (1.0, 0.5)
    T = 0.05
    y = fliess_output(system, chen_drift(T, 10, controls), 10)
    ref = ode_reference(system, controls, T)
    assert abs(y - ref) < 1e-9


def test_sigma_shuffle_morphism():
    q0 = (F(2, 3), F(-1, 5))
    system = system_hypergeometric(T0, T1, T2, q0)
    q1 = StatePoly.coord(2, 0)
    q2 = StatePoly.coord(2, 1)
    assert shuffle_morphism_check(system, q1, q2, 4)
    osc = system_oscillator(F(1, 3), F(1, 5), (F(1, 4),))
    q = StatePoly.coord(1, 0)
    assert shuffle_morphism_check(osc, q, q, 4)


def test_sigma_residual_identity():
    q0 = (F(2, 3), F(-1, 5))
    system = system_hypergeometric(T0, T1, T2, q0)
    for u in [(0,), (1,), (0, 1)]:
        assert residual_identity_check(system, u, 4), u


def test_fliess_identity_checks_can_fail(monkeypatch):
    # each check is one comparison of two series: with the wrong product
    # (conc for the shuffle) or a strip off the wrong end it must fail
    system = system_hypergeometric(T0, T1, T2, (F(2, 3), F(-1, 5)))
    q1 = StatePoly.coord(2, 0)
    q2 = StatePoly.coord(2, 1)
    product = PolySystem(system.fields, q1 * q2, system.q0)
    assert len(product.generating_series(4).terms) >= 10
    monkeypatch.setattr(dynsys, "shuffle", conc)
    assert not shuffle_morphism_check(system, q1, q2, 4)
    monkeypatch.setattr(dynsys, "residual_right",
                        lambda S, P: residual_left(P, S))
    for u in [(0,), (1,), (0, 1)]:
        assert not residual_identity_check(system, u, 4), u


def test_dyson_resummation_equals_fliess():
    system = hyp_system(0.2)
    chen = chen_ode(0.2, 0.4, 6)
    direct = fliess_output(system, chen, 6)
    resummed = dyson_output(system, chen, 6)
    assert abs(direct - resummed) < 1e-10


def test_system_json_roundtrip(tmp_path):
    system = system_duffing(F(1), F(1, 2), F(1, 10), (F(1, 4), F(0)))
    d = system.to_json_dict()
    back = PolySystem.from_json_dict(d)
    for w in words_up_to(X, 4):
        assert back.fliess_coefficient(w) == system.fliess_coefficient(w)

    import json
    p = tmp_path / "system.json"
    p.write_text(json.dumps(d))
    loaded = load_system(str(p))
    assert loaded.fliess_coefficient((0, 1)) == system.fliess_coefficient((0, 1))

    p2 = tmp_path / "builtin.json"
    p2.write_text(json.dumps({
        "builtin": "oscillator",
        "params": {"k1": "1/3", "k2": "1/5"},
        "q0": ["1/4"],
    }))
    osc = load_system(str(p2))
    assert osc.fliess_coefficient((1,)) == 1

    p3 = tmp_path / "bad.json"
    p3.write_text(json.dumps({"builtin": "nope", "params": {}, "q0": []}))
    with pytest.raises(ValueError):
        load_system(str(p3))


# every use of the forms dz/z and dz/(1-z) refuses a point outside (0, 1)
_FORMS_CALLS = {
    "chen_ode": lambda z: chen_ode(z, 0.4, 3),
    "iterated_integral": lambda z: iterated_integral((0, 1), z, 0.4),
    "ode_reference_forms": lambda z: ode_reference_forms(hyp_system(0.2),
                                                         z, 0.4),
    "l_series": lambda z: l_series(z, 3),
    "chen_between": lambda z: chen_between(0.4, z, 3),
}


@pytest.mark.parametrize("z", [0.0, 1.0, -0.1, -0.5, 1.5])
@pytest.mark.parametrize("name", sorted(_FORMS_CALLS))
def test_forms_need_a_segment_inside_the_unit_interval(name, z):
    with pytest.raises(ValueError,
                       match=r"^segment must stay inside \(0, 1\)$"):
        _FORMS_CALLS[name](z)


# ---------------------------------------------------------------------------
# the DOP853 loop against scipy's solve_ivp, which it follows step for step

@st.composite
def _ode_problems(draw):
    """(rhs, t0, t1, y0): y' = A y, y' = A y + B sin(y) + cos(t), or
    y' = A y / z + B y / (1 - z) on a segment inside (0, 1); size 1-6,
    either direction, t0 == t1 among them."""
    kind = draw(st.sampled_from(["linear", "nonlinear", "forms"]))
    n = draw(st.integers(1, 6))
    entries = st.floats(-1, 1)
    A, B = (np.array(draw(st.lists(entries, min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
            for _ in range(2))
    y0 = np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    ends = st.floats(0.05, 0.95) if kind == "forms" else st.floats(-1, 1)
    t0 = draw(ends)
    t1 = draw(st.one_of(st.just(t0), ends))
    rhs = {"linear": lambda t, y: A @ y,
           "nonlinear": lambda t, y: A @ y + B @ np.sin(y) + np.cos(t),
           "forms": lambda z, y: (A @ y) / z + (B @ y) / (1.0 - z)}[kind]
    return rhs, t0, t1, y0


@settings(max_examples=60, deadline=None)
@given(_ode_problems())
def test_solve_agrees_with_scipy_dop853(problem):
    # each step holds its error estimate within 1e-14 + 1e-12 |y|; over
    # these intervals both runs stay within 1e-10 relative of each other
    # (with scipy 1.17.1 they are bit-identical)
    rhs, t0, t1, y0 = problem
    got = _solve(rhs, t0, t1, y0)
    want = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12,
                     atol=1e-14).y[:, -1]
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-10 * (1 + np.abs(want).max())
    if t0 == t1:
        assert np.array_equal(got, y0)


def test_solve_fails_as_scipy_does():
    # y' = y^2, y(0) = 1 blows up at t = 1
    def rhs(t, y):
        return y * y

    with pytest.raises(RuntimeError) as ours:
        _solve(rhs, 0.0, 2.0, np.array([1.0]))
    sol = solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-12,
                    atol=1e-14)
    assert not sol.success
    assert str(ours.value) == sol.message == (
        "Required step size is less than spacing between numbers.")


def test_solve_refuses_a_nan_slope():
    # a NaN first slope makes a NaN first step, which no rejection shrinks
    # (solve_ivp 1.17.1 loops forever here)
    with pytest.raises(RuntimeError):
        _solve(lambda t, y: y * np.nan, 0.0, 1.0, np.array([1.0]))


_ROOT = pathlib.Path(__file__).resolve().parent.parent
_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = sys.modules["mpmath"] = None  # importing them fails
import ncgen
for module in pkgutil.iter_modules(ncgen.__path__):
    importlib.import_module("ncgen." + module.name)
from ncgen.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [
    ["verify", "dynsys", "--depth", "4"],
    ["simulate", "--system", "tests/systems/hypergeometric.json",
     "--z", "0.4"],
])
def test_runs_without_scipy_or_mpmath(argv):
    # the package depends on numpy alone; the tests use scipy and mpmath
    # as references
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, *argv], cwd=_ROOT,
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
