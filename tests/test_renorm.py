"""Renormalized series: zeta characters, bridge, Abel limits, constants."""

import functools
import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_acceptance import budget

from ncgen import asymptotics, polylog, renorm
from ncgen.asymptotics import expansion_value, harmonic_expansion
from ncgen.hopf import basis_pair
from ncgen.ncpoly import (NCPoly, is_grouplike, shuffle_words,
                          stuffle_words, words_up_to)
from ncgen.polylog import (_li_powers, harmonic, nested_sum_sweep,
                           polylog_eval)
from ncgen.renorm import (
    abel_limits_check,
    bridge_check,
    bridge_series,
    chen_between,
    chen_endpoint_sanity,
    const_log_identity,
    const_series,
    euler_maclaurin_constants,
    l_series,
    mono_series,
    n_side_limit_series,
    rounding_tol,
    series_exp,
    y1_factor,
    z_shuffle_series,
    z_side_series,
    z_stuffle_series,
    zeta_numeric,
    zeta_shuffle_reg,
    zeta_stuffle_reg,
)
from ncgen.words import X, Y, lyndon_words

ZETA2 = math.pi ** 2 / 6.0
ZETA3 = 1.2020569031595943
GAMMA = 0.5772156649015329
# float rounding of the values read off Z_sh and the constants at +infinity
# (measured at most 4.5e-16); no partial sum enters them, so no truncation
# bound is needed
ROUNDING = 1e-13


def test_series_product_and_inverse():
    s = NCPoly(X, {(): 1.0, (0,): 0.5, (1,): -2.0, (0, 1): 3.0}, depth=4)
    inv = s.inverse()
    prod = s * inv
    assert abs(prod.coeff(()) - 1.0) < 1e-14
    for w in [(0,), (1,), (0, 1), (0, 0, 1), (1, 1, 0, 0)]:
        assert abs(prod.coeff(w)) < 1e-12, w


def test_series_exp_grouplike():
    prim = NCPoly(X, {(0,): 0.3, (1,): -0.7}, depth=4)
    e = series_exp(prim)
    assert is_grouplike(e, "shuffle", 4, tol=1e-12)


def test_polylog_eval_values():
    def li(w, z, alphabet):
        return polylog_eval(w, z, alphabet=alphabet)[0]

    assert abs(li((0, 1), 0.5, X) - 0.5822405264650125) < 1e-12
    assert abs(li((2,), 0.5, Y) - 0.5822405264650125) < 1e-12
    # near the endpoint, against an independent dilog
    want = float(mpmath.polylog(2, 0.999))
    assert abs(li((0, 1), 0.999, X) - want) < 1e-8
    assert abs(li((1,), 0.9, X) + math.log(0.1)) < 1e-10


def test_zeta_numeric_partial_sums():
    assert abs(zeta_numeric(2) - ZETA2) < ROUNDING
    assert abs(zeta_numeric((2, 1)) - zeta_numeric(3)) < ROUNDING


@pytest.mark.parametrize("w", [1, (1,), (1, 2), (0, 3)])
def test_zeta_numeric_refuses_a_divergent_word(w):
    with pytest.raises(ValueError, match="divergent"):
        zeta_numeric(w)


def test_zeta_shuffle_reg_values():
    assert zeta_shuffle_reg((0,)) == 0.0
    assert zeta_shuffle_reg((1,)) == 0.0
    assert abs(zeta_shuffle_reg((0, 1)) - zeta_numeric(2)) < 1e-12
    # x1 x0 x1 = S_{x1x0x1} - 2 S_{x0x1x1}: value -2 zeta(2,1)
    assert abs(zeta_shuffle_reg((1, 0, 1)) + 2 * zeta_numeric((2, 1))) < 1e-12
    assert abs(zeta_shuffle_reg((1, 0, 1)) + 2 * ZETA3) < ROUNDING


def test_zeta_shuffle_reg_is_character():
    rng = random.Random(3)
    words = [(1,), (0, 1), (1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 1)]
    for _ in range(12):
        u = rng.choice(words)
        v = rng.choice(words)
        lhs = zeta_shuffle_reg(u) * zeta_shuffle_reg(v)
        rhs = sum(c * zeta_shuffle_reg(w)
                  for w, c in shuffle_words(u, v).items())
        assert abs(lhs - rhs) < 1e-9, (u, v)


def test_zeta_stuffle_reg_values():
    assert zeta_stuffle_reg((1,)) == 0.0
    assert abs(zeta_stuffle_reg((2,)) - zeta_numeric(2)) < 1e-12
    assert abs(zeta_stuffle_reg((2, 1)) - zeta_numeric((2, 1))) < 1e-12
    want = -zeta_numeric((2, 1)) - zeta_numeric(3)
    assert abs(zeta_stuffle_reg((1, 2)) - want) < 1e-12
    assert abs(zeta_stuffle_reg((1, 2)) + 2 * ZETA3) < ROUNDING


def test_zeta_stuffle_reg_is_character():
    rng = random.Random(5)
    words = [(1,), (2,), (1, 1), (2, 1), (1, 2), (3,)]
    for _ in range(12):
        u = rng.choice(words)
        v = rng.choice(words)
        lhs = zeta_stuffle_reg(u) * zeta_stuffle_reg(v)
        rhs = sum(c * zeta_stuffle_reg(w)
                  for w, c in stuffle_words(u, v).items())
        assert abs(lhs - rhs) < 1e-9, (u, v)


def test_z_shuffle_series():
    z = z_shuffle_series(4)
    assert z.coeff((0,)) == 0.0
    assert z.coeff((1,)) == 0.0
    assert abs(z.coeff((0, 1)) - ZETA2) < ROUNDING
    assert abs(z.coeff((1, 0)) + ZETA2) < ROUNDING
    # the ordered-exponential construction matches the character
    for w in [(0, 1), (1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 1), (0, 1, 0, 1)]:
        assert abs(z.coeff(w) - zeta_shuffle_reg(w)) < 1e-10, w
    assert is_grouplike(z, "shuffle", 4, tol=rounding_tol(z))


def test_z_stuffle_series():
    z = z_stuffle_series(4)
    assert z.coeff((1,)) == 0.0
    assert abs(z.coeff((2,)) - ZETA2) < ROUNDING
    assert abs(z.coeff((2, 1)) - zeta_numeric((2, 1))) < 1e-10
    for w in [(2,), (3,), (1, 2), (2, 1), (2, 2), (1, 1)]:
        assert abs(z.coeff(w) - zeta_stuffle_reg(w)) < 1e-10, w
    assert is_grouplike(z, "stuffle", 4, tol=rounding_tol(z))


def test_bridge():
    report = bridge_check(4)
    assert report["pass"], report
    assert report["max_abs_err"] < ROUNDING
    # weight-3 slot: the bridge transports zeta(2,1) onto zeta(3)
    lhs = z_stuffle_series(3)
    rhs = bridge_series(3)
    assert abs(lhs.coeff((3,)) - rhs.coeff((3,))) < ROUNDING
    assert abs(lhs.coeff((2, 1)) - rhs.coeff((2, 1))) < ROUNDING


@pytest.mark.parametrize("depth", range(2, 9))
def test_z_stuffle_from_the_constants_at_infinity(depth):
    # Z_st = Lambda(c_1 = -gamma) C, C = sum_w C_w w the constants of the
    # asymptotic expansions of the H_w(N), each matched to an exact H_w(50)
    # (Costermans, Enjalbert, Hoang Ngoc Minh and Petitot 2005): no zeta
    # off Z_sh and no stuffle regularization enters this side
    consts = NCPoly(Y, {w: harmonic_expansion(w)[0, 0]
                        for w in words_up_to(Y, depth)}, depth)
    got = y1_factor({1: -consts.coeff((1,))}, depth) * consts
    want = renorm._z_st(depth)
    assert got.max_abs_diff(want) <= rounding_tol(want, got)


def test_l_series_structure():
    lz = l_series(0.5, 3)
    assert abs(lz.coeff((1,)) + math.log(0.5)) < 1e-12
    assert abs(lz.coeff((0,)) - math.log(0.5)) < 1e-12
    assert abs(lz.coeff((0, 1)) - 0.5822405264650125) < 1e-10
    assert is_grouplike(lz, "shuffle", 3, tol=1e-10)


def test_abel_limits():
    report = abel_limits_check(3)
    assert report["pass"], report
    per = report["per_word"]
    # y1 and y1y1 cancel identically on both sides
    assert abs(per[(1,)]["n_side"]) < 1e-10
    assert abs(per[(1,)]["fitted"]) < 1e-9
    assert abs(per[(1, 1)]["n_side"]) < 1e-10
    assert abs(per[(1, 1)]["fitted"]) < 1e-8
    # the raw endpoint gap at eps = 1e-3 is NOT below 1e-3 (decays like
    # eps log eps); the fitted limit is what converges
    assert per[(2,)]["raw_gap"] > 1e-3
    assert per[(2,)]["fitted_gap"] < 1e-3
    assert per[(3,)]["fitted_gap"] < 1e-3


# bounds on max_fitted_gap, 25 to 55 times the gaps measured with the z side
# read through the reflection at 1 - 2^-53 and the N side the constants
# of the asymptotic expansions (4.0e-15, 1.8e-12, 2.9e-11, 5.8e-10)
FIT_GAP = {2: 1e-13, 3: 1e-10, 4: 1e-9, 5: 2e-8}


@pytest.mark.parametrize("depth", sorted(FIT_GAP))
def test_abel_z_side_is_the_z_shuffle_image(depth):
    report = abel_limits_check(depth)
    assert set(report) == {"max_weight", "eps_list", "tol", "per_word",
                           "max_fitted_gap", "pass"}
    assert report["eps_list"] == [1e-3, 2.0 ** -53]
    for w, row in report["per_word"].items():
        assert set(row) == {"raw_endpoint", "raw_gap", "fitted", "n_side",
                            "z_shuffle_side", "fitted_gap"}
        assert abs(row["fitted"] - row["z_shuffle_side"]) < 1e-8, w
    # what is left of the gap is the float rounding of both sides, which
    # grows like |log eps|^depth at eps = 2^-53
    assert report["max_fitted_gap"] < FIT_GAP[depth]


def test_n_side_matches_z_shuffle_image():
    n_side = n_side_limit_series(3)
    target = z_shuffle_series(3).pi_y()
    assert n_side.max_abs_diff(target) < 1e-13


def test_chen_endpoint_sanity():
    errs = chen_endpoint_sanity()
    assert len(errs) == 3
    mags = [abs(e) for _, e in errs]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 0.2


def test_euler_maclaurin_constants():
    out = euler_maclaurin_constants()
    assert abs(out["gamma"] - GAMMA) < ROUNDING
    want = (GAMMA ** 2 - ZETA2) / 2.0
    assert abs(out["gamma_y1y1"] - want) < ROUNDING
    assert abs(out["gamma_y1y1"] - out["gamma_y1y1_numeric"]) < ROUNDING
    assert out["series"].coeff((1,)) == out["gamma"]


def test_const_series_and_log_identity():
    c = const_series(10, 6)
    assert c.coeff((1,) * 2) == harmonic((1, 1), 10)
    assert const_log_identity(10, 6)
    assert const_log_identity(25, 4)


def test_mono_series_is_ogf_of_const():
    z = 0.5
    m = mono_series(z, 3)
    assert abs(m.coeff(()) - 2.0) < 1e-14
    for k in range(0, 4):
        acc = 0.0
        for n in range(0, 400):
            acc += float(harmonic((1,) * k, n)) * z ** n
        assert abs(m.coeff((1,) * k) - acc) < 1e-10, k


@pytest.mark.parametrize("depth", range(4))
def test_series_at_every_depth_are_float(depth):
    # the series 1 at depth 0 is float like every deeper series
    for series in (l_series(0.3, depth), z_shuffle_series(depth),
                   z_stuffle_series(depth)):
        assert series.terms
        assert all(type(c) is float for c in series.terms.values())


def test_depth_zero_series_are_float_one():
    # at depth 0 only the empty word is left: the float unit, nothing else
    for series in (l_series(0.3, 0), z_stuffle_series(0)):
        assert series.terms == {(): 1.0}
        assert type(series.terms[()]) is float


# --- near z = 1: the reflection L(z) = sigma(L(1 - z)) Z_sh -----------------

def lyndon_product(alphabet, depth, value):
    """prod_l exp(<value|S_l> P_l) up to a depth (Sigma_l and Pi_l over Y):
    the ordered product over the Lyndon words l, largest leftmost, where
    value(v) is the float that the character takes on the word v, read
    once per word.  A factor with a zero coefficient is 1 and skipped.
    The reference construction of a grouplike series from its character,
    independent of the coefficient-by-coefficient routes in renorm."""
    pbw, dual = basis_pair(alphabet)
    value = functools.cache(value)
    out = NCPoly(alphabet, {(): 1.0}, depth)
    for l in reversed(lyndon_words(alphabet, max_length=depth,
                                   max_weight=depth)):
        coef = sum(float(c) * value(v) for v, c in dual(l).terms.items())
        if coef:
            out = out * series_exp(pbw(l).truncate(depth).scale(coef))
    return out


def direct_l(z, depth):
    """L(z) from polylogarithms summed at z itself, with no reflection."""
    letters = {(0,): math.log(z), (1,): -math.log(1.0 - z)}
    return lyndon_product(
        X, depth, lambda v: letters[v] if v in letters
        else polylog_eval(v, z, alphabet=X)[0])


@pytest.mark.parametrize("depth", [1, 3, 5, 7])
def test_reflection_at_one_against_the_direct_product(depth):
    for z in (0.01, 0.1, 0.25, 0.4, 0.5):
        lhs = renorm._sigma(l_series(z, depth)) * z_shuffle_series(depth)
        rhs = direct_l(1.0 - z, depth)
        assert lhs.max_abs_diff(rhs) <= rounding_tol(lhs, rhs), (z, depth)


def test_no_polylog_is_summed_past_one_half(monkeypatch):
    # every Li partial sum, in one sweep or in polylog_eval, takes the
    # powers of its z from _li_powers
    seen = []

    def recorder(z, terms):
        seen.append(z)
        return _li_powers(z, terms)

    monkeypatch.setattr(renorm, "_li_powers", recorder)
    monkeypatch.setattr(polylog, "_li_powers", recorder)
    l_series(0.9, 5)
    chen_between(0.3, 0.95, 4)
    abel_limits_check(3)
    assert seen and max(seen) <= 0.5


@pytest.mark.parametrize("z", [0.5, 0.1])
def test_li_columns_end_where_the_powers_underflow(monkeypatch, z):
    # past the first n with z^n == 0.0 every product is 0.0: no column of
    # the Li sums of L(z) reaches it (the full count is 2000 terms)
    powers = z ** np.arange(1, 2001, dtype=float)
    zero_at = int(np.flatnonzero(powers == 0)[0]) + 1
    lengths = []

    def recorder(N, letters):
        for e, col in nested_sum_sweep(N, letters):
            lengths.append(len(col))
            yield e, col

    monkeypatch.setattr(renorm, "nested_sum_sweep", recorder)
    l_series(z, 6)
    assert lengths and max(lengths) <= zero_at < 2001


def test_l_series_next_to_one_against_mpmath():
    z = 0.999999
    with budget(1.0):
        lz = l_series(z, 7)
    assert abs(lz.coeff((0, 1)) - float(mpmath.polylog(2, z))) < 1e-13
    assert abs(lz.coeff((0, 0, 1)) - float(mpmath.polylog(3, z))) < 1e-13
    # Li_{x0 x1 x1}(z) = int_0^z log^2(1 - t) / (2 t) dt
    with mpmath.workdps(30):
        want = mpmath.quad(lambda t: mpmath.log(1 - t) ** 2 / (2 * t),
                           [0, 0.5, z])
    assert abs(lz.coeff((0, 1, 1)) - float(want)) < 1e-13


def test_l_series_at_the_float_next_to_one_is_grouplike():
    lz = l_series(1 - 2 ** -52, 5)
    assert is_grouplike(lz, "shuffle", 5, tol=rounding_tol(lz))


# --- one associator per depth: Z_st, the bridge and L(z) read each series once

def test_z_sh_at_depth_8_agrees_bit_for_bit_with_each_word_depth():
    # what lets Z_st(d) read every zeta off Z_sh(d) instead of Z_sh(|w|)
    deep = renorm._z_sh(8)
    for w in words_up_to(X, 8):
        assert deep.coeff(w) == renorm._z_sh(len(w)).coeff(w), w


def test_stuffle_duals_of_lyndon_words_start_past_y1():
    # no word of Sigma_l (l != y1) starts with y1, so pi_Y(Z_sh) is read
    # only where zeta converges
    dual = basis_pair(Y)[1]
    lyndon = [l for l in lyndon_words(Y, max_length=8, max_weight=8)
              if l != (1,)]
    assert len(lyndon) > 20
    for l in lyndon:
        assert all(v[0] >= 2 for v in dual(l).terms), l


@pytest.mark.parametrize("depth", range(1, 9))
def test_z_st_character_is_pi_y_of_z_sh(depth):
    z_st = renorm._z_st(depth)
    zeta = renorm._z_sh(depth).pi_y()
    assert (1,) not in zeta.terms and (1,) not in z_st.terms
    # off the run of y1, Z_st is read off Z_sh: zeta(v) for every v
    for v in words_up_to(Y, depth):
        if v and v[0] >= 2:
            assert z_st.coeff(v) == zeta_numeric(v), v
    # and it is the Lyndon product read with pi_Y(Z_sh) (0 on y1)
    product = lyndon_product(Y, depth, zeta.coeff)
    assert set(z_st.terms) == set(product.terms)
    assert z_st.max_abs_diff(product) <= rounding_tol(z_st, product)


def test_cold_bridge_builds_one_associator():
    code = ("from ncgen import renorm; renorm.bridge_check(8); "
            "print(renorm._z_sh.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(renorm.__file__)
                                          .resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out == "1\n"


@pytest.mark.parametrize("depth, columns", [(7, 128), (8, 256)])
def test_l_series_sums_each_polylog_once(monkeypatch, depth, columns):
    # one sweep per L(z), with a column for each Y-code of weight <= depth
    # (2^depth of them, () among them), each built once; no word is summed
    # on its own
    sweeps, seen, alone = [], [], []

    def recorder(N, letters):
        sweeps.append(N)
        for e, col in nested_sum_sweep(N, letters):
            seen.append(e)
            yield e, col

    monkeypatch.setattr(renorm, "nested_sum_sweep", recorder)
    monkeypatch.setattr(polylog, "polylog_eval",
                        lambda *args, **kwargs: alone.append(args))
    l_series(0.4, depth)
    assert len(sweeps) == 1 and not alone
    assert len(seen) == len(set(seen)) == columns


@pytest.mark.parametrize("z", [0.5, 0.4, 0.1, 1e-3, 2.0 ** -53])
def test_l_series_convergent_coefficients_are_polylog_eval(z):
    # bit for bit: the sweep builds each column as polylog_eval does, and
    # sums it the same way; x1 is -log(1 - z), not a sum
    lz = l_series(z, 8)
    words = [w for w in words_up_to(X, 8) if w[-1:] == (1,) and w != (1,)]
    assert len(words) == 254
    for w in words:
        assert lz.coeff(w) == polylog_eval(w, z, alphabet=X)[0], w
    assert lz.coeff((1,)) == -math.log(1.0 - z)
    # and each coefficient depends on its word only
    shallow = l_series(z, 5)
    assert all(lz.coeff(w) == c for w, c in shallow.terms.items())


@pytest.mark.parametrize("depth", [1, 3, 5, 7])
def test_l_series_meets_the_lyndon_product(depth):
    for z in (0.01, 0.1, 0.25, 0.4, 0.5):
        lhs, rhs = l_series(z, depth), direct_l(z, depth)
        assert set(lhs.terms) == set(rhs.terms)
        assert lhs.max_abs_diff(rhs) <= rounding_tol(lhs, rhs), (z, depth)


# bridge_check(d)["max_abs_err"] when Z_st was the Lyndon product of
# exponentials read with pi_Y(Z_sh) (and Z_sh read coefficient by
# coefficient); before that, with L(1/2) a Lyndon product too, depth 8 gave
# 2.84e-14 and depth 10 6.68e-13
LYNDON_BRIDGE_ERR = {3: 4.440892098500626e-16, 4: 4.440892098500626e-16,
                     5: 8.881784197001252e-16, 6: 1.7763568394002505e-15,
                     7: 7.105427357601002e-15, 8: 1.4210854715202004e-14,
                     9: 2.1316282072803006e-14, 10: 4.263256414560601e-14}


def test_bridge_error_is_not_above_the_lyndon_route():
    for depth, err in LYNDON_BRIDGE_ERR.items():
        assert bridge_check(depth)["max_abs_err"] <= err, depth


# --- every grouplike series from an identity on its coefficients ------------

@pytest.mark.parametrize("read, w", [
    (zeta_stuffle_reg, (-1, 3)), (zeta_stuffle_reg, (2, 0)),
    (zeta_shuffle_reg, (2,)), (zeta_shuffle_reg, (0, -1))])
def test_zeta_readers_refuse_a_letter_outside_their_alphabet(read, w):
    with pytest.raises(ValueError, match="not an? [XY]-word"):
        read(w)


def test_a_negative_weight_builds_and_keeps_no_zeta_table():
    sizes = (renorm._z_st.cache_info().currsize,
             renorm._z_sh.cache_info().currsize)
    with pytest.raises(ValueError,
                       match=r"^not a Y-word \(letters y_k, k >= 1\): \(-3,\)$"):
        zeta_stuffle_reg((-3,))
    assert (renorm._z_st.cache_info().currsize,
            renorm._z_sh.cache_info().currsize) == sizes
    with pytest.raises(ValueError, match="depth must be >= 0"):
        l_series(0.3, -1)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        l_series(0.7, -1)


def test_the_limits_at_infinity_take_no_n():
    # no partial sum at any N enters them, so no N is accepted or reported
    for fn, args in ((bridge_check, (4,)), (n_side_limit_series, (3,)),
                     (abel_limits_check, (3,)), (euler_maclaurin_constants, ()),
                     (renorm.euler_gamma_estimate, ())):
        with pytest.raises(TypeError, match="'n'"):
            fn(*args, n=10)
    assert "n" not in abel_limits_check(3)


def test_zeta_stuffle_of_a_run_of_y1_meets_the_gamma_closed_form():
    # sum_k zeta_st(y1^k) t^k = exp(sum_{n>=2} (-1)^(n-1) zeta(n) t^n / n)
    # = 1 / (Gamma(1 + t) e^(gamma t)); y1^10, the longest run the
    # recursion meets at depth 10, takes the most steps
    with mpmath.workdps(30):
        want = mpmath.taylor(lambda t: 1 / (mpmath.gamma(1 + t)
                                            * mpmath.exp(mpmath.euler * t)),
                             0, 10)
    for k in range(2, 11):
        assert abs(zeta_stuffle_reg((1,) * k) - want[k]) <= 1e-14, k


def test_renorm_runs_without_hopf():
    # no Lyndon basis on any float path: renorm, and the verify commands
    # that read it, never import the module of the PBW bases
    code = "\n".join([
        "import sys",
        "from ncgen import renorm",
        "from ncgen.cli import main",
        "renorm.bridge_check(8)",
        "renorm.abel_limits_check(4)",
        "renorm.chen_between(0.2, 0.7, 5)",
        "renorm.euler_maclaurin_constants()",
        "assert main(['verify', 'grouplike', '--depth', '4']) == 0",
        "print('ncgen.hopf' in sys.modules)"])
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(renorm.__file__)
                                          .resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("depth", range(1, 9))
def test_antipode_inverts_l(depth):
    one = NCPoly(X, {(): 1.0}, depth)
    for z in (0.1, 0.5, 0.9):
        lz = l_series(z, depth)
        product = renorm._antipode(lz) * lz
        assert product.max_abs_diff(one) <= rounding_tol(lz), (z, depth)


def test_chen_between_takes_no_series_inverse(monkeypatch):
    inverse, calls = NCPoly.inverse, []

    def recorder(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(NCPoly, "inverse", recorder)
    for z0, z1 in ((0.2, 0.7), (0.9, 0.1), (0.5, 0.5)):
        for depth in (1, 3, 5, 7):
            got = chen_between(z0, z1, depth)
            assert not calls
            want = l_series(z1, depth) * inverse(l_series(z0, depth))
            assert got.max_abs_diff(want) <= rounding_tol(got, want), (
                z0, z1, depth)


def test_cold_z_st_at_depth_10_is_fast():
    # with Z_sh(10) built; the fastest of three keeps a busy host from
    # failing the test
    renorm._z_sh(10)
    times = []
    for _ in range(3):
        renorm._z_st.cache_clear()
        t = time.perf_counter()
        renorm._z_st(10)
        times.append(time.perf_counter() - t)
    assert min(times) < 0.1, times


def test_zetas_at_weight_12_meet_their_closed_forms():
    with mpmath.workdps(40):
        pi12 = mpmath.pi ** 12
        cases = {(2,) * 6: pi12 / mpmath.factorial(13),      # zeta({2}^n)
                 (3, 1) * 3: 2 * pi12 / mpmath.factorial(14),  # zeta({3,1}^n)
                 (12,): mpmath.zeta(12)}
        for w, want in cases.items():
            got = zeta_numeric(w)
            assert abs(got - want) <= 1e-15 * want, w


def test_duality_holds_through_depth_12():
    # zeta(w) = zeta(swap(rev w)) on every convergent X-word
    z = renorm._z_sh(12)
    for w in words_up_to(X, 12):
        if w[:1] == (0,) and w[-1:] == (1,):
            dual = tuple(1 - a for a in reversed(w))
            assert abs(z.coeff(w) - z.coeff(dual)) <= 1e-15, w


def test_cold_z_sh_at_depth_12_is_fast():
    # _z_sh is the only cache on its path, so clearing it makes it cold;
    # the fastest of three keeps a busy host from failing the test
    times = []
    for _ in range(3):
        renorm._z_sh.cache_clear()
        t = time.perf_counter()
        renorm._z_sh(12)
        times.append(time.perf_counter() - t)
    assert min(times) < 0.5, times


# --- renormalization at +infinity: the asymptotic expansion of H_w(N) --------

def _fixed_point_harmonic(w, N, bits=256):
    """H_w(n), n = 0..N, as integers over 2^bits: each term n^-s rounded
    down, so the error is below N |w| 2^-bits."""
    col = [1 << bits] * (N + 1)
    for s in reversed(w):
        new = [0] * (N + 1)
        for n in range(1, N + 1):
            new[n] = new[n - 1] + col[n - 1] // n ** s
        col = new
    return col


def test_fixed_point_reference_is_the_exact_sum():
    for w in [(1,), (3,), (1, 1), (2, 1, 1), (1, 2, 3), (1,) * 6]:
        col = _fixed_point_harmonic(w, 300)
        for N in (asymptotics.N0, 123, 300):
            exact = harmonic(w, N)
            assert abs(Fraction(col[N], 1 << 256) - exact) < 2.0 ** -200, w


_Y6 = [w for w in words_up_to(Y, 6) if w]


@settings(max_examples=40, deadline=None)
@given(w=st.sampled_from(_Y6), N=st.integers(asymptotics.N0, 10 ** 4))
def test_harmonic_expansion_meets_the_exact_sums(w, N):
    want = _fixed_point_harmonic(w, N)[N] / 2.0 ** 256
    got = expansion_value(harmonic_expansion(w), N)
    assert abs(got - want) <= 1e-14 * abs(want), (w, N, got, want)


def test_gamma_is_the_constant_of_h_y1():
    with mpmath.workdps(30):
        for gamma in (renorm.euler_gamma_estimate(),
                      euler_maclaurin_constants()["gamma"]):
            assert abs(gamma - mpmath.euler) <= 1e-15


@pytest.mark.parametrize("depth", [4, 5])
def test_verify_abel_passes_at_depths_4_and_5(depth):
    report = abel_limits_check(depth)
    assert report["pass"] and report["max_fitted_gap"] < 1e-8, report


def test_n_side_builds_no_harmonic_column_past_n0(monkeypatch):
    # the N side and the constants read the expansions of H_w(N): exact
    # sums at N0 only, and no float harmonic sum; every float column built
    # is a Li column of one L(z) at z <= 1/2, cut where z^n underflows
    asymptotics.harmonic_expansion.cache_clear()
    exact, cuts, sweeps = [], [], []

    def exact_sum(w, N):
        exact.append(N)
        return harmonic(w, N)

    def powers(z, terms):
        p = _li_powers(z, terms)
        cuts.append(len(p))
        return p

    def sweep(N, letters):
        sweeps.append(N)
        return nested_sum_sweep(N, letters)

    def forbidden(*args, **kwargs):
        raise AssertionError("a float harmonic sum was built")

    monkeypatch.setattr(asymptotics, "harmonic", exact_sum)
    monkeypatch.setattr(renorm, "_li_powers", powers)
    monkeypatch.setattr(renorm, "nested_sum_sweep", sweep)
    for name in ("harmonic_array", "harmonic_float", "nested_sum_sweep"):
        monkeypatch.setattr(polylog, name, forbidden)
    assert abel_limits_check(4)["pass"]
    euler_maclaurin_constants()
    assert exact and set(exact) == {asymptotics.N0}
    assert sweeps == cuts and max(sweeps) <= 1075
