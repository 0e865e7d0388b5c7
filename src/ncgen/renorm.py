"""Renormalized generating series of polylogarithms and harmonic sums.

Everything here is numeric (float coefficients) but structurally exact:
series are built as ordered products of exponentials of the primitive
basis elements, so grouplikeness and character identities hold up to
floating-point noise and finite-sum truncation of the zeta values.

Contents:
  * the series are ncpoly.NCPoly with float coefficients and a depth
    (TruncatedNCSeries is another name for it), and series_exp is
    ncpoly.series_exp;
  * regularized zeta characters for the shuffle (X) and stuffle (Y)
    sides, defined by sending the Lyndon-letter coordinates to zero in
    the dual-basis factorization;
  * the two renormalized series Z and their comparison ("bridge"),
    which trades the letter y1 between the two sides;
  * the z -> 1 / N -> infinity Abel-type comparison of the polylog and
    harmonic-sum generating series, with a fitted limit in the basis
    {1, eps log eps, eps} since the raw endpoint gap decays like
    eps log eps;
  * Euler-Maclaurin constants (gamma and the y1^2 coefficient);
  * the single-variable monomial/constant-part series in y1.
"""

import math
from fractions import Fraction

import numpy as np

from ncgen.hopf import decompose_in_basis, dual_s, dual_sigma, pbw_p, pbw_pi
from ncgen.ncpoly import NCPoly, series_exp, words_up_to
from ncgen.polylog import harmonic, harmonic_float, polylog_eval
from ncgen.words import (
    X,
    Y,
    lyndon_decompose,
    lyndon_words,
    pi_y_word,
)

DEFAULT_N = 100000


# the float series are NCPoly with a depth; the name stays for importers
TruncatedNCSeries = NCPoly


# ---------------------------------------------------------------------------
# numeric polylogarithms and zeta values

def li_numeric(w, z, n_terms=None):
    """Li_w(z) for a convergent X-word (x0...x1) or Y-word, |z| < 1."""
    return polylog_eval(w, z, n_terms)[0]


def zeta_numeric(w, n=DEFAULT_N):
    """Partial-sum zeta value: int k -> zeta(k); Y-word -> zeta(s1,...,sr)."""
    if isinstance(w, int):
        w = (w,)
    w = tuple(w)
    if not w:
        return 1.0
    if w[0] < 2:
        raise ValueError("divergent at %r; use a regularized character" % (w,))
    return harmonic_float(w, n)


def _zeta_of_dual(poly, n):
    """Numeric value of a dual-basis element: a combination of convergent words."""
    total = 0.0
    for v, c in poly.terms.items():
        if poly.alphabet == X:
            yv = pi_y_word(v)
            if yv is None or yv[0] < 2:
                raise AssertionError("divergent word in dual element: %r" % (v,))
        else:
            yv = v
            if yv[0] < 2:
                raise AssertionError("divergent word in dual element: %r" % (v,))
        total += float(c) * zeta_numeric(yv, n)
    return total


def zeta_shuffle_reg(w, n=DEFAULT_N):
    """Shuffle-regularized zeta of any X-word: letter coordinates -> 0.

    Decompose the word in the shuffle dual basis; on a basis element
    with Lyndon factorization l1^i1...lk^ik the character takes the
    value prod zeta(S_lj)^ij / ij!, with zeta := 0 on the two letters.
    """
    w = tuple(w)
    coords = decompose_in_basis(NCPoly.word(w, X), "S")
    total = 0.0
    for u, c in coords.items():
        val = float(c)
        for l, mult in lyndon_decompose(u, X):
            if len(l) == 1:
                val = 0.0
                break
            val *= _zeta_of_dual(dual_s(l), n) ** mult / math.factorial(mult)
        total += val
    return total


def zeta_stuffle_reg(w, n=DEFAULT_N):
    """Stuffle-regularized zeta of any Y-word: the y1 coordinate -> 0."""
    w = tuple(w)
    coords = decompose_in_basis(NCPoly.word(w, Y), "Sigma")
    total = 0.0
    for u, c in coords.items():
        val = float(c)
        for l, mult in lyndon_decompose(u, Y):
            if l == (1,):
                val = 0.0
                break
            val *= _zeta_of_dual(dual_sigma(l), n) ** mult / math.factorial(mult)
        total += val
    return total


# ---------------------------------------------------------------------------
# renormalized series

def z_shuffle_series(depth, n=DEFAULT_N):
    """Z for the shuffle side: ordered product over Lyndon X-words of
    exp(zeta(S_l) P_l), letters excluded, largest Lyndon word leftmost."""
    out = NCPoly(X, {(): 1.0}, depth)
    for l in reversed(lyndon_words(X, max_length=depth)):
        if len(l) == 1:
            continue
        coef = _zeta_of_dual(dual_s(l), n)
        out = out * series_exp(pbw_p(l).truncate(depth).scale(coef))
    return out


def z_stuffle_series(depth, n=DEFAULT_N):
    """Z for the stuffle side: product of exp(zeta(Sigma_l) Pi_l), l != y1."""
    out = NCPoly(Y, {(): 1.0}, depth)
    for l in reversed(lyndon_words(Y, max_weight=depth)):
        if l == (1,):
            continue
        coef = _zeta_of_dual(dual_sigma(l), n)
        out = out * series_exp(pbw_pi(l).truncate(depth).scale(coef))
    return out


def bridge_series(depth, n=DEFAULT_N, z_shuffle=None):
    """exp(-sum_{k>=2} zeta(k)(-y1)^k/k) * pi_Y(Z_shuffle)."""
    if z_shuffle is None:
        z_shuffle = z_shuffle_series(depth, n)
    coefs = {k: -zeta_numeric(k, n) * (-1.0) ** k / k
             for k in range(2, depth + 1)}
    return ncpoly_exp_y1(coefs, depth) * z_shuffle.pi_y()


def bridge_check(depth=4, n=DEFAULT_N, tol=1e-2):
    """Compare Z_stuffle against the y1-corrected image of Z_shuffle."""
    lhs = z_stuffle_series(depth, n)
    rhs = bridge_series(depth, n)
    err = lhs.max_abs_diff(rhs)
    return {"depth": depth, "n": n, "max_abs_err": err, "tol": tol,
            "pass": err <= tol}


# ---------------------------------------------------------------------------
# the factorized polylog generating series L(z)

def l_series(z, depth, n_terms=None):
    """L(z) = e^{-log(1-z) x1} prod_l exp(Li_{S_l}(z) P_l) e^{log(z) x0}.

    The ordered product runs over Lyndon X-words other than the letters,
    largest leftmost; each Li_{S_l} is a finite combination of
    convergent polylogarithms.
    """
    out = series_exp(NCPoly(X, {(1,): -math.log(1.0 - z)}, depth))
    for l in reversed(lyndon_words(X, max_length=depth)):
        if len(l) == 1:
            continue
        coef = sum(float(c) * polylog_eval(v, z, n_terms, X)[0]
                   for v, c in dual_s(l).terms.items())
        out = out * series_exp(pbw_p(l).truncate(depth).scale(coef))
    return out * series_exp(NCPoly(X, {(0,): math.log(z)}, depth))


def chen_between(z0, z1, depth, n_terms=None):
    """Truncated Chen series along z0 -> z1 (both in (0,1)): L(z1) L(z0)^{-1}."""
    return l_series(z1, depth, n_terms) * l_series(z0, depth, n_terms).inverse()


def chen_endpoint_sanity(eps_list=(0.1, 0.03, 0.01), depth=2):
    """Regularized endpoint extraction of zeta(2) from a Chen series.

    e^{x1 log eps} S_{eps -> 1-eps} e^{x0 log eps} has x0x1-coefficient
    tending to zeta(2); returns [(eps, error)] with |error| decreasing.
    """
    out = []
    target = math.pi ** 2 / 6.0
    for eps in eps_list:
        s = chen_between(eps, 1.0 - eps, depth)
        left = series_exp(NCPoly(X, {(1,): math.log(eps)}, depth))
        right = series_exp(NCPoly(X, {(0,): math.log(eps)}, depth))
        reg = left * s * right
        out.append((eps, reg.coeff((0, 1)) - target))
    return out


# ---------------------------------------------------------------------------
# Abel-type limits

def harmonic_truncated_series(n, max_weight):
    """H(n) as a float Y-series up to a weight (numpy-backed per word)."""
    t = {w: harmonic_float(w, n) for w in words_up_to(Y, max_weight)}
    return NCPoly(Y, t, max_weight)


def n_side_limit_series(max_weight, n=DEFAULT_N):
    """exp(sum_k H_{y_k}(n) (-y1)^k / k) H(n)."""
    coefs = {k: harmonic_float((k,), n) * (-1.0) ** k / k
             for k in range(1, max_weight + 1)}
    return ncpoly_exp_y1(coefs, max_weight) * harmonic_truncated_series(n, max_weight)


def z_side_series(z, max_weight, n_terms=None):
    """exp(-y1 log(1/(1-z))) pi_Y(L(z))."""
    lz = l_series(z, max_weight, n_terms)
    head = ncpoly_exp_y1({1: math.log(1.0 - z)}, max_weight)
    return head * lz.pi_y()


def abel_limits_check(max_weight=3, n=DEFAULT_N,
                      eps_list=(1e-2, 5e-3, 2e-3, 1e-3), tol=1e-3):
    """Compare the z -> 1 and N -> infinity regularized limits.

    The raw endpoint gap at z = 1 - eps decays like eps log^j(eps)
    (j < weight), which at eps = 1e-3 is still a few 1e-3; so alongside
    the raw gap the check fits g(eps) = a + b eps log(eps) + c eps +
    d eps log^2(eps) through the sampled endpoints and compares the
    fitted limit a (per word) against the N-side value.
    """
    n_side = n_side_limit_series(max_weight, n)
    z_target = z_shuffle_series(max_weight, n).pi_y()
    samples = [z_side_series(1.0 - eps, max_weight) for eps in eps_list]
    design = np.array([[1.0, e * math.log(e), e, e * math.log(e) ** 2]
                       for e in eps_list])
    words = words_up_to(Y, max_weight)
    report = {}
    worst = 0.0
    for w in words:
        if not w:
            continue
        values = np.array([s.coeff(w) for s in samples])
        coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
        fitted = float(coeffs[0])
        target = n_side.coeff(w)
        raw_gap = abs(values[-1] - target)
        fitted_gap = abs(fitted - target)
        worst = max(worst, fitted_gap)
        report[w] = {
            "raw_endpoint": float(values[-1]),
            "raw_gap": float(raw_gap),
            "fitted": fitted,
            "n_side": target,
            "z_shuffle_side": z_target.coeff(w),
            "fitted_gap": float(fitted_gap),
        }
    return {"max_weight": max_weight, "n": n, "eps_list": list(eps_list),
            "tol": tol, "per_word": report, "max_fitted_gap": worst,
            "pass": worst <= tol}


# ---------------------------------------------------------------------------
# Euler-Maclaurin constants and the y1-only series

def euler_gamma_estimate(n=DEFAULT_N):
    """gamma from H_{y1}(n) with the 1/(2n) - 1/(12n^2) correction."""
    h = harmonic_float((1,), n)
    return h - math.log(n) - 1.0 / (2.0 * n) + 1.0 / (12.0 * n * n)


def euler_maclaurin_constants(n=DEFAULT_N, depth=4):
    """The y1-direction renormalization constants.

    Returns gamma, the y1^2 coefficient of exp(gamma y1 - sum_{k>=2}
    zeta(k)(-y1)^k/k) (which equals (gamma^2 - zeta(2))/2), a direct
    numeric estimate of the same constant from H_{y1 y1}(n), and the
    series itself.
    """
    gamma = euler_gamma_estimate(n)
    coefs = {1: gamma}
    for k in range(2, depth + 1):
        coefs[k] = -zeta_numeric(k, n) * (-1.0) ** k / k
    series = ncpoly_exp_y1(coefs, depth)
    h11 = harmonic_float((1, 1), n)
    logn = math.log(n)
    numeric = h11 - logn ** 2 / 2.0 - gamma * logn
    return {
        "gamma": gamma,
        "gamma_y1y1": series.coeff((1, 1)),
        "gamma_y1y1_numeric": numeric,
        "series": series,
    }


def const_series(n, max_weight):
    """Exact y1-only part of H(n): sum_k H_{y1^k}(n) y1^k as an NCPoly."""
    t = {}
    for k in range(0, max_weight + 1):
        t[(1,) * k] = harmonic((1,) * k, n)
    return NCPoly(Y, t)


def ncpoly_exp_y1(coefs, max_weight):
    """exp(sum_k coefs[k] y1^k), k >= 1, as a Y-series truncated by weight;
    exact or float as the coefficients are."""
    return series_exp(NCPoly(Y, {(1,) * k: c for k, c in coefs.items()},
                             max_weight))


def const_log_identity(n, max_weight):
    """Exact: Const(n) = exp(-sum_k H_{y_k}(n) (-y1)^k / k)."""
    coefs = {k: -harmonic((k,), n) * Fraction((-1) ** k, k)
             for k in range(1, max_weight + 1)}
    return ncpoly_exp_y1(coefs, max_weight) == const_series(n, max_weight)


def mono_series(z, max_weight):
    """Float y1-only series with coefficients (-log(1-z))^k / (k! (1-z))."""
    lg = -math.log(1.0 - z)
    t = {}
    for k in range(0, max_weight + 1):
        t[(1,) * k] = lg ** k / (math.factorial(k) * (1.0 - z))
    return NCPoly(Y, t, max_weight)
