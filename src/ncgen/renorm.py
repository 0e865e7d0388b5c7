"""Renormalized generating series of polylogarithms and harmonic sums.

Everything here is numeric (float coefficients) but structurally exact:
series are built as ordered products of exponentials of the primitive
basis elements, so grouplikeness and character identities hold up to
floating-point rounding.  So do the zeta values: no partial sum enters
them (DEFAULT_N is the N of the N-side harmonic sums only).

Contents:
  * the series are ncpoly.NCPoly with float coefficients and a depth
    (TruncatedNCSeries is another name for it), and series_exp is
    ncpoly.series_exp;
  * one Lyndon-ordered product of exponentials, _lyndon_product, read
    with a character, once per word: Li(z) for L(z), pi_Y(Z_sh) for Z_st;
  * regularized zeta characters for the shuffle (X) and stuffle (Y)
    sides (zero on the letters x0, x1 and y1): coefficients of Z_sh =
    sigma(L(1/2))^{-1} L(1/2) and of Z_st, each read at the depth of its
    word from a functools.cache per depth (_z_sh, _z_st), Z_st(d) and the
    bridge from the one Z_sh(d);
  * the two renormalized series Z and their comparison ("bridge"),
    which trades the letter y1 between the two sides;
  * L(z) past 1/2 by the reflection at 1, sigma(L(1-z)) Z_sh (Z_sh is
    Drinfeld's KZ associator), so no Li is summed at z > 1/2;
  * the z -> 1 / N -> infinity Abel-type comparison of the polylog and
    harmonic-sum generating series, the z side at the float below 1;
  * Euler-Maclaurin constants (gamma and the y1^2 coefficient);
  * the single-variable monomial/constant-part series in y1.
"""

import functools
import math
from fractions import Fraction

from ncgen.hopf import basis_pair
from ncgen.ncpoly import NCPoly, series_exp, words_up_to
from ncgen.polylog import (harmonic, harmonic_float, harmonic_truncated_series,
                           polylog_eval)
from ncgen.words import X, Y, lyndon_words, pi_x_word

DEFAULT_N = 100000


# the float series are NCPoly with a depth; the name stays for importers
TruncatedNCSeries = NCPoly


def _lyndon_product(alphabet, depth, value):
    """prod_l exp(<value|S_l> P_l) up to a depth (Sigma_l and Pi_l over Y):
    the ordered product over the Lyndon words l, largest leftmost, where
    value(v) is the float that the character takes on the word v, read
    once per word (a memo for this product only).  A factor with a zero
    coefficient is 1 and skipped; the product starts from the first
    factor, {(): 1.0} when there is none (at depth 0).
    """
    pbw, dual = basis_pair(alphabet)
    value = functools.cache(value)
    out = None
    for l in reversed(lyndon_words(alphabet, max_length=depth,
                                   max_weight=depth)):
        coef = sum(float(c) * value(v) for v, c in dual(l).terms.items())
        if coef:
            factor = series_exp(pbw(l).truncate(depth).scale(coef))
            out = factor if out is None else out * factor
    return NCPoly(alphabet, {(): 1.0}, depth) if out is None else out


# ---------------------------------------------------------------------------
# numeric polylogarithms and zeta values

def li_numeric(w, z):
    """Li_w(z) for a convergent X-word (x0...x1) or Y-word, |z| < 1."""
    return polylog_eval(w, z)[0]


def _sigma(s):
    """sigma(S), the pullback under t -> 1 - t: x0 -> -x1, x1 -> -x0
    (dt/t becomes -dt/(1-t)); no word reversal."""
    return NCPoly(X, {tuple(1 - a for a in w): -c if len(w) % 2 else c
                      for w, c in s.terms.items()}, s.depth)


@functools.cache
def _z_sh(depth):
    """Z_sh = sigma(L(1/2))^{-1} L(1/2) up to a depth, the regularized
    value of L at 1 (Drinfeld's KZ associator); each Li at 1/2 converges
    like 2^-n.  Shared by every caller: read it, never change it."""
    half = l_series(0.5, depth)
    return _sigma(half).inverse() * half


def zeta_numeric(w):
    """zeta(k) for an int k, zeta(s1,...,sr) for a convergent Y-word:
    <Z_sh | pi_X(w)>, exact up to float rounding."""
    w = (w,) if isinstance(w, int) else tuple(w)
    if w and w[0] < 2:
        raise ValueError("divergent at %r; use a regularized character" % (w,))
    return zeta_shuffle_reg(pi_x_word(w))


def zeta_shuffle_reg(w):
    """Shuffle-regularized zeta of any X-word, <Z_sh | w>: the character
    with zeta := 0 on the two letters."""
    w = tuple(w)
    return float(_z_sh(len(w)).coeff(w))


def zeta_stuffle_reg(w):
    """Stuffle-regularized zeta of any Y-word, <Z_st | w>: the character
    with zeta := 0 on y1."""
    w = tuple(w)
    return float(_z_st(sum(w)).coeff(w))


# ---------------------------------------------------------------------------
# renormalized series

def z_shuffle_series(depth):
    """Z for the shuffle side: Z_sh, equal to the ordered product over
    Lyndon X-words of exp(zeta(S_l) P_l), letters excluded, largest
    leftmost, with zetas exact up to float rounding; a copy, so the
    caller may change it."""
    return NCPoly(X, _z_sh(depth).terms, depth)


@functools.cache
def _z_st(depth):
    """z_stuffle_series, shared by every caller: read it, never change it."""
    return _lyndon_product(Y, depth, _z_sh(depth).pi_y().coeff)


def z_stuffle_series(depth):
    """Z for the stuffle side: product of exp(zeta(Sigma_l) Pi_l), l != y1,
    zetas read off pi_Y(Z_sh) at the same depth, 0 on y1 as Z_sh is on x1
    (exact up to float rounding); a copy, so the caller may change it."""
    return NCPoly(Y, _z_st(depth).terms, depth)


def bridge_series(depth):
    """exp(-sum_{k>=2} zeta(k)(-y1)^k/k) * pi_Y(Z_shuffle), zeta(k) read
    off that pi_Y(Z_shuffle)."""
    zeta = _z_sh(depth).pi_y()
    coefs = {k: -zeta.coeff((k,)) * (-1.0) ** k / k
             for k in range(2, depth + 1)}
    return ncpoly_exp_y1(coefs, depth) * zeta


def rounding_tol(*series):
    """Float rounding of the zeta series: 1e-12 max(1, max |coefficient|)."""
    return 1e-12 * max([1.0] + [abs(c) for s in series
                                for c in s.terms.values()])


def bridge_check(depth=4, n=None, tol=None):
    """Compare Z_stuffle against the y1-corrected image of Z_shuffle.

    tol=None: rounding_tol of the two sides.  n is accepted and unused;
    no harmonic sum enters the bridge.
    """
    lhs = _z_st(depth)
    rhs = bridge_series(depth)
    if tol is None:
        tol = rounding_tol(lhs, rhs)
    err = lhs.max_abs_diff(rhs)
    return {"depth": depth, "max_abs_err": err, "tol": tol,
            "pass": err <= tol}


# ---------------------------------------------------------------------------
# the factorized polylog generating series L(z)

def _check_segment(*zs):
    """The forms dz/z and dz/(1-z) are regular only for 0 < z < 1."""
    if not all(0 < z < 1 for z in zs):
        raise ValueError("segment must stay inside (0, 1)")


def l_series(z, depth):
    """L(z) = e^{-log(1-z) x1} prod_l exp(Li_{S_l}(z) P_l) e^{log(z) x0}
    up to words of length depth, for 0 < z < 1 (ValueError otherwise).

    Direct for z <= 1/2: the Lyndon-ordered product with the character
    log z on x0, -log(1-z) on x1 and Li_v(z) on every other word v, each
    summed to 2000 terms (tail below 2^-2000), computed up to the first n
    with z^n == 0.0 (1075 at 1/2, 324 at 0.1).  For z > 1/2 the
    reflection at 1, sigma(L(1-z)) Z_sh, with 1 - z exact (Sterbenz).
    """
    _check_segment(z)
    if z > 0.5:
        return _sigma(l_series(1.0 - z, depth)) * _z_sh(depth)
    letters = {(0,): math.log(z), (1,): -math.log(1.0 - z)}
    return _lyndon_product(X, depth, lambda v: letters[v] if v in letters
                           else polylog_eval(v, z, alphabet=X)[0])


def chen_between(z0, z1, depth):
    """Chen series along z0 -> z1, L(z1) L(z0)^{-1}, up to words of length
    depth; both ends in (0, 1) (ValueError otherwise)."""
    return l_series(z1, depth) * l_series(z0, depth).inverse()


def chen_endpoint_sanity():
    """Regularized endpoint extraction of zeta(2) from a Chen series.

    e^{x1 log eps} S_{eps -> 1-eps} e^{x0 log eps} has x0x1-coefficient
    tending to zeta(2): [(eps, error)] for eps = 0.1, 0.03, 0.01.
    """
    out = []
    target = math.pi ** 2 / 6.0
    for eps in (0.1, 0.03, 0.01):
        s = chen_between(eps, 1.0 - eps, 2)
        left = series_exp(NCPoly(X, {(1,): math.log(eps)}, 2))
        right = series_exp(NCPoly(X, {(0,): math.log(eps)}, 2))
        reg = left * s * right
        out.append((eps, reg.coeff((0, 1)) - target))
    return out


# ---------------------------------------------------------------------------
# Abel-type limits

def n_side_limit_series(max_weight, n=DEFAULT_N):
    """exp(sum_k H_{y_k}(n) (-y1)^k / k) H(n)."""
    h = harmonic_truncated_series(n, max_weight)
    coefs = {k: h.coeff((k,)) * (-1.0) ** k / k
             for k in range(1, max_weight + 1)}
    return ncpoly_exp_y1(coefs, max_weight) * h


def z_side_series(z, max_weight):
    """exp(-y1 log(1/(1-z))) pi_Y(L(z))."""
    lz = l_series(z, max_weight)
    head = ncpoly_exp_y1({1: math.log(1.0 - z)}, max_weight)
    return head * lz.pi_y()


def abel_limits_check(max_weight=3, n=DEFAULT_N):
    """Compare the z -> 1 and N -> infinity regularized limits.

    At z = 1 - eps the z side is off its limit by about eps |log eps|^j
    (j <= weight) and rounds by about u |log eps|^j; they balance at
    eps = u = 2^-53.  So "fitted" is the z side at 1 - 2^-53, the float
    next below 1, and "raw_endpoint" the one at eps = 1e-3 (eps_list).
    Pass iff every gap of "fitted" to the N-side value is <= tol.
    """
    eps_list, tol = (1e-3, 2.0 ** -53), 1e-3
    n_side = n_side_limit_series(max_weight, n)
    z_target = _z_sh(max_weight).pi_y()
    raw, limit = (z_side_series(1.0 - eps, max_weight) for eps in eps_list)
    report = {}
    worst = 0.0
    for w in words_up_to(Y, max_weight):
        if not w:
            continue
        target = n_side.coeff(w)
        fitted_gap = abs(limit.coeff(w) - target)
        worst = max(worst, fitted_gap)
        report[w] = {
            "raw_endpoint": raw.coeff(w),
            "raw_gap": abs(raw.coeff(w) - target),
            "fitted": limit.coeff(w),
            "n_side": target,
            "z_shuffle_side": z_target.coeff(w),
            "fitted_gap": fitted_gap,
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
    zeta = _z_sh(depth).pi_y()
    coefs = {k: -zeta.coeff((k,)) * (-1.0) ** k / k for k in range(2, depth + 1)}
    series = ncpoly_exp_y1({1: gamma, **coefs}, depth)
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
    return NCPoly(Y, {(1,) * k: harmonic((1,) * k, n)
                      for k in range(max_weight + 1)})


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
    return NCPoly(Y, {(1,) * k: lg ** k / (math.factorial(k) * (1.0 - z))
                      for k in range(max_weight + 1)}, max_weight)
