"""Renormalized generating series of polylogarithms and harmonic sums.

Everything here is numeric (float coefficients), read off identities at
the three points 0, 1 and +infinity, so grouplikeness and character
identities hold up to floating-point rounding.  So do the zeta values
and the constants at +infinity: no partial sum at a large N enters them.

Contents:
  * the series are ncpoly.NCPoly with float coefficients and a depth,
    and series_exp is ncpoly.series_exp;
  * L(z) for z <= 1/2 coefficient by coefficient: the words ending in x1
    from one nested-sum sweep at z, the words ending in x0 by the shuffle
    with x0 (Li_{x0} = log z);
  * regularized zeta characters for the shuffle (X) and stuffle (Y)
    sides (zero on the letters x0, x1 and y1), each read at the depth of
    its word from a functools.cache per depth (_z_sh, _z_st): Z_sh =
    S(sigma(L(1/2))) L(1/2), S the shuffle antipode (_antipode), and Z_st
    off the one Z_sh(d) where zeta converges, elsewhere by the stuffle
    regularization zeta_st(y1) = 0, so the bridge compares two routes;
  * the two renormalized series Z and their comparison ("bridge"),
    which trades the letter y1 between the two sides by a y1_factor
    Lambda(c) = exp(-sum_k c_k (-y1)^k / k), as the Abel limits and the
    constants below do;
  * L(z) past 1/2 by the reflection at 1, sigma(L(1-z)) Z_sh (Z_sh is
    Drinfeld's KZ associator), so no Li is summed at z > 1/2;
  * the z -> 1 / N -> infinity Abel-type comparison of the polylog and
    harmonic-sum generating series, the z side at the float below 1, the
    N side the constants of the asymptotic expansions of the H_w(N)
    (asymptotics.harmonic_expansion);
  * Euler-Maclaurin constants (gamma and the y1^2 coefficient), read off
    the same constants;
  * the single-variable monomial/constant-part series in y1.
"""

import functools
import math

from ncgen.asymptotics import harmonic_expansion
from ncgen.ncpoly import NCPoly, series_exp, stuffle_words, words_up_to
from ncgen.polylog import (_li_powers, _li_sum, auto_terms, harmonic,
                           nested_sum_sweep)
from ncgen.words import X, Y, pi_x_word


# ---------------------------------------------------------------------------
# numeric polylogarithms and zeta values

def _sigma(s):
    """sigma(S), the pullback under t -> 1 - t: x0 -> -x1, x1 -> -x0
    (dt/t becomes -dt/(1-t)); no word reversal."""
    return NCPoly(X, {tuple(1 - a for a in w): -c if len(w) % 2 else c
                      for w, c in s.terms.items()}, s.depth)


def _antipode(s):
    """The shuffle antipode, <S(s)|w> = (-1)^|w| <s|rev w>: s^{-1} when s
    is shuffle-grouplike, with no series product."""
    return NCPoly(s.alphabet, {w[::-1]: -c if len(w) % 2 else c
                               for w, c in s.terms.items()}, s.depth)


@functools.cache
def _z_sh(depth):
    """Z_sh = sigma(L(1/2))^{-1} L(1/2) up to a depth, the regularized
    value of L at 1 (Drinfeld's KZ associator): the inverse of the
    grouplike sigma(L(1/2)) is its antipode, so
    <Z_sh|w> = sum_{w = uv} <L(1/2)|swap(rev u)> <L(1/2)|v>, |w| + 1
    products (the Hoelder convolution at p = 2), summed shortest u first.
    Shared by every caller: read it, never change it."""
    half = l_series(0.5, depth)
    return _antipode(_sigma(half)) * half


def zeta_numeric(w):
    """zeta(k) for an int k, zeta(s1,...,sr) for a convergent Y-word:
    <Z_sh | pi_X(w)>, exact up to float rounding."""
    w = (w,) if isinstance(w, int) else tuple(w)
    if w and w[0] < 2:
        raise ValueError("divergent at %r; use a regularized character" % (w,))
    return zeta_shuffle_reg(pi_x_word(w))


def zeta_shuffle_reg(w):
    """Shuffle-regularized zeta of any X-word, <Z_sh | w>: the character
    with zeta := 0 on the two letters.  ValueError for a letter other
    than 0 or 1."""
    w = tuple(w)
    c = _z_sh(len(w)).terms.get(w)  # None: zero, or not an X-word
    if c is None and not set(w) <= {0, 1}:
        raise ValueError("not an X-word (letters 0, 1): %r" % (w,))
    return c or 0.0


def zeta_stuffle_reg(w):
    """Stuffle-regularized zeta of any Y-word, <Z_st | w>: the character
    with zeta := 0 on y1.  ValueError for a letter below 1."""
    w = tuple(w)
    try:
        c = _z_st(sum(w)).terms.get(w)  # None: zero, or not a Y-word
    except ValueError:  # a negative weight: l_series refuses the depth
        c = None
    if c is None and min(w, default=1) < 1:
        raise ValueError("not a Y-word (letters y_k, k >= 1): %r" % (w,))
    return c or 0.0


# ---------------------------------------------------------------------------
# renormalized series

def z_shuffle_series(depth):
    """Z for the shuffle side: Z_sh, shuffle-grouplike with the zetas as
    coefficients (exact up to float rounding), 0 on the letters; a copy,
    so the caller may change it."""
    return NCPoly(X, _z_sh(depth).terms, depth)


@functools.cache
def _z_st(depth):
    """Z_st up to a depth, coefficient by coefficient: pi_Y(Z_sh) on the
    words u not starting with y1, where zeta converges, and y1^k u from
    the stuffle regularization zeta_st(y1) = 0 (Hoffman 1997; Ihara,
    Kaneko and Zagier 2006): y1 * y1^(k-1) u is k y1^k u plus words with a
    shorter run of y1, so the runs are taken shortest first.  Shared by
    every caller: read it, never change it."""
    zeta = {w: c for w, c in _z_sh(depth).pi_y().terms.items()
            if w[:1] != (1,)}
    tails = list(zeta)  # (), and every word where zeta converges (> 0)
    for k in range(1, depth + 1):
        for w in [(1,) * k + u for u in tails if k + sum(u) <= depth]:
            zeta[w] = -sum(c * zeta.get(v, 0.0) for v, c in
                           stuffle_words((1,), w[1:]).items() if v != w) / k
    return NCPoly(Y, zeta, depth)


def z_stuffle_series(depth):
    """Z for the stuffle side: Z_st, stuffle-grouplike with the zetas as
    coefficients (read off pi_Y(Z_sh) at the same depth where they
    converge), 0 on y1 as Z_sh is on x1, exact up to float rounding; a
    copy, so the caller may change it."""
    return NCPoly(Y, _z_st(depth).terms, depth)


def y1_factor(c, max_weight):
    """Lambda(c) = exp(-sum_k c[k] (-y1)^k / k), k >= 1, as a Y-series
    truncated by weight; exact or float as the c[k] are: the one factor of
    every renormalization at 1 and at +infinity (Costermans, Enjalbert,
    Hoang Ngoc Minh and Petitot, ISSAC 2005)."""
    return series_exp(NCPoly(Y, {(1,) * k: (-1) ** (k + 1) * ck / k
                                 for k, ck in c.items()}, max_weight))


def bridge_series(depth):
    """Lambda(0, zeta(2), zeta(3), ...) * pi_Y(Z_shuffle), Lambda the
    y1_factor, zeta(k) read off that pi_Y(Z_shuffle)."""
    zeta = _z_sh(depth).pi_y()
    return y1_factor({k: zeta.coeff((k,)) for k in range(2, depth + 1)},
                     depth) * zeta


def rounding_tol(*series):
    """Float rounding of the zeta series: 1e-12 max(1, max |coefficient|)."""
    return 1e-12 * max([1.0] + [abs(c) for s in series
                                for c in s.terms.values()])


def bridge_check(depth=4, tol=None):
    """Compare Z_stuffle against the y1-corrected image of Z_shuffle.

    tol=None: rounding_tol of the two sides; no harmonic sum enters the
    bridge.
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
    """L(z) = sum_w Li_w(z) w up to words of length depth, for 0 < z < 1
    and depth >= 0 (ValueError otherwise); it equals e^{-log(1-z) x1}
    prod_l exp(Li_{S_l}(z) P_l) e^{log(z) x0}.

    For z <= 1/2 coefficient by coefficient.  Li_{x1} = -log(1-z), and
    every other word ending in x1 is summed as polylog_eval sums it (2000
    terms, tail below 2^-2000, computed up to the first n with
    z^n == 0.0: 1075 at 1/2, 324 at 0.1), all from one nested_sum_sweep
    over their Y-codes that builds each column once.  A word u x0^k (u
    empty or ending in x1) comes from x0 shuffled into u x0^(k-1):
    Li_{u x0^k} = (log z Li_{u x0^(k-1)} - sum_v Li_{v x0^(k-1)}) / k, v
    running over u with one x0 put in before one of its letters.  For
    z > 1/2 the reflection at 1, sigma(L(1-z)) Z_sh, with 1 - z exact
    (Sterbenz).
    """
    _check_segment(z)
    if depth < 0:
        raise ValueError("depth must be >= 0, got %r" % (depth,))
    if z > 0.5:
        return _sigma(l_series(1.0 - z, depth)) * _z_sh(depth)
    terms = auto_terms(z)
    powers = _li_powers(z, terms)
    li = {(): 1.0, (1,): -math.log(1.0 - z)}
    for e, column in nested_sum_sweep(  # every Y-code of weight <= depth
            len(powers), lambda e: range(-1, -depth - sum(e) - 1, -1)):
        if e not in ((), (-1,)):  # 1 and -log(1 - z) above
            li[pi_x_word([-k for k in e])] = _li_sum(column, powers, terms)
    log_z, heads = math.log(z), list(li)  # (), and the words ending in x1
    for k in range(1, depth + 1):  # trailing runs x0^k, shortest first
        for u in [u for u in heads if len(u) + k <= depth]:
            head = u + (0,) * (k - 1)
            li[head + (0,)] = (log_z * li[head] - sum(
                li[u[:i] + (0,) + head[i:]] for i in range(len(u)))) / k
    return NCPoly(X, li, depth)


def chen_between(z0, z1, depth):
    """Chen series along z0 -> z1, L(z1) L(z0)^{-1}, up to words of length
    depth, the inverse of the grouplike L(z0) its antipode; both ends in
    (0, 1) (ValueError otherwise)."""
    return l_series(z1, depth) * _antipode(l_series(z0, depth))


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

def n_side_limit_series(max_weight):
    """The limit N -> infinity of Lambda(-H_{y_k}(N)) H(N), Lambda the
    y1_factor: its log-free constant term in the scale log^j N / N^k.
    Setting log N = 1/N = 0 is a ring morphism, so it is the same product
    over the constants C_w of harmonic_expansion (C_{y1} = gamma); no
    partial sum enters."""
    h = NCPoly(Y, {w: harmonic_expansion(w)[0, 0]
                   for w in words_up_to(Y, max_weight)}, max_weight)
    c = {k: -h.coeff((k,)) for k in range(1, max_weight + 1)}
    return y1_factor(c, max_weight) * h


def z_side_series(z, max_weight):
    """exp(-y1 log(1/(1-z))) pi_Y(L(z)), the factor Lambda(log(1-z))."""
    lz = l_series(z, max_weight)
    return y1_factor({1: math.log(1.0 - z)}, max_weight) * lz.pi_y()


def abel_limits_check(max_weight=3):
    """Compare the z -> 1 and N -> infinity regularized limits.

    At z = 1 - eps the z side is off its limit by about eps |log eps|^j
    (j <= weight) and rounds by about u |log eps|^j; they balance at
    eps = u = 2^-53.  So "fitted" is the z side at 1 - 2^-53, the float
    next below 1, and "raw_endpoint" the one at eps = 1e-3 (eps_list).
    The N side is the limit itself, n_side_limit_series, read off the
    asymptotic expansions of the H_w(N).  Pass iff every gap of "fitted"
    to the N-side value is <= tol.
    """
    eps_list, tol = (1e-3, 2.0 ** -53), 1e-3
    n_side = n_side_limit_series(max_weight)
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
    return {"max_weight": max_weight, "eps_list": list(eps_list),
            "tol": tol, "per_word": report, "max_fitted_gap": worst,
            "pass": worst <= tol}


# ---------------------------------------------------------------------------
# Euler-Maclaurin constants and the y1-only series

def euler_gamma_estimate():
    """gamma, the constant of the asymptotic expansion of H_{y1}(N)
    (log N + gamma + 1/(2N) - ...)."""
    return harmonic_expansion((1,))[0, 0]


def euler_maclaurin_constants(depth=4):
    """The y1-direction renormalization constants.

    Returns gamma, the y1^2 coefficient of B(y1) = Lambda(gamma, zeta(2),
    zeta(3), ...) = exp(gamma y1 - sum_{k>=2} zeta(k)(-y1)^k/k) (which
    equals (gamma^2 - zeta(2))/2, zeta(k) read off Z_sh), the same
    constant read off H_{y1 y1}(N) directly, as the constant of its
    asymptotic expansion, and the series itself; no partial sum enters.
    """
    gamma = euler_gamma_estimate()
    zeta = _z_sh(depth).pi_y()
    series = y1_factor({1: gamma, **{k: zeta.coeff((k,))
                                     for k in range(2, depth + 1)}}, depth)
    return {
        "gamma": gamma,
        "gamma_y1y1": series.coeff((1, 1)),
        "gamma_y1y1_numeric": harmonic_expansion((1, 1))[0, 0],
        "series": series,
    }


def const_series(n, max_weight):
    """Exact y1-only part of H(n): sum_k H_{y1^k}(n) y1^k as an NCPoly."""
    return NCPoly(Y, {(1,) * k: harmonic((1,) * k, n)
                      for k in range(max_weight + 1)})


def const_log_identity(n, max_weight):
    """Exact: Const(n) = Lambda(H_{y_k}(n)), Lambda the y1_factor."""
    c = {k: harmonic((k,), n) for k in range(1, max_weight + 1)}
    return y1_factor(c, max_weight) == const_series(n, max_weight)


def mono_series(z, max_weight):
    """Float y1-only series with coefficients (-log(1-z))^k / (k! (1-z))."""
    lg = -math.log(1.0 - z)
    return NCPoly(Y, {(1,) * k: lg ** k / (math.factorial(k) * (1.0 - z))
                      for k in range(max_weight + 1)}, max_weight)
