import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from ncgen.ncpoly import NCPoly, is_grouplike, stuffle_words, words_up_to
from ncgen.negpolylog import h_neg
from ncgen.polylog import (
    FElem, QPoly, RatZ, StatePoly, auto_terms, harmonic, harmonic_array,
    harmonic_float, harmonic_series, nested_sum, nested_sum_array,
    nested_sum_sweep, polylog_eval,
)
from ncgen.words import X, Y, Y0


# -- harmonic sums -----------------------------------------------------

def test_harmonic_basics():
    assert harmonic((1,), 3) == Fraction(11, 6)
    assert harmonic((), 5) == 1
    assert harmonic((2, 1), 2) == Fraction(1, 4)
    assert harmonic((2, 1), 1) == 0  # needs two strictly decreasing indices
    assert harmonic((1, 1, 1), 2) == 0


def test_harmonic_brute_force():
    # against the literal nested sum
    def brute(w, N):
        if not w:
            return Fraction(1)
        return sum(Fraction(1, n ** w[0]) * brute(w[1:], n - 1)
                   for n in range(len(w), N + 1))
    for w in [(1,), (2,), (2, 1), (1, 2), (3, 1, 2)]:
        for N in (1, 2, 5, 9):
            assert harmonic(w, N) == brute(w, N), (w, N)


def test_harmonic_past_the_recursion_limit():
    # iterative H_{y2 y1}(N) = sum_n H_{y1}(n-1) / n^2
    total, h1 = Fraction(0), Fraction(0)
    for n in range(1, 3001):
        total += h1 / n ** 2
        h1 += Fraction(1, n)
    assert harmonic((2, 1), 3000) == total


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(0, 2000))
@example([2, 1], 2000)
def test_nested_sum_at_both_exponent_signs(w, N):
    # one engine: H^- at exponents +w, H at exponents -w (y0 is 0 on both)
    assert nested_sum(w, N) == h_neg(w).eval(N)
    assert math.isclose(float(harmonic(w, N)), harmonic_float(w, N),
                        rel_tol=1e-12, abs_tol=1e-300)


def test_harmonic_stuffle_morphism():
    rng = random.Random(2)
    pool = [w for w in words_up_to(Y, 6) if w]
    for _ in range(50):
        u, v = rng.choice(pool), rng.choice(pool)
        N = rng.choice([1, 10, 50])
        lhs = harmonic(u, N) * harmonic(v, N)
        rhs = sum(c * harmonic(w, N) for w, c in stuffle_words(u, v).items())
        assert lhs == rhs, (u, v, N)


def test_harmonic_float_matches_exact():
    for w in [(1,), (2, 1), (1, 1)]:
        exact = float(harmonic(w, 40))
        assert abs(harmonic_float(w, 40) - exact) < 1e-12


def test_harmonic_array_shape():
    arr = harmonic_array((2,), 10)
    assert arr[0] == 0.0
    assert abs(arr[10] - float(harmonic((2,), 10))) < 1e-14


def _letter_by_letter(e, N):
    """Float S_e(n), n = 0..N, one full column per letter from the right,
    a fresh array at each step: the loop the sweep replaced."""
    n = np.arange(1, N + 1, dtype=float)
    col = np.ones(N + 1)
    for k in reversed(tuple(e)):
        contrib = np.zeros(N + 1)
        contrib[1:] = n ** float(k) * col[:-1]
        col = np.cumsum(contrib)
    return col


@pytest.mark.parametrize("N", [0, 1, 3, 1000, 100000])
def test_nested_sum_array_is_the_letter_by_letter_loop(N):
    for e in [(), (-1,), (-2, -1), (-1, -1, -3), (0, -2), (-3, 0, -1),
              (2, 1), (-8, -1, -1, -1)]:
        want = _letter_by_letter(e, N).tolist()
        assert nested_sum_array(e, N).tolist() == want, e


def test_nested_sum_sweep_keeps_only_the_suffix_columns():
    # over the Y-codes (exponents -w) of weight <= d, the columns of the
    # current word's suffixes, the index array and the column being built:
    # d + 2 arrays of n + 1 floats at the most
    n, d = 100000, 4

    def letters(e):  # y_a e for every a the weight left allows
        return range(-1, -d - sum(e) - 1, -1)

    list(nested_sum_sweep(10, letters))  # numpy imported before the count
    tracemalloc.start()
    try:
        for _ in nested_sum_sweep(n, letters):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (d + 2.5) * 8 * (n + 1)


# -- generating series -------------------------------------------------

# N = 0 and N < |w| included, where H_w(N) = 0
def test_harmonic_series_coefficients():
    for N in (0, 1, 3, 10, 50):
        H = harmonic_series(N, 5)
        assert H.depth == 5
        for w in words_up_to(Y, 5):
            assert H.coeff(w) == harmonic(w, N), (N, w)


def test_harmonic_series_grouplike():
    for N in (0, 1, 3, 10, 50):
        assert is_grouplike(harmonic_series(N, 5), "stuffle", 5), N


# -- Li evaluation -----------------------------------------------------

def test_polylog_eval_dilog():
    val, tail = polylog_eval((0, 1), 0.5, terms=60)
    direct = sum(0.5 ** k / k ** 2 for k in range(1, 200))
    assert abs(val - direct) < 1e-12
    assert abs(val - 0.5822405264650125) < 1e-10
    assert tail < 1e-10


def test_polylog_eval_log():
    val, _ = polylog_eval((1,), 0.5, terms=200)
    assert abs(val - (-math.log(0.5))) < 1e-12
    # y-word spelling of the same thing
    val2, _ = polylog_eval((1,), 0.5, terms=200)
    assert val == val2


def test_polylog_eval_rejects():
    with pytest.raises(ValueError):
        polylog_eval((0, 1), 1.0)
    with pytest.raises(ValueError):
        polylog_eval((1, 0), 0.5)  # ends in x0: not an index word


def _li_mp(w, zs):
    """Li_w(z) for each z of zs by the nested sum in 50-digit arithmetic.

    The coefficient of z^n is c_n = n^-s1 H_{w[1:]}(n-1), and |c_n| <=
    n^|w|: once n^(|w|+2) |z|^n is below 10^-40 and falling, the rest of
    the series adds less than that.
    """
    with mpmath.workdps(50):
        x = max(map(abs, zs))
        S = [mpmath.mpf(0)] * len(w) + [mpmath.mpf(1)]  # H_{w[i:]}(n - 1)
        mz = [mpmath.mpf(z) for z in zs]
        pows, sums = [mpmath.mpf(1)] * len(zs), [mpmath.mpf(0)] * len(zs)
        n = 0
        while (n <= (len(w) + 2) / -math.log(x)
               or n ** (len(w) + 2) * x ** n >= 1e-40):
            n += 1
            c = S[1] / mpmath.mpf(n) ** w[0]
            for i in range(1, len(w)):
                S[i] += S[i + 1] / mpmath.mpf(n) ** w[i]
            for j, z in enumerate(mz):
                pows[j] *= z
                sums[j] += c * pows[j]
        return sums


def _li_y0_power(k, z):
    """Li_{y0^k y1}(z) = (z/(1-z))^k (-log(1-z)), 50 digits."""
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        return (z / (1 - z)) ** k * -mpmath.log(1 - z)


def _assert_tail_holds(w, z, terms, ref):
    value, tail = polylog_eval(w, z, terms, Y0)
    err = abs(mpmath.mpf(value) - ref)
    assert err <= tail + 1e-12 * max(1, abs(ref)), (w, z, terms, err, tail)
    return float(err), tail


@pytest.mark.parametrize("k, z, terms", [
    (1, 0.999, 1),   # eval li --word "y0 y1" --z 0.999 --terms 1
    (2, 0.99, 5), (3, 0.99, 5), (1, -0.99, 5), (2, 0.9, 5), (2, -0.9, 40),
])
def test_li_tail_bound_holds_on_y0_words(k, z, terms):
    err, tail = _assert_tail_holds((0,) * k + (1,), z, terms,
                                   _li_y0_power(k, z))
    if z > 0:  # the truncation is most of the value: a bound, not a guess
        assert tail <= 10 * err


@pytest.mark.parametrize("w", [(1,), (2,), (1, 1), (2, 1), (0, 2), (1, 0, 1),
                               (0, 0, 1), (1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1),
                               (0, 0, 0, 1)])
def test_li_tail_bound_holds_at_both_signs(w):
    zs = (0.9, -0.9, 0.99, -0.99)
    for z, ref in zip(zs, _li_mp(w, zs)):
        for terms in (5, 60, 400):
            _assert_tail_holds(w, z, terms, ref)


def test_li_tail_bound_keeps_the_order_of_equal_letters():
    # r equal letters take strictly ordered indices: the bound divides by r!
    value, tail = polylog_eval((1,) * 200, 0.9, 2000)
    assert 0 < value and 0 < tail < 1e-250
    # Li_{y1^6}(z) = (-log(1-z))^6 / 6!: the bound is a bound, not a guess
    with mpmath.workdps(50):
        ref = (-mpmath.log(1 - mpmath.mpf(0.99))) ** 6 / 720
    err, tail = _assert_tail_holds((1,) * 6, 0.99, 60, ref)
    assert tail <= 10 * err


def test_li_underflow_is_refused_by_the_term_count():
    # the sum ends where |z|^n is 0.0, which for these comes before n = |w|;
    # every Li_w(z) here is positive, so a 0.0 is an underflow
    with pytest.raises(ValueError, match="underflows"):
        polylog_eval((1,) * 30, 2.0 ** -53, alphabet=Y)
    with pytest.raises(ValueError, match="underflows"):
        polylog_eval((2, 2, 2), 1e-200, alphabet=Y)
    assert polylog_eval((1,), 5e-324) == (5e-324, 0.0)


def _li_full(w, z, terms):
    """Li_w(z) summed over all terms, the products past the underflow of
    |z|^n (all 0.0) included."""
    n = np.arange(0, terms + 1, dtype=float)
    return float(np.sum(np.diff(harmonic_array(w, terms)) * z ** n[1:]))


# 2^-k for k | 1075: |z|^n is 2^-1075, half the least subnormal, at n = 1075/k
LI_Z = (0.5, -0.5, 0.3, -0.3, 0.1, 0.01, 1e-3, 2.0 ** -53, 0.9, 0.999,
        2.0 ** -5, 2.0 ** -25, 2.0 ** -43)


@pytest.mark.parametrize("z", LI_Z)
def test_li_ends_where_the_powers_underflow_with_every_float_kept(z):
    y0_words = [w for k in range(1, 4)
                for w in itertools.product(range(4), repeat=k)
                if 0 in w and sum(w) <= 5]
    for w in [w for w in words_up_to(Y, 5) if w] + y0_words:
        for terms in (None, 400):
            full = _li_full(w, z, auto_terms(z) if terms is None else terms)
            assert polylog_eval(w, z, terms, Y0)[0] == full, (w, z, terms)


@pytest.mark.parametrize("z", [0.9, -0.95, 0.7])
def test_li_past_the_underflow_keeps_the_pairwise_order_of_all_terms(z):
    # 20000 terms, |z|^n 0.0 from n = 2089-14527 on: numpy sums pairwise,
    # so the zeros past there keep the grouping of the terms before
    for w in [(1,), (2,), (1, 1), (2, 1), (0, 1), (3, 1, 1)]:
        assert polylog_eval(w, z, 20000, Y0)[0] == _li_full(w, z, 20000), w


# -- RatZ coefficient ring ---------------------------------------------

def test_ratz_canonical():
    # z/(1-z) + 1 = 1/(1-z)
    lam = RatZ.lam()
    assert lam + RatZ.const(1) == RatZ.uinv_pow(1)
    # (1-z) * 1/(1-z) = 1
    u = RatZ([Fraction(1), Fraction(-1)])
    assert u * RatZ.uinv_pow(1) == RatZ.const(1)
    # z * 1/z = 1
    assert RatZ.z_pow(1) * RatZ.z_pow(-1) == RatZ.const(1)
    assert (lam - lam).is_zero()


def test_ratz_derivative():
    # d/dz 1/(1-z) = 1/(1-z)^2
    assert RatZ.uinv_pow(1).derivative() == RatZ.uinv_pow(2)
    # d/dz 1/z = -1/z^2
    assert RatZ.z_pow(-1).derivative() == RatZ([Fraction(-1)], a=2)
    # d/dz z^3 = 3z^2
    assert RatZ.z_pow(3).derivative() == RatZ([0, 0, Fraction(3)])


def test_ratz_eval():
    assert RatZ.lam().eval(Fraction(1, 3)) == Fraction(1, 2)
    assert RatZ.uinv_pow(2).eval(0.5) == 4.0


_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_ratz_parts = st.tuples(st.lists(_fractions, max_size=5), st.integers(0, 3),
                        st.integers(0, 3))
_z_inside = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                         max_denominator=100)


def _sympy_ratz(num, a, b):
    z = sympy.Symbol("z")
    return z, sum(sympy.Rational(c.numerator, c.denominator) * z ** i
                  for i, c in enumerate(num)) / (z ** a * (1 - z) ** b)


@settings(max_examples=60, deadline=None)
@given(_ratz_parts, _ratz_parts, _z_inside)
def test_ratz_ring_agrees_with_values(r_parts, s_parts, z):
    r, s = RatZ(*r_parts), RatZ(*s_parts)
    rz, sz = r.eval(z), s.eval(z)
    assert (r + s).eval(z) == rz + sz
    assert (r - s).eval(z) == rz - sz
    assert (r * s).eval(z) == rz * sz
    # the canonical form is unique: the round trip lands on r itself
    back = (r + s) - s
    assert back == r and hash(back) == hash(r)
    sym, expr = _sympy_ratz(*r_parts)
    d = sympy.diff(expr, sym).subs(sym, sympy.Rational(z.numerator,
                                                       z.denominator))
    assert r.derivative().eval(z) == Fraction(int(d.p), int(d.q))


@settings(max_examples=40, deadline=None)
@given(st.lists(_fractions, max_size=4), st.integers(0, 5), _z_inside)
def test_qpoly_power_is_the_repeated_product(coefs, k, x):
    p = QPoly(coefs, "z")
    product = QPoly([1], "z")
    for _ in range(k):
        product = product * p
    assert p ** k == product
    assert (p ** k).eval(x) == p.eval(x) ** k


@settings(max_examples=60, deadline=None)
@given(st.lists(_fractions, max_size=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
           lambda c: c.denominator != 1))
def test_qpoly_shift_is_the_composition(coefs, c):
    # p(x + c) against sum a_i (x + c)^i in QPoly arithmetic; c not an
    # integer, negative c included
    p = QPoly(coefs, "N")
    want = QPoly([], "N")
    for i, a in enumerate(coefs):
        want = want + a * QPoly([c, 1], "N") ** i
    assert p.shift(c) == want


# -- commutative polynomials: StatePoly and its univariate QPoly --------

def _naive_add(a, b):
    t = dict(a)
    for e, c in b.items():
        t[e] = t.get(e, 0) + c
    return {e: c for e, c in t.items() if c}


def _naive_mul(a, b):
    """The product pair by pair, exponents added coordinatewise."""
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = t.get(e, 0) + c1 * c2
    return {e: c for e, c in t.items() if c}


def _naive_diff(a, j):
    t = {}
    for e, c in a.items():
        if e[j]:
            e2 = e[:j] + (e[j] - 1,) + e[j + 1:]
            t[e2] = t.get(e2, 0) + c * e[j]
    return {e: c for e, c in t.items() if c}


def _naive_horner(coefs, x):
    val = 0 * x if isinstance(x, float) else Fraction(0)
    for c in reversed(coefs):
        val = val * x + c
    return val


def _terms_of(m):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * m), _fractions,
                           max_size=5)


_VARS = st.sampled_from(["N", "z", "1/(1-z)"])


def _poly(m, terms, var):
    """StatePoly in m variables, or for m = 1 the QPoly of the same terms."""
    if m > 1:
        return StatePoly(m, terms)
    degree = max(terms, default=(-1,))[0]
    return QPoly([terms.get((i,), 0) for i in range(degree + 1)], var)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data(), _fractions, st.integers(0, 3))
def test_state_poly_arithmetic_equals_the_naive_loops(m, data, c, k):
    # zero, scalar and (for m = 1) mixed-var operands; every result keeps
    # the left operand's class and var, and the reference's term order
    # (StatePoly.eval sums in it)
    p = _poly(m, data.draw(_terms_of(m)), data.draw(_VARS))
    q = _poly(m, data.draw(_terms_of(m)), data.draw(_VARS))
    ta, tb = dict(p.terms), dict(q.terms)
    power = {(0,) * m: Fraction(1)}
    for _ in range(k):
        power = _naive_mul(power, ta)
    want = {
        "p + q": _naive_add(ta, tb),
        "p - q": _naive_add(ta, {e: -v for e, v in tb.items()}),
        "-p": {e: -v for e, v in ta.items()},
        "p * q": _naive_mul(ta, tb),
        "p + c": _naive_add(ta, {(0,) * m: c}),
        "p - c": _naive_add(ta, {(0,) * m: -c}),
        "p * c": _naive_mul(ta, {(0,) * m: c}),
        "c * p": _naive_mul(ta, {(0,) * m: c}),
        "p.scale(c)": _naive_mul(ta, {(0,) * m: c}),
        "p ** k": power,
    }
    for j in range(m):
        want["p.diff(%d)" % j] = _naive_diff(ta, j)
    for expr, terms in want.items():
        got = eval(expr)
        assert list(got.terms.items()) == list(terms.items()), expr
        assert type(got) is type(p) and got.var == p.var, expr
        assert got == _poly(m, terms, "N") and hash(got) == hash(
            _poly(m, terms, "N")), expr
    if m == 1:
        assert p.derivative() == p.diff(0)
    x = tuple(Fraction(i + 2, 3) for i in range(m))
    assert (p * q).eval(x if m > 1 else x[0]) == (
        p.eval(x if m > 1 else x[0]) * q.eval(x if m > 1 else x[0]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_fractions, max_size=6), st.integers(0, 3), _VARS,
       st.sampled_from([0, 3, -2, Fraction(-5, 7), Fraction(2, 3), 0.37,
                        -1.5, 2.0]))
def test_qpoly_dense_view_json_and_horner(coefs, pad, var, x):
    p = QPoly(coefs + [0] * pad, var)
    trimmed = list(coefs)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert p.coefs == tuple(Fraction(c) for c in trimmed)
    assert p.degree() == len(trimmed) - 1
    back = QPoly(p.coefs, var)
    assert back == p and back.degree() == p.degree() and back.var == var
    # both JSON round trips: the CLI's {"var", "coefs"} and the system
    # files' [{"exps", "coef"}]
    d = QPoly.from_json_dict(p.to_json_dict())
    assert d == p and d.var == var and d.coefs == p.coefs
    assert StatePoly.from_json_list(1, p.to_json_list()) == p
    # Horner's order: exact at int and Fraction, bit for bit at float
    got, want = p.eval(x), _naive_horner(trimmed, x)
    assert type(got) is type(want) and repr(got) == repr(want)


# -- operator algebra --------------------------------------------------

def test_theta_basic_rules():
    f = FElem.li((0, 1))
    assert f.theta0() == FElem.li((1,))
    assert f.theta1() == FElem.li((1,), RatZ([Fraction(1), Fraction(-1)], a=1))
    g = FElem.li((1, 1))
    # theta0 Li_{x1^2} = lambda Li_{x1}
    assert g.theta0() == FElem.li((1,), RatZ.lam())
    assert g.theta1() == FElem.li((1,))


def test_theta_iota_identities():
    # theta_k iota_k = Id on constant-coefficient combinations
    f = FElem.li((0, 1), Fraction(3, 2)) + FElem.li((1, 1), Fraction(-1, 3)) \
        + FElem.li((), Fraction(2))
    assert f.iota(0).theta0() == f
    assert f.iota(1).theta1() == f


def test_theta_iota_eigenvalues():
    # theta0 iota1 and theta1 iota0 act on basis elements with reciprocal
    # eigenvalues lambda = z/(1-z) and 1/lambda = (1-z)/z.
    lam = RatZ.lam()
    lam_inv = RatZ([Fraction(1), Fraction(-1)], a=1)
    assert lam * lam_inv == RatZ.const(1)
    for w in [(), (1,), (0, 1), (1, 0, 1)]:
        f = FElem.li(w)
        assert f.iota(1).theta0() == FElem.li(w, lam)
        assert f.iota(0).theta1() == FElem.li(w, lam_inv)


def test_theta_commutator_is_dz():
    # [theta1, theta0] = theta1 theta0 - theta0 theta1 = dz; chained method
    # calls apply left-to-right, so theta1 theta0 f = f.theta0().theta1()
    f = FElem.li((0, 1))
    commutator = f.theta0().theta1() - f.theta1().theta0()
    assert commutator == f.dz()


def test_theta_sum_is_dz():
    # theta0 + theta1 = (z + 1 - z) dz = dz on any element
    f = FElem.li((0, 1), RatZ.lam()) + FElem.li((1,), RatZ.z_pow(2))
    assert f.theta0() + f.theta1() == f.dz()


def test_felem_constructors_store_ratz():
    # word, one and the plain constructor turn numbers into constant RatZ
    assert FElem.word((0, 1)).dz() == FElem.li((0, 1)).dz()
    assert FElem.word((1,), coef=Fraction(2, 3)) == FElem.li((1,), Fraction(2, 3))
    assert FElem.one().theta0() == FElem.zero()
    f = FElem(terms={(0, 1): 3, (1,): RatZ.lam()})
    assert f == FElem.li((0, 1), 3) + FElem.li((1,), RatZ.lam())
    assert f.dz() == f.theta0() + f.theta1()

def test_felem_is_an_ncpoly_over_ratz():
    assert isinstance(FElem.li((0, 1)), NCPoly)
    f = FElem.li((0, 1), RatZ.lam()) + FElem.li((1,), Fraction(2))
    g = FElem.li((1, 1))
    assert not (f - f)
    for h in (f + g, f - g, f.scale(RatZ.lam()), f.iota(1)):
        assert type(h) is FElem


_felems = st.lists(st.tuples(st.lists(st.integers(0, 1), max_size=3),
                             _ratz_parts), max_size=3).map(
    lambda ts: sum((FElem.li(w, RatZ(*p)) for w, p in ts), FElem.zero()))


@settings(max_examples=40, deadline=None)
@given(_felems, _felems, _ratz_parts, _fractions)
def test_felem_operators_are_linear_and_dz_a_derivation(f, g, r_parts, c):
    for op in (FElem.dz, FElem.theta0, FElem.theta1):
        assert op(f + g) == op(f) + op(g)
        assert op(f.scale(c)) == op(f).scale(c)
    # Leibniz against a coefficient: dz(r f) = r dz(f) + r' f
    r = RatZ(*r_parts)
    assert f.scale(r).dz() == f.dz().scale(r) + f.scale(r.derivative())


def test_eval_consistency():
    # dz Li_{x0x1} = Li_{x1}/z numerically
    z = 0.4
    f = FElem.li((0, 1))
    d = f.dz()
    fd = (f.eval(z + 1e-6) - f.eval(z - 1e-6)) / 2e-6
    assert abs(d.eval(z) - fd) < 1e-6
    val, _ = polylog_eval((1,), z)
    assert abs(d.eval(z) - val / z) < 1e-12


def test_eval_x0_powers():
    f = FElem.li((0, 0))
    assert abs(f.eval(0.5) - math.log(0.5) ** 2 / 2) < 1e-14


def test_eval_empty_word_and_refused_word():
    f = FElem.li((), Fraction(3)) + FElem.li((0, 1))
    assert f.eval(0.5) == 3.0 + polylog_eval((0, 1), 0.5, alphabet=X)[0]
    with pytest.raises(ValueError, match="cannot evaluate"):
        FElem.li((1, 0)).eval(0.5)


@pytest.mark.parametrize("z", [-0.5, 0.0, 0.3])
def test_polylog_eval_of_the_empty_word_is_one(z):
    assert polylog_eval((), z) == (1.0, 0.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_nested_sum_columns_grow_exactly(e):
    # any exponent signs, y0 (0) included; N asked out of order, so the
    # integer columns are grown, read below their end, and grown again
    from ncgen import polylog
    polylog._columns.clear()
    del polylog._lcms[1:]
    S = [Fraction(1)] * 201  # the direct sum, one letter at a time
    for k in reversed(e):
        col = [Fraction(0)]
        for n in range(1, 201):
            col.append(col[-1] + Fraction(n) ** k * S[n - 1])
        S = col
    for N in (50, 200, 10):
        assert nested_sum(e, N) == S[N], (e, N)
