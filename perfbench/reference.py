"""Independent reference values for the benchmark checks.

Nothing here imports ncgen: every reference comes from a definition, a
published closed form, or mpmath.

* Li_w(z), |z| < 1: the defining nested sum, accumulated in 160-bit
  fixed point (about 48 digits) until the tail is below 1e-40.
* zeta values of weight <= 5: published closed forms, with the shuffle
  and stuffle regularizations (zeta(x0) = zeta(x1) = 0, zeta(y1) = 0)
  derived from them by the product relations.
* Iterated integrals of dz/z, dz/(1-z): mpmath.odefun; 2F1: mpmath.hyp2f1.
* Exact algebra: a plain recursive quasi-shuffle, literal nested sums.

Run ``python3 perfbench/reference.py`` to check the closed forms and the
fixed-point sums against mpmath.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import mpmath

# ---------------------------------------------------------------------------
# words

def x_to_y(w):
    """X-word in X*x1 (letters 0/1) -> Y-word: x0^(k-1) x1 -> y_k."""
    out, zeros = [], 0
    for a in w:
        if a == 0:
            zeros += 1
        else:
            out.append(zeros + 1)
            zeros = 0
    if zeros:
        raise ValueError("X-word must end in x1: %r" % (w,))
    return tuple(out)


def y_to_x(w):
    out = []
    for k in w:
        out.extend([0] * (k - 1))
        out.append(1)
    return tuple(out)


def word_str(w, alphabet):
    if not w:
        return "e"
    prefix = "x" if alphabet == "X" else "y"
    return " ".join("%s%d" % (prefix, a) for a in w)


def words_up_to(alphabet, degree):
    """All words of length (X) or weight (Y, letters >= 1) <= degree."""
    out = [()]
    if alphabet == "X":
        frontier = [()]
        for _ in range(degree):
            frontier = [w + (a,) for w in frontier for a in (0, 1)]
            out.extend(frontier)
        return out

    def rec(prefix, left):
        for a in range(1, left + 1):
            out.append(prefix + (a,))
            rec(prefix + (a,), left - a)

    rec((), degree)
    return out


def is_lyndon(w, alphabet):
    key = tuple(w) if alphabet == "X" else tuple(-a for a in w)
    return bool(w) and all(key < key[i:] for i in range(1, len(w)))


def lyndon_count_x(max_len):
    """Binary Lyndon words of length <= max_len, by the necklace formula."""
    def mobius(n):
        result, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                result = -result
            p += 1
        return -result if n > 1 else result

    return sum(sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1)
                   if n % d == 0) // n
               for n in range(1, max_len + 1))


# ---------------------------------------------------------------------------
# products

@lru_cache(maxsize=None)
def _word_product(u, v, contract):
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out = Counter()
    for w, c in _word_product(u[1:], v, contract):
        out[(u[0],) + w] += c
    for w, c in _word_product(u, v[1:], contract):
        out[(v[0],) + w] += c
    if contract:
        for w, c in _word_product(u[1:], v[1:], contract):
            out[(u[0] + v[0],) + w] += c
    return tuple(out.items())


def word_product(u, v, contract):
    """Shuffle (contract=False) or quasi-shuffle of two words."""
    return dict(_word_product(tuple(u), tuple(v), contract))


def poly_product(p, q, contract):
    """Bilinear extension to {word: Fraction} maps; zero terms dropped."""
    out = Counter()
    for u, cu in p.items():
        for v, cv in q.items():
            for w, m in _word_product(u, v, contract):
                out[w] += cu * cv * m
    return {w: c for w, c in out.items() if c}


# ---------------------------------------------------------------------------
# nested sums

def harmonic_exact(w, n_max):
    """[H_w(0), ..., H_w(n_max)] exactly: sum_{N >= n1 > ... >= 1} prod n_i^-s_i."""
    levels = [Fraction(1)] + [Fraction(0)] * len(w)
    out = [levels[len(w)]]
    for n in range(1, n_max + 1):
        # level j holds the sum over the suffix of length j; update from
        # the longest suffix down so each uses the values at n - 1
        for j in range(len(w), 0, -1):
            levels[j] += levels[j - 1] * Fraction(1, n ** w[len(w) - j])
        out.append(levels[len(w)])
    return out


def h_neg_exact(w, n_max):
    """[H^-_w(0), ..., H^-_w(n_max)]: the literal sum of prod n_i^{s_i}."""
    levels = [1] + [0] * len(w)
    out = [levels[len(w)]]
    for n in range(1, n_max + 1):
        for j in range(len(w), 0, -1):
            levels[j] += levels[j - 1] * n ** w[len(w) - j]
        out.append(levels[len(w)])
    return out


_FIXED_BITS = 160


def li_nested_sum(w, z):
    """Li_w(z) for a word of indices >= 0 and 0 < z < 1, to about 40 digits.

    sum_{n1 > ... > nk >= 1} z^n1 / (n1^s1 ... nk^sk), summed in fixed
    point with the exact binary value of the float z.
    """
    return li_with_tail(w, z, 0)[0]


def li_with_tail(w, z, terms):
    """(Li_w(z), the part of that sum with n1 > terms), as li_nested_sum."""
    w = tuple(w)
    if not w:
        return mpmath.mpf(1), mpmath.mpf(0)
    if not 0 < z < 1:
        raise ValueError("reference needs 0 < z < 1")
    one = 1 << _FIXED_BITS
    zq = Fraction(z)
    zfix = zq.numerator * one // zq.denominator
    k = len(w)
    # level j: sum over the innermost j letters, at n - 1
    levels = [one] + [0] * k
    zn = one
    total = head = 0
    log_z = math.log(z)
    stop = -40 * math.log(10) + 2 * math.log(1 - z)
    n = 0
    while True:
        n += 1
        zn = zn * zfix >> _FIXED_BITS
        for j in range(k, 0, -1):
            s = w[k - j]
            inc = levels[j - 1] if s == 0 else levels[j - 1] // n ** s
            if j == k:
                total += zn * inc >> _FIXED_BITS
            else:
                levels[j] += inc
        if n == terms:
            head = total
        # the terms after n are at most z^m m^k; stop once their sum is tiny
        if n > max(8, terms) and n * log_z + k * math.log(2 * n) < stop:
            break
    with mpmath.workdps(40):
        return mpmath.mpf(total) / one, mpmath.mpf(total - head) / one


# ---------------------------------------------------------------------------
# zeta values and their regularizations

@mpmath.workdps(40)
def _closed_forms():
    z2, z3, z4, z5 = (mpmath.zeta(s) for s in (2, 3, 4, 5))
    pi4 = mpmath.pi ** 4
    z23 = z2 * z3
    half = mpmath.mpf(1) / 2
    return {
        (): mpmath.mpf(1), (2,): z2, (3,): z3, (4,): z4, (5,): z5,
        (2, 1): z3,                                   # Euler
        (3, 1): pi4 / 360, (2, 2): pi4 / 120, (2, 1, 1): z4,
        (4, 1): 2 * z5 - z23,
        (3, 2): 3 * z23 - 11 * half * z5,
        (2, 3): 9 * half * z5 - 2 * z23,
        (3, 1, 1): 2 * z5 - z23, (2, 2, 1): 3 * z23 - 11 * half * z5,
        (2, 1, 2): 9 * half * z5 - 2 * z23, (2, 1, 1, 1): z5,
    }


ZETA = _closed_forms()


def dual_word(w):
    """Duality of MZVs: code to X, reverse, swap x0 <-> x1, code back."""
    x = y_to_x(w)
    return x_to_y(tuple(1 - a for a in reversed(x)))


def zeta_stuffle(w):
    """Stuffle-regularized zeta of a Y-word with zeta(y1) = 0."""
    return sum(c * ZETA[t] for t, c in stuffle_expansion(tuple(w)).items())


def zeta_shuffle(w):
    """Shuffle-regularized zeta of an X-word with zeta(x0) = zeta(x1) = 0."""
    return sum(c * ZETA[x_to_y(t)]
               for t, c in shuffle_expansion(tuple(w)).items())


@lru_cache(maxsize=None)
def stuffle_expansion(w):
    """The regularized value of a Y-word as {convergent word: coefficient}."""
    k = _run(w, 1)
    if k == 0:
        return {w: Fraction(1)}
    # y1 * (y1^(k-1) v) = k y1^k v + words with fewer leading y1
    return _peel(w, k, word_product((1,), w[1:], True), stuffle_expansion)


@lru_cache(maxsize=None)
def shuffle_expansion(w):
    """The regularized value of an X-word as {convergent word: coefficient}."""
    if w and w[-1] == 0:
        # x0 sh (v x0^(k-1)) = k v x0^k + words with fewer trailing x0
        k, product = _run(w[::-1], 0), word_product((0,), w[:-1], False)
    elif w and w[0] == 1:
        k, product = _run(w, 1), word_product((1,), w[1:], False)
    else:
        return {w: Fraction(1)}
    return _peel(w, k, product, shuffle_expansion)


def _peel(w, k, product, expand):
    # the character kills the product, so k <w> = -sum of the other terms
    out = Counter()
    for t, c in product.items():
        if t != w:
            for u, cu in expand(t).items():
                out[u] -= Fraction(c, k) * cu
    return {u: c for u, c in out.items() if c}


def truncation_bound(expansion, n, y_words=True):
    """Bound on |sum c_t (zeta(t) - H_t(n))| for an expansion in convergent words.

    With j = |t| - 1 and s1 >= 2, zeta(t) - H_t(n) = sum_{m > n} m^-s1
    H_t'(m - 1) <= sum_{m > n} (1 + ln m)^j / (j! m^2), and the integral of
    that tail is sum_{i <= j} (1 + ln n)^i / (i! n) <= (2 + ln n)^j / n.
    """
    total = 0.0
    for t, c in expansion.items():
        if t:
            depth = len(t if y_words else x_to_y(t))
            total += abs(float(c)) * (2 + math.log(n)) ** (depth - 1) / n
    return total


def _run(w, letter):
    n = 0
    while n < len(w) and w[n] == letter:
        n += 1
    return n


# ---------------------------------------------------------------------------
# the Gauss hypergeometric equation as a rational series

def hypergeometric_coefficient(t0, t1, t2, q0, w):
    """<S|w> = lambda mu(w1) ... mu(wk) eta for the Gauss ODE in the forms
    dz/z (x0) and dz/(1-z) (x1), state (y, -(1-z) y'), observing y."""
    mu = {0: ((0, 0), (-t0 * t1, -t2)), 1: ((0, -1), (0, t0 + t1 - t2))}
    row = (Fraction(1), Fraction(0))
    for a in w:
        m = mu[a]
        row = (row[0] * m[0][0] + row[1] * m[1][0],
               row[0] * m[0][1] + row[1] * m[1][1])
    return row[0] * q0[0] + row[1] * q0[1]


def hyp2f1_state(t0, t1, t2, z):
    """(F(z), -(1-z) F'(z)) for F = 2F1(t0, t1; t2; z), as floats."""
    a, b, c = (float(t) for t in (t0, t1, t2))
    value = mpmath.hyp2f1(a, b, c, z)
    slope = a * b / c * mpmath.hyp2f1(a + 1, b + 1, c + 1, z)
    return float(value), float(-(1 - z) * slope)


# ---------------------------------------------------------------------------
# ODE references

def iterated_integral(w, z0, z1, dps=20):
    """alpha_w(z0 -> z1) for dz/z (x0) and dz/(1-z) (x1), first letter outermost."""
    if not w:
        return mpmath.mpf(1)
    k = len(w)
    with mpmath.workdps(dps):
        def rhs(z, y):
            return [(y[j + 1] if j + 1 < k else 1) / (z if w[j] == 0 else 1 - z)
                    for j in range(k)]
        sol = mpmath.odefun(rhs, mpmath.mpf(z0), [mpmath.mpf(0)] * k)
        return +sol(mpmath.mpf(z1))[0]


# ---------------------------------------------------------------------------
# self-check

def self_check():
    """Check the closed forms and the fixed-point sums against mpmath."""
    with mpmath.workdps(30):
        def inner(b, n):
            return mpmath.zeta(b) - mpmath.zeta(b, n)
        worst = 0
        for w, value in ZETA.items():
            if len(w) == 2 and w[1] >= 2 or w in ((3, 1), (4, 1)):
                a, b = w
                if b == 1:
                    got = mpmath.nsum(lambda n: (mpmath.psi(0, n) + mpmath.euler)
                                      / n ** a, [1, mpmath.inf])
                else:
                    got = mpmath.nsum(lambda n: inner(b, n) / n ** a,
                                      [1, mpmath.inf])
                err = abs(got - value)
                worst = max(worst, err)
                assert err < 1e-6, (w, err)
            # duality relates every depth >= 3 value to a checked one
            assert abs(ZETA[dual_word(w)] - value) < 1e-25, w
        for w, z in (((2, 1), 0.5), ((0, 3), 0.25), ((3, 0, 2), 0.5)):
            direct = mpmath.nsum(
                lambda n: z ** n / n ** w[0] * _h_mp(w[1:], int(n) - 1),
                [1, mpmath.inf])
            assert abs(li_nested_sum(w, z) - direct) < 1e-25, w
    return worst


def _h_mp(w, n):
    total = mpmath.mpf(0)
    if not w:
        return mpmath.mpf(1)
    for m in range(len(w), n + 1):
        total += mpmath.mpf(m) ** -w[0] * _h_mp(w[1:], m - 1)
    return total


if __name__ == "__main__":
    print("closed forms and nested sums agree with mpmath; worst depth-2 "
          "gap %s" % mpmath.nstr(self_check(), 3))
