"""Harmonic sums as N -> infinity, at positive and at negative indices.

At positive indices, H_w(N) has the asymptotic expansion
sum c log^j N / N^k (harmonic_expansion), by the stuffle recursion

    H_{s u}(N) = sum_{n <= N} n^-s H_u(n) - H_{(s + u1) u'}(N)

(u = u1 u'; the second term is one letter shorter) and Euler-Maclaurin
on the sum: sum_{n <= N} f(n) = C + F(N) + f(N)/2
+ sum_i B_2i/(2i)! f^(2i-1)(N), F a primitive of f.  The one unknown,
C, is fixed by the exact H_w(N0).  The constant terms C_w (log N and
1/N set to 0) are a stuffle character with C_{y1} = gamma
(Costermans, Enjalbert, Hoang Ngoc Minh and Petitot, ISSAC 2005).

At negative indices, H^-_w(N) is a polynomial of degree
d(w) = (weight of w) + (length of w), so H^-_w(N) ~ C^-_w N^{d(w)}.  The
leading constant has the product form

    C^-_w = prod over nonempty suffixes v of w of 1 / d(v),

and B^-_w = d(w)! C^-_w is a positive integer.  The map w -> C^-_w is a
character for the shuffle product, and for the stuffle product once the
expansion is restricted to its top stratum (the words of maximal d,
i.e. the uncontracted shuffle terms).
"""

import functools
import math
from collections import defaultdict
from fractions import Fraction
from math import factorial

from ncgen.ncpoly import shuffle_words, stuffle_words, words_up_to
from ncgen.negpolylog import bernoulli, h_neg
from ncgen.polylog import harmonic
from ncgen.words import Y

N0 = 50  # each expansion's constant: its value at N0 is the exact H_w(N0)
K = 12   # the powers 1/N^k kept, k <= K


def _derivative(f):
    """d/dN of sum c log^j N / N^m, {(j, m): c}, past 1/N^K dropped:
    log^j N / N^m -> (j log^(j-1) N - m log^j N) / N^(m+1)."""
    out = defaultdict(float)
    for (j, m), c in f.items():
        if m < K:
            if j:
                out[j - 1, m + 1] += j * c
            if m:
                out[j, m + 1] -= m * c
    return out


def _primitive(f):
    """A primitive in N of sum c log^j N / N^m (m >= 1), no constant, past
    1/N^K dropped: log^(j+1) N / (j+1) at m = 1, else by parts
    N^(1-m) sum_i (-1)^i j!/(j-i)! log^(j-i) N / (1-m)^(i+1)."""
    out = defaultdict(float)
    for (j, m), c in f.items():
        if m == 1:
            out[j + 1, 0] += c / (j + 1)
        elif m <= K + 1:
            t = c / (1 - m)
            for i in range(j + 1):
                out[j - i, m - 1] += t
                t *= (j - i) / (m - 1)
    return out


def expansion_value(expansion, N):
    """sum c log^j N / N^k of an expansion {(j, k): c} at N."""
    log_n = math.log(N)
    return sum(c * log_n ** j / N ** k for (j, k), c in expansion.items())


@functools.cache
def harmonic_expansion(w):
    """H_w(N) ~ sum c log^j N / N^k, k <= K, for a Y-word w: {(j, k): c},
    float c, the constant C_w at (0, 0).  Shared by every caller: read it,
    never change it.

    The stuffle recursion and Euler-Maclaurin of the module docstring,
    with f(n) = n^-s times the expansion of H_u(n) (what that expansion
    misses sums to a constant plus O(N^-K)); the constant is matched to
    the exact H_w(N0), so no float partial sum enters.  Every Y-word of
    weight <= 6 is within 4e-15 relative of H_w(N) for N0 <= N <= 10^4.
    """
    w = tuple(w)
    if not w:
        return {(0, 0): 1.0}
    s, u = w[0], w[1:]
    f = {(j, k + s): c for (j, k), c in harmonic_expansion(u).items()
         if k + s <= K + 1}
    out = _primitive(f)
    for key, c in f.items():  # f(N)/2
        if key[1] <= K:
            out[key] += c / 2
    d, i = _derivative(f), 1
    while d:  # B_2i/(2i)! f^(2i-1)(N)
        b = float(bernoulli(2 * i) / factorial(2 * i))
        for key, c in d.items():
            out[key] += b * c
        d, i = _derivative(_derivative(d)), i + 1
    if u:
        for key, c in harmonic_expansion((s + u[0],) + u[1:]).items():
            out[key] -= c
    out[0, 0] = 0.0
    out[0, 0] = float(harmonic(w, N0)) - expansion_value(out, N0)
    return dict(out)


def growth_degree(w):
    """d(w) = weight + length, the N-degree of H^-_w."""
    return sum(w) + len(w)


def c_minus(w):
    """Leading coefficient C^-_w of H^-_w(N) ~ C^-_w N^{d(w)}, exact."""
    out = Fraction(1)
    for k in range(len(w)):
        out /= growth_degree(w[k:])
    return out


def b_minus(w):
    """B^-_w = d(w)! C^-_w, always a positive integer."""
    val = factorial(growth_degree(w)) * c_minus(w)
    if val.denominator != 1:
        raise AssertionError("b_minus not integral for %r" % (w,))
    return val.numerator


def top_stratum(expansion, degree):
    """Filter a word->coefficient dict to the words of the given d."""
    return {w: c for w, c in expansion.items() if growth_degree(w) == degree}


def cone_linear_check(u, v, product="shuffle"):
    """C^-_u C^-_v = sum of c C^-_w over the top stratum of u (x) v.

    For the shuffle product every term is already in the top stratum;
    for the stuffle product the contracted (shorter) words drop out.
    """
    u, v = tuple(u), tuple(v)
    if product == "shuffle":
        expansion = shuffle_words(u, v)
    elif product == "stuffle":
        expansion = stuffle_words(u, v)
    else:
        raise ValueError("product must be 'shuffle' or 'stuffle'")
    d = growth_degree(u) + growth_degree(v)
    total = sum((c * c_minus(w) for w, c in top_stratum(expansion, d).items()),
                Fraction(0))
    return total == c_minus(u) * c_minus(v)


def grouplike_c_check(max_weight):
    """The character property of C^- on all Y-word pairs up to a weight
    (the top stratum of u st v is u sh v, so the shuffle checks both)."""
    words = [w for w in words_up_to(Y, max_weight) if w]
    for u in words:
        for v in words:
            if sum(u) + sum(v) > max_weight:
                continue
            if not cone_linear_check(u, v, "shuffle"):
                return False
    return True


def limit_validation(w, n_max, tol=None):
    """Check H^-_w(N)/(C^-_w N^d) -> 1 numerically at N = n_max.

    The next-to-leading term of H^-_w is O(N^{d-1}), so the default
    tolerance is 2 d / n_max.
    """
    w = tuple(w)
    d = growth_degree(w)
    if tol is None:
        tol = 2.0 * d / n_max
    exact = h_neg(w).eval(Fraction(n_max))
    ratio = exact / (c_minus(w) * Fraction(n_max) ** d)
    err = abs(float(ratio) - 1.0)
    return {
        "word": w,
        "degree": d,
        "c_minus": c_minus(w),
        "ratio": float(ratio),
        "abs_err": err,
        "tol": tol,
        "pass": err <= tol,
    }
