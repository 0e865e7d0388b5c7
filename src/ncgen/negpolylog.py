"""Negative-index polylogarithms and harmonic sums, exactly.

Li^-_w(z) for w over Y0 = {y0, y1, ...} is a polynomial in t = 1/(1-z)
(degree (w)+|w|), built by the recursion

    Li^-_{y_s u} = theta0^s (lambda Li^-_u),    lambda = t - 1,

where theta0 = z d/dz acts on Q[t] as the derivation with
theta0(t) = t^2 - t.  H^-_w(N) = sum_{N >= n1 > ... > nr >= 1}
n1^{s1} ... nr^{sr} is a polynomial in N of the same degree; it is
built from Newton forward differences of the literal nested sum at
N = 0..degree, in integers until one last division, with the classical
Bernoulli/Faulhaber formulas kept as cross-checks.

The multi-index Bernoulli polynomials B_w(z) are implemented in closed
form for |w| <= 2 (single index: classical Bernoulli polynomial, with
B_1 = -1/2; two indices: a finite Bernoulli double sum).  For |w| = 3
the shifted part beta_w = B_w - B_w(0) is produced from the first
extended Faulhaber identity, which pins everything the roundtrip checks
need; longer words raise.  The first Faulhaber identity holds with the
*inclusive* harmonic sum (innermost index allowed to reach 0), which
only differs from H^- when the last shifted exponent is 0.

Every polynomial here is a polylog.QPoly (StatePoly in one variable),
in t, N or z; theta0 is a QPoly product, the power tables use **, and
the Eulerian numerator is one Taylor shift.

Caches: `_li_neg`, `_h_neg` and `_faulhaber_B_poly` are `functools.cache`s
keyed by the word (`cache_info()` reports hits, misses and size); li_neg,
h_neg and faulhaber_B_poly call them with tuple(w).  The Bernoulli
numbers are a table grown in place.
"""

import functools
from fractions import Fraction
from math import comb, factorial

from ncgen.polylog import QPoly, nested_sum

T_VAR = "1/(1-z)"

LAMBDA_T = QPoly([-1, 1], T_VAR)  # t - 1


def theta0_t(p):
    """z d/dz on Q[t], t = 1/(1-z): derivation with theta0(t) = t^2 - t."""
    return QPoly([0, -1, 1], T_VAR) * p.derivative()


@functools.cache
def _li_neg(w):
    # Li^-_{y_s u} = theta0^s (lambda Li^-_u), looped from the last letter
    out = QPoly.const(1, T_VAR)
    for s in reversed(w):
        out = LAMBDA_T * out
        for _ in range(s):
            out = theta0_t(out)
    return out


def li_neg(w):
    """Li^-_w as a polynomial in t = 1/(1-z); w over Y0 (indices >= 0)."""
    return _li_neg(tuple(w))


def p_neg(w):
    """P^-_w = Li^-_w / (1-z) = t * Li^-_w, the H-ordinary generating function."""
    return QPoly([0, 1], T_VAR) * li_neg(w)


def p_neg_z_coefficient(w, N):
    """Exact coefficient of z^N in p_neg(w), via t^k = sum C(N+k-1,k-1) z^N
    (p_neg = t Li^-_w has no constant term)."""
    total = Fraction(0)
    for k, c in enumerate(p_neg(w).coefs):
        if c and k:
            total += c * comb(N + k - 1, k - 1)
    return total


# ---------------------------------------------------------------------------
# harmonic sums at negative indices

@functools.cache
def _h_neg(w):
    # Newton: H(N) = sum_k Delta^k H(0) C(N, k) over the integer values at
    # N = 0..d; the falling factorials N(N-1)...(N-k+1) stay in integers,
    # scaled by d!/k!, and d! is divided out last
    d = sum(w) + len(w)
    denom = factorial(d)
    values = [int(nested_sum(w, n)) for n in range(d + 1)]
    coefs = [0] * (d + 1)
    falling = [1]
    for k in range(d + 1):
        scale = values[0] * (denom // factorial(k))
        for i, c in enumerate(falling):
            coefs[i] += scale * c
        values = [b - a for a, b in zip(values, values[1:])]
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return QPoly([Fraction(c, denom) for c in coefs], "N")


def h_neg(w):
    """H^-_w as an exact polynomial in N of degree (w)+|w| (Newton form)."""
    return _h_neg(tuple(w))


def h_neg_single_closed_form(m):
    """H^-_{y_m}(N) = (1/(m+1)) sum_k C(m+1,k) B_k (N+1)^(m+1-k), m >= 1.

    (For m = 0 the formula overcounts by the 0^0 term; use h_neg.)
    """
    if m < 1:
        raise ValueError("closed form needs m >= 1")
    Np1 = QPoly([1, 1], "N")
    total = QPoly([], "N")
    for k in range(m + 1):
        total = total + comb(m + 1, k) * bernoulli(k) * Np1 ** (m + 1 - k)
    return Fraction(1, m + 1) * total


# ---------------------------------------------------------------------------
# Eulerian and Bernoulli layers

def eulerian(n, k):
    """Eulerian number A_{n,k} = sum_j (-1)^j C(n+1,j) (k+1-j)^n."""
    if not (0 <= k <= max(n - 1, 0)):
        raise ValueError("Eulerian index out of range: (%d, %d)" % (n, k))
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n
               for j in range(k + 1))


# a table grown in place (B_0, B_1, ...), not a memo of one call's result
_bernoulli_cache = [Fraction(1)]


def bernoulli(k):
    """Bernoulli number B_k, with B_1 = -1/2 (generating series t/(e^t - 1))."""
    while len(_bernoulli_cache) <= k:
        m = len(_bernoulli_cache)
        s = sum(comb(m + 1, j) * _bernoulli_cache[j] for j in range(m))
        _bernoulli_cache.append(-s / Fraction(m + 1))
    return _bernoulli_cache[k]


def bernoulli_poly(m):
    """Classical Bernoulli polynomial B_m(z) = sum_k C(m,k) B_k z^(m-k)."""
    return QPoly([comb(m, j) * bernoulli(m - j) for j in range(m + 1)], "z")


def li_neg_numerator_z(m):
    """Numerator polynomial of Li^-_{y_m} = z A_m(z) / (1-z)^(m+1), in z.

    Returns the Eulerian polynomial z * sum_k A_{m,k} z^k as a QPoly,
    computed from li_neg (the Eulerian recursion route is a test).
    """
    # N(z) = r(1-z), r(y) = sum_k c_k y^(m+1-k) for li_neg = sum_k c_k t^k
    # of degree m+1 (leading coefficient m!): r's coefficients are c's
    # reversed, and r(1-z) = s(z-1) for s(x) = r(-x), one Taylor shift
    r = li_neg((m,)).coefs[::-1]
    return QPoly([-a if j % 2 else a for j, a in enumerate(r)], "z").shift(-1)


# ---------------------------------------------------------------------------
# multi-index Bernoulli polynomials and the extended Faulhaber identities

@functools.cache
def _faulhaber_B_poly(w):
    if not w:
        return QPoly.const(1, "z")
    if len(w) == 1:
        return bernoulli_poly(w[0])
    if len(w) == 2:
        n1, n2 = w
        total = QPoly([], "z")
        for m in range(n1, n1 + n2 + 1):
            c = (Fraction(comb(m - 1, n1 - 1), factorial(m))
                 * bernoulli(n1 + n2 - m) / factorial(n1 + n2 - m))
            total = total + c * bernoulli_poly(m)
        return factorial(n1) * factorial(n2) * total
    raise ValueError("closed-form B_w implemented for |w| <= 2 only")


def faulhaber_B_poly(w):
    """B_w(z) for |w| <= 2 (closed forms); raises for longer words."""
    return _faulhaber_B_poly(tuple(w))


def faulhaber_B(w, z):
    return faulhaber_B_poly(w).eval(Fraction(z))


def b_constant(w):
    """b_w = B_w(0), the constant coefficient (B_w is never 0), |w| <= 2."""
    return faulhaber_B_poly(w).coefs[0]


def b_prime(w):
    """b'_w: b'_{y_k} = b_{y_k}; recursion peels prefixes against suffixes."""
    w = tuple(w)
    if len(w) == 1:
        return b_constant(w)
    total = b_constant(w)
    for j in range(len(w) - 1):
        total -= b_constant(w[j + 1:]) * b_prime(w[:j + 1])
    return total


def h_tilde(w):
    """Inclusive nested sum (innermost index down to 0) as an NPoly.

    Equals H^-_w plus, when the last exponent is 0, the 0^0 = 1 term,
    which contributes H^- of the word with its last letter dropped.
    """
    w = tuple(w)
    p = h_neg(w)
    if w and w[-1] == 0:
        p = p + h_neg(w[:-1])
    return p


def beta_poly(w):
    """beta_w = B_w - B_w(0) from the first extended Faulhaber identity.

    beta_w(N) = sum_k (n1...nk) b_{suffix after k} Htilde^-_{shifted-down
    prefix}(N - 1); works for |w| <= 3 (suffix b's need |.| <= 2).
    """
    w = tuple(w)
    if not w:
        return QPoly([], "N")
    if any(n < 1 for n in w):
        raise ValueError("beta_poly needs positive indices")
    total = QPoly([], "N")
    prod = 1
    for k in range(1, len(w) + 1):
        prod *= w[k - 1]
        b_suf = b_constant(w[k:]) if w[k:] else Fraction(1)
        if b_suf:
            shifted = tuple(n - 1 for n in w[:k])
            total = total + prod * b_suf * h_tilde(shifted).shift(-1)
    return total


def h_neg_from_faulhaber(w):
    """Second extended Faulhaber identity: H^-_w from the up-shifted betas."""
    w = tuple(w)
    up = tuple(n + 1 for n in w)
    num = beta_poly(up).shift(1)
    for k in range(1, len(w)):
        num = num - b_prime(up[k:]) * beta_poly(up[:k]).shift(1)
    denom = 1
    for n in up:
        denom *= n
    return Fraction(1, denom) * num


def faulhaber_roundtrip(w):
    """Verify the Faulhaber layer on a word with positive indices, |w| <= 3.

    Checks, all as exact polynomial identities:
      - for |w| <= 2: beta from the closed-form B_w matches the
        F1-constructed beta;
      - the difference equation beta_w(z+1) - beta_w(z) = n1 z^(n1-1) B_tail(z);
      - B_w(1) = B_w(0) when n1 > 1 (i.e. beta_w(1) = 0), and beta_w(0) = 0;
      - the second identity recovers h_neg(w) exactly.
    """
    w = tuple(w)
    if not w or any(n < 1 for n in w) or len(w) > 3:
        raise ValueError("roundtrip needs positive indices and |w| <= 3")
    beta = beta_poly(w)
    if len(w) <= 2:
        closed = faulhaber_B_poly(w)
        if beta != closed - closed.coefs[0]:
            return False
    n1 = w[0]
    tail = faulhaber_B_poly(w[1:])
    monomial = QPoly([0] * (n1 - 1) + [n1], "N")
    if beta.shift(1) - beta != monomial * tail:
        return False
    if beta.coefs[0] != 0:  # beta is not constant: its difference is not 0
        return False
    if n1 > 1 and beta.eval(Fraction(1)) != 0:
        return False
    return h_neg_from_faulhaber(w) == h_neg(w)


# ---------------------------------------------------------------------------
# stuffle morphism

def stuffle_morphism_check_neg(u, v):
    """Exact polynomial identity H^-_u H^-_v = H^- over u stuffle v."""
    from ncgen.ncpoly import stuffle_words
    u, v = tuple(u), tuple(v)
    lhs = h_neg(u) * h_neg(v)
    rhs = QPoly([], "N")
    for w, c in stuffle_words(u, v).items():
        rhs = rhs + c * h_neg(w)
    return lhs == rhs
