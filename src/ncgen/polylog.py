"""Nested sums, harmonic sums H_w(N) and polylogarithms Li_w(z).

One engine computes S_e(N) = sum_{N >= n1 > ... > nr >= 1} n1^e1 ... nr^er
over integer exponents, exactly (nested_sum) or in floats
(nested_sum_sweep), by sweeping S_e(n) = S_e(n-1) + n^e1 S_{e[1:]}(n-1)
forward in n, one letter at a time from the right (S = 1 at the empty
word, so S_e(n) = 0 for n < |e|).  The exact sweep runs on integers: the
column of e holds N_e(n) = S_e(n) lcm(1..n)^A, A the weight of the
negative exponents of e, and a read builds one Fraction; the float one
builds each column of a tree of words once, from its suffix's.  H_w is S
at exponents -w, H^-_w (negpolylog) at +w; y0 is exponent 0.  Li_w(z) is
the partial sum of sum_N [H_w(N) - H_w(N-1)] z^N with a ratio-test tail
bound, its terms computed up to where |z|^N underflows to 0.0.

StatePoly is the one commutative polynomial type over Q (sparse in m
variables, products by ncpoly._bilinear): dynsys's state polynomials,
and as its subclass QPoly (m = 1, read densely) H^-_w in N and Li^-_w in
t = 1/(1-z) (negpolylog).
"""

import functools
import math
from bisect import bisect
from fractions import Fraction
from operator import add

from ncgen.ncpoly import NCPoly, _bilinear, _over_lcm, words_up_to
from ncgen.words import X, Y, pi_y_word

# exponent word e -> its integer column N_e(0), N_e(1), ... and n -> lcm(1..n):
# tables grown in place as larger N are asked for, not memos of one result
_columns = {}
_lcms = [1]
MAX_TERMS = 400000  # polylog_eval's cap, the count it picks near z = 1


def nested_sum(e, N):
    """Exact S_e(N) as a Fraction, for a word e of integer exponents."""
    e = tuple(e)
    if not e:
        return Fraction(1)
    if N < len(e):
        return Fraction(0)
    while min(e) < 0 and len(_lcms) <= N:
        _lcms.append(math.lcm(_lcms[-1], len(_lcms)))
    tail, a = None, 0
    for i in range(len(e) - 1, -1, -1):
        col = _columns.setdefault(e[i:], [0])
        k, inner = e[i], a
        a += max(0, -k)
        for n in range(len(col), N - i + 1):
            # from over lcm(1..n-1) to over lcm(1..n): r per power of it
            t = 1 if tail is None else tail[n - 1]
            r = _lcms[n] // _lcms[n - 1] if a else 1
            step = t * n ** k if k >= 0 else t * (_lcms[n] // n) ** -k
            col.append(col[-1] * r ** a + step * r ** inner)
        tail = col
    return Fraction(tail[N], _lcms[N] ** a if a else 1)


def nested_sum_sweep(N, letters):
    """Float S_e(n), n = 0..N, for the exponent words e grown from () one
    letter at a time on the left (letters(e): the k of the words k e):
    yields (e, column) depth first, each column built once, in place, from
    its suffix's, and keeps only the columns of pending words' suffixes."""
    import numpy as np  # here, so the exact side loads without numpy
    n = np.arange(1, N + 1, dtype=float)
    todo = [((), None)]
    while todo:
        e, suffix = todo.pop()
        col = np.empty(N + 1) if e else np.ones(N + 1)
        if e:  # n^k times the suffix column at n - 1, then the cumsum
            col[0] = 0.0
            np.power(n, float(e[0]), out=col[1:])
            col[1:] *= suffix[:-1]
            np.add.accumulate(col, out=col)
        yield e, col
        todo += [((k,) + e, col) for k in reversed(letters(e))]


def nested_sum_array(e, N):
    """Float S_e(n) for n = 0..N as a numpy array (for large N): the
    sweep along the suffixes of e."""
    e = tuple(e)  # below: the letter of e left of its suffix f, if any
    for _, col in nested_sum_sweep(
            N, lambda f: e[-len(f) - 1:len(e) - len(f)]):
        pass
    return col


def harmonic(w, N):
    """Exact H_w(N) as a Fraction; w is a Y-word (tuple of indices >= 1)."""
    return nested_sum([-a for a in w], N)


def harmonic_array(w, N):
    """Float H_w(n) for n = 0..N as a numpy array (for large N)."""
    return nested_sum_array([-a for a in w], N)


def harmonic_float(w, N):
    return float(harmonic_array(w, N)[N])


def harmonic_series(N, max_weight):
    """Truncated generating series H(N) = sum_w H_w(N) w over Y, exact,
    each coefficient from the nested-sum engine (harmonic): its stuffle
    grouplikeness is checked, not given by construction."""
    return NCPoly(Y, {w: harmonic(w, N) for w in words_up_to(Y, max_weight)},
                  max_weight)


def auto_terms(z):
    """The term count polylog_eval sums when given terms=None: |z|^T
    below ~1e-17 even for z near 1, at least 2000, at most MAX_TERMS."""
    return int(min(MAX_TERMS, max(2000, 40.0 / max(1e-9, 1.0 - abs(z)))))


def polylog_eval(w, z, terms=None, alphabet=None):
    """Partial-sum value of Li_w(z) for |z| < 1, with a tail bound.

    w is read in the alphabet given: an X-word must lie in X*x1 (it codes
    an index word), a Y/Y0 word is one.  Without it a word over {0, 1} is
    read as an X-word.  terms=None (the default) sums auto_terms(z) terms;
    terms above MAX_TERMS are refused, and so is a value that underflows
    to 0.  The empty word gives 1.  Returns (value, _tail_bound(...)).
    Only the terms before the first n with |z|^n == 0.0 are computed (at
    z = 1/2 n = 1075 of 2000); the rest are 0.0 and summed as such.
    """
    w = tuple(w)
    if not (-1 < z < 1):
        raise ValueError("polylog_eval needs |z| < 1")
    if terms is not None and terms > MAX_TERMS:
        raise ValueError("terms must be <= %d, got %d" % (MAX_TERMS, terms))
    if alphabet is None:
        alphabet = X if w and set(w) <= {0, 1} else Y
    if alphabet == X:
        yw = pi_y_word(w)
        if yw is None:
            raise ValueError("X-word must lie in X*x1 (it codes an index word)")
        w = yw
    if not w:
        return 1.0, 0.0
    if terms is None:
        terms = auto_terms(z)
    powers = _li_powers(z, terms)
    value = _li_sum(harmonic_array(w, len(powers)), powers, terms)
    if z and terms >= len(w) and not value:  # c_n > 0 from n = |w| on
        raise ValueError("Li_w(z) underflows a float")
    return value, _tail_bound(w, abs(z), terms)


def _li_powers(z, terms):
    """z^n for n = 1 up to the last n <= terms with |z|^n != 0.0, as a
    numpy array: past it every term of a Li sum at z is 0.0."""
    import numpy as np
    x = abs(z)
    last = bisect(range(1, terms + 1), False, key=lambda n: not x ** n)
    return z ** np.arange(1, last + 1, dtype=float)


def _li_sum(column, powers, terms):
    """The partial sum of Li_w(z) to terms terms from the float column
    H_w(0..n) (or S_e) and powers = _li_powers(z, terms), n = len(powers):
    the products (H_w(n) - H_w(n-1)) z^n, then terms - n products 0.0,
    which as zeros keep the grouping of numpy's pairwise sum."""
    import numpy as np
    products = np.zeros(max(terms, 0))
    np.multiply(np.diff(column), powers, out=products[:len(powers)])
    return float(products.sum())


def _tail_bound(w, x, terms):
    """Bound on sum_{n > terms} |c_n| x^n, c_n the coefficient of z^n in
    Li_w, w = (s1, ...) a Y0 word: the r letters s of w[1:] that are equal
    take strictly ordered indices, so |c_n| <= n^-s1 prod_s h_s(n-1)^r / r!
    with h_0(m) = m, h_1(m) <= 1 + ln m and h_s <= zeta(s) <= s/(s-1).
    Each h^r / r! is a running product of h/k, k = 1..r, so neither 199!
    nor h^199 is formed on its own.  The ratio q of consecutive bound terms
    (n^-s1 aside) falls towards x: they are summed while q >= (1+x)/2, and
    the rest is geometric; ValueError if q is still there MAX_TERMS on."""
    s1, rest = w[0], w[1:]
    counts = {s: rest.count(s) for s in dict.fromkeys(rest)}

    def power(h, r):  # h^r / r!
        return math.prod(h / k for k in range(1, r + 1))

    zeta = math.prod(power(s / (s - 1), r) for s, r in counts.items() if s > 1)

    def h(m):  # the product over s; m >= |rest|, so m = 0 has no log
        return (power(m, counts.get(0, 0))
                * power(1 + math.log(m or 1), counts.get(1, 0)) * zeta)

    total, start = 0.0, max(terms + 1, len(w))  # c_n = 0 below |w|
    for n in range(start, start + MAX_TERMS):
        a, q = n ** -s1 * h(n - 1) * x ** n, x * h(n) / h(n - 1)
        if q < (1 + x) / 2:
            return total + a / (1 - q)
        total += a
    raise ValueError("Li_w(z) converges too slowly for a tail bound")


# ---------------------------------------------------------------------------
# exact polynomials over Q

_ZERO = Fraction(0)


class StatePoly:
    """Polynomial over Q in m variables: exponent tuple -> coef.  Results
    keep the class of the left operand."""

    __slots__ = ("m", "terms")

    def __init__(self, m, terms=None):
        self.m = m
        self.terms = {}
        for e, c in (terms or {}).items():
            c = c if type(c) is Fraction else Fraction(c)
            if c:
                self.terms[tuple(e)] = c

    def _new(self, terms):
        """A result of arithmetic: self's class, zeros dropped."""
        P = object.__new__(type(self))
        P.m = self.m
        P.terms = {e: c for e, c in terms.items() if c}
        return P

    @classmethod
    def const(cls, m, c):
        return cls(m, {(0,) * m: c})

    @classmethod
    def coord(cls, m, j):
        e = [0] * m
        e[j] = 1
        return cls(m, {tuple(e): 1})

    def __eq__(self, other):
        return (isinstance(other, StatePoly) and self.m == other.m
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, StatePoly):
            other = self._new({(0,) * self.m: Fraction(other)})
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, _ZERO) + c
        return self._new(t)

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def scale(self, c):
        c = Fraction(c)
        return self._new({e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, StatePoly):
            return self.scale(other)
        return self._new(_bilinear(self.terms, other.terms, lambda e, f: (
            (tuple(map(add, e, f)), 1),)))  # x^e x^f = x^(e+f), once

    __rmul__ = __mul__

    def __pow__(self, k):
        """self^k for an int k >= 0."""
        out = self._new({(0,) * self.m: Fraction(1)})
        for _ in range(k):
            out = out * self
        return out

    def diff(self, j):
        return self._new({e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                          for e, c in self.terms.items() if e[j]})

    def eval(self, q):
        total = None
        for e, c in self.terms.items():
            v = c if isinstance(q[0], Fraction) else float(c)
            for qi, ei in zip(q, e):
                for _ in range(ei):
                    v = v * qi
            total = v if total is None else total + v
        if total is None:
            return Fraction(0) if (len(q) and isinstance(q[0], Fraction)) else 0.0
        return total

    @classmethod
    def from_json_list(cls, m, data):
        return cls(m, {tuple(item["exps"]): Fraction(item["coef"])
                       for item in data})

    def __repr__(self):
        return "StatePoly(%r)" % (self.terms,)


class QPoly(StatePoly):
    """StatePoly in one variable x, read densely: coefs[i] is the
    coefficient of x^i.  The variable is N, t = 1/(1-z) or z, as the
    docstring of the function that builds the polynomial says."""

    def __init__(self, coefs):
        super().__init__(1, {(i,): c for i, c in enumerate(coefs)})

    @classmethod
    def const(cls, c):
        return cls([c])

    def degree(self):
        return max(self.terms, default=(-1,))[0]

    @functools.cached_property  # eval reads it on every call
    def coefs(self):
        t = self.terms
        return tuple(t.get((i,), _ZERO) for i in range(self.degree() + 1))

    def eval(self, x):
        val = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
        for c in reversed(self.coefs):
            val = val * x + c
        return val

    def shift(self, c):
        """p(x + c): sum_i a_i C(i, m) c^(i-m) at x^m, summed on integers
        over D q^n (a_i = A_i / D, c = p / q, n the degree)."""
        c, n = Fraction(c), len(self.coefs) - 1
        p, q = c.numerator, c.denominator
        D, A = _over_lcm(self.coefs)
        cs = [p ** j * q ** (n - j) for j in range(n + 1)]  # c^j over q^n
        return QPoly([Fraction(sum(A[i] * math.comb(i, m) * cs[i - m]
                                   for i in range(m, n + 1)), D * q ** n)
                      for m in range(n + 1)])

    def derivative(self):
        return self.diff(0)

    def __repr__(self):
        return "QPoly(%s)" % list(self.coefs)
