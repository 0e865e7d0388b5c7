"""Nested sums, harmonic sums H_w(N) and polylogarithms Li_w(z).

One engine computes S_e(N) = sum_{N >= n1 > ... > nr >= 1} n1^e1 ... nr^er
over integer exponents, exactly (nested_sum) or in floats
(nested_sum_array), by sweeping S_e(n) = S_e(n-1) + n^e1 S_{e[1:]}(n-1)
forward in n, one letter at a time from the right (S = 1 at the empty
word, so S_e(n) = 0 for n < |e|).  The exact sweep runs on integers: the
column of e holds N_e(n) = S_e(n) lcm(1..n)^A, A the weight of the
negative exponents of e, and a read builds one Fraction.  H_w is S at
exponents -w, H^-_w (negpolylog) at +w; y0 is exponent 0.  Li_w(z) is
the partial sum of sum_N [H_w(N) - H_w(N-1)] z^N with a ratio-test tail
bound.

The second half is the symbolic operator algebra on finite combinations
sum c_w(z) Li_w(z), with coefficients c_w in Q[z, 1/z, 1/(1-z)]
(RatZ below, kept canonical as N(z) / (z^a (1-z)^b) with the factors of
z and 1-z cancelled out of N).  Actions:

    dz Li_{x0 w} = Li_w / z          dz Li_{x1 w} = Li_w / (1-z)
    theta0 = z dz,   theta1 = (1-z) dz   (derivations: product rule
    against the coefficients), iota_i prepends the letter x_i.

theta_k iota_k = Id and (theta0 iota1)(theta1 iota0) = Id hold on
combinations with *constant* coefficients (the operators are only
linear over constants).
"""

import math
from fractions import Fraction

from ncgen.ncpoly import NCPoly
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


def nested_sum_array(e, N):
    """Float S_e(n) for n = 0..N as a numpy array (for large N)."""
    import numpy as np  # here, so the exact side loads without numpy
    n = np.arange(1, N + 1, dtype=float)
    col = np.ones(N + 1)
    for k in reversed(tuple(e)):
        contrib = np.zeros(N + 1)
        contrib[1:] = n ** float(k) * col[:-1]
        col = np.cumsum(contrib)
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
    """Truncated generating series H(N) = sum_w H_w(N) w over Y, exact.

    Built from the product (1 + sum_k y_k/N^k)(...)(1 + sum_k y_k/1^k),
    largest index leftmost, which encodes the difference equations.
    """
    out = NCPoly.one(Y).truncate(max_weight)
    for n in range(1, N + 1):
        factor = {(k,): Fraction(1, n ** k) for k in range(1, max_weight + 1)}
        out = (NCPoly.one(Y) + NCPoly(Y, factor)) * out
    return out


def auto_terms(z):
    """The term count polylog_eval sums when given terms=None: |z|^T
    below ~1e-17 even for z near 1, at least 2000, at most MAX_TERMS."""
    return int(min(MAX_TERMS, max(2000, 40.0 / max(1e-9, 1.0 - abs(z)))))


def polylog_eval(w, z, terms=400, alphabet=None):
    """Partial-sum value of Li_w(z) for |z| < 1, with a tail bound.

    w is read in the alphabet given: an X-word must lie in X*x1 (it codes
    an index word), a Y/Y0 word is one.  Without it a word over {0, 1} is
    read as an X-word.  terms=None sums auto_terms(z) terms; terms above
    MAX_TERMS are refused, and so is a value that underflows to 0.  The
    empty word gives 1.  Returns (value, _tail_bound(...)).
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
    import numpy as np
    h = harmonic_array(w, terms)
    n = np.arange(0, terms + 1, dtype=float)
    diffs = np.diff(h)  # H_w(n) - H_w(n-1), n = 1..terms
    value = float(np.sum(diffs * z ** n[1:]))
    if z and terms >= len(w) and not value:  # c_n > 0 from n = |w| on
        raise ValueError("Li_w(z) underflows a float")
    return value, _tail_bound(w, abs(z), terms)


def _tail_bound(w, x, terms):
    """Bound on sum_{n > terms} |c_n| x^n, c_n the coefficient of z^n in
    Li_w, w = (s1, ...) a Y0 word: dropping the order of the inner indices,
    |c_n| <= n^-s1 prod_{i>=2} h_{s_i}(n-1), h_0(m) = m, h_1(m) <= 1 + ln m
    and h_s <= zeta(s) <= s/(s-1).  The ratio q of consecutive bound terms
    (n^-s1 aside) falls towards x: they are summed while q >= (1+x)/2, and
    the rest is geometric; ValueError if q is still there MAX_TERMS on."""
    s1, rest = w[0], w[1:]
    zeta = math.prod(s / (s - 1) for s in rest if s > 1)

    def h(m):  # prod_{i>=2} h_{s_i}(m); m >= |rest|, so m = 0 has no log
        return (float(m) ** rest.count(0)
                * (1 + math.log(m or 1)) ** rest.count(1) * zeta)

    total, start = 0.0, max(terms + 1, len(w))  # c_n = 0 below |w|
    for n in range(start, start + MAX_TERMS):
        a, q = n ** -s1 * h(n - 1) * x ** n, x * h(n) / h(n - 1)
        if q < (1 + x) / 2:
            return total + a / (1 - q)
        total += a
    raise ValueError("Li_w(z) converges too slowly for a tail bound")


# ---------------------------------------------------------------------------
# exact coefficients in Q[z, 1/z, 1/(1-z)]

def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else Fraction(0))
            + (q[i] if i < len(q) else Fraction(0)) for i in range(n)]


class RatZ:
    """Element of Q[z, 1/z, 1/(1-z)]: num(z) / (z^a (1-z)^b), canonical."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num, a=0, b=0):
        num = [Fraction(c) for c in num]
        while num and not num[-1]:
            num.pop()
        if not num:
            a = b = 0
        else:
            while a > 0 and not num[0]:
                num = num[1:]
                a -= 1
            while b > 0 and sum(num) == 0:  # (1-z) | num iff num(1) = 0
                q, acc = [], Fraction(0)
                for c in num[:-1]:
                    acc += c
                    q.append(acc)
                num = q
                b -= 1
            while num and not num[-1]:
                num.pop()
        self.num = tuple(num)
        self.a = a
        self.b = b

    @classmethod
    def const(cls, c):
        return cls([Fraction(c)])

    @classmethod
    def z_pow(cls, k):
        if k >= 0:
            return cls([Fraction(0)] * k + [Fraction(1)])
        return cls([Fraction(1)], a=-k)

    @classmethod
    def uinv_pow(cls, k):
        """(1-z)^(-k), k >= 0."""
        return cls([Fraction(1)], b=k)

    @classmethod
    def lam(cls):
        """z/(1-z)."""
        return cls([Fraction(0), Fraction(1)], b=1)

    def is_zero(self):
        return not self.num

    def __eq__(self, other):
        return (isinstance(other, RatZ) and self.num == other.num
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.num, self.a, self.b))

    def __add__(self, other):
        a, b = max(self.a, other.a), max(self.b, other.b)
        p = list(self.num)
        for _ in range(a - self.a):
            p = _poly_mul(p, [Fraction(0), Fraction(1)]) if p else p
        for _ in range(b - self.b):
            p = _poly_mul(p, [Fraction(1), Fraction(-1)]) if p else p
        q = list(other.num)
        for _ in range(a - other.a):
            q = _poly_mul(q, [Fraction(0), Fraction(1)]) if q else q
        for _ in range(b - other.b):
            q = _poly_mul(q, [Fraction(1), Fraction(-1)]) if q else q
        return RatZ(_poly_add(p, q), a, b)

    def __neg__(self):
        return RatZ([-c for c in self.num], self.a, self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatZ):
            other = RatZ.const(other)
        if self.is_zero() or other.is_zero():
            return RatZ([])
        return RatZ(_poly_mul(list(self.num), list(other.num)),
                    self.a + other.a, self.b + other.b)

    __rmul__ = __mul__

    def derivative(self):
        """d/dz."""
        if self.is_zero():
            return RatZ([])
        n = list(self.num)
        dn = [i * c for i, c in enumerate(n)][1:] or [Fraction(0)]
        # [N' z(1-z) - a N (1-z) + b N z] / (z^(a+1) (1-z)^(b+1))
        term = _poly_mul(dn, [Fraction(0), Fraction(1), Fraction(-1)])
        if self.a:
            term = _poly_add(term, _poly_mul(n, [Fraction(-self.a), Fraction(self.a)]))
        if self.b:
            term = _poly_add(term, _poly_mul(n, [Fraction(0), Fraction(self.b)]))
        return RatZ(term, self.a + 1, self.b + 1)

    def eval(self, z):
        if self.is_zero():
            return 0 * z
        val = 0 * z
        for c in reversed(self.num):
            val = val * z + c
        return val / (z ** self.a * (1 - z) ** self.b)

    def __repr__(self):
        if self.is_zero():
            return "RatZ(0)"
        return "RatZ(%s / z^%d (1-z)^%d)" % (list(self.num), self.a, self.b)


_ONE = RatZ.const(1)


class FElem:
    """Finite combination sum_w c_w(z) Li_w(z), c_w in Q[z,1/z,1/(1-z)]."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, RatZ):
                    c = RatZ.const(c)
                if not c.is_zero():
                    t[tuple(w)] = c
        self.terms = t

    @classmethod
    def li(cls, w, coef=None):
        return cls({tuple(w): coef if coef is not None else _ONE})

    def __eq__(self, other):
        return isinstance(other, FElem) and self.terms == other.terms

    def __add__(self, other):
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w)
            t[w] = c if s is None else s + c
        return FElem(t)

    def __sub__(self, other):
        return self + other.scale(RatZ.const(-1))

    def scale(self, c):
        if not isinstance(c, RatZ):
            c = RatZ.const(c)
        return FElem({w: cw * c for w, cw in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def dz(self):
        return self._theta(_ONE)

    def theta0(self):
        return self._theta(RatZ.z_pow(1))

    def theta1(self):
        return self._theta(RatZ([Fraction(1), Fraction(-1)]))

    def _theta(self, mult):
        out = {}

        def acc(w, c):
            if c.is_zero():
                return
            s = out.get(w)
            out[w] = c if s is None else s + c

        for w, c in self.terms.items():
            acc(w, c.derivative() * mult)
            if w:
                head, tail = w[0], w[1:]
                factor = mult * (RatZ.z_pow(-1) if head == 0 else RatZ.uinv_pow(1))
                acc(tail, c * factor)
        return FElem(out)

    def iota(self, letter):
        return FElem({(letter,) + w: c for w, c in self.terms.items()})

    def eval(self, z, terms=400):
        """Numeric value; words must be empty, x0-powers, or end in x1."""
        from math import log, factorial
        total = 0.0
        for w, c in self.terms.items():
            if not w:
                li = 1.0
            elif set(w) == {0}:
                li = log(z) ** len(w) / factorial(len(w))
            elif w[-1] == 1:
                li = polylog_eval(w, z, terms, X)[0]
            else:
                raise ValueError("cannot evaluate Li for word %r" % (w,))
            total += float(c.eval(z)) * li
        return total

    def __repr__(self):
        return "FElem(%r)" % (self.terms,)
