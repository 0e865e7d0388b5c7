"""Noncommutative series over Q or floats: concatenation, shuffle, stuffle.

An NCPoly is a finite map word -> coefficient (zeros never stored),
tagged with the alphabet of its words.  Coefficients are exact (ints and
Fractions are stored as Fractions) or floats, as given, and every
operation keeps the kind.  An optional depth truncates: words of degree
(length for X, weight for Y/Y0) above it are dropped, also in products.
Shuffle interleaves words; stuffle additionally contracts the two
leading letters y_i, y_j into y_{i+j} (quasi-shuffle):

    xu sh yv = x(u sh yv) + y(xu sh v)
    y_iu st y_jv = y_i(u st y_jv) + y_j(y_iu st v) + y_{i+j}(u st v)

Coproducts are the conc-morphisms dual to these products,
Delta_sh(x) = x(x)1 + 1(x)x, Delta_st(y_n) adds sum_i y_i (x) y_{n-i};
duality <Delta(w) | u(x)v> = <w | u*v> is what the tests pin down.

Residuals (shifts): (P <| S) has coefficients <S | wP> (strip P from the
right), (S |> P) has <S | Pw> (strip P from the left).
"""

import math
from fractions import Fraction
from types import MappingProxyType

from .words import X, Y, Y0, pi_x_word, pi_y_word, weight, word_to_str, str_to_word

_ONE = Fraction(1)
_ZERO = Fraction(0)
_word_products = {}


def _quasi_shuffle(u, v, quasi):
    """u sh v (quasi: u st v) as a cached map word -> positive int.

    One recursion (Hoffman's quasi-shuffle): the shuffle is the case
    without the contracted term.  The cached dicts are shared; callers
    outside this module get them read-only.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        u, v = v, u
    key = (u, v, quasi)
    got = _word_products.get(key)
    if got is not None:
        return got
    parts = [(u[0], u[1:], v), (v[0], u, v[1:])]
    if quasi:
        parts.append((u[0] + v[0], u[1:], v[1:]))
    out = {}
    for a, p, q in parts:
        for w, c in _quasi_shuffle(p, q, quasi).items():
            w = (a,) + w
            out[w] = out.get(w, 0) + c
    _word_products[key] = out
    return out


def shuffle_words(u, v):
    """Shuffle of two words as a read-only map word -> positive int."""
    return MappingProxyType(_quasi_shuffle(u, v, False))


def stuffle_words(u, v):
    """Quasi-shuffle of two Y/Y0-words as a read-only map word -> positive int."""
    return MappingProxyType(_quasi_shuffle(u, v, True))


def _degree(alphabet):
    """The degree of a word: len over X, the weight (letter sum) over Y/Y0."""
    return len if alphabet == X else sum


def _min_depth(a, b):
    return b if a is None else a if b is None else min(a, b)


class NCPoly:
    """Noncommutative series: finite map word tuple -> Fraction or float.

    depth=None: a polynomial, untruncated.  depth=d: a series known up to
    degree d; words above d are dropped and products truncated there.
    """

    __slots__ = ("alphabet", "terms", "depth")

    def __init__(self, alphabet=X, terms=None, depth=None):
        self.alphabet = alphabet
        self.depth = depth
        t = {}
        if terms:
            deg = _degree(alphabet)
            for w, c in terms.items():
                c = float(c) if isinstance(c, float) else Fraction(c)
                if c and (depth is None or deg(w) <= depth):
                    t[w] = c
        self.terms = t

    @classmethod
    def _new(cls, alphabet, terms, depth):
        """A result of arithmetic: coefficients already of their kind."""
        P = cls.__new__(cls)
        P.alphabet = alphabet
        P.depth = depth
        P.terms = {w: c for w, c in terms.items() if c}
        return P

    # -- constructors -------------------------------------------------
    @classmethod
    def word(cls, w, alphabet=X, coef=1):
        return cls(alphabet, {tuple(w): coef})

    @classmethod
    def one(cls, alphabet=X):
        return cls(alphabet, {(): _ONE})

    @classmethod
    def zero(cls, alphabet=X):
        return cls(alphabet)

    def _unit(self):
        """1 in the kind of the coefficients (an empty series is exact)."""
        for c in self.terms.values():
            return 1.0 if isinstance(c, float) else _ONE
        return _ONE

    # -- basics -------------------------------------------------------
    def coeff(self, w):
        c = self.terms.get(tuple(w))
        if c is None:
            return _ZERO if self._unit() is _ONE else 0.0
        return c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.terms == other.terms
                and (not self.terms or self.alphabet == other.alphabet))

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other):
        """The sum, cut at the smaller depth of the two."""
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            prev = t.get(w)
            t[w] = c if prev is None else prev + c
        if self.depth == other.depth:
            return NCPoly._new(self.alphabet, t, self.depth)
        depth = _min_depth(self.depth, other.depth)
        return NCPoly._new(self.alphabet, t, None).truncate(depth)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly._new(self.alphabet,
                           {w: -c for w, c in self.terms.items()}, self.depth)

    def scale(self, c):
        """c P; a float c turns exact coefficients into floats."""
        return NCPoly._new(self.alphabet,
                           {w: c * cw for w, cw in self.terms.items()},
                           self.depth)

    __rmul__ = scale

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return conc(self, other)
        return self.scale(other)

    def _check(self, other):
        if self.terms and other.terms and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch: %s vs %s"
                             % (self.alphabet, other.alphabet))

    def truncate(self, max_degree):
        """Drop words of degree > max_degree, which becomes the depth
        (None: no cut)."""
        depth = _min_depth(self.depth, max_degree)
        if depth == self.depth:
            return self
        deg = _degree(self.alphabet)
        return NCPoly._new(self.alphabet,
                           {w: c for w, c in self.terms.items()
                            if deg(w) <= depth}, depth)

    def inverse(self):
        """Inverse for the concatenation product, up to the depth."""
        c0 = self.coeff(())
        if not c0:
            raise ZeroDivisionError("series has no constant term")
        if self.depth is None:
            raise ValueError("inverse needs a truncated series")
        rest = NCPoly._new(self.alphabet,
                           {w: -c / c0 for w, c in self.terms.items() if w},
                           self.depth)
        out = power = _unit_series(self)
        for _ in range(self.depth):
            power = power * rest
            if not power.terms:
                break
            out = out + power
        return out.scale(1 / c0)

    def map_words(self, fn, alphabet=None):
        """Linear extension of a degree-preserving word map; fn may return
        None to kill a word."""
        t = {}
        for w, c in self.terms.items():
            img = fn(w)
            if img is None:
                continue
            prev = t.get(img)
            t[img] = c if prev is None else prev + c
        return NCPoly._new(alphabet or self.alphabet, t, self.depth)

    def pi_y(self):
        """Code an X-series over Y; words ending in x0 are annihilated."""
        if self.alphabet != X:
            raise ValueError("pi_y expects an X series")
        return self.map_words(pi_y_word, alphabet=Y)

    def max_abs_diff(self, other, max_weight=None):
        """max |<self|w> - <other|w>| over the words up to max_weight and
        the depths."""
        diff = (self - other).truncate(max_weight)
        return max(map(abs, diff.terms.values()), default=0.0)

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        return "NCPoly(%s)" % poly_to_str(self)

    # -- serialization ------------------------------------------------
    def to_json_dict(self):
        items = [{"word": word_to_str(w, self.alphabet), "coef": str(c)}
                 for w, c in sorted(self.terms.items())]
        return {"terms": items}

    @classmethod
    def from_json_dict(cls, d, alphabet=None):
        terms = {}
        for item in d["terms"]:
            w, a = str_to_word(item["word"])
            if alphabet is None and w:
                alphabet = a
            terms[w] = Fraction(item["coef"])
        return cls(alphabet or X, terms)


def _unit_series(P):
    """The series 1 with the alphabet, depth and coefficient kind of P."""
    return NCPoly._new(P.alphabet, {(): P._unit()}, P.depth)


def conc(P, Q):
    """Concatenation product, bilinear on words, cut at the smaller depth."""
    P._check(Q)
    alphabet = P.alphabet if P.terms else Q.alphabet
    depth = _min_depth(P.depth, Q.depth)
    cap = math.inf if depth is None else depth
    deg = _degree(alphabet)
    qs = [(v, cv, deg(v)) for v, cv in Q.terms.items()]
    t = {}
    for u, cu in P.terms.items():
        room = cap - deg(u)
        for v, cv, dv in qs:
            if dv > room:
                continue
            w = u + v
            c = cu * cv
            prev = t.get(w)
            t[w] = c if prev is None else prev + c
    return NCPoly._new(alphabet, t, depth)


def _product(P, Q, quasi):
    """P sh Q (quasi: P st Q), bilinear on words, cut at the smaller depth."""
    P._check(Q)
    alphabet = P.alphabet if P.terms else Q.alphabet
    if quasi and alphabet == X:
        raise ValueError("stuffle needs the Y/Y0 alphabet")
    depth = _min_depth(P.depth, Q.depth)
    cap = math.inf if depth is None else depth
    deg = _degree(alphabet)
    qs = [(v, cv, deg(v)) for v, cv in Q.terms.items()]
    t = {}
    for u, cu in P.terms.items():
        room = cap - deg(u)
        for v, cv, dv in qs:
            if dv > room:
                continue
            c = cu * cv
            for w, m in _quasi_shuffle(u, v, quasi).items():
                prev = t.get(w)
                t[w] = c * m if prev is None else prev + c * m
    return NCPoly._new(alphabet, t, depth)


def shuffle(P, Q):
    return _product(P, Q, False)


def stuffle(P, Q):
    return _product(P, Q, True)


def _power(P, k, quasi):
    out = _unit_series(P)
    for _ in range(k):
        out = _product(out, P, quasi)
    return out


def shuffle_power(P, k):
    return _power(P, k, False)


def stuffle_power(P, k):
    return _power(P, k, True)


def series_exp(p):
    """exp(p) for a truncated series p with zero constant term (conc
    product, cut at p.depth); exact or float as p is."""
    if p.coeff(()) != 0:
        raise ValueError("series_exp needs a zero constant term")
    if p.depth is None:
        raise ValueError("series_exp needs a truncated series")
    out = power = _unit_series(p)
    one = p._unit()
    for k in range(1, p.depth + 1):
        power = power * p
        if not power.terms:
            break
        out = out + power.scale(one / math.factorial(k))
    return out


# ---------------------------------------------------------------------------
# coproducts (maps (u, v) -> Fraction on pairs of words)

def _letter_coproduct(a, alphabet, quasi):
    terms = [((a,), (), 1), ((), (a,), 1)]
    if quasi:
        if alphabet == X:
            raise ValueError("stuffle coproduct needs the Y/Y0 alphabet")
        for i in range(1, a):
            terms.append(((i,), (a - i,), 1))
    return terms


def _word_coproduct(w, alphabet, quasi):
    out = {((), ()): Fraction(1)}
    for a in w:
        nxt = {}
        for (u, v), c in out.items():
            for (du, dv, m) in _letter_coproduct(a, alphabet, quasi):
                key = (u + du, v + dv)
                nxt[key] = nxt.get(key, Fraction(0)) + c * m
        out = nxt
    return out


def _coproduct(P, quasi):
    out = {}
    for w, c in P.terms.items():
        for k, m in _word_coproduct(w, P.alphabet, quasi).items():
            out[k] = out.get(k, _ZERO) + c * m
            if not out[k]:
                del out[k]
    return out


def coproduct_shuffle(P):
    """Deshuffle coproduct: map (u, v) -> Fraction with <Delta(P)|u(x)v> = <P|u sh v>."""
    return _coproduct(P, False)


def coproduct_stuffle(P):
    """Quasi-shuffle coproduct: <Delta(P)|u(x)v> = <P|u st v>; Y/Y0 only."""
    return _coproduct(P, True)


# ---------------------------------------------------------------------------
# residuals

def residual_left(P, S):
    """P <| S with <P <| S | w> = <S | wP>: strip P off the right end of S."""
    P._check(S)
    t = {}
    for s, cs in S.terms.items():
        for p, cp in P.terms.items():
            n = len(p)
            if n == 0:
                w = s
            elif n <= len(s) and s[len(s) - n:] == p:
                w = s[:len(s) - n]
            else:
                continue
            c = cs * cp
            prev = t.get(w)
            t[w] = c if prev is None else prev + c
    return NCPoly._new(S.alphabet, t, S.depth)


def residual_right(S, P):
    """S |> P with <S |> P | w> = <S | Pw>: strip P off the left end of S."""
    P._check(S)
    t = {}
    for s, cs in S.terms.items():
        for p, cp in P.terms.items():
            n = len(p)
            if n == 0:
                w = s
            elif n <= len(s) and s[:n] == p:
                w = s[n:]
            else:
                continue
            c = cs * cp
            prev = t.get(w)
            t[w] = c if prev is None else prev + c
    return NCPoly._new(S.alphabet, t, S.depth)


# ---------------------------------------------------------------------------
# grouplike test

def words_up_to(alphabet, degree):
    """All words of degree <= degree: length for X, weight for Y (letters >= 1)."""
    if alphabet == X:
        out = [()]
        frontier = [()]
        for _ in range(degree):
            frontier = [w + (a,) for w in frontier for a in (0, 1)]
            out.extend(frontier)
        return out
    out = [()]

    def rec(prefix, left):
        for a in range(1, left + 1):
            w = prefix + (a,)
            out.append(w)
            rec(w, left - a)

    rec((), degree)
    return out


def grouplike_err(S, product, depth):
    """Friedrichs defect: max |<S|u><S|v> - <S|u*v>|, deg u + deg v <= depth.

    S is an NCPoly, exact or float; product: "shuffle" or "stuffle".
    Exact when the coefficients are Fractions.
    """
    quasi = {"shuffle": False, "stuffle": True}[product]
    ws = words_up_to(S.alphabet, depth)
    worst = 0
    for u in ws:
        du = weight(u, S.alphabet)
        for v in ws:
            if du + weight(v, S.alphabet) > depth:
                continue
            lhs = S.coeff(u) * S.coeff(v)
            rhs = sum(c * S.coeff(w)
                      for w, c in _quasi_shuffle(u, v, quasi).items())
            worst = max(worst, abs(lhs - rhs))
    return worst


def is_grouplike(S, product, depth, tol=0):
    """<S|1> = 1 and grouplike_err <= tol (0: exact; a float for numeric S)."""
    return S.coeff(()) == 1 and grouplike_err(S, product, depth) <= tol


# ---------------------------------------------------------------------------
# alphabet coding, linearly extended

def pi_x_poly(P):
    """Q<Y> -> Q<X>, y_k |-> x0^(k-1) x1 on words, linear."""
    return P.map_words(pi_x_word, alphabet=X)


def pi_y_poly(P):
    """Q<X> -> Q<Y>: words ending in x0 are annihilated, others coded by runs."""
    return P.pi_y()


# ---------------------------------------------------------------------------
# printing

def poly_to_str(P):
    if not P.terms:
        return "0"
    bits = []
    for w in sorted(P.terms, key=lambda w: (weight(w, P.alphabet), w)):
        c = P.terms[w]
        ws = word_to_str(w, P.alphabet)
        if c == 1 and w:
            bits.append(ws)
        elif c == -1 and w:
            bits.append("-" + ws)
        elif not w:
            bits.append(str(c))
        else:
            bits.append("%s %s" % (c, ws))
    return " + ".join(bits).replace("+ -", "- ")
