"""Noncommutative series over Q or floats: concatenation, shuffle, stuffle.

An NCPoly is a finite map word -> coefficient (zeros never stored),
tagged with the alphabet of its words.  Coefficients are Fractions (ints
are stored as Fractions) or floats, as constructed, and every operation
keeps the kind.  An optional depth truncates: words of degree (length
for X, weight for Y/Y0) above it are dropped, also in products.
Shuffle interleaves words; stuffle additionally contracts the two
leading letters y_i, y_j into y_{i+j} (quasi-shuffle):

    xu sh yv = x(u sh yv) + y(xu sh v)
    y_iu st y_jv = y_i(u st y_jv) + y_j(y_iu st v) + y_{i+j}(u st v)

Coproducts are the conc-morphisms dual to these products,
Delta_sh(x) = x(x)1 + 1(x)x, Delta_st(y_n) adds sum_i y_i (x) y_{n-i};
duality <Delta(w) | u(x)v> = <w | u*v> is what the tests pin down.

Residuals (shifts): (P <| S) has coefficients <S | wP> (strip P from the
right), (S |> P) has <S | Pw> (strip P from the left).

peel is the one exact elimination, behind basis coordinates and the
Hankel rank.

_bilinear is the one bilinear kernel: conc, shuffle, stuffle, the
coproducts and the residuals here, the Lie bracket and the tensor
product in hopf, and the commutative product of polylog.StatePoly
(exponent tuples added) each hand it their product of two keys.  It,
peel and the linear combinations (_linear) run on integer numerators
over one common denominator per operand (_numerators) and build one
Fraction per output key (_values); float coefficients (no denominator)
take the values path through the same loops.  _linear also carries the
duality pairing (cli), and _over_lcm the Taylor shift (polylog.QPoly) and
the Hankel rows (rational).

Cache: the word products live in `_quasi_shuffle`, a `functools.cache`
keyed by (u, v, quasi); `_quasi_shuffle.cache_info()` reports hits,
misses and size.
"""

import functools
import math
from fractions import Fraction
from types import MappingProxyType

from .words import X, Y, _grading, pi_x_word, pi_y_word, word_to_str

_ONE = Fraction(1)
_ZERO = Fraction(0)


@functools.cache
def _quasi_shuffle(u, v, quasi):
    """u sh v (quasi: u st v) as a cached map word -> positive int.

    One recursion (Hoffman's quasi-shuffle): the shuffle is the case
    without the contracted term.  (v, u) with v < u is answered by the
    dict of (u, v).  A miss first fills the pairs with a shorter suffix
    of u or of v, shortest first, so it recurses one level, not once per
    letter.  The cached dicts are shared; callers outside this module get
    them read-only.
    """
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        return _quasi_shuffle(v, u, quasi)
    for i in range(len(u) - 1, 0, -1):
        _quasi_shuffle(u[i:], v, quasi)
    for j in range(len(v) - 1, 0, -1):
        _quasi_shuffle(u, v[j:], quasi)
    parts = [(u[0], u[1:], v), (v[0], u, v[1:])]
    if quasi:
        parts.append((u[0] + v[0], u[1:], v[1:]))
    out = {}
    for a, p, q in parts:
        for w, c in _quasi_shuffle(p, q, quasi).items():
            w = (a,) + w
            out[w] = out.get(w, 0) + c
    return out


def shuffle_words(u, v):
    """Shuffle of two words as a read-only map word -> positive int."""
    return MappingProxyType(_quasi_shuffle(u, v, False))


def stuffle_words(u, v):
    """Quasi-shuffle of two Y/Y0-words as a read-only map word -> positive int."""
    return MappingProxyType(_quasi_shuffle(u, v, True))


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
            deg = _grading(alphabet)
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
            return self._new(self.alphabet, t, self.depth)
        depth = _min_depth(self.depth, other.depth)
        return self._new(self.alphabet, t, None).truncate(depth)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new(self.alphabet,
                         {w: -c for w, c in self.terms.items()}, self.depth)

    def scale(self, c):
        """c P; a float c turns exact coefficients into floats."""
        return self._new(self.alphabet,
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
        deg = _grading(self.alphabet)
        return self._new(self.alphabet,
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
        out, power = _unit_series(self) + rest, rest
        for _ in range(self.depth - 1):
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
        return self._new(alphabet or self.alphabet, t, self.depth)

    def pi_y(self):
        """Code an X-series over Y; words ending in x0 are annihilated."""
        if self.alphabet != X:
            raise ValueError("pi_y expects an X series")
        return self.map_words(pi_y_word, alphabet=Y)

    def max_abs_diff(self, other):
        """max |<self|w> - <other|w>| over the words up to the depths."""
        return max(map(abs, (self - other).terms.values()), default=0.0)

    def support(self):
        return sorted(self.terms)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, poly_to_str(self))

    # -- serialization ------------------------------------------------
    def to_json_dict(self):
        items = [{"word": word_to_str(w, self.alphabet), "coef": str(c)}
                 for w, c in sorted(self.terms.items())]
        return {"terms": items}


def _unit_series(P):
    """The series 1 with the alphabet, depth and coefficient kind of P."""
    return NCPoly._new(P.alphabet, {(): P._unit()}, P.depth)


def _over_lcm(values):
    """(D, [n]): the exact values as integer numerators n over D, the lcm
    of their denominators."""
    D = math.lcm(*{c.denominator for c in values})
    return D, [c.numerator * (D // c.denominator) for c in values]


def _numerators(*maps):
    """Each map as (D, [(w, n)]), n the integer numerator over D, the lcm of
    its denominators; if any coefficient is a float, D None and the values."""
    try:
        Ds = [math.lcm(*{c.denominator for c in m.values()}) for m in maps]
    except AttributeError:
        return [(None, m.items()) for m in maps]
    return [(D, [(w, c.numerator * (D // c.denominator)) for w, c in m.items()])
            for D, m in zip(Ds, maps)]


def _values(nums, D):
    """Numerators over D as reduced Fractions (D None: the values as they
    are), zeros dropped."""
    return {w: Fraction(n, D) if D else n for w, n in nums.items() if n}


def _linear(coords, image):
    """sum_w coords[w] image(w), image(w) a map key -> coefficient, summed
    in one pass: exact ones as numerators over one common denominator."""
    (D, cs), *images = _numerators(coords, *map(image, coords))
    L = D and math.lcm(*(E for E, _ in images))
    t = {}
    for (_, c), (E, row) in zip(cs, images):
        c = c * (L // E) if D else c
        for v, r in row:
            prev = t.get(v)
            t[v] = c * r if prev is None else prev + c * r
    return _values(t, D and D * L)


def _bilinear(A, B, product=None, degree=len, cap=math.inf):
    """sum A[u] B[v] product(u, v) over the pairs of keys, zeros dropped:
    product(u, v) yields pairs (key, int multiplicity); None is u + v,
    kept inline because a call per pair measurably slows conc, the
    hottest product.  Pairs with degree(u) + degree(v) > cap are never
    visited: each u runs over the terms of B that fit its room,
    cap - degree(u), one list per room in B's order."""
    (da, As), (db, Bs) = _numerators(A, B)
    rooms = {math.inf: Bs}  # room -> the terms of B of degree <= room
    degrees = [(v, cv, degree(v)) for v, cv in Bs] if cap < math.inf else ()
    t = {}
    for u, cu in As:
        room = cap - degree(u)
        fits = rooms.get(room)
        if fits is None:
            fits = rooms[room] = [(v, cv) for v, cv, dv in degrees
                                  if dv <= room]
        for v, cv in fits:
            c = cu * cv
            if product is None:
                w = u + v
                prev = t.get(w)
                t[w] = c if prev is None else prev + c
                continue
            for w, m in product(u, v):
                prev = t.get(w)
                t[w] = c * m if prev is None else prev + c * m
    return _values(t, da and da * db)


def _product(P, Q, quasi):
    """P sh Q, P st Q (quasi) or, quasi None, PQ; cut at the smaller depth."""
    P._check(Q)
    alphabet = P.alphabet if P.terms else Q.alphabet
    if quasi and alphabet == X:
        raise ValueError("stuffle needs the Y/Y0 alphabet")
    depth = _min_depth(P.depth, Q.depth)
    words = None if quasi is None else (
        lambda u, v: _quasi_shuffle(u, v, quasi).items())
    return NCPoly._new(alphabet, _bilinear(
        P.terms, Q.terms, words, _grading(alphabet),
        math.inf if depth is None else depth), depth)


def conc(P, Q):
    """Concatenation product, bilinear on words, cut at the smaller depth."""
    return _product(P, Q, None)


def shuffle(P, Q):
    return _product(P, Q, False)


def stuffle(P, Q):
    return _product(P, Q, True)


def _power(P, k, quasi):
    """P^k for the shuffle or, quasi, the stuffle; P itself at k = 1."""
    out = P if k else _unit_series(P)
    for _ in range(k - 1):
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
    out, power, one = _unit_series(p) + p, p, p._unit()
    for k in range(2, p.depth + 1):
        power = power * p
        if not power.terms:
            break
        out = out + power.scale(one / math.factorial(k))
    return out


# ---------------------------------------------------------------------------
# coproducts (maps (u, v) -> Fraction on pairs of words)

def _word_coproduct(w, alphabet, quasi):
    """Delta(w): the conc product of the letter coproducts a (x) 1 + 1 (x) a,
    plus sum_i y_i (x) y_{a-i} for the stuffle."""
    out = {((), ()): 1}
    for a in w:
        if quasi and alphabet == X:
            raise ValueError("stuffle coproduct needs the Y/Y0 alphabet")
        letter = {((a,), ()): 1, ((), (a,)): 1}
        if quasi:
            letter.update({((i,), (a - i,)): 1 for i in range(1, a)})
        out = _bilinear(out, letter,
                        lambda p, q: (((p[0] + q[0], p[1] + q[1]), 1),))
    return out


def _coproduct(P, quasi):
    return _linear(P.terms, lambda w: _word_coproduct(w, P.alphabet, quasi))


def coproduct_shuffle(P):
    """Deshuffle coproduct: map (u, v) -> Fraction with <Delta(P)|u(x)v> = <P|u sh v>."""
    return _coproduct(P, False)


def coproduct_stuffle(P):
    """Quasi-shuffle coproduct: <Delta(P)|u(x)v> = <P|u st v>; Y/Y0 only."""
    return _coproduct(P, True)


# ---------------------------------------------------------------------------
# residuals

def _residual(S, P, right):
    """Strip P off one end of S: the left end (<S | Pw>) or, right=True,
    the right end (<S | wP>)."""
    P._check(S)

    def strip(s, p):  # an end shorter than p when p is longer than s
        k = len(s) - len(p) if right else len(p)
        end, w = (s[k:], s[:k]) if right else (s[:k], s[k:])
        return ((w, 1),) if end == p else ()

    return NCPoly._new(S.alphabet, _bilinear(S.terms, P.terms, strip), S.depth)


def residual_left(P, S):
    """P <| S with <P <| S | w> = <S | wP>: strip P off the right end of S."""
    return _residual(S, P, True)


def residual_right(S, P):
    """S |> P with <S |> P | w> = <S | Pw>: strip P off the left end of S."""
    return _residual(S, P, False)


# ---------------------------------------------------------------------------
# triangular elimination

def peel(terms, pivot, extreme=min, key=None):
    """Exact triangular elimination: terms = sum coords[w] pivot(w) + rest.

    Takes the extreme remaining word (extreme over key) and subtracts its
    row pivot(word), a map word -> coefficient leading with 1 at that
    word, times the word's coefficient.  Stops when nothing is left or
    pivot returns None.  A row that does not lead with 1, or that brings
    back a word already peeled, raises ArithmeticError.  Exact terms are
    peeled as integer numerators over one D; a row over its lcm E first
    scales them by E / gcd(c, E), c the one peeled.
    """
    if key is not None:
        key = functools.cache(key)  # one key per word, not one per comparison
    [(D, rest)] = _numerators(terms)
    rest = {w: c for w, c in rest if c}
    coords = {}
    while rest:
        w = extreme(rest, key=key)
        row = pivot(w)
        if row is None:
            break
        if row.get(w) != 1 or w in coords:
            raise ArithmeticError("the row of %r does not lead with 1" % (w,))
        [(E, row)] = _numerators(row) if D else [(None, row.items())]
        if D and not E:  # a float row: go on in values
            rest, D = _values(rest, D), None
        c = rest[w]
        coords[w] = Fraction(c, D) if D else c
        if D:
            g = math.gcd(c, E)
            c, f = c // g, E // g
            if f != 1:
                rest, D = {v: x * f for v, x in rest.items()}, D * f
        for v, r in row:
            x = rest.get(v, 0) - c * r
            if x:
                rest[v] = x
            else:
                rest.pop(v, None)
    return coords, _values(rest, D)


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
    deg = _grading(S.alphabet)
    worst = 0
    for u in ws:
        du = deg(u)
        for v in ws:
            if du + deg(v) > depth:
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


# ---------------------------------------------------------------------------
# printing

def poly_to_str(P, names=None):
    """P as "c w + ..." by degree, then word; a coefficient 1 or -1 is
    shown as the bare word or "-" word.  names: a dict the calls of one
    table share, so that each word is named once."""
    if not P.terms:
        return "0"
    names = {} if names is None else names.setdefault(P.alphabet, {})
    ws = sorted(P.terms)
    ws.sort(key=_grading(P.alphabet))  # stable: by degree, then word
    bits = []
    for w in ws:
        c = str(P.terms[w])  # a Fraction 1 prints "1", a float "1.0"
        if not w:
            bits.append(c)
            continue
        name = names.get(w)
        if name is None:
            name = names[w] = word_to_str(w, P.alphabet)
        if c == "1" or c == "1.0":
            bits.append(name)
        elif c == "-1" or c == "-1.0":
            bits.append("-" + name)
        else:
            bits.append(c + " " + name)
    return " + ".join(bits).replace("+ -", "- ")
