"""Noncommutative polynomials over Q with concatenation, shuffle and stuffle.

An NCPoly is a finite map word -> Fraction (zero coefficients never
stored), tagged with the alphabet of its words.  All arithmetic is
exact.  Shuffle interleaves words; stuffle additionally contracts the
two leading letters y_i, y_j into y_{i+j} (quasi-shuffle):

    xu sh yv = x(u sh yv) + y(xu sh v)
    y_iu st y_jv = y_i(u st y_jv) + y_j(y_iu st v) + y_{i+j}(u st v)

Coproducts are the conc-morphisms dual to these products,
Delta_sh(x) = x(x)1 + 1(x)x, Delta_st(y_n) adds sum_i y_i (x) y_{n-i};
duality <Delta(w) | u(x)v> = <w | u*v> is what the tests pin down.

Residuals (shifts): (P <| S) has coefficients <S | wP> (strip P from the
right), (S |> P) has <S | Pw> (strip P from the left).
"""

from fractions import Fraction

from .words import X, Y, Y0, pi_x_word, pi_y_word, weight, word_to_str, str_to_word

_shuffle_memo = {}
_stuffle_memo = {}


def shuffle_words(u, v):
    """Shuffle of two words as a map word -> positive int.  Do not mutate."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        u, v = v, u
    got = _shuffle_memo.get((u, v))
    if got is not None:
        return got
    out = {}
    for w, c in shuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in shuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    _shuffle_memo[(u, v)] = out
    return out


def stuffle_words(u, v):
    """Quasi-shuffle of two Y/Y0-words as a map word -> positive int."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if v < u:
        u, v = v, u
    got = _stuffle_memo.get((u, v))
    if got is not None:
        return got
    out = {}
    for w, c in stuffle_words(u[1:], v).items():
        key = (u[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words(u, v[1:]).items():
        key = (v[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in stuffle_words(u[1:], v[1:]).items():
        key = (u[0] + v[0],) + w
        out[key] = out.get(key, 0) + c
    _stuffle_memo[(u, v)] = out
    return out


class NCPoly:
    """Exact noncommutative polynomial: finite map word tuple -> Fraction."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet=X, terms=None):
        self.alphabet = alphabet
        t = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    t[w] = c
        self.terms = t

    # -- constructors -------------------------------------------------
    @classmethod
    def word(cls, w, alphabet=X, coef=1):
        return cls(alphabet, {tuple(w): Fraction(coef)})

    @classmethod
    def one(cls, alphabet=X):
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def zero(cls, alphabet=X):
        return cls(alphabet)

    # -- basics -------------------------------------------------------
    def coeff(self, w):
        return self.terms.get(tuple(w), Fraction(0))

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, NCPoly) and self.terms == other.terms
                and (not self.terms or self.alphabet == other.alphabet))

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, Fraction(0)) + c
        return NCPoly(self.alphabet, t)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly(self.alphabet, {w: -c for w, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return NCPoly(self.alphabet, {w: c * cw for w, cw in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return conc(self, other)
        return self.scale(other)

    def _check(self, other):
        if self.terms and other.terms and self.alphabet != other.alphabet:
            raise ValueError("alphabet mismatch: %s vs %s"
                             % (self.alphabet, other.alphabet))

    def shuffle(self, other):
        return shuffle(self, other)

    def stuffle(self, other):
        return stuffle(self, other)

    def truncate(self, max_degree):
        """Drop words of degree > max_degree (length for X, weight for Y/Y0)."""
        return NCPoly(self.alphabet,
                      {w: c for w, c in self.terms.items()
                       if weight(w, self.alphabet) <= max_degree})

    def map_words(self, fn, alphabet=None):
        """Linear extension of a word map; fn may return None to kill a word."""
        t = {}
        for w, c in self.terms.items():
            img = fn(w)
            if img is None:
                continue
            t[img] = t.get(img, Fraction(0)) + c
        return NCPoly(alphabet or self.alphabet, t)

    def support(self):
        return sorted(self.terms)

    def max_degree(self):
        a = self.alphabet
        return max((weight(w, a) for w in self.terms), default=0)

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


def conc(P, Q):
    """Concatenation product, bilinear on words."""
    P._check(Q)
    t = {}
    for u, cu in P.terms.items():
        for v, cv in Q.terms.items():
            w = u + v
            t[w] = t.get(w, Fraction(0)) + cu * cv
    return NCPoly(P.alphabet if P.terms else Q.alphabet, t)


def shuffle(P, Q):
    P._check(Q)
    t = {}
    for u, cu in P.terms.items():
        for v, cv in Q.terms.items():
            c = cu * cv
            for w, m in shuffle_words(u, v).items():
                t[w] = t.get(w, Fraction(0)) + c * m
    return NCPoly(P.alphabet if P.terms else Q.alphabet, t)


def stuffle(P, Q):
    P._check(Q)
    alphabet = P.alphabet if P.terms else Q.alphabet
    if alphabet == X:
        raise ValueError("stuffle needs the Y/Y0 alphabet")
    t = {}
    for u, cu in P.terms.items():
        for v, cv in Q.terms.items():
            c = cu * cv
            for w, m in stuffle_words(u, v).items():
                t[w] = t.get(w, Fraction(0)) + c * m
    return NCPoly(alphabet, t)


def shuffle_power(P, k):
    out = NCPoly.one(P.alphabet)
    for _ in range(k):
        out = shuffle(out, P)
    return out


def stuffle_power(P, k):
    out = NCPoly.one(P.alphabet)
    for _ in range(k):
        out = stuffle(out, P)
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


def coproduct_shuffle(P):
    """Deshuffle coproduct: map (u, v) -> Fraction with <Delta(P)|u(x)v> = <P|u sh v>."""
    out = {}
    for w, c in P.terms.items():
        for k, m in _word_coproduct(w, P.alphabet, quasi=False).items():
            out[k] = out.get(k, Fraction(0)) + c * m
            if not out[k]:
                del out[k]
    return out


def coproduct_stuffle(P):
    """Quasi-shuffle coproduct: <Delta(P)|u(x)v> = <P|u st v>; Y/Y0 only."""
    out = {}
    for w, c in P.terms.items():
        for k, m in _word_coproduct(w, P.alphabet, quasi=True).items():
            out[k] = out.get(k, Fraction(0)) + c * m
            if not out[k]:
                del out[k]
    return out


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
            t[w] = t.get(w, Fraction(0)) + cs * cp
    return NCPoly(S.alphabet, t)


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
            t[w] = t.get(w, Fraction(0)) + cs * cp
    return NCPoly(S.alphabet, t)


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

    S is anything with .coeff(word) and .alphabet (NCPoly, truncated series).
    product: "shuffle" or "stuffle".  Exact when the coefficients are
    Fractions.
    """
    word_product = {"shuffle": shuffle_words, "stuffle": stuffle_words}[product]
    ws = words_up_to(S.alphabet, depth)
    worst = 0
    for u in ws:
        du = weight(u, S.alphabet)
        for v in ws:
            if du + weight(v, S.alphabet) > depth:
                continue
            lhs = S.coeff(u) * S.coeff(v)
            rhs = sum(c * S.coeff(w) for w, c in word_product(u, v).items())
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
    return P.map_words(pi_y_word, alphabet=Y)


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
