import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgen.ncpoly import (
    NCPoly, conc, coproduct_shuffle, coproduct_stuffle, grouplike_err,
    is_grouplike, pi_x_poly, pi_y_poly, poly_to_str, residual_left,
    residual_right, series_exp, shuffle, shuffle_words, stuffle,
    stuffle_words, words_up_to,
)
from ncgen.words import X, Y, Y0


def W(w, alphabet=X, c=1):
    return NCPoly.word(w, alphabet, c)


# -- concatenation ----------------------------------------------------

def test_conc_basics():
    assert conc(W((0,)), W((1,))) == W((0, 1))
    P = W((0,)) + W((1,))
    assert conc(P, W((1,))) == W((0, 1)) + W((1, 1))
    assert conc(NCPoly.one(), P) == P
    assert conc(P, NCPoly.zero()) == NCPoly.zero()


def test_alphabet_mismatch():
    with pytest.raises(ValueError):
        conc(W((0,)), W((2, 1), Y))


# -- shuffle ----------------------------------------------------------

def test_shuffle_examples():
    assert shuffle(W((0,)), W((1,))) == W((0, 1)) + W((1, 0))
    assert shuffle(W((1,)), W((1,))) == W((1, 1), c=2)
    got = shuffle(W((1,), Y), W((2, 5), Y))
    assert got == W((1, 2, 5), Y) + W((2, 1, 5), Y) + W((2, 5, 1), Y)


def test_shuffle_term_count():
    rng = random.Random(7)
    for _ in range(20):
        u = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        v = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        total = sum(shuffle_words(u, v).values())
        assert total == math.comb(len(u) + len(v), len(u))


def test_word_products_are_read_only():
    for product in (shuffle_words, stuffle_words):
        d = product((1,), (2,))
        with pytest.raises(TypeError):
            d[(1, 2)] = 5
        assert product((1,), (2,))[(1, 2)] == 1


# -- stuffle ----------------------------------------------------------

def test_stuffle_examples():
    assert stuffle(W((1,), Y), W((2,), Y)) == (
        W((1, 2), Y) + W((2, 1), Y) + W((3,), Y))
    got = stuffle(W((1,), Y), W((2, 5), Y))
    assert got == (W((1, 2, 5), Y) + W((2, 1, 5), Y) + W((2, 5, 1), Y)
                   + W((3, 5), Y) + W((2, 6), Y))
    # y0 * y0 = 2 y0^2 + y0
    assert stuffle(W((0,), Y0), W((0,), Y0)) == (
        W((0, 0), Y0, c=2) + W((0,), Y0))


def test_stuffle_rejects_x():
    with pytest.raises(ValueError):
        stuffle(W((0,)), W((1,)))


small_xword = st.lists(st.integers(0, 1), max_size=4).map(tuple)
small_yword = st.lists(st.integers(1, 3), max_size=3).map(tuple)


@settings(max_examples=60, deadline=None)
@given(small_xword, small_xword, small_xword)
def test_shuffle_commutative_associative(u, v, w):
    U, V, Wd = W(u), W(v), W(w)
    assert shuffle(U, V) == shuffle(V, U)
    assert shuffle(shuffle(U, V), Wd) == shuffle(U, shuffle(V, Wd))


@settings(max_examples=60, deadline=None)
@given(small_yword, small_yword, small_yword)
def test_stuffle_commutative_associative(u, v, w):
    U, V, Wd = W(u, Y), W(v, Y), W(w, Y)
    assert stuffle(U, V) == stuffle(V, U)
    assert stuffle(stuffle(U, V), Wd) == stuffle(U, stuffle(V, Wd))


# -- coproducts -------------------------------------------------------

def test_coproduct_shuffle_letter():
    assert coproduct_shuffle(W((0,))) == {
        ((0,), ()): Fraction(1), ((), (0,)): Fraction(1)}
    assert coproduct_shuffle(NCPoly.one()) == {((), ()): Fraction(1)}


def test_coproduct_stuffle_letter():
    assert coproduct_stuffle(W((2,), Y)) == {
        ((2,), ()): Fraction(1), ((), (2,)): Fraction(1),
        ((1,), (1,)): Fraction(1)}


def _duality_check(w, alphabet, coproduct, word_product):
    delta = coproduct(NCPoly.word(w, alphabet))
    deg = len(w) if alphabet == X else sum(w)
    for u in words_up_to(alphabet, deg):
        for v in words_up_to(alphabet, deg):
            lhs = delta.get((u, v), Fraction(0))
            rhs = Fraction(word_product(u, v).get(w, 0))
            assert lhs == rhs, (w, u, v)


def test_coproduct_duality_shuffle():
    for w in [(0, 1), (1, 1, 0), (0, 0, 1, 1)]:
        _duality_check(w, X, coproduct_shuffle, shuffle_words)


def test_coproduct_duality_stuffle():
    for w in [(2,), (1, 1), (2, 1), (1, 1, 1), (3, 1)]:
        _duality_check(w, Y, coproduct_stuffle, stuffle_words)


# -- residuals --------------------------------------------------------

def test_residual_letter_rule():
    # x <| (w y) = delta_x^y w
    wy = W((0, 1, 1))
    assert residual_left(W((1,)), wy) == W((0, 1))
    assert residual_left(W((0,)), wy) == NCPoly.zero()
    assert residual_right(wy, W((0,))) == W((1, 1))
    assert residual_right(wy, W((1,))) == NCPoly.zero()


def test_residual_unit():
    S = W((0, 1)) + W((1,), c=3)
    assert residual_left(NCPoly.one(), S) == S
    assert residual_right(S, NCPoly.one()) == S


def _random_poly(rng, max_words=4, max_len=4):
    t = {}
    for _ in range(rng.randint(1, max_words)):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, max_len)))
        t[w] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return NCPoly(X, t)


def test_residual_module_laws():
    rng = random.Random(11)
    for _ in range(25):
        P, Q, S = (_random_poly(rng) for _ in range(3))
        # PQ <| S = P <| (Q <| S)
        assert residual_left(conc(P, Q), S) == residual_left(
            P, residual_left(Q, S))
        # (S |> P) |> Q = S |> PQ
        assert residual_right(residual_right(S, P), Q) == residual_right(
            S, conc(P, Q))
        # (P <| S) |> Q = P <| (S |> Q)
        assert residual_right(residual_left(P, S), Q) == residual_left(
            P, residual_right(S, Q))


def test_reconstruction():
    rng = random.Random(3)
    for _ in range(10):
        S = _random_poly(rng)
        rebuilt = NCPoly(X, {(): S.coeff(())})
        for a in (0, 1):
            rebuilt = rebuilt + conc(W((a,)), residual_right(S, W((a,))))
        assert rebuilt == S


# -- grouplike --------------------------------------------------------

def test_grouplike_conc_exponential():
    c = Fraction(3, 2)
    D = 5
    S = NCPoly(X, {(0,) * k: c ** k / math.factorial(k) for k in range(D + 1)})
    assert is_grouplike(S, "shuffle", D)


def test_not_grouplike():
    S = NCPoly.one() + W((0, 1))
    assert not is_grouplike(S, "shuffle", 2)
    assert not is_grouplike(W((0, 1)), "shuffle", 2)  # <S|1> must be 1


def test_grouplike_err_is_exact():
    # <S|x0><S|x1> = 0 but <S|x0 sh x1> = <S|x0 x1> = 1/3
    S = NCPoly.one() + W((0, 1), c=Fraction(1, 3))
    err = grouplike_err(S, "shuffle", 2)
    assert err == Fraction(1, 3) and isinstance(err, Fraction)


# -- coding maps on polynomials --------------------------------------

def test_pi_poly():
    P = W((2, 1), Y) + W((1,), Y, c=2)
    assert pi_x_poly(P) == W((0, 1, 1)) + W((1,), c=2)
    Q = W((0, 1, 1)) + W((1, 0), c=5)
    assert pi_y_poly(Q) == W((2, 1), Y)


# -- serialization ----------------------------------------------------

def test_json_roundtrip():
    P = W((0, 1), c=Fraction(3, 2)) - W((1, 1, 0), c=Fraction(1, 3))
    d = P.to_json_dict()
    assert {"word": "x0 x1", "coef": "3/2"} in d["terms"]
    assert NCPoly.from_json_dict(d) == P


def test_poly_to_str():
    P = W((0, 0, 0, 1, 1), c=2) + W((0, 0, 1, 0, 1))
    assert poly_to_str(P) == "2 x0 x0 x0 x1 x1 + x0 x0 x1 x0 x1"
    assert poly_to_str(NCPoly.zero()) == "0"


# -- exact and float series, truncated -------------------------------

x_series = st.dictionaries(
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
    st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5)


def _kind(P, kind):
    return all(type(c) is kind for c in P.terms.values())


def _as_float(P):
    return NCPoly(P.alphabet, {w: float(c) for w, c in P.terms.items()},
                  P.depth)


@settings(max_examples=60, deadline=None)
@given(x_series, x_series, st.integers(1, 4),
       st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool))
def test_series_kind_is_kept(p, q, depth, c0):
    P, Q = NCPoly(X, p, depth), NCPoly(X, q, depth)
    assume(P and Q)  # the kind is read from the coefficients; 0 has none
    ops = {
        "add": lambda P, Q, s: P + Q,
        "sub": lambda P, Q, s: P - Q,
        "conc": lambda P, Q, s: P * Q,
        "scale": lambda P, Q, s: P.scale(s),
        "exp": lambda P, Q, s: series_exp(P),
        "inverse": lambda P, Q, s: (NCPoly(X, {(): s}, depth) + P).inverse(),
        "pi_y": lambda P, Q, s: P.pi_y(),
    }
    for name, op in ops.items():
        exact = op(P, Q, c0)
        approx = op(_as_float(P), _as_float(Q), float(c0))
        assert _kind(exact, Fraction) and _kind(approx, float), name
        for w in set(exact.terms) | set(approx.terms):
            e = exact.coeff(w)
            assert abs(approx.coeff(w) - e) <= 1e-12 * max(1, abs(e)), name
    # products are cut at the depth
    full = NCPoly(X, p) * NCPoly(X, q)
    assert P * Q == full.truncate(depth)
    assert series_exp(P) * series_exp(-P) == NCPoly.one(X)
