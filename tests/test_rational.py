"""Linear representations, Hankel rank, growth bounds."""

from fractions import Fraction
from math import factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ncgen.ncpoly import NCPoly, words_up_to
from ncgen.rational import (
    LinearRepresentation,
    hankel_rank,
    rep_all_ones,
    rep_hypergeometric,
    rep_single_word,
    shuffle_coefficient,
)
from ncgen.words import X

F = Fraction


def test_coefficient_reading_order():
    # mu(0) and mu(1) chosen noncommuting so the order is pinned:
    # <S|x0 x1> = lambda mu(0) mu(1) eta
    m0 = [[0, 1], [0, 0]]
    m1 = [[2, 0], [0, 3]]
    rep = LinearRepresentation(X, [1, 0], {0: m0, 1: m1}, [0, 1])
    # lambda mu0 = (0,1); times mu1 = (0,3); dot eta = 3
    assert rep.coefficient((0, 1)) == 3
    # the other order: lambda mu1 = (2,0); times mu0 = (0,2); dot eta = 2
    assert rep.coefficient((1, 0)) == 2


def test_rep_single_word():
    rep = rep_single_word((0, 1, 1))
    assert rep.coefficient((0, 1, 1)) == 1
    for w in [(), (0,), (1,), (0, 1), (1, 1, 0), (0, 1, 1, 1), (0, 0, 1)]:
        assert rep.coefficient(w) == 0, w


def test_rep_all_ones_and_hankel_rank_one():
    rep = rep_all_ones()
    assert rep.coefficient(()) == 1
    assert rep.coefficient((0, 1, 0)) == 1
    assert hankel_rank(rep, depth=3) == 1


def test_hankel_rank_single_word():
    # prefixes epsilon, x0, x0x1 give three independent residuals
    rep = rep_single_word((0, 1))
    assert hankel_rank(rep, depth=2) == 3


def test_hankel_rank_hypergeometric():
    rep = rep_hypergeometric(F(1, 4), F(1, 4), F(1, 3), q0=(1, 1))
    assert hankel_rank(rep, depth=3) == 2


_small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def _reps(draw):
    n = draw(st.integers(1, 3))
    vec = st.lists(_small, min_size=n, max_size=n)
    mat = st.lists(vec, min_size=n, max_size=n)
    return LinearRepresentation(X, draw(vec), {0: draw(mat), 1: draw(mat)},
                                draw(vec))


@settings(max_examples=40, deadline=None)
@given(_reps(), st.integers(0, 3))
def test_rep_series_and_hankel_rank(rep, depth):
    ws = words_up_to(X, depth)
    series = rep.truncated_series(depth)
    for w in ws:
        assert series.coeff(w) == rep.coefficient(w), w
    H = [[rep.coefficient(u + v) for v in ws] for u in ws]
    rank = sympy.Matrix(H).rank()
    assert hankel_rank(rep, depth=depth) == rank
    assert hankel_rank(rep.coefficient, X, depth) == rank


@settings(max_examples=40, deadline=None)
@given(_reps(), st.integers(0, 4))
def test_coefficients_sweep_agrees_word_by_word(rep, depth):
    # the integer-row sweep against the Fraction product of each word
    ws = words_up_to(X, depth)
    got = rep._coefficients(ws)
    for w in ws:
        assert got[w] == rep.coefficient(w), w


def _sympy_products(rep, ws):
    """w -> lambda mu(w1) ... mu(wk) eta, each one sympy Matrix product."""
    def q(c):
        return sympy.Rational(c.numerator, c.denominator)
    mu = {a: sympy.Matrix([[q(c) for c in row] for row in mat])
          for a, mat in rep.mu.items()}
    lam = sympy.Matrix([[q(c) for c in rep.lam]])
    eta = sympy.Matrix([q(c) for c in rep.eta])
    out = {}
    for w in ws:
        m = lam
        for a in w:
            m = m * mu[a]
        m = m * eta
        out[w] = F(int(m[0].p), int(m[0].q))
    return out


@settings(max_examples=40, deadline=None)
@given(_reps(), st.lists(_small, min_size=7, max_size=7))
def test_sweep_and_residuals_against_sympy(rep, cs):
    # every route to <S|w> against the matrix product, |w| <= 4, and both
    # residuals by p = sum c_u u over the words |u| <= 2 against sums of
    # those products
    ws = words_up_to(X, 4)
    want = _sympy_products(rep, ws)
    swept, series = rep._coefficients(ws), rep.truncated_series(4)
    for w in ws:
        assert rep.coefficient(w) == swept[w] == series.coeff(w) == want[w], w
    p = NCPoly(X, dict(zip(words_up_to(X, 2), cs)))
    right, left = rep.residual(p, "right"), rep.residual(p, "left")
    for w in words_up_to(X, 2):
        assert right.coefficient(w) == sum(
            (c * want[u + w] for u, c in p.terms.items()), F(0)), w
        assert left.coefficient(w) == sum(
            (c * want[w + u] for u, c in p.terms.items()), F(0)), w


def test_residual_representations():
    rep = rep_hypergeometric(F(1, 4), F(1, 4), F(1, 3), q0=(F(2, 3), F(-1, 5)))
    p = NCPoly.word((0, 1), X) + NCPoly.word((1,), X).scale(F(1, 2))
    right = rep.residual(p, "right")
    left = rep.residual(p, "left")
    for w in [(), (0,), (1, 0), (0, 0, 1)]:
        want_right = sum((c * rep.coefficient(u + w)
                          for u, c in p.terms.items()), F(0))
        want_left = sum((c * rep.coefficient(w + u)
                         for u, c in p.terms.items()), F(0))
        assert right.coefficient(w) == want_right, w
        assert left.coefficient(w) == want_left, w


def test_truncated_series():
    rep = rep_hypergeometric(F(1, 4), F(1, 4), F(1, 3))
    s = rep.truncated_series(2)
    assert s.coeff(()) == 1



def test_factorial_series_shuffle_square():
    # <R|w> = |w|!;  <R shuffle R|w> = (|w|+1)! <= 2^|w| |w|! * 2
    def fact_coeff(w):
        return F(factorial(len(w)))

    for n in range(0, 9):
        w = tuple([0, 1] * 5)[:n]
        got = shuffle_coefficient(fact_coeff, fact_coeff, w)
        assert got == factorial(n + 1), n
        assert got <= 2 ** n * factorial(n) * 2


def test_bad_matrix_shape_rejected():
    with pytest.raises(ValueError):
        LinearRepresentation(X, [1], {0: [[1, 2]]}, [1])
