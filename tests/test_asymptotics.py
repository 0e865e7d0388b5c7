"""Leading asymptotic constants of negative-index harmonic sums."""

import random
from fractions import Fraction
from math import factorial

from ncgen.asymptotics import (
    b_minus,
    c_minus,
    cone_linear_check,
    grouplike_c_check,
    growth_degree,
    limit_validation,
    top_stratum,
)
from ncgen.ncpoly import stuffle_words
from ncgen.negpolylog import h_neg

F = Fraction


def test_c_minus_single_letters():
    for n in range(0, 8):
        assert c_minus((n,)) == F(1, n + 1)
        assert b_minus((n,)) == factorial(n)


def test_c_minus_known_words():
    assert c_minus((1, 2)) == F(1, 15)
    assert b_minus((1, 2)) == 8
    # suffix product written out: d-values 12, 16, 21, 24, 27
    w = (2, 2, 4, 3, 11)
    assert growth_degree(w) == 27
    assert c_minus(w) == F(1, 12 * 16 * 21 * 24 * 27)
    assert c_minus(w) == F(1, 2612736)
    assert b_minus(w) == 4167611825465088000000


def test_c_minus_leading_coefficient_of_h_neg():
    for w in [(1,), (2,), (1, 1), (2, 1), (1, 2), (0,), (1, 0, 2)]:
        p = h_neg(w)
        assert p.coefs[-1] == c_minus(w), w
        assert p.degree() == growth_degree(w), w


def test_b_minus_integral_random():
    rng = random.Random(11)
    for _ in range(200):
        length = rng.randint(1, 6)
        w = []
        budget = 20 - length
        for _ in range(length):
            s = rng.randint(0, max(0, budget))
            w.append(s)
            budget -= s
        w = tuple(w)
        if growth_degree(w) > 20:
            continue
        assert isinstance(b_minus(w), int)
        assert b_minus(w) > 0


def test_cone_linearity_shuffle_example():
    # (y1, y2 y5): 1/594 + 1/528 + 1/176 = 1/108 = (1/2)(1/54)
    u, v = (1,), (2, 5)
    assert c_minus(u) == F(1, 2)
    assert c_minus(v) == F(1, 54)
    assert c_minus((1, 2, 5)) == F(1, 594)
    assert c_minus((2, 1, 5)) == F(1, 528)
    assert c_minus((2, 5, 1)) == F(1, 176)
    assert cone_linear_check(u, v, "shuffle")


def test_cone_linearity_stuffle_drops_contractions():
    u, v = (1,), (2, 5)
    expansion = stuffle_words(u, v)
    top = top_stratum(expansion, growth_degree(u) + growth_degree(v))
    # contracted words y3y5 and y2y6 live strictly below the top stratum
    assert (3, 5) in expansion and (3, 5) not in top
    assert (2, 6) in expansion and (2, 6) not in top
    assert cone_linear_check(u, v, "stuffle")


def test_cone_linearity_y0_pair():
    # y0 * y0 = 2 y0y0 + y0; the top stratum gives 2 * 1/2 = 1 = C_{y0}^2
    assert cone_linear_check((0,), (0,), "stuffle")
    assert c_minus((0, 0)) == F(1, 2)


def test_cone_linearity_random_pairs():
    rng = random.Random(23)
    for _ in range(50):
        u = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        v = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        assert cone_linear_check(u, v, "shuffle"), (u, v)
        assert cone_linear_check(u, v, "stuffle"), (u, v)


def test_grouplike_character_up_to_weight_six():
    assert grouplike_c_check(6)


def test_grouplike_c_check_catches_a_wrong_c_minus(monkeypatch):
    from ncgen import asymptotics
    monkeypatch.setattr(asymptotics, "c_minus",
                        lambda w: c_minus(w) * (len(w) + 1))
    assert grouplike_c_check(3) is False


def test_limit_validation():
    for w in [(1,), (2,), (2, 1), (0, 1)]:
        report = limit_validation(w, 10 ** 4)
        assert report["pass"], report
    # degenerate tolerance fails at small N
    report = limit_validation((2, 1), 10, tol=1e-9)
    assert not report["pass"]
