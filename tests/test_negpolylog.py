"""Negative-index polylogarithms, harmonic sums, and the Faulhaber layer."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from ncgen.negpolylog import (
    QPoly,
    LAMBDA_T,
    b_constant,
    b_prime,
    bernoulli,
    bernoulli_poly,
    beta_poly,
    eulerian,
    faulhaber_B,
    faulhaber_B_poly,
    faulhaber_roundtrip,
    h_neg,
    h_neg_from_faulhaber,
    h_neg_single_closed_form,
    li_neg,
    li_neg_numerator_z,
    p_neg,
    p_neg_z_coefficient,
    stuffle_morphism_check_neg,
    theta0_t,
)
from ncgen.polylog import nested_sum

F = Fraction


def qp(*coefs):
    return QPoly(coefs, T_VAR := "1/(1-z)")


# ---------------------------------------------------------------------------
# polynomials in t = 1/(1-z)

def test_theta0_on_powers():
    # theta0(t^k) = k (t^(k+1) - t^k)
    assert theta0_t(qp(0, 0, 1)) == qp(0, 0, -2, 2)
    assert theta0_t(qp(5)) == QPoly([], "1/(1-z)")
    # derivation sanity: theta0(lambda^2) = 2 lambda theta0(lambda)
    lam_sq = LAMBDA_T * LAMBDA_T
    assert theta0_t(lam_sq) == 2 * LAMBDA_T * theta0_t(LAMBDA_T)


def test_li_neg_known_coefficient_lists():
    expected = {
        (1,): [0, -1, 1],
        (2,): [0, 1, -3, 2],
        (3,): [0, -1, 7, -12, 6],
        (1, 1): [0, -1, 5, -7, 3],
        (2, 1): [0, 1, -11, 31, -33, 12],
        (1, 2): [0, 1, -9, 23, -23, 8],
    }
    for w, coefs in expected.items():
        assert list(li_neg(w).coefs) == [F(c) for c in coefs], w


def test_li_neg_empty_and_y0_powers():
    assert li_neg(()) == QPoly([1], "1/(1-z)")
    lam = LAMBDA_T
    acc = QPoly([1], "1/(1-z)")
    for r in range(1, 6):
        acc = acc * lam
        assert li_neg((0,) * r) == acc


def test_li_neg_degree_and_vanishing_order():
    # deg_t Li^-_w = weight + length; (t-1)^length divides Li^-_w
    words = [()]
    for total in range(1, 9):
        # compositions of `total` into parts (letter+1 >= 1), letters >= 0
        def gen(rem, cur):
            if rem == 0:
                words.append(tuple(cur))
                return
            for part in range(1, rem + 1):
                gen(rem - part, cur + [part - 1])
        gen(total, [])
    for w in words:
        p = li_neg(w)
        if w:
            assert p.degree() == sum(w) + len(w), w
        q = p
        for _ in range(len(w)):
            # synthetic division by (t - 1): remainder must vanish
            rem = q.eval(F(1))
            assert rem == 0, w
            coefs = list(q.coefs)
            out = []
            carry = F(0)
            for c in reversed(coefs):
                carry = carry + c
                out.append(carry)
            out.reverse()
            q = QPoly(out[1:], "1/(1-z)")


def test_li_neg_single_letter_eulerian_numerators():
    # Li^-_{y_m} = z * A_m(z) / (1-z)^(m+1) with Eulerian coefficients
    for m, numer in [(1, [0, 1]), (2, [0, 1, 1]), (3, [0, 1, 4, 1])]:
        assert list(li_neg_numerator_z(m).coefs) == [F(c) for c in numer]
    for m in range(1, 7):
        expect = [F(0)] + [F(eulerian(m, k)) for k in range(m)]
        assert list(li_neg_numerator_z(m).coefs) == expect


def test_li_neg_two_letter_product_identity():
    # Li^-_{y_m y_n} = sum_l C(m,l) Li^-_{y_l} Li^-_{y_(m+n-l)}
    for m in range(0, 5):
        for n in range(0, 5):
            lhs = li_neg((m, n))
            rhs = QPoly([], "1/(1-z)")
            for l in range(m + 1):
                rhs = rhs + comb(m, l) * li_neg((l,)) * li_neg((m + n - l,))
            assert lhs == rhs, (m, n)


def test_qpoly_json_roundtrip():
    p = li_neg((2, 1))
    d = p.to_json_dict()
    assert d["var"] == "1/(1-z)"
    assert d["coefs"] == ["0", "1", "-11", "31", "-33", "12"]
    assert QPoly.from_json_dict(d) == p


# ---------------------------------------------------------------------------
# harmonic sums

def _npoly_from_factors(*factors):
    """Product of polynomials given as coefficient lists in N."""
    out = QPoly([1], "N")
    for f in factors:
        out = out * QPoly(f, "N")
    return out


def test_h_neg_known_polynomials():
    half = F(1, 2)
    expected = {
        (1,): _npoly_from_factors([0, 1], [1, 1]) * half,
        (2,): _npoly_from_factors([0, 1], [1, 2], [1, 1]) * F(1, 6),
        (3,): _npoly_from_factors([0, 1], [1, 1], [0, 1], [1, 1]) * F(1, 4),
        (2, 1): _npoly_from_factors([0, 1], [-1, 0, 1], [2, 15, 12]) * F(1, 120),
        (2, 2): _npoly_from_factors([0, 1], [-1, 1], [1, 2], [-1, 2],
                                    [6, 5], [1, 1]) * F(1, 360),
        (2, 3): _npoly_from_factors([0, 1], [-1, 1], [1, 1],
                                    [2, -35, -33, 35, 30]) * F(1, 840),
        (2, 4): _npoly_from_factors([0, 1], [-1, 1], [1, 1],
                                    [30, 49, -138, -133, 72, 63]) * F(1, 2520),
        (2, 5): _npoly_from_factors([0, 1], [-1, 1], [1, 1],
                                    [-108, 630, 802, -945, -920, 315, 280]) * F(1, 15120),
        (3, 3): _npoly_from_factors([0, 1], [-1, 1], [1, 1],
                                    [8, 0, -48, -21, 36, 21]) * F(1, 672),
    }
    for w, poly in expected.items():
        assert h_neg(w) == poly, w


def test_h_neg_matches_brute_force():
    words = [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2),
             (1, 1, 1), (2, 1, 1), (0,), (0, 0), (1, 0), (2, 0, 1)]
    for w in words:
        p = h_neg(w)
        for n in range(0, 31):
            assert p.eval(F(n)) == nested_sum(w, n), (w, n)


def test_h_neg_degree():
    for w in [(1,), (2, 1), (3, 2, 1), (0, 0), (4,)]:
        assert h_neg(w).degree() == sum(w) + len(w)


def test_h_neg_y0_powers_are_binomials():
    for r in range(1, 6):
        p = h_neg((0,) * r)
        for n in range(0, 12):
            assert p.eval(F(n)) == comb(n, r)


def test_h_neg_single_letter_closed_form():
    for m in range(1, 8):
        assert h_neg_single_closed_form(m) == h_neg((m,)), m
    with pytest.raises(ValueError):
        h_neg_single_closed_form(0)


def test_p_neg_generating_function():
    # coefficient of z^N in t * Li^-_w equals H^-_w(N)
    for w in [(1,), (2,), (1, 1), (2, 1), (0,), (1, 0)]:
        for n in range(0, 25):
            assert p_neg_z_coefficient(w, n) == nested_sum(w, n), (w, n)
    assert p_neg((1,)) == QPoly([0, 0, -1, 1], "1/(1-z)")


def test_p_neg_has_no_constant_term():
    # p_neg = t Li^-_w, so its z^N coefficient needs no t^0 case
    words = [w for n in range(4)
             for w in itertools.product(range(5), repeat=n) if sum(w) <= 4]
    assert len(words) == 1 + 5 + 15 + 35
    for w in words:
        assert p_neg(w).coefs[0] == 0, w
    # the empty word: p_neg = t = sum_N z^N, so every coefficient is 1
    assert [p_neg_z_coefficient((), n) for n in range(4)] == [1] * 4


def test_stuffle_morphism_exact():
    rng = random.Random(7)
    words = [(), (0,), (1,), (2,), (0, 0), (1, 1), (2, 1), (1, 2), (3,),
             (2, 0), (0, 1)]
    pairs = [(u, v) for u in words for v in words]
    rng.shuffle(pairs)
    for u, v in pairs[:50]:
        assert stuffle_morphism_check_neg(u, v), (u, v)


def test_stuffle_y0_squared():
    # N^2 = 2 C(N,2) + N as the y0*y0 instance
    assert stuffle_morphism_check_neg((0,), (0,))
    lhs = h_neg((0,)) * h_neg((0,))
    rhs = 2 * h_neg((0, 0)) + h_neg((0,))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Bernoulli / Faulhaber layer

def test_bernoulli_numbers():
    assert [bernoulli(k) for k in range(7)] == [
        F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42)]


def test_bernoulli_polynomials():
    assert bernoulli_poly(1) == QPoly([F(-1, 2), 1], "z")
    assert bernoulli_poly(2) == QPoly([F(1, 6), -1, 1], "z")
    assert bernoulli_poly(3) == QPoly([0, F(1, 2), F(-3, 2), 1], "z")


def test_faulhaber_B_closed_forms():
    assert faulhaber_B_poly((1, 1)) == QPoly([F(1, 3), -1, F(1, 2)], "z")
    assert faulhaber_B_poly((2, 1)) == QPoly(
        [F(-1, 12), F(5, 6), F(-3, 2), F(2, 3)], "z")
    assert b_constant((1, 1)) == F(1, 3)
    assert b_constant((2, 1)) == F(-1, 12)
    assert b_constant((2, 2)) == F(1, 90)
    assert b_constant((3, 2)) == F(1, 40)
    assert faulhaber_B((2,), F(1, 2)) == F(-1, 12)
    with pytest.raises(ValueError):
        faulhaber_B_poly((1, 1, 1))


def test_faulhaber_difference_equation_closed_form():
    # B_w(z+1) - B_w(z) = n1 z^(n1-1) B_tail(z), via the closed forms
    for w in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        B = faulhaber_B_poly(w)
        tail = faulhaber_B_poly(w[1:])
        n1 = w[0]
        mono = QPoly([F(0)] * (n1 - 1) + [F(n1)], "z")
        assert B.shift(1) - B == mono * tail, w


def test_b_prime_values():
    assert b_prime((1,)) == F(-1, 2)
    assert b_prime((2,)) == F(1, 6)
    # b'_{y_a y_b} = b_{y_a y_b} - b_{y_b} b'_{y_a}
    assert b_prime((1, 1)) == F(1, 3) - F(-1, 2) * F(-1, 2)
    assert b_prime((2, 1)) == F(-1, 12) - F(-1, 2) * F(1, 6)


def test_beta_poly_matches_closed_form():
    for w in [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (1, 2), (2, 2),
              (3, 1), (1, 3), (3, 2)]:
        B = faulhaber_B_poly(w)
        assert beta_poly(w) == B - B.eval(F(0)), w


def test_h_neg_from_faulhaber():
    for w in [(1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1),
              (2, 1, 1), (1, 2, 1)]:
        assert h_neg_from_faulhaber(w) == h_neg(w), w


# each case changes one ingredient at one word, so that the check after it
# is the one that fails: beta_w against the closed form of B_w, the
# difference equation, beta_w(0) = 0, and H^-_w from the up-shifted betas
@pytest.mark.parametrize("name, extra, at, w", [
    ("beta_poly", QPoly([0, 1]), (1, 2), (1, 2)),
    ("beta_poly", QPoly([0, 1]), (1, 1, 2), (1, 1, 2)),
    ("beta_poly", QPoly([1]), (1, 1, 2), (1, 1, 2)),
    ("b_prime", 1, (2,), (2, 1)),
])
def test_faulhaber_roundtrip_catches_a_broken_ingredient(monkeypatch, name,
                                                         extra, at, w):
    from ncgen import negpolylog
    f = getattr(negpolylog, name)
    monkeypatch.setattr(negpolylog, name,
                        lambda v: f(v) + extra if tuple(v) == at else f(v))
    assert faulhaber_roundtrip(w) is False


def test_faulhaber_roundtrip():
    for w in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
              (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1)]:
        assert faulhaber_roundtrip(w), w
    with pytest.raises(ValueError):
        faulhaber_roundtrip((1, 1, 1, 1))
    with pytest.raises(ValueError):
        faulhaber_roundtrip((0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=4))
def test_h_neg_is_the_nested_sum_beyond_its_nodes(w):
    # built from the values at N = 0..d; checked up to d + 3
    w = tuple(w)
    d = sum(w) + len(w)
    p = h_neg(w)
    assert p.degree() == d
    for n in range(d + 4):
        assert p.eval(n) == nested_sum(w, n), (w, n)
