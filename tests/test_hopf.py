import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgen import hopf, ncpoly
from ncgen.hopf import (
    _exp, decompose_in_basis, diagonal_factorization_check, dual_s,
    dual_sigma, pbw_p, pbw_pi, pi1, pi1_word, recompose_from_basis,
    sigma_by_products,
)
from ncgen.ncpoly import (
    NCPoly, _linear, conc, coproduct_stuffle, residual_left,
    residual_right, shuffle_words, stuffle, words_up_to,
)
from ncgen.words import X, Y, lyndon_words, word_key


def W(w, alphabet=X, c=1):
    return NCPoly.word(w, alphabet, c)


def Yp(terms):
    return NCPoly(Y, {w: Fraction(c) for w, c in terms.items()})


# -- shuffle-side PBW -------------------------------------------------

def test_pbw_p_small():
    assert pbw_p((0,)) == W((0,))
    assert pbw_p((0, 1)) == W((0, 1)) - W((1, 0))
    # non-Lyndon word: product along the CFL factorization
    assert pbw_p((1, 0)) == conc(W((1,)), W((0,)))
    # [x0,[x0,x1]]
    expected = (W((0, 0, 1)) - W((0, 1, 0), c=2) + W((1, 0, 0)))
    assert pbw_p((0, 0, 1)) == expected


def test_dual_s_table_rows():
    assert dual_s((0, 1)) == W((0, 1))
    assert dual_s((0, 0, 1, 1)) == W((0, 0, 1, 1))
    assert dual_s((0, 0, 1, 0, 1)) == W((0, 0, 0, 1, 1), c=2) + W((0, 0, 1, 0, 1))
    assert dual_s((0, 1, 0, 1, 1)) == W((0, 0, 1, 1, 1), c=3) + W((0, 1, 0, 1, 1))
    assert dual_s((0, 0, 1, 1, 0, 1)) == (W((0, 0, 0, 1, 1, 1), c=6)
                                          + W((0, 0, 1, 0, 1, 1), c=3)
                                          + W((0, 0, 1, 1, 0, 1)))


def test_dual_s_nonlyndon():
    # S_{x1^2} = (S_{x1} sh S_{x1})/2 = x1^2
    assert dual_s((1, 1)) == W((1, 1))
    # S_{x1x0} = x1x0 + x0x1 sh-combination: CFL (x1)(x0)
    assert dual_s((1, 0)) == W((1, 0)) + W((0, 1))


def test_duality_s_p():
    ws = [w for w in words_up_to(X, 4) if w]
    for u in ws:
        for v in ws:
            expected = Fraction(int(u == v))
            got = sum(c * pbw_p(v).coeff(w) for w, c in dual_s(u).terms.items())
            assert got == expected, (u, v)


def test_triangularity():
    for w in words_up_to(X, 5):
        if not w:
            continue
        p, s = pbw_p(w), dual_s(w)
        assert p.coeff(w) == 1 and s.coeff(w) == 1
        deg = (w.count(0), w.count(1))
        for v in p.support():
            assert (v.count(0), v.count(1)) == deg
            assert v >= w
        for v in s.support():
            assert (v.count(0), v.count(1)) == deg
            assert v <= w


def test_s_lyndon_in_corner():
    # S_l sits in x0 Q<X> x1 for Lyndon l outside the letters, hence the
    # one-sided residuals by the far letters vanish.
    x0, x1 = W((0,)), W((1,))
    for l in lyndon_words(X, max_length=6):
        if len(l) < 2:
            continue
        s = dual_s(l)
        assert all(v[0] == 0 and v[-1] == 1 for v in s.support())
        assert residual_left(x0, s) == NCPoly.zero()
        assert residual_right(s, x1) == NCPoly.zero()


# -- pi1 and the quasi-shuffle PBW ------------------------------------

def test_pi1_letters():
    assert pi1_word((1,)) == Yp({(1,): 1})
    assert pi1_word((2,)) == Yp({(2,): 1, (1, 1): Fraction(-1, 2)})
    assert pi1_word((3,)) == Yp({(3,): 1, (1, 2): Fraction(-1, 2),
                                 (2, 1): Fraction(-1, 2), (1, 1, 1): Fraction(1, 3)})


def test_pi1_primitive():
    for w in words_up_to(Y, 5):
        if not w:
            continue
        p = pi1_word(w)
        delta = coproduct_stuffle(p)
        expected = {}
        for u, c in p.terms.items():
            expected[(u, ())] = c
            expected[((), u)] = expected.get(((), u), Fraction(0)) + c
        expected = {k: c for k, c in expected.items() if c}
        assert delta == expected, w


def test_pi1_reconstruction():
    # w = sum_k 1/k! sum <w|u1 st ... st uk> pi1(u1)...pi1(uk), weight <= 5
    from ncgen.hopf import _reduced_stuffle_coproduct
    for w in words_up_to(Y, 5):
        if not w:
            continue
        total = NCPoly(Y)
        layer = {(w,): Fraction(1)}
        k = 1
        while layer:
            for parts, c in layer.items():
                prod = NCPoly.one(Y)
                for u in parts:
                    prod = conc(prod, pi1_word(u))
                total = total + prod.scale(c / factorial(k))
            nxt = {}
            for parts, c in layer.items():
                for (a, b), m in _reduced_stuffle_coproduct(parts[-1]).items():
                    key = parts[:-1] + (a, b)
                    nxt[key] = nxt.get(key, Fraction(0)) + c * m
            layer = nxt
            k += 1
        assert total == W(w, Y), w


def test_letter_reconstruction_from_pi1():
    # y_n = sum_k 1/k! sum_{s1+...+sk=n} pi1(y_s1)...pi1(y_sk)
    from ncgen.words import _compositions
    for n in range(1, 6):
        total = NCPoly(Y)
        for comp in _compositions(n):
            prod = NCPoly.one(Y)
            for s in comp:
                prod = conc(prod, pi1_word((s,)))
            total = total + prod.scale(Fraction(1, factorial(len(comp))))
        assert total == W((n,), Y), n


def test_pbw_pi_rows():
    assert pbw_pi((2, 1)) == Yp({(2, 1): 1, (1, 2): -1})
    assert pbw_pi((1, 1)) == Yp({(1, 1): 1})
    assert pbw_pi((1, 2)) == Yp({(1, 2): 1, (1, 1, 1): Fraction(-1, 2)})
    assert pbw_pi((3, 1)) == Yp({(3, 1): 1, (2, 1, 1): Fraction(-1, 2),
                                 (1, 3): -1, (1, 1, 2): Fraction(1, 2)})


def test_dual_sigma_rows():
    assert dual_sigma((2,)) == Yp({(2,): 1})
    assert dual_sigma((1, 1)) == Yp({(2,): Fraction(1, 2), (1, 1): 1})
    assert dual_sigma((2, 1)) == Yp({(3,): Fraction(1, 2), (2, 1): 1})
    assert dual_sigma((1, 2)) == Yp({(3,): 1, (2, 1): 1, (1, 2): 1})
    assert dual_sigma((1, 1, 1)) == Yp({(3,): Fraction(1, 6),
                                        (2, 1): Fraction(1, 2),
                                        (1, 2): Fraction(1, 2), (1, 1, 1): 1})
    assert dual_sigma((1, 1, 1, 1)) == Yp({
        (4,): Fraction(1, 24), (3, 1): Fraction(1, 6), (2, 2): Fraction(1, 4),
        (2, 1, 1): Fraction(1, 2), (1, 3): Fraction(1, 6),
        (1, 2, 1): Fraction(1, 2), (1, 1, 2): Fraction(1, 2), (1, 1, 1, 1): 1})


def test_duality_sigma_pi():
    ws = [w for w in words_up_to(Y, 5) if w]
    for u in ws:
        su = dual_sigma(u)
        for v in ws:
            if sum(u) != sum(v):
                continue
            got = sum(c * pbw_pi(v).coeff(w) for w, c in su.terms.items())
            assert got == Fraction(int(u == v)), (u, v)


def test_sigma_product_formula_agrees():
    for w in words_up_to(Y, 5):
        if not w:
            continue
        assert sigma_by_products(w) == dual_sigma(w), w


def test_sigma_weight_seven():
    ws = [w for w in words_up_to(Y, 7) if sum(w) == 7]
    for u in ws:
        su = dual_sigma(u)
        assert sigma_by_products(u) == su, u
        for v in ws:
            got = sum((c * pbw_pi(v).coeff(w) for w, c in su.terms.items()),
                      Fraction(0))
            assert got == Fraction(int(u == v)), (u, v)


def test_sigma_weight_eight_is_the_pi_coordinate():
    # the exact elimination is the reference: w = sum_v <w | Sigma_v> Pi_v
    ws = [w for w in words_up_to(Y, 8) if sum(w) == 8]
    cols = {v: {} for v in ws}
    for w in ws:
        for v, c in decompose_in_basis(NCPoly.word(w, Y), "Pi").items():
            cols[v][w] = c
    for v in ws:
        assert dual_sigma(v).terms == cols[v], v


@pytest.mark.parametrize("w", [(0,), (0, 1), (1, 0), (2, 0, 1), (1, -1)])
def test_sigma_refuses_letters_below_one(w):
    with pytest.raises(ValueError, match=r"^Sigma acts on Y-words"):
        dual_sigma(w)


_yword = st.lists(st.integers(1, 3), max_size=4).map(tuple)


@settings(max_examples=80, deadline=None)
@given(_yword, _yword)
def test_exp_sends_shuffle_to_stuffle(u, v):
    # Hoffman's exp is an algebra morphism from sh to st over Y
    assume(sum(u) + sum(v) <= 8)
    lhs = NCPoly(Y, _linear(shuffle_words(u, v), _exp))
    assert lhs == stuffle(NCPoly(Y, _exp(u)), NCPoly(Y, _exp(v)))


# -- basis decomposition ----------------------------------------------

def test_decompose_unit_coordinates():
    for w in [(0, 1), (1, 0, 1), (0, 0, 1)]:
        assert decompose_in_basis(dual_s(w), "S") == {w: Fraction(1)}
        assert decompose_in_basis(pbw_p(w), "P") == {w: Fraction(1)}
    assert decompose_in_basis(W((1, 1)), "S") == {(1, 1): Fraction(1)}


def test_decompose_pi_y_of_p():
    got = decompose_in_basis(pbw_p((0, 1)).pi_y(), "Pi")
    assert got == {(2,): Fraction(1), (1, 1): Fraction(1, 2)}


def test_decompose_roundtrip_random():
    rng = random.Random(5)
    for kind, alphabet in [("S", X), ("P", X), ("Sigma", Y), ("Pi", Y)]:
        for _ in range(5):
            terms = {}
            pool = [w for w in words_up_to(alphabet, 4) if w]
            for w in rng.sample(pool, 4):
                terms[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            P = NCPoly(alphabet, terms)
            coords = decompose_in_basis(P, kind)
            assert recompose_from_basis(coords, kind, alphabet) == P


def test_linear_extensions_sum_term_by_term():
    # pi1 and recompose_from_basis sum in one pass; the sum of scaled
    # images, one at a time, is the reference, exact and in floats
    rng = random.Random(8)
    for kind, alphabet in [("S", X), ("P", X), ("Sigma", Y), ("Pi", Y)]:
        basis = {"S": dual_s, "P": pbw_p, "Sigma": dual_sigma, "Pi": pbw_pi}[kind]
        pool = [w for w in words_up_to(alphabet, 4) if w]
        for to in (Fraction, float):
            coords = {w: to(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                      for w in rng.sample(pool, 5)}
            want = NCPoly(alphabet)
            for w, c in coords.items():
                want = want + basis(w).scale(c)
            got = recompose_from_basis(coords, kind, alphabet)
            assert got.terms == want.terms, (kind, to)
            assert all(type(c) is to for c in got.terms.values())
            if alphabet == Y:
                P = NCPoly(Y, {(): to(3), **coords})
                want = NCPoly(Y)
                for w, c in coords.items():
                    want = want + pi1_word(w).scale(c)
                assert pi1(P).terms == want.terms, to


_BASES = {"S": (dual_s, X), "P": (pbw_p, X), "Sigma": (dual_sigma, Y),
          "Pi": (pbw_pi, Y)}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_BASES)), st.data())
def test_decompose_equals_a_peel_of_the_whole_polynomial(kind, data):
    # the coordinates are linear in P: summed word by word from each
    # word's own peel, they equal one peel of all of P
    basis, alphabet = _BASES[kind]
    terms = data.draw(st.dictionaries(
        st.sampled_from(words_up_to(alphabet, 6)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=6))
    P = NCPoly(alphabet, terms)
    want, rest = ncpoly.peel(P.terms, lambda w: basis(w).terms,
                             min if kind in ("P", "Pi") else max,
                             lambda w: word_key(w, alphabet))
    assert rest == {}
    got = decompose_in_basis(P, kind)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())


def test_each_word_is_peeled_once(monkeypatch):
    peeled = []

    def recorder(terms, *args):
        peeled.extend(terms)
        return ncpoly.peel(terms, *args)

    monkeypatch.setattr(hopf, "peel", recorder)
    cache = hopf._word_coordinates
    cache.cache_clear()
    words = [w for w in words_up_to(Y, 5) if sum(w) == 5]  # 16 words
    first = NCPoly(Y, {w: i + 1 for i, w in enumerate(words[:10])})
    decompose_in_basis(first, "Sigma")
    assert sorted(peeled) == sorted(words[:10])
    assert cache.cache_info().currsize == 10
    # the same words again, with other coefficients: no peel
    peeled.clear()
    again = NCPoly(Y, {w: Fraction(-1, i + 2) for i, w in enumerate(words[:10])})
    assert decompose_in_basis(again, "Sigma") != decompose_in_basis(first, "Sigma")
    assert peeled == [] and cache.cache_info().currsize == 10
    # six new words: six peels, six entries
    decompose_in_basis(NCPoly(Y, dict.fromkeys(words, 3)), "Sigma")
    assert sorted(peeled) == sorted(words[10:])
    assert cache.cache_info().currsize == 16
    # a word's coordinates in another basis are another entry
    peeled.clear()
    decompose_in_basis(first, "Pi")
    assert sorted(peeled) == sorted(words[:10])
    assert cache.cache_info().currsize == 26


def test_float_input_gives_float_coordinates():
    rng = random.Random(3)
    for kind, (_, alphabet) in _BASES.items():
        pool = [w for w in words_up_to(alphabet, 5) if w]
        exact = {w: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                 for w in rng.sample(pool, 6)}
        want = decompose_in_basis(NCPoly(alphabet, exact), kind)
        got = decompose_in_basis(
            NCPoly(alphabet, {w: float(c) for w, c in exact.items()}), kind)
        assert got.keys() == want.keys() and want, kind
        for w, c in got.items():
            assert type(c) is float, (kind, w)
            assert abs(c - want[w]) <= 1e-14 * max(1, abs(want[w])), (kind, w)


# -- diagonal series factorization ------------------------------------

def test_diagonal_factorization_x():
    assert diagonal_factorization_check(X, 1)
    assert diagonal_factorization_check(X, 3)
    assert diagonal_factorization_check(X, 4)


def test_diagonal_factorization_y():
    assert diagonal_factorization_check(Y, 4)


@pytest.mark.parametrize("alphabet", [X, Y])
def test_diagonal_factorization_never_multiplies_by_the_unit(monkeypatch,
                                                              alphabet):
    unit, operands = {((), ()): 1}, []
    tensor_mul = hopf._tensor_mul

    def recorder(A, B, *args):
        operands.extend((A, B))
        return tensor_mul(A, B, *args)

    monkeypatch.setattr(hopf, "_tensor_mul", recorder)
    assert diagonal_factorization_check(alphabet, 6)
    assert operands and all(op != unit for op in operands)


def test_diagonal_factorization_catches_a_stray_term(monkeypatch):
    # the check is not vacuous: a stray word in S_{x0} breaks it over X
    from ncgen import hopf
    assert diagonal_factorization_check(X, 4)
    monkeypatch.setattr(hopf, "dual_s", lambda w: dual_s(w) + W((0, 1))
                        if tuple(w) == (0,) else dual_s(w))
    assert diagonal_factorization_check(X, 4) is False


def test_diagonal_factorization_catches_a_scaled_dual(monkeypatch):
    # over Y: Sigma_{y1 y2} scaled by 2
    from ncgen import hopf
    assert diagonal_factorization_check(Y, 4)
    monkeypatch.setattr(hopf, "dual_sigma", lambda w: dual_sigma(w).scale(2)
                        if tuple(w) == (1, 2) else dual_sigma(w))
    assert diagonal_factorization_check(Y, 4) is False
