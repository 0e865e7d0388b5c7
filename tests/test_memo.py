"""The memo layer: one functools.cache entry per word, and recursion that
does not get deeper per letter for being cached."""

import inspect
import sys

import pytest

from ncgen import hopf, ncpoly, negpolylog, renorm
from ncgen.hopf import dual_s, dual_sigma, pbw_p, pbw_pi, pi1_word
from ncgen.ncpoly import shuffle_words, stuffle_words
from ncgen.negpolylog import h_neg, li_neg


@pytest.mark.parametrize("fn, word, cache", [
    (pbw_p, [0, 1, 1], hopf._pbw),
    (pbw_pi, [2, 1], hopf._pbw),
    (dual_s, [0, 0, 1, 1], hopf._dual_s),
    (dual_sigma, [1, 2], hopf._dual_sigma),
    (pi1_word, [1, 2, 1], hopf._pi1_word),
    (li_neg, [2, 0, 1], negpolylog._li_neg),
    (h_neg, [1, 3], negpolylog._h_neg),
])
def test_list_and_tuple_share_one_entry(fn, word, cache):
    got = fn(tuple(word))
    size = cache.cache_info().currsize if cache else None
    assert fn(word) is got
    assert fn(list(word)) is got
    if cache:
        assert cache.cache_info().currsize == size


def test_swapped_word_products_agree_and_stay_read_only():
    for product in (shuffle_words, stuffle_words):
        u, v = (2, 1, 3), (1, 2)
        a, b = product(u, v), product(v, u)
        assert a == b
        assert sum(a.values()) >= 10   # C(5, 2) shuffles, more with contractions
        for d in (a, b):
            with pytest.raises(TypeError):
                d[(9,)] = 1
        assert product(u, v) == a and (9,) not in product(v, u)


def test_word_product_cache_reports_its_size():
    info = ncpoly._quasi_shuffle.cache_info()
    shuffle_words((0, 1, 0, 1, 1, 0, 1), (1, 1, 0))
    assert ncpoly._quasi_shuffle.cache_info().currsize > info.currsize


def test_recursion_headroom():
    # 160 frames above the caller: a cached recursion that spends two
    # units of the limit per letter (C wrapper plus Python frame) on a
    # 100-letter word does not fit; one that recurses a bounded depth does
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 160)
    try:
        assert li_neg((0,) * 100).degree() == 100
        assert sum(shuffle_words((0,) * 100, (1,)).values()) == 101
        assert len(stuffle_words((1,) * 100, (2,))) == 201
        assert dual_s((0,) * 100 + (1,)).terms == {(0,) * 100 + (1,): 1}
    finally:
        sys.setrecursionlimit(old)


def test_zeta_tables_survive_a_caller_that_mutates():
    zeta2 = renorm.zeta_numeric(2)
    for public, cache, w in ((renorm.z_shuffle_series, renorm._z_sh, (0, 1)),
                             (renorm.z_stuffle_series, renorm._z_st, (2,))):
        z = public(4)
        assert z.coeff(w) == zeta2
        size = cache.cache_info().currsize
        z.terms[w] = 99.0
        z.terms.clear()
        assert public(4).coeff(w) == zeta2
        assert cache(4).coeff(w) == zeta2
        assert cache.cache_info().currsize == size
    assert renorm.zeta_shuffle_reg((0, 1)) == renorm.zeta_stuffle_reg((2,)) == zeta2
