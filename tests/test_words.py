import functools
import itertools

import pytest
from hypothesis import given, strategies as st
from sympy import divisors, mobius

from ncgen.words import (
    X, Y, Y0,
    cfl_factors, is_lyndon, lyndon_count_binary, lyndon_decompose,
    lyndon_words, pi_x_word, pi_y_word, standard_factorization,
    str_to_word, weight, word_key, word_to_str,
)


def all_x_words(max_length):
    for n in range(max_length + 1):
        yield from itertools.product((0, 1), repeat=n)


def test_is_lyndon_basics():
    assert is_lyndon((0, 1))
    assert not is_lyndon((1, 0))
    assert is_lyndon((0,)) and is_lyndon((1,))
    assert not is_lyndon(())
    assert not is_lyndon((0, 1, 0, 1))  # periodic


def test_is_lyndon_00101():
    # x0 x0 x1 x0 x1: every proper suffix (0101, 101, 01, 1) is larger.
    assert is_lyndon((0, 0, 1, 0, 1))


def test_lyndon_words_x_small():
    assert lyndon_words(X, max_length=2) == [(0,), (0, 1), (1,)]
    ws = lyndon_words(X, max_length=4)
    assert (0, 1, 1, 1) in ws
    assert (0, 0, 1, 1) in ws
    assert (1, 0) not in ws


def test_lyndon_counts_per_length():
    ws = lyndon_words(X, max_length=6)
    by_len = [sum(1 for w in ws if len(w) == n) for n in range(1, 7)]
    assert by_len == [2, 1, 2, 3, 6, 9]
    assert len(ws) == 23
    for n in range(1, 11):
        assert lyndon_count_binary(n) == sum(
            1 for w in lyndon_words(X, max_length=n) if len(w) == n)


def test_lyndon_words_x_sorted():
    ws = lyndon_words(X, max_length=5)
    assert ws == sorted(ws)
    assert len(set(ws)) == len(ws)


def test_lyndon_words_y_weight3():
    # under y1 > y2 > y3 the Lyndon words of weight <= 3 are
    # y3 < y2 < y2y1 < y1
    assert lyndon_words(Y, max_weight=3) == [(3,), (2,), (2, 1), (1,)]


def test_y_order_examples():
    assert word_key((1, 2), Y) > word_key((2, 1), Y)  # y2y1 < y1y2
    assert is_lyndon((2, 1), Y)
    assert not is_lyndon((1, 2), Y)
    assert is_lyndon((3, 1), Y) and is_lyndon((3, 2), Y)
    assert not is_lyndon((1, 1), Y)


def test_lyndon_words_y0_needs_both_bounds():
    with pytest.raises(ValueError):
        lyndon_words(Y0, max_weight=2)
    with pytest.raises(ValueError):
        lyndon_words(Y, max_length=4)
    with pytest.raises(ValueError):
        lyndon_words(X)


def test_lyndon_words_apply_every_bound():
    # an X word's weight is its length; a Y length bound cuts y2 y1 y1
    assert lyndon_words(X, max_length=3, max_weight=1) == [(0,), (1,)]
    assert lyndon_words(Y, max_weight=4, max_length=2) == [
        w for w in lyndon_words(Y, max_weight=4) if len(w) <= 2]


def test_lyndon_words_y0_past_the_recursion_limit():
    # y1 y0^k for k = 0..1999, then y0 (the largest letter)
    assert lyndon_words(Y0, max_weight=1, max_length=2000) == [
        (1,) + (0,) * k for k in range(2000)] + [(0,)]


# (max_length, max_weight) of the region the brute force lists once
_BRUTE_REGION = {X: (9, 9), Y: (8, 8), Y0: (6, 4)}


@functools.cache
def _lyndon_by_brute_force(alphabet):
    """Every word of the region, grown letter by letter, kept when Lyndon,
    sorted in the alphabet order."""
    max_length, max_weight = _BRUTE_REGION[alphabet]
    letters = {X: (0, 1), Y: range(1, max_weight + 1),
               Y0: range(max_weight + 1)}[alphabet]
    layer, out = [()], []
    for _ in range(max_length):
        layer = [w + (a,) for w in layer for a in letters
                 if weight(w + (a,), alphabet) <= max_weight]
        out += [w for w in layer if is_lyndon(w, alphabet)]
    return sorted(out, key=lambda w: word_key(w, alphabet))


@given(st.sampled_from([X, Y, Y0]), st.data())
def test_lyndon_words_against_brute_force(alphabet, data):
    # X needs a length, Y a weight and Y0 both; any other bound is optional
    region_length, region_weight = _BRUTE_REGION[alphabet]
    length = st.integers(0, region_length)
    wt = st.integers(0, region_weight)
    max_length = data.draw(length if alphabet != Y else st.none() | length)
    max_weight = data.draw(wt if alphabet != X else st.none() | wt)
    expected = [w for w in _lyndon_by_brute_force(alphabet)
                if (max_length is None or len(w) <= max_length)
                and (max_weight is None or weight(w, alphabet) <= max_weight)]
    assert lyndon_words(alphabet, max_length=max_length,
                        max_weight=max_weight) == expected


def test_lyndon_y_counts_per_weight():
    # Lyndon compositions of n: (1/n) sum_{d|n} mu(n/d) (2^d - 1)
    counts = [0] * 17
    for w in lyndon_words(Y, max_weight=16):
        counts[sum(w)] += 1
    for n in range(1, 17):
        assert counts[n] * n == sum(mobius(n // d) * (2 ** d - 1)
                                    for d in divisors(n)), n
    assert counts[1:9] == [1, 1, 2, 3, 6, 9, 18, 30]


def test_lyndon_words_y0_small():
    got = set(lyndon_words(Y0, max_weight=2, max_length=3))
    assert got == {(0,), (1,), (2,), (1, 0), (2, 0),
                   (1, 0, 0), (2, 0, 0), (1, 1, 0)}
    # the y0-padded family keeps growing with the length bound
    more = set(lyndon_words(Y0, max_weight=2, max_length=4))
    assert (2, 0, 0, 0) in more and (1, 1, 0, 0) in more


def test_cfl_examples():
    assert lyndon_decompose((1, 0)) == [((1,), 1), ((0,), 1)]
    assert lyndon_decompose(()) == []
    assert lyndon_decompose((0, 1, 0, 1)) == [((0, 1), 2)]
    # 00101 is itself Lyndon, so its CFL is trivial
    assert lyndon_decompose((0, 0, 1, 0, 1)) == [((0, 0, 1, 0, 1), 1)]
    assert lyndon_decompose((1, 1, 0, 1, 0, 0)) == [
        ((1,), 2), ((0, 1), 1), ((0,), 2)]


def test_cfl_exhaustive_x():
    for w in all_x_words(8):
        fs = cfl_factors(w)
        assert tuple(a for f in fs for a in f) == w
        assert all(is_lyndon(f) for f in fs)
        assert all(fs[i] >= fs[i + 1] for i in range(len(fs) - 1))


def test_cfl_y_words():
    for w in itertools.product((1, 2, 3), repeat=4):
        fs = cfl_factors(w, Y)
        assert tuple(a for f in fs for a in f) == w
        assert all(is_lyndon(f, Y) for f in fs)
        keys = [word_key(f, Y) for f in fs]
        assert all(keys[i] >= keys[i + 1] for i in range(len(keys) - 1))


def test_standard_factorization_examples():
    assert standard_factorization((0, 1)) == ((0,), (1,))
    assert standard_factorization((0, 1, 0, 1, 1)) == ((0, 1), (0, 1, 1))
    assert standard_factorization((0, 0, 1, 0, 1)) == ((0, 0, 1), (0, 1))
    assert standard_factorization((2, 1), Y) == ((2,), (1,))
    with pytest.raises(ValueError):
        standard_factorization((0,))
    with pytest.raises(ValueError):
        standard_factorization((1, 0))


def test_standard_factorization_is_the_longest_lyndon_suffix():
    for alphabet, l in itertools.chain(
            ((X, l) for l in lyndon_words(X, max_length=10)),
            ((Y, l) for l in lyndon_words(Y, max_weight=9)),
            ((Y0, l) for l in lyndon_words(Y0, max_weight=3, max_length=6))):
        if len(l) < 2:
            continue
        i = next(i for i in range(1, len(l)) if is_lyndon(l[i:], alphabet))
        assert standard_factorization(l, alphabet) == (l[:i], l[i:]), l


def test_standard_factorization_order_property():
    # s < l < r for every Lyndon word of length >= 2
    for l in lyndon_words(X, max_length=8):
        if len(l) < 2:
            continue
        s, r = standard_factorization(l)
        assert word_key(s) < word_key(l) < word_key(r)
        assert is_lyndon(s) and is_lyndon(r)


def test_weight():
    assert weight((0, 1, 1)) == 3
    assert weight((2, 1), Y) == 3
    assert weight((2, 0, 0), Y0) == 2


def test_pi_x_pi_y():
    assert pi_x_word((2, 1)) == (0, 1, 1)
    assert pi_y_word((0, 1, 1)) == (2, 1)
    assert pi_y_word((1, 0)) is None
    assert pi_y_word(()) == ()
    assert pi_x_word(()) == ()


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=6))
def test_pi_y_section(u):
    u = tuple(u)
    assert pi_y_word(pi_x_word(u)) == u


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=10))
def test_pi_x_retraction(w):
    w = tuple(w)
    u = pi_y_word(w)
    if u is None:
        assert w[-1] == 0
    else:
        assert pi_x_word(u) == w


def test_serialization():
    assert word_to_str((0, 1, 1)) == "x0 x1 x1"
    assert word_to_str((2, 1), Y) == "y2 y1"
    assert word_to_str(()) == "e"
    assert str_to_word("x0 x1 x1") == ((0, 1, 1), X)
    assert str_to_word("y2 y1") == ((2, 1), Y)
    assert str_to_word("y2 y0") == ((2, 0), Y0)
    assert str_to_word("e") == ((), X)
    with pytest.raises(ValueError):
        str_to_word("x0 y1")
    with pytest.raises(ValueError):
        str_to_word("x2")
