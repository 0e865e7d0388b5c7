import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgen.hopf import _bracket, _tensor_mul
from ncgen.ncpoly import (
    NCPoly, conc, coproduct_shuffle, coproduct_stuffle, grouplike_err,
    is_grouplike, peel, pi_x_poly, poly_to_str, residual_left,
    residual_right, series_exp, shuffle, shuffle_power, shuffle_words,
    stuffle, stuffle_power, stuffle_words, words_up_to,
)
from ncgen.words import X, Y, Y0, word_to_str


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


def test_coproduct_stuffle_refuses_x():
    with pytest.raises(ValueError,
                       match="stuffle coproduct needs the Y/Y0 alphabet"):
        coproduct_stuffle(W((0, 1)))
    with pytest.raises(ValueError):
        coproduct_stuffle(NCPoly.one(X) + W((1,)))
    # the empty X word has no letter to refuse
    assert coproduct_stuffle(NCPoly.one(X)) == {((), ()): Fraction(1)}
    assert coproduct_stuffle(NCPoly.zero(X)) == {}


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
    assert Q.pi_y() == W((2, 1), Y)


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


def _poly_to_str_ref(P):
    # each coefficient compared with 1 and -1 by value, each word named anew
    bits = []
    grade = len if P.alphabet == X else sum
    for w in sorted(P.terms, key=lambda w: (grade(w), w)):
        c, name = P.terms[w], word_to_str(w, P.alphabet)
        if c == 1 and w:
            bits.append(name)
        elif c == -1 and w:
            bits.append("-" + name)
        elif not w:
            bits.append(str(c))
        else:
            bits.append("%s %s" % (c, name))
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


_UNITS = st.sampled_from([1, -1, Fraction(3, 2), -2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from([X, Y, Y0]),
    st.dictionaries(st.lists(st.integers(0, 3), max_size=3).map(tuple),
                    _UNITS | _UNITS.map(float) | st.floats(-2, 2),
                    max_size=6)), max_size=4))
def test_poly_to_str_with_shared_names(series):
    # one names dict across the series of a table, alphabets mixed; exact
    # and float coefficients, 1.0 and -1.0 among them
    names = {}
    for alphabet, terms in series:
        if alphabet == X:
            terms = {tuple(a % 2 for a in w): c for w, c in terms.items()}
        elif alphabet == Y:
            terms = {tuple(a + 1 for a in w): c for w, c in terms.items()}
        P = NCPoly(alphabet, terms)  # ints become Fractions
        assert poly_to_str(P, names) == _poly_to_str_ref(P)


def test_poly_to_str_of_ring_coefficients():
    from ncgen.polylog import RatZ
    P = NCPoly._new(X, {(): RatZ.const(1), (0, 1): RatZ.const(-1),
                        (1,): RatZ.lam()}, None)
    assert poly_to_str(P) == _poly_to_str_ref(P)


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


# -- triangular peel --------------------------------------------------

def test_peel_coordinates_and_rest():
    rows = {(0,): {(0,): 1, (1,): Fraction(1, 2)}}
    coords, rest = peel({(0,): 2, (1,): 3}, rows.get)
    assert coords == {(0,): 2} and rest == {(1,): 2}


def test_peel_rejects_rows_that_do_not_lead_with_one():
    with pytest.raises(ArithmeticError):
        peel({(0,): 1}, {(0,): {(0,): 2, (1,): 1}}.get)
    # each row brings back the other's word: peeling would never end
    rows = {(0,): {(0,): 1, (1,): 1}, (1,): {(1,): 1, (0,): 1}}
    with pytest.raises(ArithmeticError):
        peel({(0,): 1}, rows.get)


# -- the integer kernel against plain Fraction / float arithmetic -----

def _coefs(kind):
    """Coefficients of one kind: Fractions with denominators up to 12,
    ints, or floats."""
    fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return {"fraction": fractions, "int": st.integers(-6, 6),
            "float": fractions.map(float)}[kind]


_KINDS = st.sampled_from(("fraction", "int", "float"))


def _terms(words, kind):
    return st.dictionaries(st.sampled_from(words), _coefs(kind), max_size=6)


def _naive_product(P, Q, words):
    """The bilinear product term by term, in the coefficients as given."""
    t = {}
    for u, cu in P.terms.items():
        for v, cv in Q.terms.items():
            for w, m in words(u, v):
                t[w] = t.get(w, 0) + cu * cv * m
    return NCPoly._new(P.alphabet, t, None).truncate(_min(P.depth, Q.depth))


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


_PRODUCTS = {
    "conc": (conc, X, lambda u, v: [(u + v, 1)]),
    "shuffle": (shuffle, X, lambda u, v: shuffle_words(u, v).items()),
    "stuffle": (stuffle, Y, lambda u, v: stuffle_words(u, v).items()),
}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_PRODUCTS)), _KINDS, _KINDS, st.data(),
       st.one_of(st.none(), st.integers(0, 5)),
       st.one_of(st.none(), st.integers(0, 5)))
def test_products_equal_the_term_by_term_loop(name, kp, kq, data, dp, dq):
    product, alphabet, words = _PRODUCTS[name]
    pool = [w for w in words_up_to(alphabet, 3) if w] + [()]
    P = NCPoly(alphabet, data.draw(_terms(pool, kp)), dp)
    Q = NCPoly(alphabet, data.draw(_terms(pool, kq)), dq)
    got, want = product(P, Q), _naive_product(P, Q, words)
    # same values, same depth, and the same kind: float as soon as a
    # factor is float, Fraction otherwise
    assert got.terms == want.terms and got.depth == want.depth
    kind = float if "float" in (kp, kq) and P and Q else Fraction
    assert all(type(c) is kind for c in got.terms.values()), got.terms


def _naive_peel(terms, pivot, extreme=min):
    """The elimination in the coefficients as given."""
    rest = {w: c for w, c in terms.items() if c}
    coords = {}
    while rest:
        w = extreme(rest)
        row = pivot(w)
        if row is None:
            break
        if row.get(w) != 1 or w in coords:
            raise ArithmeticError(w)
        c = coords[w] = rest[w]
        for v, r in row.items():
            x = rest.get(v, 0) - c * r
            if x:
                rest[v] = x
            else:
                rest.pop(v, None)
    return coords, rest


@settings(max_examples=50, deadline=None)
@given(_KINDS, _KINDS, st.sampled_from((min, max)), st.data())
def test_peel_equals_the_elimination_in_values(kt, kr, extreme, data):
    # unitriangular rows: the row of a word leads with 1 there and brings
    # only words peeled later; some words have no row, and the peel stops
    order = sorted(words_up_to(X, 2), reverse=extreme is max)
    ones = {"fraction": Fraction(1), "int": 1, "float": 1.0}
    one = ones[kr]
    rows = {w: {**data.draw(_terms(order[i + 1:] or [w], kr)), w: one}
            for i, w in enumerate(order) if data.draw(st.integers(0, 5))}
    terms = data.draw(_terms(order, kt))
    assert peel(terms, rows.get, extreme) == \
        _naive_peel(terms, rows.get, extreme)
    # a row that does not lead with 1 is refused when it is met, and so
    # are two rows that bring each other's word back
    for w in [w for w in order if terms.get(w)][:1]:
        with pytest.raises(ArithmeticError):
            peel(terms, {w: {**rows.get(w, {}), w: 2}}.get, extreme)
    u, v = order[:2]
    cycle = {u: {u: one, v: one}, v: {v: one, u: one}}
    with pytest.raises(ArithmeticError):
        peel({u: ones[kt]}, cycle.get, extreme)


# -- the other bilinear maps against their term-by-term loops ---------

def _same(got, want, kinds):
    """Equal values, and floats exactly when a factor is float."""
    assert got == want
    kind = float if "float" in kinds else Fraction
    assert all(type(c) is kind for c in got.values()), got


@settings(max_examples=60, deadline=None)
@given(_KINDS, _KINDS, st.data())
def test_bracket_and_residuals_equal_the_term_by_term_loop(ka, kb, data):
    pool = [w for w in words_up_to(X, 3) if w] + [()]
    A = NCPoly(X, data.draw(_terms(pool, ka)))
    b = data.draw(_terms(pool, kb))
    bracket = _naive_product(A, NCPoly(X, b),
                             lambda u, v: [(u + v, 1), (v + u, -1)])
    _same(_bracket(A, NCPoly(X, b)).terms, bracket.terms, (ka, kb))
    # the residuals keep the depth of the series they strip
    B = NCPoly(X, b, data.draw(st.one_of(st.none(), st.integers(0, 3))))

    # split each word s of B as s = ab, with a word of A at one end
    left = _naive_product(B, A, lambda s, p: [
        (s[:i], 1) for i in range(len(s) + 1) if s[i:] == p])
    right = _naive_product(B, A, lambda s, p: [
        (s[i:], 1) for i in range(len(s) + 1) if s[:i] == p])
    got_left, got_right = residual_left(A, B), residual_right(B, A)
    _same(got_left.terms, left.terms, (ka, kb))
    _same(got_right.terms, right.terms, (ka, kb))
    assert got_left.depth == got_right.depth == B.depth


def test_bracket_of_commuting_pairs_cancels():
    a = W((0,)) + W((0, 0))  # [x0 + x0x0, x0] = x0x0 - x0x0 + x0^3 - x0^3
    assert _bracket(a, W((0,))).terms == {}
    assert _bracket(_as_float(a), W((0,), c=0.5)).terms == {}
    assert _bracket(a, W((1,))) == conc(a, W((1,))) - conc(W((1,)), a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((X, Y)), _KINDS, _KINDS, st.integers(0, 6),
       st.data())
def test_tensor_mul_equals_the_term_by_term_loop(alphabet, ka, kb, depth,
                                                 data):
    first, degree = ((shuffle_words, len) if alphabet == X
                     else (stuffle_words, sum))
    words = words_up_to(alphabet, 3)
    pairs = [(u, v) for u in words for v in words[:6]]
    A = data.draw(_terms(pairs, ka))
    B = data.draw(_terms(pairs, kb))
    loop = _naive_product(
        NCPoly._new(alphabet, A, None), NCPoly._new(alphabet, B, None),
        lambda a, b: [((u, a[1] + b[1]), m)
                      for u, m in first(a[0], b[0]).items()])
    want = {k: c for k, c in loop.terms.items() if degree(k[0]) <= depth}
    _same(_tensor_mul(A, B, first, depth, degree), want, (ka, kb))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_PRODUCTS) + ["tensor"]), _KINDS, _KINDS,
       st.integers(0, 6), st.data())
def test_a_capped_product_is_the_uncut_product_truncated(name, ka, kb, cap,
                                                          data):
    # the cap only leaves out pairs: every kept value, float or exact,
    # and the order of the kept words are those of the uncut product
    if name == "tensor":
        words = words_up_to(Y, 4)
        pairs = [(u, v) for u in words for v in words[:6]]
        A, B = (data.draw(_terms(pairs, k)) for k in (ka, kb))
        got = _tensor_mul(A, B, stuffle_words, cap, sum)
        want = {k: c for k, c in _tensor_mul(A, B, stuffle_words, math.inf,
                                             sum).items() if sum(k[0]) <= cap}
    else:
        product, alphabet, _ = _PRODUCTS[name]
        words = words_up_to(alphabet, 4)
        a, b = (data.draw(_terms(words, k)) for k in (ka, kb))
        P, Q = NCPoly(alphabet, a), NCPoly(alphabet, b)
        capped = product(P.truncate(cap), Q.truncate(cap))
        assert capped.depth == cap
        got, want = capped.terms, product(P, Q).truncate(cap).terms
    assert got == want
    assert list(got) == list(want)


@pytest.mark.parametrize("power", [shuffle_power, stuffle_power])
@pytest.mark.parametrize("one, depth", [(Fraction(1), None), (1.0, 4)])
def test_powers_zero_and_one(power, one, depth):
    P = NCPoly(Y, {(1,): one / 3, (2, 1): -2 * one}, depth)
    unit = power(P, 0)
    assert unit.terms == {(): one} and type(unit.terms[()]) is type(one)
    assert unit.depth == depth and unit.alphabet == Y
    assert power(P, 1) == P and power(P, 1).depth == depth
    assert power(P, 2) == (shuffle if power is shuffle_power else stuffle)(P, P)


@pytest.mark.parametrize("one", [Fraction(1), 1.0])
def test_series_exp_and_inverse_at_depths_zero_and_one(one):
    p = {(0,): 3 * one, (0, 1): one}
    assert series_exp(NCPoly(X, p, 0)).terms == {(): 1}
    exp1 = series_exp(NCPoly(X, p, 1))
    assert exp1.terms == {(): one, (0,): 3 * one} and exp1.depth == 1
    assert all(type(c) is type(one) for c in exp1.terms.values())
    s = {(): 2 * one, (1,): one, (0, 0): one}
    inv0 = NCPoly(X, s, 0).inverse()
    assert inv0.terms == {(): one / 2} and inv0.depth == 0
    inv1 = NCPoly(X, s, 1).inverse()  # 1/(2 + x1) = 1/2 - x1/4 + ...
    assert inv1.terms == {(): one / 2, (1,): -one / 4} and inv1.depth == 1
    assert all(type(c) is type(one)
               for c in [*inv0.terms.values(), *inv1.terms.values()])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(coproduct_shuffle, shuffle_words, X),
                         (coproduct_shuffle, shuffle_words, Y),
                         (coproduct_stuffle, stuffle_words, Y)]),
       _KINDS, st.data())
def test_coproducts_equal_the_term_by_term_loop(maps, kind, data):
    coproduct, word_product, alphabet = maps
    words = words_up_to(alphabet, 3)
    P = NCPoly(alphabet, data.draw(_terms(words, kind)))
    # <Delta(P) | u (x) v> = <P | u * v>, summed word by word
    want = {}
    for w, c in P.terms.items():
        for u in words:
            for v in words:
                m = word_product(u, v).get(w, 0)
                if m:
                    want[(u, v)] = want.get((u, v), 0) + c * m
    _same(coproduct(P), {k: c for k, c in want.items() if c}, (kind,))


# -- sums of series and the refusals of inverse and series_exp ----------

def test_sum_of_series_is_cut_at_the_smaller_depth():
    P = NCPoly(X, {(): 1, (0,): 2, (0, 1): 3, (1, 1, 0): 4}, 3)
    Q = NCPoly(X, {(1,): 5, (0, 1): -3, (1, 0, 1): 6}, None)
    R = NCPoly(X, {(1,): 1, (0, 0): 7}, 1)
    assert (P + R).depth == (R + P).depth == 1
    assert (P + R).terms == {(): 1, (0,): 2, (1,): 1}
    assert (P + Q).depth == 3
    assert (P + Q).terms == {(): 1, (0,): 2, (1,): 5, (1, 1, 0): 4,
                             (1, 0, 1): 6}
    assert (Q + R).terms == {(1,): 6}


def test_inverse_and_series_exp_refusals():
    with pytest.raises(ZeroDivisionError, match="no constant term"):
        NCPoly(X, {(0,): 1}, 3).inverse()
    with pytest.raises(ValueError, match="truncated"):
        NCPoly(X, {(): 1, (0,): 1}).inverse()
    with pytest.raises(ValueError, match="zero constant term"):
        series_exp(NCPoly(X, {(): 1, (0,): 1}, 3))
    with pytest.raises(ValueError, match="truncated"):
        series_exp(NCPoly(X, {(0,): 1}))
