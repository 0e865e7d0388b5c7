"""Lyndon PBW bases and their duals for the shuffle and quasi-shuffle algebras.

Shuffle side (alphabet X, also works verbatim over Y):
    P_x = x,  P_l = [P_s, P_r] for Lyndon l with standard factorization (s, r),
    P_w = P_{l1}^{i1} ... P_{lk}^{ik} along the non-increasing Lyndon
    factorization of w.  The dual family S is computed by
    S_l = x S_u for Lyndon l = xu,  S_w = sh-powers of the S_{li} divided
    by i1!...ik!, and satisfies <S_u | P_v> = delta_{u,v}.

Quasi-shuffle side (alphabet Y): same bracketing with the primitive
projector pi1 applied to letters, Pi_y = pi1(y).  The dual family Sigma
is pinned by <Pi_u | Sigma_v> = delta_{u,v}; since Pi_w = w + (strictly
larger words of the same weight), every word peels (ncpoly.peel) into
the Pi basis, and <w | Sigma_v> is the Pi_v coordinate of the word w.
For non-Lyndon words Sigma also satisfies the stuffle-power product
formula, which the tests check against the peeled block.

pi1 is the convolution logarithm of the identity restricted to the
augmentation ideal: pi1(w) = sum_{k>=1} ((-1)^(k-1)/k) conc o reduced
Delta_st^(k-1) (w).  Its image spans the primitives of the
quasi-shuffle Hopf algebra.

Caches: P and Pi (`_pbw`, keyed by word and alphabet), S (`_dual_s`),
pi1 on words (`_pi1_word`) and the Sigma block of each weight
(`_sigma_block`) are `functools.cache`s, so `_pbw.cache_info()` and so on
report hits, misses and size.  The public names call them with tuple(w).
"""

import functools
from fractions import Fraction
from math import factorial

from .ncpoly import (
    NCPoly, _bilinear, _linear, _word_coproduct, conc, peel, shuffle,
    shuffle_words, shuffle_power, stuffle, stuffle_words, stuffle_power,
    words_up_to,
)
from .words import (
    X, Y, _compositions, _grading, cfl_factors, is_lyndon, lyndon_decompose,
    lyndon_words, standard_factorization, word_key,
)


def _bracket(a, b):
    """ab - ba in one pass over the pairs of words; uv = vu cancels."""
    return NCPoly._new(a.alphabet, _bilinear(
        a.terms, b.terms, lambda u, v: ((u + v, 1), (v + u, -1))), None)


@functools.cache
def _pbw(w, alphabet):
    """P_w over X, Pi_w over Y: letters (pi1 of the letter over Y), brackets
    along the standard factorization, powers along the Lyndon factorization."""
    if len(w) == 1:
        return NCPoly.word(w, X) if alphabet == X else _pi1_word(w)
    if is_lyndon(w, alphabet):
        s, r = standard_factorization(w, alphabet)
        return _bracket(_pbw(s, alphabet), _pbw(r, alphabet))
    out = NCPoly.one(alphabet)
    for l in cfl_factors(w, alphabet):
        out = conc(out, _pbw(l, alphabet))
    return out


def pbw_p(w):
    """PBW basis element P_w over X (exact NCPoly)."""
    return _pbw(tuple(w), X)


@functools.cache
def _dual_s(w):
    """S_w.  A Lyndon w = xu gives x S_u: the loop walks the Lyndon suffixes
    and the first suffix that is not Lyndon (or empty) is the one recursion,
    so a miss does not recurse once per letter."""
    k = 0
    while k < len(w) and is_lyndon(w[k:]):
        k += 1
    if k:
        return conc(NCPoly.word(w[:k], X), _dual_s(w[k:]))
    out = NCPoly.one(X)
    for l, mult in lyndon_decompose(w):
        out = shuffle(out, shuffle_power(_dual_s(l), mult))
        out = out.scale(Fraction(1, factorial(mult)))
    return out


def dual_s(w):
    """Dual PBW basis element S_w over X: <S_u | P_v> = delta_{u,v}."""
    return _dual_s(tuple(w))


# ---------------------------------------------------------------------------
# quasi-shuffle side

def _reduced_stuffle_coproduct(u):
    """Reduced Delta_st of a word: both tensor components nonempty."""
    return {(a, b): c for (a, b), c in _word_coproduct(u, Y, True).items()
            if a and b}


@functools.cache
def _pi1_word(w):
    terms = {}
    # tensors: map (u1, ..., uk) -> coefficient <w | u1 st ... st uk>,
    # nonempty components; start at k=1 and split the last component.
    layer = {(w,): Fraction(1)}
    k = 1
    while layer:
        sign = Fraction((-1) ** (k - 1), k)
        for parts, c in layer.items():
            key = tuple(a for u in parts for a in u)
            terms[key] = terms.get(key, Fraction(0)) + sign * c
        layer = _linear(layer, lambda parts: {
            parts[:-1] + ab: m
            for ab, m in _reduced_stuffle_coproduct(parts[-1]).items()})
        k += 1
    return NCPoly(Y, terms)


def pi1_word(w):
    """Primitive projector pi1 on a single Y-word, as an NCPoly."""
    return _pi1_word(tuple(w))


def pi1(P):
    """Linear extension of pi1 to polynomials over Y (kills the empty word)."""
    return NCPoly._new(Y, _linear({u: c for u, c in P.terms.items() if u},
                                  lambda u: pi1_word(u).terms), None)


def pbw_pi(w):
    """Quasi-shuffle PBW element Pi_w (pi1 at letters, brackets on Lyndon words)."""
    return _pbw(tuple(w), Y)


@functools.cache
def _sigma_block(n):
    """Map word -> Sigma_w expansion for all Y-words of weight n."""
    ws = sorted(_compositions(n), key=lambda w: word_key(w, Y))
    # w = sum_v <w | Sigma_v> Pi_v; the sorted order fixes the term order
    cols = {v: {} for v in ws}
    for w in ws:
        for v, c in decompose_in_basis(NCPoly.word(w, Y), "Pi").items():
            cols[v][w] = c
    return {v: NCPoly(Y, col) for v, col in cols.items()}


def dual_sigma(w):
    """Dual quasi-shuffle basis element Sigma_w: <Pi_u | Sigma_v> = delta_{u,v}."""
    w = tuple(w)
    if not w:
        return NCPoly.one(Y)
    return _sigma_block(sum(w))[w]


def sigma_by_products(w):
    """Sigma_w from the stuffle-power product formula (needs the Lyndon Sigmas)."""
    out = NCPoly.one(Y)
    for l, mult in lyndon_decompose(w, Y):
        out = stuffle(out, stuffle_power(dual_sigma(l), mult))
        out = out.scale(Fraction(1, factorial(mult)))
    return out


# ---------------------------------------------------------------------------
# coordinates in a basis

_BASIS_FN = {"S": dual_s, "P": pbw_p, "Sigma": dual_sigma, "Pi": pbw_pi}


def decompose_in_basis(P, kind):
    """Exact coordinates of P in one of the bases: kind in {"S","P","Sigma","Pi"}.

    Triangular peeling (ncpoly.peel): S/Sigma have strictly smaller
    tails, P/Pi strictly larger tails, so picking the extreme remaining
    word and subtracting its basis element terminates.
    """
    basis = _BASIS_FN[kind]
    alphabet = P.alphabet
    coords, _ = peel(P.terms, lambda w: basis(w).terms,
                     min if kind in ("P", "Pi") else max,
                     lambda w: word_key(w, alphabet))
    return coords


def recompose_from_basis(coords, kind, alphabet=None):
    basis = _BASIS_FN[kind]
    alphabet = alphabet or (X if kind in ("S", "P") else Y)
    return NCPoly._new(alphabet, _linear(coords, lambda w: basis(w).terms), None)


# ---------------------------------------------------------------------------
# Schuetzenberger factorization of the diagonal series, truncated

def _tensor_mul(A, B, first_product, depth, degree):
    """(u1 (x) v1)(u2 (x) v2) = (u1 * u2) (x) v1 v2, bilinear, cut at depth
    on the degree of the first components."""
    def product(a, b):
        v = a[1] + b[1]
        return [((u, v), m) for u, m in first_product(a[0], b[0]).items()]

    return _bilinear(A, B, product, lambda k: degree(k[0]), depth)


def diagonal_factorization_check(alphabet, depth):
    """Exact check: sum_w S_w (x) P_w equals the ordered product of
    exp(S_l (x) P_l) over Lyndon words, truncated at the given degree."""
    if alphabet == X:
        lynd = lyndon_words(X, max_length=depth)
        dual, pbw, first_product = dual_s, pbw_p, shuffle_words
    else:
        lynd = lyndon_words(Y, max_weight=depth)
        dual, pbw, first_product = dual_sigma, pbw_pi, stuffle_words
    degree = _grading(alphabet)

    def tensor(coords):  # sum <S_w | u> u (x) P_w over the keys (w, u)
        return _linear(coords, lambda wu: {
            (wu[1], v): c for v, c in pbw(wu[0]).terms.items()})

    lhs = tensor({(w, u): c for w in words_up_to(alphabet, depth)
                  for u, c in dual(w).terms.items()})
    rhs = {((), ()): Fraction(1)}
    for l in reversed(lynd):  # decreasing Lyndon order, left to right
        base = tensor({(l, u): c for u, c in dual(l).terms.items()})
        powers = [{((), ()): 1}]  # exp = sum_k base^k / k!, in one pass
        while len(powers) * degree(l) <= depth and powers[-1]:
            powers.append(_tensor_mul(powers[-1], base, first_product, depth,
                                      degree))
        factor = _linear({k: Fraction(1, factorial(k))
                          for k in range(len(powers))}, powers.__getitem__)
        rhs = _tensor_mul(rhs, factor, first_product, depth, degree)

    return lhs == rhs
