"""Lyndon PBW bases and their duals for the shuffle and quasi-shuffle algebras.

Shuffle side (alphabet X, also works verbatim over Y):
    P_x = x,  P_l = [P_s, P_r] for Lyndon l with standard factorization (s, r),
    P_w = P_{l1}^{i1} ... P_{lk}^{ik} along the non-increasing Lyndon
    factorization of w.  The dual family S is computed by
    S_l = x S_u for Lyndon l = xu,  S_w = sh-powers of the S_{li} divided
    by i1!...ik!, and satisfies <S_u | P_v> = delta_{u,v}.

Quasi-shuffle side (alphabet Y): same bracketing with the primitive
projector pi1 applied to letters, Pi_y = pi1(y).  The dual family is
Sigma_w = exp(S_w), S_w the shuffle dual over Y and exp Hoffman's
isomorphism from the shuffle to the quasi-shuffle algebra (blocks of j
consecutive letters contracted, weight 1/j!): the transpose of its
inverse is the conc-morphism y -> pi1(y), which maps P_w over Y to Pi_w,
so <Pi_u | Sigma_v> = delta_{u,v} with no elimination.  For non-Lyndon
words Sigma also satisfies the stuffle-power product formula.

pi1 is the convolution logarithm of the identity restricted to the
augmentation ideal: pi1(w) = sum_{k>=1} ((-1)^(k-1)/k) conc o reduced
Delta_st^(k-1) (w).  Its image spans the primitives of the
quasi-shuffle Hopf algebra.

Caches: P and Pi (`_pbw`) and the shuffle duals S (`_dual_s`), each keyed
by word and alphabet, pi1 (`_pi1_word`), exp (`_exp`) and Sigma
(`_dual_sigma`) on words, and the coordinates of one word in one basis
(`_word_coordinates`, keyed by word, basis and alphabet) are
`functools.cache`s, so `_pbw.cache_info()` and so on report hits, misses
and size.  The public names call them with tuple(w).  basis_pair picks
the (P, S) pair of an alphabet.
"""

import functools
from fractions import Fraction
from itertools import accumulate
from math import factorial, prod

from .ncpoly import (
    NCPoly, _bilinear, _linear, _power, _product, _word_coproduct, conc, peel,
    shuffle_words, stuffle_words, words_up_to,
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
    if not w:
        return NCPoly.one(alphabet)
    if len(w) == 1:
        return NCPoly.word(w, X) if alphabet == X else _pi1_word(w)
    if is_lyndon(w, alphabet):
        s, r = standard_factorization(w, alphabet)
        return _bracket(_pbw(s, alphabet), _pbw(r, alphabet))
    return functools.reduce(conc, (_pbw(l, alphabet)
                                   for l in cfl_factors(w, alphabet)))


def pbw_p(w):
    """PBW basis element P_w over X (exact NCPoly)."""
    return _pbw(tuple(w), X)


@functools.cache
def _dual_s(w, alphabet):
    """S_w over X, and over Y the shuffle dual whose image under Hoffman's
    exp is Sigma_w.  A Lyndon w = au gives a S_u: the loop walks the Lyndon
    suffixes and the first suffix that is not Lyndon (or empty) is the one
    recursion, so a miss does not recurse once per letter."""
    k = 0
    while k < len(w) and is_lyndon(w[k:], alphabet):
        k += 1
    if k:
        return _dual_s(w[k:], alphabet).map_words(lambda v: w[:k] + v)
    return _powers_over_factorials(w, alphabet,
                                   lambda l: _dual_s(l, alphabet), False)


def _powers_over_factorials(w, alphabet, dual, quasi):
    """The product of dual(l)^i / i! over the Lyndon factorization
    l1^i1 ... lk^ik of w, for the shuffle or, quasi, the stuffle; folded
    from the first factor (1 for the empty word)."""
    out = None
    for l, mult in lyndon_decompose(w, alphabet):
        power = _power(dual(l), mult, quasi)
        out = power if out is None else _product(out, power, quasi)
        if mult > 1:
            out = out.scale(Fraction(1, factorial(mult)))
    return NCPoly.one(alphabet) if out is None else out


def dual_s(w):
    """Dual PBW basis element S_w over X: <S_u | P_v> = delta_{u,v}."""
    return _dual_s(tuple(w), X)


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
def _exp(w):
    """Hoffman's exp on a Y-word: over the compositions (j1, ..., jm) of |w|,
    each block of j consecutive letters contracted into one letter (the sum
    of the block), weighted 1/(j1! ... jm!).  Letters >= 1 make the
    contracted words distinct: their prefix sums are the cut points."""
    out = {}
    for js in _compositions(len(w)):
        cuts = list(accumulate(js, initial=0))
        out[tuple(sum(w[a:b]) for a, b in zip(cuts, cuts[1:]))] = Fraction(
            1, prod(map(factorial, js)))
    return out


@functools.cache
def _dual_sigma(w):
    return NCPoly._new(Y, _linear(_dual_s(w, Y).terms, _exp), None)


def dual_sigma(w):
    """Dual quasi-shuffle basis element Sigma_w = exp(S_w), S_w over Y:
    <Pi_u | Sigma_v> = delta_{u,v}."""
    w = tuple(w)
    if any(a < 1 for a in w):
        raise ValueError("Sigma acts on Y-words (letters y_k, k >= 1)")
    return _dual_sigma(w)


def sigma_by_products(w):
    """Sigma_w from the stuffle-power product formula (needs the Lyndon Sigmas)."""
    return _powers_over_factorials(w, Y, dual_sigma, True)


def basis_pair(alphabet):
    """(P, S) over X, (Pi, Sigma) over Y: the PBW basis of an alphabet and
    its dual, looked up when called, so a replaced module name is seen."""
    return (pbw_p, dual_s) if alphabet == X else (pbw_pi, dual_sigma)


# ---------------------------------------------------------------------------
# coordinates in a basis

_BASIS_FN = {"S": dual_s, "P": pbw_p, "Sigma": dual_sigma, "Pi": pbw_pi}


@functools.cache
def _word_coordinates(u, kind, alphabet):
    """The coordinates of the word u in a basis, by triangular peeling
    (ncpoly.peel): S/Sigma have strictly smaller tails, P/Pi strictly
    larger tails, so picking the extreme remaining word and subtracting
    its basis element terminates."""
    basis = _BASIS_FN[kind]
    coords, _ = peel({u: 1}, lambda w: basis(w).terms,
                     min if kind in ("P", "Pi") else max,
                     lambda w: word_key(w, alphabet))
    return coords


def decompose_in_basis(P, kind):
    """Coordinates of P in one of the bases: kind in {"S","P","Sigma","Pi"}.

    The decomposition is linear, so it is the sum over the words u of P
    of <P|u> times the coordinates of u, each word peeled once per
    process (`_word_coordinates`).  Exact P gives exact coordinates;
    float P gives floats, each one sum over the words of P (so its
    rounding may differ from that of a peel of the whole of P).
    """
    return _linear(P.terms,
                   lambda u: _word_coordinates(u, kind, P.alphabet))


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
    pbw, dual = basis_pair(alphabet)
    first_product = shuffle_words if alphabet == X else stuffle_words
    lynd = lyndon_words(alphabet, max_length=depth, max_weight=depth)
    degree = _grading(alphabet)

    def tensor(coords):  # sum <S_w | u> u (x) P_w over the keys (w, u)
        return _linear(coords, lambda wu: {
            (wu[1], v): c for v, c in pbw(wu[0]).terms.items()})

    lhs = tensor({(w, u): c for w in words_up_to(alphabet, depth)
                  for u, c in dual(w).terms.items()})
    rhs = {((), ()): Fraction(1)}  # at depth 0, where there is no factor
    for i, l in enumerate(reversed(lynd)):  # decreasing Lyndon order
        base = tensor({(l, u): c for u, c in dual(l).terms.items()})
        powers = [base]  # base^(k+1) at k: exp = 1 + sum_k base^k / k!
        while (len(powers) + 1) * degree(l) <= depth and powers[-1]:
            powers.append(_tensor_mul(powers[-1], base, first_product, depth,
                                      degree))
        factor = {((), ()): Fraction(1), **_linear(
            {k: Fraction(1, factorial(k + 1)) for k in range(len(powers))},
            powers.__getitem__)}
        rhs = factor if i == 0 else _tensor_mul(rhs, factor, first_product,
                                                depth, degree)

    return lhs == rhs
