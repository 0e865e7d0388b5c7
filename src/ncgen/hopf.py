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
larger words of the same weight), the weight-graded coefficient matrix
is unitriangular and Sigma is obtained by exact inversion per weight
block.  For non-Lyndon words Sigma also satisfies the stuffle-power
product formula, which the tests check against the inversion.

pi1 is the convolution logarithm of the identity restricted to the
augmentation ideal: pi1(w) = sum_{k>=1} ((-1)^(k-1)/k) conc o reduced
Delta_st^(k-1) (w).  Its image spans the primitives of the
quasi-shuffle Hopf algebra.
"""

from fractions import Fraction
from math import factorial

from .ncpoly import (
    NCPoly, _word_coproduct, conc, shuffle, shuffle_words, shuffle_power,
    stuffle, stuffle_words, stuffle_power, words_up_to,
)
from .words import (
    X, Y, is_lyndon, lyndon_decompose, lyndon_words, standard_factorization,
    weight, word_key,
)

_pbw_p_memo = {}
_dual_s_memo = {}
_pi1_memo = {}
_pbw_pi_memo = {}
_sigma_block_memo = {}


def _bracket(a, b):
    return conc(a, b) - conc(b, a)


def pbw_p(w):
    """PBW basis element P_w over X (exact NCPoly)."""
    w = tuple(w)
    got = _pbw_p_memo.get(w)
    if got is None:
        got = _pbw_generic(w, X, lambda a: NCPoly.word((a,), X), pbw_p)
        _pbw_p_memo[w] = got
    return got


def _pbw_generic(w, alphabet, letter_poly, self_fn):
    if not w:
        return NCPoly.one(alphabet)
    if len(w) == 1:
        return letter_poly(w[0])
    if is_lyndon(w, alphabet):
        s, r = standard_factorization(w, alphabet)
        return _bracket(self_fn(s), self_fn(r))
    out = NCPoly.one(alphabet)
    for l, mult in lyndon_decompose(w, alphabet):
        base = self_fn(l)
        for _ in range(mult):
            out = conc(out, base)
    return out


def dual_s(w):
    """Dual PBW basis element S_w over X: <S_u | P_v> = delta_{u,v}."""
    w = tuple(w)
    got = _dual_s_memo.get(w)
    if got is not None:
        return got
    if not w:
        out = NCPoly.one(X)
    elif is_lyndon(w):
        out = conc(NCPoly.word((w[0],), X), dual_s(w[1:]))
    else:
        out = NCPoly.one(X)
        for l, mult in lyndon_decompose(w):
            out = shuffle(out, shuffle_power(dual_s(l), mult))
            out = out.scale(Fraction(1, factorial(mult)))
    _dual_s_memo[w] = out
    return out


# ---------------------------------------------------------------------------
# quasi-shuffle side

def _reduced_stuffle_coproduct(u):
    """Reduced Delta_st of a word: both tensor components nonempty."""
    out = {}
    for (a, b), c in _word_coproduct(u, Y, quasi=True).items():
        if a and b:
            out[(a, b)] = out.get((a, b), Fraction(0)) + c
    return out


def pi1_word(w):
    """Primitive projector pi1 on a single Y-word, as an NCPoly."""
    w = tuple(w)
    got = _pi1_memo.get(w)
    if got is not None:
        return got
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
        nxt = {}
        for parts, c in layer.items():
            head, last = parts[:-1], parts[-1]
            for (a, b), m in _reduced_stuffle_coproduct(last).items():
                key = head + (a, b)
                nxt[key] = nxt.get(key, Fraction(0)) + c * m
        layer = nxt
        k += 1
    out = NCPoly(Y, terms)
    _pi1_memo[w] = out
    return out


def pi1(P):
    """Linear extension of pi1 to polynomials over Y (kills the empty word)."""
    out = NCPoly(Y)
    for u, c in P.terms.items():
        if u:
            out = out + pi1_word(u).scale(c)
    return out


def pbw_pi(w):
    """Quasi-shuffle PBW element Pi_w (pi1 at letters, brackets on Lyndon words)."""
    w = tuple(w)
    got = _pbw_pi_memo.get(w)
    if got is None:
        got = _pbw_generic(w, Y, lambda a: pi1_word((a,)), pbw_pi)
        _pbw_pi_memo[w] = got
    return got


def _pairing(P, Q):
    if len(P.terms) > len(Q.terms):
        P, Q = Q, P
    return sum((c * Q.terms[u] for u, c in P.terms.items() if u in Q.terms),
               Fraction(0))


def _sigma_block(n):
    """Map word -> Sigma_w expansion for all Y-words of weight n."""
    got = _sigma_block_memo.get(n)
    if got is not None:
        return got
    ws = sorted((w for w in words_up_to(Y, n) if sum(w) == n),
                key=lambda w: word_key(w, Y))
    m = len(ws)
    # rows: M[i][j] = <Pi_{ws[i]} | ws[j]>, unitriangular in this order
    M = [[pbw_pi(u).coeff(v) for v in ws] for u in ws]
    inv = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for col in range(m):
        piv = M[col][col]
        assert piv == 1, "Pi triangularity violated"
        for row in range(m):
            if row != col and M[row][col]:
                f = M[row][col]
                for j in range(m):
                    M[row][j] -= f * M[col][j]
                    inv[row][j] -= f * inv[col][j]
    # Sigma_{ws[j]} = sum_i inv[i][j] ws[i]  (transpose of the inverse)
    block = {}
    for j, w in enumerate(ws):
        block[w] = NCPoly(Y, {ws[i]: inv[i][j] for i in range(m)})
    _sigma_block_memo[n] = block
    return block


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

_BASIS_FN = {}


def decompose_in_basis(P, kind):
    """Exact coordinates of P in one of the bases: kind in {"S","P","Sigma","Pi"}.

    Uses triangular peeling: S/Sigma have strictly smaller tails, P/Pi
    strictly larger tails, so picking the extreme remaining word and
    subtracting its basis element terminates.
    """
    if not _BASIS_FN:
        _BASIS_FN.update({"S": dual_s, "P": pbw_p,
                          "Sigma": dual_sigma, "Pi": pbw_pi})
    basis = _BASIS_FN[kind]
    alphabet = P.alphabet
    pick_min = kind in ("P", "Pi")
    rem = NCPoly(alphabet, dict(P.terms))
    coords = {}
    while rem.terms:
        extreme = (min if pick_min else max)(
            rem.terms, key=lambda w: word_key(w, alphabet))
        c = rem.terms[extreme]
        coords[extreme] = coords.get(extreme, Fraction(0)) + c
        rem = rem - basis(extreme).scale(c)
    return {w: c for w, c in coords.items() if c}


def recompose_from_basis(coords, kind, alphabet=None):
    if not _BASIS_FN:
        decompose_in_basis(NCPoly.zero(), "S")
    basis = _BASIS_FN[kind]
    alphabet = alphabet or (X if kind in ("S", "P") else Y)
    out = NCPoly(alphabet)
    for w, c in coords.items():
        out = out + basis(w).scale(c)
    return out


# ---------------------------------------------------------------------------
# Schuetzenberger factorization of the diagonal series, truncated

def _tensor_mul(A, B, first_product, depth, degree):
    out = {}
    for (u1, v1), c1 in A.items():
        for (u2, v2), c2 in B.items():
            if degree(u1) + degree(u2) > depth:
                continue
            c = c1 * c2
            v = v1 + v2
            for u, m in first_product(u1, u2).items():
                key = (u, v)
                out[key] = out.get(key, Fraction(0)) + c * m
                if not out[key]:
                    del out[key]
    return out


def diagonal_factorization_check(alphabet, depth):
    """Exact check: sum_w S_w (x) P_w equals the ordered product of
    exp(S_l (x) P_l) over Lyndon words, truncated at the given degree."""
    if alphabet == X:
        lynd = lyndon_words(X, max_length=depth)
        dual, pbw, first_product = dual_s, pbw_p, shuffle_words
        degree = len
    else:
        lynd = lyndon_words(Y, max_weight=depth)
        dual, pbw, first_product = dual_sigma, pbw_pi, stuffle_words
        degree = sum

    lhs = {}
    for w in words_up_to(alphabet, depth):
        for u, cu in dual(w).terms.items():
            for v, cv in pbw(w).terms.items():
                key = (u, v)
                lhs[key] = lhs.get(key, Fraction(0)) + cu * cv
                if not lhs[key]:
                    del lhs[key]

    rhs = {((), ()): Fraction(1)}
    for l in reversed(lynd):  # decreasing Lyndon order, left to right
        base = {}
        for u, cu in dual(l).terms.items():
            for v, cv in pbw(l).terms.items():
                base[(u, v)] = cu * cv
        factor = {((), ()): Fraction(1)}
        power = {((), ()): Fraction(1)}
        k = 1
        while k * degree(l) <= depth:
            power = _tensor_mul(power, base, first_product, depth, degree)
            if not power:
                break
            for key, c in power.items():
                c = c / factorial(k)
                factor[key] = factor.get(key, Fraction(0)) + c
            k += 1
        rhs = _tensor_mul(rhs, factor, first_product, depth, degree)

    return lhs == rhs
