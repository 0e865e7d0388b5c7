"""Linear representations of noncommutative series and Hankel rank.

A series S over an alphabet is rational when its coefficients factor
through matrices: <S|w> = lambda mu(w1) mu(w2) ... mu(wk) eta, with the
first letter of w applied first.  Everything is exact (Fractions).
"""

from fractions import Fraction
from math import factorial

from ncgen.ncpoly import NCPoly, coproduct_shuffle, words_up_to
from ncgen.words import X, str_to_word, word_to_str

_ZERO = Fraction(0)


def _mat_vec(m, v):
    return tuple(sum((row[j] * v[j] for j in range(len(v))), _ZERO)
                 for row in m)


def _vec_mat(v, m):
    n = len(m)
    return tuple(sum((v[i] * m[i][j] for i in range(n)), _ZERO)
                 for j in range(len(m[0])))


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), _ZERO)


class LinearRepresentation:
    """(lambda, mu, eta) with exact rational entries.

    mu maps each letter to an n x n matrix; coefficient(w) multiplies
    the matrices in reading order between the row vector lambda and the
    column vector eta.
    """

    __slots__ = ("alphabet", "n", "lam", "mu", "eta")

    def __init__(self, alphabet, lam, mu, eta):
        self.alphabet = alphabet
        self.n = len(eta)
        self.lam = tuple(Fraction(c) for c in lam)
        self.eta = tuple(Fraction(c) for c in eta)
        self.mu = {}
        for letter, mat in mu.items():
            self.mu[letter] = tuple(tuple(Fraction(c) for c in row)
                                    for row in mat)
            if len(self.mu[letter]) != self.n or any(
                    len(row) != self.n for row in self.mu[letter]):
                raise ValueError("matrix for letter %r is not %d x %d"
                                 % (letter, self.n, self.n))
        if len(self.lam) != self.n:
            raise ValueError("lambda has wrong length")

    def coefficient(self, w):
        row = self.lam
        for a in w:
            row = _vec_mat(row, self.mu[a])
        return _dot(row, self.eta)

    def truncated_series(self, depth):
        t = {w: self.coefficient(w) for w in words_up_to(self.alphabet, depth)}
        return NCPoly(self.alphabet, t)

    def residual(self, p, side):
        """Representation of the residual of the series by a polynomial.

        side="right": series w -> <S|p w>  (lambda moves);
        side="left":  series w -> <S|w p>  (eta moves).
        """
        if side == "right":
            lam = (_ZERO,) * self.n
            for u, c in p.terms.items():
                row = self.lam
                for a in u:
                    row = _vec_mat(row, self.mu[a])
                lam = tuple(x + c * y for x, y in zip(lam, row))
            return LinearRepresentation(self.alphabet, lam, self.mu, self.eta)
        if side == "left":
            eta = (_ZERO,) * self.n
            for u, c in p.terms.items():
                col = self.eta
                for a in reversed(u):
                    col = _mat_vec(self.mu[a], col)
                eta = tuple(x + c * y for x, y in zip(eta, col))
            return LinearRepresentation(self.alphabet, self.lam, self.mu, eta)
        raise ValueError("side must be 'left' or 'right'")

    def to_json_dict(self):
        return {
            "n": self.n,
            "alphabet": self.alphabet,
            "lambda": [str(c) for c in self.lam],
            "mu": {word_to_str((a,), self.alphabet):
                   [[str(c) for c in row] for row in mat]
                   for a, mat in sorted(self.mu.items())},
            "eta": [str(c) for c in self.eta],
        }

    @classmethod
    def from_json_dict(cls, d):
        alphabet = d.get("alphabet", X)
        mu = {}
        for key, mat in d["mu"].items():
            (letter,), _ = str_to_word(key)
            mu[letter] = [[Fraction(c) for c in row] for row in mat]
        return cls(alphabet,
                   [Fraction(c) for c in d["lambda"]],
                   mu,
                   [Fraction(c) for c in d["eta"]])

    def __repr__(self):
        return "LinearRepresentation(%s, n=%d)" % (self.alphabet, self.n)


# ---------------------------------------------------------------------------
# stock representations

def rep_all_ones(alphabet=X, letters=(0, 1)):
    """<S|w> = 1 for every word: the character series of the free monoid."""
    return LinearRepresentation(
        alphabet, [1], {a: [[1]] for a in letters}, [1])


def rep_single_word(w, alphabet=X, letters=(0, 1)):
    """<S|v> = 1 if v == w else 0, on a chain of |w|+1 states."""
    n = len(w) + 1
    mu = {}
    for a in letters:
        mat = [[_ZERO] * n for _ in range(n)]
        for i, b in enumerate(w):
            if b == a:
                mat[i][i + 1] = Fraction(1)
        mu[a] = mat
    lam = [Fraction(1)] + [_ZERO] * (n - 1)
    eta = [_ZERO] * (n - 1) + [Fraction(1)]
    return LinearRepresentation(alphabet, lam, mu, eta)


def rep_hypergeometric(t0, t1, t2, q0=(1, 0)):
    """Representation attached to the Gauss ODE written in the two
    singular forms dz/z and dz/(1-z); observation is the first state."""
    t0, t1, t2 = Fraction(t0), Fraction(t1), Fraction(t2)
    m0 = [[0, 0], [-t0 * t1, -t2]]
    m1 = [[0, -1], [0, t0 + t1 - t2]]
    return LinearRepresentation(X, [1, 0], {0: m0, 1: m1}, list(q0))


# ---------------------------------------------------------------------------
# Hankel rank

def hankel_rank(coefficient, alphabet=X, depth=3):
    """Rank of the Hankel section on words of length/weight <= depth.

    coefficient: word -> Fraction (or a LinearRepresentation).  Exact
    Gaussian elimination over Q.
    """
    if isinstance(coefficient, LinearRepresentation):
        rep = coefficient
        alphabet = rep.alphabet
        coefficient = rep.coefficient
    ws = words_up_to(alphabet, depth)
    rows = [[Fraction(coefficient(u + v)) for v in ws] for u in ws]
    rank = 0
    ncols = len(ws)
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        rows[rank] = [c * inv for c in pr]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# growth of coefficients

def growth_condition_check(coefficient, alphabet=X, depth=6, K=None, C=None):
    """Check or estimate |<S|w>| <= C K^|w| |w|! up to a length.

    With K and C given, verifies the bound and reports the first
    violation; otherwise returns heuristic minimal constants from the
    sampled lengths (an estimate, not a certificate).
    """
    if isinstance(coefficient, LinearRepresentation):
        rep = coefficient
        alphabet = rep.alphabet
        coefficient = rep.coefficient
    by_length = {}
    for w in words_up_to(alphabet, depth):
        L = len(w)
        val = abs(Fraction(coefficient(w)))
        by_length[L] = max(by_length.get(L, _ZERO), val)
    if K is not None and C is not None:
        K, C = Fraction(K), Fraction(C)
        for L, val in sorted(by_length.items()):
            if val > C * K ** L * factorial(L):
                return {"pass": False, "first_violation_length": L,
                        "max_at_length": val}
        return {"pass": True}
    k_seq = {}
    for L, val in sorted(by_length.items()):
        if L == 0 or val == 0:
            continue
        k_seq[L] = float(val / factorial(L)) ** (1.0 / L)
    k_est = max(k_seq.values(), default=0.0)
    c_est = max((float(val) / (max(k_est, 1e-30) ** L * factorial(L))
                 for L, val in by_length.items()), default=0.0)
    return {"K": k_est, "C": c_est, "k_by_length": k_seq,
            "heuristic": True}


# ---------------------------------------------------------------------------
# coefficient-level shuffle of two series

def shuffle_coefficient(coeff_a, coeff_b, w):
    """<A shuffle B | w> = sum of <Delta_sh(w)|u(x)v> <A|u><B|v>."""
    total = _ZERO
    for (u, v), m in coproduct_shuffle(NCPoly.word(w)).items():
        total += m * Fraction(coeff_a(u)) * Fraction(coeff_b(v))
    return total
