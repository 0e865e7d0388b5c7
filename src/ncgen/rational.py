"""Linear representations of noncommutative series and Hankel rank.

A series S over an alphabet is rational when its coefficients factor
through matrices: <S|w> = lambda mu(w1) mu(w2) ... mu(wk) eta, with the
first letter of w applied first.  Everything is exact (Fractions), and
every coefficient comes from one prefix sweep: the integer rows
lambda mu(w) of _rows, each dotted with eta; a residual sums those rows
(the left one on the transposed representation).
The Hankel rank peels each Hankel row (ncpoly.peel) against the pivot
rows found so far; the rank is the number of pivots.
"""

from fractions import Fraction
from operator import mul

from ncgen.ncpoly import (
    NCPoly, _over_lcm, coproduct_shuffle, peel, words_up_to,
)
from ncgen.words import X

_ZERO = Fraction(0)


class LinearRepresentation:
    """(lambda, mu, eta) with exact rational entries.

    mu maps each letter to an n x n matrix; coefficient(w) multiplies
    the matrices in reading order between the row vector lambda and the
    column vector eta.
    """

    __slots__ = ("alphabet", "n", "lam", "mu", "eta", "_lam_int", "_cols",
                 "_eta_int")

    def __init__(self, alphabet, lam, mu, eta):
        self.alphabet = alphabet
        self.n = len(eta)
        self.lam = tuple(Fraction(c) for c in lam)
        self.eta = tuple(Fraction(c) for c in eta)
        # the integer form every sweep reads: lambda, the columns of each
        # mu(letter) and eta, each as integers over its lcm
        self._lam_int, self._eta_int = _over_lcm(self.lam), _over_lcm(self.eta)
        self.mu, self._cols = {}, {}
        for letter, mat in mu.items():
            mat = self.mu[letter] = tuple(tuple(Fraction(c) for c in row)
                                          for row in mat)
            if len(mat) != self.n or any(len(row) != self.n for row in mat):
                raise ValueError("matrix for letter %r is not %d x %d"
                                 % (letter, self.n, self.n))
            D, flat = _over_lcm(sum(mat, ()))
            self._cols[letter] = D, [flat[j::self.n] for j in range(self.n)]
        if len(self.lam) != self.n:
            raise ValueError("lambda has wrong length")

    def _rows(self, words):
        """Map w -> (D, row), lambda mu(w) = row / D with an integer row,
        on prefix-closed words listed prefixes first; one product per
        word: row(w) = row(w[:-1]) mu(last letter)."""
        rows = {(): self._lam_int}
        for w in words:
            if w not in rows:
                (D, row), (M, mat) = rows[w[:-1]], self._cols[w[-1]]
                rows[w] = D * M, [sum(map(mul, row, col)) for col in mat]
        return rows

    def _value(self, D, row):
        """<S|w> from the row of w: dotted with eta over the lcms."""
        E, eta = self._eta_int
        return Fraction(sum(map(mul, row, eta)), D * E)

    def _coefficients(self, words):
        """Map w -> <S|w> on the words of _rows and their prefixes."""
        return {w: self._value(*r) for w, r in self._rows(words).items()}

    def coefficient(self, w):
        """<S|w>, read off the sweep over the prefixes of w (one Fraction)."""
        w = tuple(w)
        rows = self._rows([w[:i] for i in range(1, len(w) + 1)])
        return self._value(*rows[w])

    def truncated_series(self, depth):
        return NCPoly._new(self.alphabet, self._coefficients(
            words_up_to(self.alphabet, depth)), None)

    def residual(self, p, side):
        """Representation of the residual of the series by a polynomial.

        side="right": series w -> <S|p w>; lambda becomes the sum of
        c_u lambda mu(u) over the terms c_u u of p.
        side="left":  series w -> <S|w p>; eta becomes the lambda of the
        right residual of the transposed representation (eta, mu(a)^T,
        lambda) by p with its words reversed.
        """
        if side == "left":
            t = LinearRepresentation(
                self.alphabet, self.eta,
                {a: zip(*mat) for a, mat in self.mu.items()}, self.lam)
            back = NCPoly(p.alphabet, {u[::-1]: c for u, c in p.terms.items()})
            return LinearRepresentation(self.alphabet, self.lam, self.mu,
                                        t.residual(back, "right").lam)
        if side != "right":
            raise ValueError("side must be 'left' or 'right'")
        rows = self._rows([u[:i] for u in p.terms
                           for i in range(1, len(u) + 1)])
        lam = [_ZERO] * self.n
        for u, c in p.terms.items():
            D, row = rows[u]
            lam = [x + c * y / D for x, y in zip(lam, row)]
        return LinearRepresentation(self.alphabet, lam, self.mu, self.eta)

    def __repr__(self):
        return "LinearRepresentation(%s, n=%d)" % (self.alphabet, self.n)


# ---------------------------------------------------------------------------
# stock representations

def rep_all_ones():
    """<S|w> = 1 for every X-word: the character series of the free monoid."""
    return LinearRepresentation(X, [1], {0: [[1]], 1: [[1]]}, [1])


def rep_single_word(w):
    """<S|v> = 1 if v == w else 0 over X, on a chain of |w|+1 states."""
    n = len(w) + 1
    mu = {}
    for a in (0, 1):
        mat = [[_ZERO] * n for _ in range(n)]
        for i, b in enumerate(w):
            if b == a:
                mat[i][i + 1] = Fraction(1)
        mu[a] = mat
    lam = [Fraction(1)] + [_ZERO] * (n - 1)
    eta = [_ZERO] * (n - 1) + [Fraction(1)]
    return LinearRepresentation(X, lam, mu, eta)


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

    coefficient: word -> Fraction (or a LinearRepresentation, whose
    coefficients are then swept prefix by prefix).  Exact over Q: each
    row (<S|uv>)_v is peeled (ncpoly.peel) against the pivot rows kept
    so far, each scaled to lead with 1; a row with something left adds a
    pivot, and the rank is the number of pivots.
    """
    rep = isinstance(coefficient, LinearRepresentation)
    ws = words_up_to(coefficient.alphabet if rep else alphabet, depth)
    uvs = [u + v for u in ws for v in ws]
    values = (coefficient._coefficients(uvs) if rep
              else {w: Fraction(coefficient(w)) for w in uvs})
    pivots = {}
    for u in ws:
        row = {j: values[u + v] for j, v in enumerate(ws)}
        _, rest = peel(row, pivots.get)
        if rest:
            lead = min(rest)
            inv = 1 / rest[lead]
            pivots[lead] = {j: c * inv for j, c in rest.items()}
    return len(pivots)


# ---------------------------------------------------------------------------
# coefficient-level shuffle of two series

def shuffle_coefficient(coeff_a, coeff_b, w):
    """<A shuffle B | w> = sum of <Delta_sh(w)|u(x)v> <A|u><B|v>."""
    total = _ZERO
    for (u, v), m in coproduct_shuffle(NCPoly.word(w)).items():
        total += m * Fraction(coeff_a(u)) * Fraction(coeff_b(v))
    return total
