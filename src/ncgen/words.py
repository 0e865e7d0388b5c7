"""Words over the alphabets X = {x0, x1} and Y = {y1, y2, ...} (+ y0).

A word is a plain tuple of ints.  For X the letters are 0 and 1 (meaning
x0, x1) ordered naturally, x0 < x1.  For Y the letter k means y_k and the
order is *reversed*: y_i < y_j iff i > j (so y1 is the largest letter,
and y0 -- allowed in the extended alphabet Y0 -- is larger still).

Lexicographic comparison extends the letter order with the usual
"proper prefix is smaller" rule, which is exactly Python tuple
comparison after mapping the word through word_key.

A word l is Lyndon when it is nonempty and strictly smaller than every
one of its proper suffixes.  Every word factors uniquely as a
non-increasing concatenation of Lyndon words (Chen-Fox-Lyndon), and a
Lyndon word of length >= 2 splits as l = s.r with r its longest proper
Lyndon suffix (the standard factorization, r the last CFL factor of l[1:]).

lyndon_words walks the prenecklaces depth first in the alphabet order
(Ruskey, Savage and Wang 1992): a with period p extends by any letter
b >= a[-p], the period staying p when b = a[-p] and becoming len(a) + 1
otherwise; a is Lyndon when its period is its length.  Length and weight
never fall along the walk, so every bound given prunes it (an X word's
weight is its length), and the words come out in increasing order.

Serialization: words print as space-separated letter names, "x0 x1 x1"
or "y2 y1".
"""

from itertools import groupby
from math import inf

X, Y, Y0 = "X", "Y", "Y0"


def word_key(w, alphabet=X):
    """Tuple usable with < to compare words in the alphabet's lexicographic
    order: X letters as they are, Y/Y0 letters negated (y_i < y_j iff i > j)."""
    return tuple(w) if alphabet == X else tuple(-a for a in w)


def _grading(alphabet):
    """The degree of a word: len over X, the weight (letter sum) over Y/Y0."""
    return len if alphabet == X else sum


def weight(w, alphabet=X):
    """X-words: the length.  Y/Y0-words: the sum of the letter indices."""
    return _grading(alphabet)(w)


def is_lyndon(w, alphabet=X):
    """True iff w is nonempty and strictly smaller than all its proper suffixes."""
    if not w:
        return False
    key = word_key(w, alphabet)
    return all(key < key[i:] for i in range(1, len(w)))


def cfl_factors(w, alphabet=X):
    """Chen-Fox-Lyndon factorization of w as a flat non-increasing list of Lyndon words.

    Duval's linear-time algorithm, run on the word's order key.
    """
    k = word_key(w, alphabet)
    out = []
    n = len(w)
    start = 0
    while start < n:
        i, j = start, start + 1
        while j < n and k[i] <= k[j]:
            i = start if k[i] < k[j] else i + 1
            j += 1
        period = j - i
        while start <= i:
            out.append(w[start:start + period])
            start += period
    return out


def lyndon_decompose(w, alphabet=X):
    """CFL factorization grouped as [(l1, i1), ..., (lk, ik)], l1 > ... > lk."""
    return [(l, len(list(g))) for l, g in groupby(cfl_factors(w, alphabet))]


def standard_factorization(l, alphabet=X):
    """Split a Lyndon word l (|l| >= 2) as (s, r), r the longest proper Lyndon
    suffix: the last CFL factor of l[1:], its smallest suffix."""
    if len(l) < 2 or not is_lyndon(l, alphabet):
        raise ValueError("standard_factorization needs a Lyndon word of length >= 2")
    r = cfl_factors(l[1:], alphabet)[-1]
    return l[:-len(r)], r


def _compositions(total):
    # all tuples of positive ints summing to total
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def lyndon_words(alphabet, max_length=None, max_weight=None):
    """All Lyndon words within the bounds, sorted increasingly in the alphabet order.

    Every bound given applies; an X word's weight is its length.  X needs
    max_length; Y needs max_weight (it is infinite, so a pure length bound
    is rejected); Y0 needs both, because y0 has weight 0 and e.g. every
    y2 y0^k is Lyndon.
    """
    if alphabet == X:
        if max_length is None:
            raise ValueError("X enumeration needs max_length")
        letters = range(2)
    elif alphabet == Y:
        if max_weight is None:
            raise ValueError("Y is infinite: enumerate by max_weight, not max_length")
        letters = range(max_weight, 0, -1)
    elif alphabet == Y0:
        if max_weight is None or max_length is None:
            raise ValueError("Y0 needs both max_weight and max_length "
                             "(y0 has weight 0, so weight alone is not finite)")
        letters = range(max_weight, -1, -1)
    else:
        raise ValueError("unknown alphabet %r" % (alphabet,))
    max_length = inf if max_length is None else max_length
    max_weight = inf if max_weight is None else max_weight
    grade = _grading(alphabet)
    out = []
    # (prenecklace, period, weight), the smallest popped first
    stack = [((), 0, 0)]
    while stack:
        w, p, wt = stack.pop()
        if w and p == len(w):
            out.append(w)
        if len(w) < max_length:
            for b in reversed(letters[letters.index(w[-p]) if w else 0:]):
                v = wt + grade((b,))
                if v <= max_weight:
                    stack.append((w + (b,), p if w and b == w[-p] else len(w) + 1, v))
    return out


def lyndon_count_binary(n):
    """Number of binary Lyndon words of length n: (1/n) sum_{d|n} mu(d) 2^(n/d)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(d) * 2 ** (n // d)
    assert total % n == 0
    return total // n


def _moebius(n):
    if n == 1:
        return 1
    result, p, m = 1, 2, n
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# coding maps between the two alphabets: y_k <-> x0^(k-1) x1

def pi_x_word(u):
    """Y-word -> X-word: each y_k becomes x0^(k-1) x1."""
    out = []
    for k in u:
        if k < 1:
            raise ValueError("pi_X acts on Y-words (letters y_k, k >= 1)")
        out.extend([0] * (k - 1))
        out.append(1)
    return tuple(out)


def pi_y_word(w):
    """X-word -> Y-word when w ends in x1 (or is empty); None for words ending in x0.

    None is the word-level stand-in for the zero polynomial: the projection
    annihilates words outside X* x1 + empty.
    """
    if not w:
        return ()
    if w[-1] != 1:
        return None
    out = []
    zeros = 0
    for a in w:
        if a == 0:
            zeros += 1
        else:
            out.append(zeros + 1)
            zeros = 0
    return tuple(out)


# ---------------------------------------------------------------------------
# serialization

def word_to_str(w, alphabet=X):
    """Space-separated letter names: "x0 x1 x1" or "y2 y1".  Empty word: "e"."""
    if not w:
        return "e"
    prefix = "x" if alphabet == X else "y"
    return prefix + (" " + prefix).join(map(str, w))


def str_to_word(s):
    """Parse "x0 x1" / "y2 y1" / "e" -> (word tuple, alphabet tag).

    The alphabet is inferred from the letter prefix; "e" (or the empty
    string) parses as the empty X-word.
    """
    s = s.strip()
    if s in ("", "e", "1"):
        return (), X
    toks = s.split()
    prefixes = {t[0] for t in toks}
    if prefixes == {"x"}:
        alphabet = X
    elif prefixes == {"y"}:
        alphabet = Y
    else:
        raise ValueError("cannot parse word %r: mixed or unknown letter prefixes" % s)
    bad = [t for t in toks if not (t[1:].isascii() and t[1:].isdigit())]
    if bad:  # int() would also take "0_1", "+1" and non-ASCII digits
        raise ValueError("bad letter %r in %r: its index must be ASCII digits"
                         % (bad[0], s))
    w = tuple(int(t[1:]) for t in toks)
    if alphabet == X and any(a not in (0, 1) for a in w):
        raise ValueError("X letters are x0 and x1 only: %r" % s)
    if alphabet == Y and any(a == 0 for a in w):
        alphabet = Y0
    return w, alphabet
