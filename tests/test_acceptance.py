"""End-to-end acceptance gates.

Each test is one self-contained pass/fail gate with its own tolerance and
wall-clock budget.  ``pytest -v tests/test_acceptance.py`` prints exactly
one line per gate.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ncgen.hopf import dual_s, dual_sigma, pbw_p, pbw_pi, pi1_word
from ncgen.ncpoly import (
    NCPoly,
    conc,
    coproduct_stuffle,
    is_grouplike,
    stuffle_words,
    words_up_to,
)
from ncgen.words import X, Y, lyndon_words

F = Fraction
PI2_6 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595943
GAMMA = 0.5772156649015329


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, "took %.2fs, budget %gs" % (elapsed, seconds)


def bits(s):
    return tuple(int(c) for c in s)


def Xp(terms):
    return NCPoly(X, {bits(w): F(c) for w, c in terms.items()})


def Yp(terms):
    return NCPoly(Y, {w: F(c) for w, c in terms.items()})


def bracket_poly(tree):
    if isinstance(tree, int):
        return NCPoly.word((tree,), X)
    left, right = tree
    a, b = bracket_poly(left), bracket_poly(right)
    return conc(a, b) - conc(b, a)


# --- gate 1: bracket/dual-word table for the two-letter alphabet ----------

PS_TABLE = [
    ("0", 0, {"0": 1}),
    ("1", 1, {"1": 1}),
    ("01", (0, 1), {"01": 1}),
    ("001", (0, (0, 1)), {"001": 1}),
    ("011", ((0, 1), 1), {"011": 1}),
    ("0001", (0, (0, (0, 1))), {"0001": 1}),
    ("0011", (0, ((0, 1), 1)), {"0011": 1}),
    ("0111", (((0, 1), 1), 1), {"0111": 1}),
    ("00001", (0, (0, (0, (0, 1)))), {"00001": 1}),
    ("00011", (0, (0, ((0, 1), 1))), {"00011": 1}),
    ("00101", ((0, (0, 1)), (0, 1)), {"00011": 2, "00101": 1}),
    ("00111", (0, (((0, 1), 1), 1)), {"00111": 1}),
    ("01011", ((0, 1), ((0, 1), 1)), {"00111": 3, "01011": 1}),
    ("01111", ((((0, 1), 1), 1), 1), {"01111": 1}),
    ("000001", (0, (0, (0, (0, (0, 1))))), {"000001": 1}),
    ("000011", (0, (0, (0, ((0, 1), 1)))), {"000011": 1}),
    ("000101", (0, ((0, (0, 1)), (0, 1))), {"000011": 2, "000101": 1}),
    ("000111", (0, (0, (((0, 1), 1), 1))), {"000111": 1}),
    ("001011", (0, ((0, 1), ((0, 1), 1))), {"000111": 3, "001011": 1}),
    ("001101", ((0, ((0, 1), 1)), (0, 1)),
     {"000111": 6, "001011": 3, "001101": 1}),
    ("001111", (0, ((((0, 1), 1), 1), 1)), {"001111": 1}),
    ("010111", ((0, 1), (((0, 1), 1), 1)), {"001111": 4, "010111": 1}),
    ("011111", (((((0, 1), 1), 1), 1), 1), {"011111": 1}),
]


def test_gate_01_bracket_and_dual_word_table():
    with budget(1.0):
        assert len(PS_TABLE) == 23
        assert {bits(r[0]) for r in PS_TABLE} == set(lyndon_words(X, 6))
        for word, tree, s_terms in PS_TABLE:
            w = bits(word)
            assert pbw_p(w) == bracket_poly(tree), word
            assert dual_s(w) == Xp(s_terms), word


# --- gate 2: quasi-shuffle primitive and dual tables, weight <= 4 ---------

PI_TABLE = {
    (1,): {(1,): 1},
    (2,): {(2,): 1, (1, 1): F(-1, 2)},
    (1, 1): {(1, 1): 1},
    (3,): {(3,): 1, (1, 2): F(-1, 2), (2, 1): F(-1, 2), (1, 1, 1): F(1, 3)},
    (2, 1): {(2, 1): 1, (1, 2): -1},
    (1, 2): {(1, 2): 1, (1, 1, 1): F(-1, 2)},
    (1, 1, 1): {(1, 1, 1): 1},
    (4,): {(4,): 1, (1, 3): F(-1, 2), (3, 1): F(-1, 2), (2, 2): F(-1, 2),
           (1, 1, 2): F(1, 3), (1, 2, 1): F(1, 3), (2, 1, 1): F(1, 3),
           (1, 1, 1, 1): F(-1, 4)},
    (3, 1): {(3, 1): 1, (2, 1, 1): F(-1, 2), (1, 3): -1, (1, 1, 2): F(1, 2)},
    (2, 2): {(2, 2): 1, (2, 1, 1): F(-1, 2), (1, 1, 2): F(-1, 2),
             (1, 1, 1, 1): F(1, 4)},
    (2, 1, 1): {(2, 1, 1): 1, (1, 2, 1): -2, (1, 1, 2): 1},
    (1, 3): {(1, 3): 1, (1, 1, 2): F(-1, 2), (1, 2, 1): F(-1, 2),
             (1, 1, 1, 1): F(1, 3)},
    (1, 2, 1): {(1, 2, 1): 1, (1, 1, 2): -1},
    (1, 1, 2): {(1, 1, 2): 1, (1, 1, 1, 1): F(-1, 2)},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1},
}

SIGMA_TABLE = {
    (1,): {(1,): 1},
    (2,): {(2,): 1},
    (1, 1): {(2,): F(1, 2), (1, 1): 1},
    (3,): {(3,): 1},
    (2, 1): {(3,): F(1, 2), (2, 1): 1},
    (1, 2): {(3,): 1, (2, 1): 1, (1, 2): 1},
    (1, 1, 1): {(3,): F(1, 6), (2, 1): F(1, 2), (1, 2): F(1, 2),
                (1, 1, 1): 1},
    (4,): {(4,): 1},
    (3, 1): {(4,): F(1, 2), (3, 1): 1},
    (2, 2): {(4,): F(1, 2), (2, 2): 1},
    (2, 1, 1): {(4,): F(1, 6), (3, 1): F(1, 2), (2, 2): F(1, 2),
                (2, 1, 1): 1},
    (1, 3): {(4,): 1, (3, 1): 1, (1, 3): 1},
    (1, 2, 1): {(4,): F(1, 2), (3, 1): F(3, 2), (2, 2): 1, (2, 1, 1): 2,
                (1, 3): F(1, 2), (1, 2, 1): 1},
    (1, 1, 2): {(4,): F(1, 2), (3, 1): 1, (2, 2): 1, (2, 1, 1): 1,
                (1, 3): 1, (1, 2, 1): 1, (1, 1, 2): 1},
    (1, 1, 1, 1): {(4,): F(1, 24), (3, 1): F(1, 6), (2, 2): F(1, 4),
                   (2, 1, 1): F(1, 2), (1, 3): F(1, 6), (1, 2, 1): F(1, 2),
                   (1, 1, 2): F(1, 2), (1, 1, 1, 1): 1},
}


def test_gate_02_quasi_shuffle_pi_sigma_tables():
    with budget(1.0):
        ws = [w for w in words_up_to(Y, 4) if w]
        assert set(PI_TABLE) == set(ws) == set(SIGMA_TABLE)
        for w in ws:
            assert pbw_pi(w) == Yp(PI_TABLE[w]), w
            assert dual_sigma(w) == Yp(SIGMA_TABLE[w]), w


# --- gate 3: basis duality on both alphabets -------------------------------

def _pairing(a, b):
    return sum((c * a.coeff(w) for w, c in b.terms.items()), F(0))


def test_gate_03_basis_duality():
    with budget(30.0):
        ws = [w for w in words_up_to(X, 6) if w]
        duals = {u: dual_s(u) for u in ws}
        for v in ws:
            pv = pbw_p(v)
            for u in ws:
                assert _pairing(duals[u], pv) == (1 if u == v else 0), (u, v)
        ys = [w for w in words_up_to(Y, 6) if w]
        duals = {u: dual_sigma(u) for u in ys}
        for v in ys:
            pv = pbw_pi(v)
            for u in ys:
                assert _pairing(duals[u], pv) == (1 if u == v else 0), (u, v)


# --- gate 4: negative-index polylogarithms and harmonic sums ---------------

def test_gate_04_negative_index_closed_forms():
    from ncgen.negpolylog import QPoly, h_neg, li_neg
    from ncgen.polylog import nested_sum
    with budget(10.0):
        t_lists = {
            (1,): [0, -1, 1],
            (2,): [0, 1, -3, 2],
            (3,): [0, -1, 7, -12, 6],
            (1, 1): [0, -1, 5, -7, 3],
            (2, 1): [0, 1, -11, 31, -33, 12],
            (1, 2): [0, 1, -9, 23, -23, 8],
        }
        for w, coefs in t_lists.items():
            assert li_neg(w) == QPoly(coefs), w

        def npoly(*factors):
            out = QPoly([1])
            for f in factors:
                out = out * QPoly(f)
            return out

        h_polys = {
            (1,): npoly([0, 1], [1, 1]) * F(1, 2),
            (2,): npoly([0, 1], [1, 2], [1, 1]) * F(1, 6),
            (3,): npoly([0, 1], [1, 1], [0, 1], [1, 1]) * F(1, 4),
            (2, 1): npoly([0, 1], [-1, 0, 1], [2, 15, 12]) * F(1, 120),
            (2, 2): npoly([0, 1], [-1, 1], [1, 2], [-1, 2], [6, 5],
                          [1, 1]) * F(1, 360),
            (2, 3): npoly([0, 1], [-1, 1], [1, 1],
                          [2, -35, -33, 35, 30]) * F(1, 840),
            (3, 3): npoly([0, 1], [-1, 1], [1, 1],
                          [8, 0, -48, -21, 36, 21]) * F(1, 672),
        }
        assert len(h_polys) == 7
        for w, poly in h_polys.items():
            assert h_neg(w) == poly, w
            for n in range(31):
                assert poly.eval(F(n)) == nested_sum(w, n), (w, n)


# --- gate 5: leading asymptotic constants ----------------------------------

def test_gate_05_growth_constants_and_cones():
    from ncgen.asymptotics import b_minus, c_minus, cone_linear_check
    with budget(1.0):
        table = {
            (1,): (F(1, 2), 1),
            (2,): (F(1, 3), 2),
            (3,): (F(1, 4), 6),
            (1, 1): (F(1, 8), 3),
            (1, 2): (F(1, 15), 8),
            (2, 1): (F(1, 10), 12),
            (2, 2, 4, 3, 11): (F(1, 2612736), 4167611825465088000000),
        }
        for w, (c, b) in table.items():
            assert c_minus(w) == c, w
            assert b_minus(w) == b, w
        # shuffle cone: the three interleavings of y1 with y2 y5
        assert c_minus((1, 2, 5)) == F(1, 594)
        assert c_minus((2, 1, 5)) == F(1, 528)
        assert c_minus((2, 5, 1)) == F(1, 176)
        assert (F(1, 594) + F(1, 528) + F(1, 176)
                == c_minus((1,)) * c_minus((2, 5)) == F(1, 108))
        assert cone_linear_check((1,), (2, 5), "shuffle")
        # quasi-shuffle: the contraction term leaves the top stratum
        assert cone_linear_check((0,), (0,), "stuffle")
        rng = random.Random(5)
        for _ in range(25):
            u = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
            assert cone_linear_check(u, v, "shuffle"), (u, v)
            assert cone_linear_check(u, v, "stuffle"), (u, v)


# --- gate 6: quasi-shuffle multiplicativity of harmonic sums ---------------

def test_gate_06_stuffle_morphisms():
    from ncgen.negpolylog import stuffle_morphism_check_neg
    from ncgen.polylog import harmonic
    with budget(30.0):
        rng = random.Random(11)
        for _ in range(50):
            u = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            v = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
            lhs = harmonic(u, 50) * harmonic(v, 50)
            rhs = sum(c * harmonic(w, 50)
                      for w, c in stuffle_words(u, v).items())
            assert lhs == rhs, (u, v)
        for _ in range(50):
            u = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
            assert stuffle_morphism_check_neg(u, v), (u, v)


# --- gate 7: partial sums approach their limits -----------------------------

def test_gate_07_partial_sum_limits():
    from ncgen.polylog import harmonic_float
    with budget(5.0):
        assert abs(harmonic_float((2,), 100000) - PI2_6) <= 2e-4
        gap = abs(harmonic_float((2, 1), 100000)
                  - harmonic_float((3,), 100000))
        assert gap <= 5e-4


# --- gate 8: regularized characters agree through the bridge ----------------

def test_gate_08_bridge():
    from ncgen.renorm import bridge_check
    with budget(10.0):
        report = bridge_check(depth=4)
        assert report["pass"], report


# --- gate 9: Abel-type limits connect the two sides --------------------------

def test_gate_09_abel_limits():
    from ncgen.renorm import abel_limits_check
    with budget(30.0):
        report = abel_limits_check(max_weight=3)
        assert report["max_fitted_gap"] <= 1e-10, report
        assert report["pass"], report


# --- gate 10: Euler-Maclaurin constants --------------------------------------

def test_gate_10_euler_maclaurin_constants():
    from ncgen.renorm import euler_maclaurin_constants
    with budget(10.0):
        r = euler_maclaurin_constants(depth=4)
        assert abs(r["gamma"] - GAMMA) <= 1e-14
        assert abs(r["gamma_y1y1"] - (GAMMA ** 2 - PI2_6) / 2) <= 1e-14
        assert abs(r["gamma_y1y1_numeric"] - r["gamma_y1y1"]) <= 1e-14


# --- gate 11: truncated Chen series drive the ODE examples -------------------

def test_gate_11_chen_series_vs_ode():
    import mpmath
    from ncgen.dynsys import (
        StatePoly,
        chen_ode,
        fliess_output,
        shuffle_morphism_check,
        system_hypergeometric,
    )
    with budget(60.0):
        t0, t1, t2 = F(1, 4), F(1, 4), F(1, 3)
        z0 = 0.2
        f = float(mpmath.hyp2f1(0.25, 0.25, 1 / 3, z0))
        fp = float(t0 * t1 / t2) * float(
            mpmath.hyp2f1(1.25, 1.25, 4 / 3, z0))
        q0 = (F(f), F(-(1.0 - z0) * fp))
        system = system_hypergeometric(t0, t1, t2, q0)
        for z in (0.3, 0.4, 0.5):
            chen = chen_ode(z0, z, 12)
            y = fliess_output(system, chen, 12)
            oracle = float(mpmath.hyp2f1(0.25, 0.25, 1 / 3, z))
            assert abs(y - oracle) <= 1e-6, z
        full = chen_ode(0.2, 0.5, 4)
        composed = chen_ode(0.35, 0.5, 4) * chen_ode(0.2, 0.35, 4)
        assert full.max_abs_diff(composed) <= 1e-8
        q1 = StatePoly.coord(2, 0)
        q2 = StatePoly.coord(2, 1)
        assert shuffle_morphism_check(system, q1, q2, 4)


# --- gate 12: group-like series and primitive projections --------------------

def test_gate_12_grouplike_and_primitives():
    from math import factorial

    from ncgen.hopf import _reduced_stuffle_coproduct
    from ncgen.polylog import harmonic_series
    from ncgen.renorm import rounding_tol, z_shuffle_series, z_stuffle_series
    with budget(30.0):
        assert is_grouplike(harmonic_series(10, 4), "stuffle", 4, tol=0)
        z_sh, z_st = z_shuffle_series(4), z_stuffle_series(4)
        assert is_grouplike(z_sh, "shuffle", 4, tol=rounding_tol(z_sh))
        assert is_grouplike(z_st, "stuffle", 4, tol=rounding_tol(z_st))
        for w in words_up_to(Y, 5):
            if not w:
                continue
            p = pi1_word(w)
            delta = coproduct_stuffle(p)
            expected = {}
            for u, c in p.terms.items():
                expected[(u, ())] = c
                expected[((), u)] = expected.get(((), u), F(0)) + c
            assert delta == {k: c for k, c in expected.items() if c}, w
            # exponential reconstruction of the word from its primitives
            total = NCPoly(Y)
            layer = {(w,): F(1)}
            k = 1
            while layer:
                for parts, c in layer.items():
                    prod = NCPoly.one(Y)
                    for u in parts:
                        prod = conc(prod, pi1_word(u))
                    total = total + prod.scale(c / factorial(k))
                nxt = {}
                for parts, c in layer.items():
                    for (a, b), m in _reduced_stuffle_coproduct(
                            parts[-1]).items():
                        key = parts[:-1] + (a, b)
                        nxt[key] = nxt.get(key, F(0)) + c * m
                layer = nxt
                k += 1
            assert total == NCPoly.word(w, Y), w
