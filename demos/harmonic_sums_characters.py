# -*- coding: utf-8 -*-
"""Harmonic sums, polylogarithms, and the two regularized characters.

This script
1. evaluates exact harmonic sums and shows quasi-shuffle multiplicativity,
2. compares partial sums at N = 100000 with the corresponding limits,
3. evaluates a polylogarithm by series with a tail bound,
4. prints regularized values for divergent words under both products and
   checks the bridge between the two ordered generating series; these
   zeta values are not partial sums but coefficients of
   Z_sh = sigma(L(1/2))^{-1} L(1/2), exact up to float rounding.
"""
import math

from ncgen.ncpoly import stuffle_words
from ncgen.polylog import harmonic, harmonic_float, polylog_eval
from ncgen.renorm import bridge_check, zeta_shuffle_reg, zeta_stuffle_reg
from ncgen.words import str_to_word


def main():
    u, v = (2,), (1,)
    print("H_{y2}(6)  =", harmonic(u, 6))
    print("H_{y1}(6)  =", harmonic(v, 6))
    prod = sum(c * harmonic(w, 6) for w, c in stuffle_words(u, v).items())
    print("product via quasi-shuffle expansion:", prod,
          "== direct product:", harmonic(u, 6) * harmonic(v, 6))

    print("\nPartial sums at N = 100000:")
    print("  H_{y2}(N)    = %.8f   (pi^2/6 = %.8f)"
          % (harmonic_float((2,), 100000), math.pi ** 2 / 6))
    print("  H_{y2 y1}(N) = %.8f   H_{y3}(N) = %.8f  (equal in the limit)"
          % (harmonic_float((2, 1), 100000), harmonic_float((3,), 100000)))

    w, _ = str_to_word("x0 x1")
    val, tail = polylog_eval(w, 0.5)
    print("\nLi_{x0 x1}(1/2) = %.15f  (tail bound %.1e)" % (val, tail))

    print("\nRegularized characters on divergent words:")
    print("  shuffle side,  x1 x0 x1:", zeta_shuffle_reg((1, 0, 1)))
    print("  quasi-shuffle, y1 y2  :", zeta_stuffle_reg((1, 2)))

    report = bridge_check(depth=4)
    print("\nbridge between the two ordered series, weight <= 4:")
    print("  max |difference| = %.2e  (tol %.0e, pass=%s)"
          % (report["max_abs_err"], report["tol"], report["pass"]))


if __name__ == "__main__":
    main()
