# -*- coding: utf-8 -*-
"""Negative-index polylogarithms, harmonic sums, and Faulhaber formulas.

This script
1. prints the rational generating functions Li^-_w as polynomials in
   t = 1/(1-z),
2. prints closed-form polynomials for the negative-index harmonic sums
   H^-_w(N) and checks one value by brute force,
3. rebuilds H^- through Bernoulli/Faulhaber polynomials,
4. tabulates the leading asymptotic constants C^-_w and B^-_w.
"""
from fractions import Fraction

from ncgen.asymptotics import b_minus, c_minus, growth_degree
from ncgen.negpolylog import (
    faulhaber_B_poly,
    h_neg,
    h_neg_from_faulhaber,
    li_neg,
)
from ncgen.polylog import nested_sum
from ncgen.words import word_to_str


def main():
    print("Li^-_w as polynomials in t = 1/(1-z):")
    for w in [(1,), (2,), (1, 1), (2, 1)]:
        print("  %-8s %s" % (word_to_str(w, "Y"), li_neg(w).coefs))

    print("\nH^-_w(N) closed forms:")
    for w in [(1,), (2,), (2, 1)]:
        print("  %-8s coefs %s" % (word_to_str(w, "Y"), h_neg(w).coefs))
    print("  brute force H^-_{y2 y1}(10) =", nested_sum((2, 1), 10),
          "== polynomial:", h_neg((2, 1)).eval(Fraction(10)))

    print("\nFaulhaber route (Bernoulli polynomials):")
    print("  B_{y2}(z) coefs:", faulhaber_B_poly((2,)).coefs)
    print("  H^- via Faulhaber == recursion:",
          h_neg_from_faulhaber((2, 1)) == h_neg((2, 1)))

    print("\nLeading asymptotics  H^-_w(N) ~ C^-_w N^d:")
    for w in [(1,), (2,), (1, 2), (2, 1), (2, 2, 4, 3, 11)]:
        print("  %-18s d = %-3d C^- = %-12s B^- = %s"
              % (word_to_str(w, "Y"), growth_degree(w),
                 c_minus(w), b_minus(w)))


if __name__ == "__main__":
    main()
