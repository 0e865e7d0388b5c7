# -*- coding: utf-8 -*-
"""Asymptotic constants attached to harmonic sums.

This script
1. reads Euler's constant and its weight-2 analogue off the asymptotic
   expansions of H_{y1}(N) and H_{y1 y1}(N) (Euler-Maclaurin on the
   stuffle recursion, each constant matched to an exact H_w(50)),
2. runs the Abel-type comparison between the N-side limit and the
   z-side renormalized series at small 1 - z,
3. validates a leading constant C^-_w against exact values of H^-_w(N).
"""
from ncgen.asymptotics import limit_validation
from ncgen.renorm import abel_limits_check, euler_maclaurin_constants


def main():
    r = euler_maclaurin_constants(depth=4)
    print("Constants of the asymptotic expansions as N -> infinity:")
    print("  gamma          = %.12f" % r["gamma"])
    print("  gamma_{y1 y1}  = %.12f  (series, zeta(2) off Z_sh)"
          % r["gamma_y1y1"])
    print("  gamma_{y1 y1}  = %.12f  (constant of H_{y1 y1}(N))"
          % r["gamma_y1y1_numeric"])

    print("\nAbel-type limits, weight <= 3 (z side at 1 - 2^-53):")
    report = abel_limits_check(max_weight=3)
    for word, row in sorted(report["per_word"].items()):
        print("  %-10s n-side %.8f   z-side limit %.8f   gap %.1e"
              % (str(word), row["n_side"], row["fitted"], row["fitted_gap"]))
    print("  overall max gap %.2e  pass=%s"
          % (report["max_fitted_gap"], report["pass"]))

    print("\nLeading growth of a negative-index harmonic sum:")
    row = limit_validation((2, 1), 10000)
    print("  word y2 y1: H^-(N)/N^d -> C^- with relative error %.2e at"
          " N = 10^4" % row["abs_err"])


if __name__ == "__main__":
    main()
