"""Guaranteed two-sided bounds from a companion pair.

On [0, 1/2] the integrand 6/sqrt(1-x^2) is increasing, so the left
rectangle rule always undershoots its integral (pi) and the right
rectangle rule always overshoots: every panel count n gives a bracket
L_n <= pi <= R_n, and the bracket width shrinks like 1/n.  The package
verifies the sign condition numerically before trusting the bracket.
"""

from quadrules import (bracket, builtin_integrand, check_assumption_A,
                       companion_pair, composite_values, derive_weights,
                       associate_value, pi_at)

f = builtin_integrand("asin6")
print(f"integrand: {f.label()}")

pair = companion_pair("L", "R")
verdict = check_assumption_A(f, pair.derivative_order)
print(f"sign of f' on the interval: {verdict}")
print("f' never goes negative, so the (L, R) brackets are guaranteed.\n")

weights = pair.weights()
reference = pi_at(85)
print("   n        L_n                   R_n                  width      "
      "associate (trapezoid)")
for k in range(0, 9):
    n = 2 ** k
    vals = composite_values(f, f.interval, ("L", "R"), n)
    enclosure = bracket(vals["L"], vals["R"])
    assoc = associate_value(vals["L"], vals["R"], weights)
    assert enclosure.contains(reference)
    print(f"{n:>4}  {str(enclosure.lo):<20}  {str(enclosure.hi):<20} "
          f"{float(enclosure.width):9.2e}  {assoc}")

print("\nEvery line contains pi, and the associate rule (the equal-weight")
print("mean of L and R, i.e. the trapezoid rule) sits inside every bracket.")
print("Refining n never loses the enclosure: the bounds form a nest.")
