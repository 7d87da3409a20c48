"""Measuring each rule's polynomial degree, exactly.

A rule has degree m when it integrates every polynomial of degree <= m
exactly but misses some monomial of degree m+1.  Over [0, 1] all seven
rules use rational nodes and weights, so the probe can decide exactness
in exact rational arithmetic: no tolerance, no rounding.

Two entries surprise people.  R is often listed with degree 1, but it is
not even exact on f(x) = x (it gives 1 instead of 1/2).  And Q, built as
the weighted mean (2*T2 + 3*S)/5 of two degree-3 rules, is commonly
listed with degree 3, yet its leading error terms cancel: the probe shows
it integrates x^4 and x^5 exactly and first fails on x^6.
"""

from fractions import Fraction

from quadrules import QUOTED_DEGREES, RULE_ORDER, degree_probe
from quadrules.rules import _monomial_rule_value

print(f"{'rule':>5}  {'probe':>5}  {'quoted':>6}  note")
for name in RULE_ORDER:
    degree = degree_probe(name)
    quoted = QUOTED_DEGREES[name]
    note = "" if degree == quoted else "<- disagrees with the quote"
    print(f"{name:>5}  {degree:>5}  {quoted:>6}  {note}")

print("\nwhy R fails on x:  R(x over [0,1]) =",
      _monomial_rule_value("R", 1), "but the integral is 1/2")

print("\nQ on the first monomials (value vs integral 1/(k+1)):")
for k in range(7):
    value = _monomial_rule_value("Q", k)
    exact = Fraction(1, k + 1)
    mark = "exact" if value == exact else f"off by {value - exact}"
    print(f"  x^{k}: Q = {value!s:>9}  integral = {exact!s:>5}  ({mark})")
