"""Chasing pi digits with composite Simpson at extended precision.

The integral of 2/(1+x^2) over [-1, 1] is pi.  At 256-bit working
precision the composite Simpson rule gains about four digits per panel
doubling until the panels are fine enough, and with 1024 panels it
already reproduces twenty digits of pi.
"""

from quadrules import (Reference, builtin_integrand, composite_values,
                       digits_correct, format_real, pi_at, signed_error)

PREC = 256

f = builtin_integrand("atan2")
reference = Reference.for_integrand(f)
print(f"integrand: {f.label()}  at {PREC}-bit precision\n")

print(f"{'panels':>7}  {'|error|':>10}  digits correct")
for k in range(0, 11):
    n = 2 ** k
    value = composite_values(f, f.interval, ("S",), n, PREC)["S"]
    err = signed_error(value, reference, PREC)
    digits = digits_correct(value, reference, precision=PREC)
    print(f"{n:>7}  {abs(float(err)):>10.2e}  {digits}")

value = composite_values(f, f.interval, ("S",), 1024, PREC)["S"]
print("\nwith 1024 panels:")
print(f"  S    = {format_real(value, PREC)}")
print(f"  pi   = {format_real(pi_at(PREC), PREC)}")
print(f"  {digits_correct(value, reference, precision=PREC)} leading digits "
      f"of the printed value are correct")
