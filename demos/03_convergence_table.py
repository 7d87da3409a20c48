"""A six-rule convergence table with order strings and sign checks.

For each panel count the table reports the signed error of every rule
(reference minus rule value), the "order string" of the rule names sorted
by ascending value, and the verdicts of the derivative-sign checks for
the three companion pairs.  On 6/sqrt(1-x^2) the order string is stable:
L < M < T2 < pi < S < T < R at every n, so the string LMT2STR pins where
the true value sits.
"""

from quadrules import (builtin_integrand, convergence_table, observed_order,
                       table_to_csv)

RULES = ("L", "R", "M", "T", "S", "T2")

f = builtin_integrand("asin6")
print(f"integrand: {f.label()}\n")

rows = convergence_table(f, rules=RULES, n_list=[2 ** k for k in range(9)])

print("assumption checks (same for every row):")
for pair, tag in sorted(rows[0].assumptions.items()):
    print(f"  ({pair}) -> {tag}")
print()

header = f"{'n':>4}  {'order':<8}" + "".join(f"{'err ' + r:>12}" for r in RULES)
print(header)
for row in rows:
    line = f"{row.panels:>4}  {row.order:<8}"
    for r in RULES:
        line += f"{float(row.errors[r]):>12.2e}"
    print(line)

print("\nobserved orders between the last two rows:")
last, prev = rows[-1], rows[-2]
for r in RULES:
    order = observed_order(prev.errors[r], last.errors[r])
    print(f"  {r:>2}: {float(order):.3f}")

print("\nThe same table as CSV (each error reads back exactly at 53 bits):\n")
print(table_to_csv(rows[:3], RULES))
