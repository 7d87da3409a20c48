"""Composite rules: apply a simple rule on n uniform panels and sum.

The interval [a, b] is split into n panels [a_i, a_i + h], h = (b-a)/n,
a_i = a + i*h, and the simple rule value of every panel is added.  Nodes
are addressed by the half-step index k (node k sits at a + k*h/2: even k
are panel boundaries, odd k are midpoints) and cached by (k, order), so
a boundary shared by two panels is evaluated once and h-rounding cannot
alias two distinct nodes.  Each node position is produced by a single
multiplication a + k*(h/2), never by repeated addition.  The panel values
come from ``quadrules.rules.rule_values``, the one place the rule formulas
are written, with the panel width h; it reads only the nodes its rules
use, so an L-only sum never evaluates f(b) and an R-only one never f(a).

Panel sums use Neumaier-compensated sequential summation at precisions up
to 53 bits and plain sequential summation above, so results are
deterministic and, at the default precision, accurate to about one ulp of
the total regardless of the panel count.
"""

from __future__ import annotations

from mpmath import mpf

from .expr import DomainError
from .precision import workprec
from .rules import needed_rules, node_value, rule_names, rule_values


class _Sum:
    """Sequential accumulator; Neumaier-compensated when asked."""

    __slots__ = ("s", "c", "compensated")

    def __init__(self, compensated):
        self.s = mpf(0)
        self.c = mpf(0)
        self.compensated = compensated

    def add(self, v):
        if not self.compensated:
            self.s = self.s + v
            return
        t = self.s + v
        if abs(self.s) >= abs(v):
            self.c += (self.s - t) + v
        else:
            self.c += (v - t) + self.s
        self.s = t

    def total(self):
        return self.s if not self.compensated else self.s + self.c


def composite_values(f, interval, rules, panels, precision=53):
    """Composite values for several rules in one pass over shared nodes.

    Every distinct node of every requested rule is evaluated exactly once;
    the per-panel S, T2 and Q values reuse the panel M, T and S values.
    Domain errors are re-raised naming the offending node, point and panel
    (numbered from 1, like the panel total).
    """
    names = rule_names(rules)
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    n = panels
    need = needed_rules(names)

    with workprec(precision):
        a, b = interval.bounds()
        h = (b - a) / n
        half = h / 2

        cache = {}

        def node(j, order):  # node j of the panel i being summed
            key = (2 * i + j, order)
            if key not in cache:
                try:
                    cache[key] = node_value(f, a + key[0] * half, order)
                except DomainError as err:
                    raise err.located(i + 1, n) from None
            return cache[key]

        sums = {name: _Sum(precision <= 53) for name in names}
        for i in range(n):
            vals = rule_values(need, h, node)
            for name in names:
                sums[name].add(vals[name])
        return {name: +sums[name].total() for name in names}
